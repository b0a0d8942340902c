# Local CI gate.  `make check` = build + formatting + tests (unit,
# property and golden-figure) + a 2-domain determinism selftest of the
# parallel sweep engine + the differential-oracle replay.

DOMAINS ?= 2

.PHONY: all build test fmt promote selftest oracle engine-parity soak soak-duplex mesh shards recovery flows check

all: build

build:
	dune build

# Includes the golden-figure snapshots under test/golden/: any drift in a
# rendered table or figure fails here with a diff.  After an intentional
# change, `make promote` accepts the new output.
test:
	dune runtest

fmt:
	dune build @fmt

promote:
	dune promote

selftest: build
	dune exec bin/ldlp_repro.exe -- selftest --domains $(DOMAINS)

# Differential oracles + LDLP_CHECK invariant sweep on the real model.
oracle: build
	dune exec bin/ldlp_repro.exe -- check

# Engine parity: the extended equivalence oracles (conventional vs LDLP
# on the receive chain, transmit chain and full-duplex engine per random
# workload) with the runtime invariant gate forced on, so every
# Engine.run also checks the flow-balance, batch-accounting and
# shape-specific conservation invariants.
engine-parity: build
	LDLP_CHECK=1 dune exec bin/ldlp_repro.exe -- check

# Chaos soak: seeded fault-injection scenarios (loss, duplication,
# corruption, reordering, link flaps, overload shedding) over the tcpmini
# echo exchange, under both disciplines; fails on any integrity, leak or
# equivalence violation.
soak: build
	dune exec bin/ldlp_repro.exe -- soak --seed 1996 --scenarios 25

# The same chaos scenarios with each host's receive and transmit sides
# under one full-duplex LDLP engine (rx-generated ACKs join the tx queues
# of the same scheduling pass).  Must match the classic tables exactly.
soak-duplex: build
	dune exec bin/ldlp_repro.exe -- soak --seed 1996 --scenarios 25 --duplex

# Many-host mesh figure: N hosts over a seeded random-regular topology,
# broadcast/relay spread under all three wirings (conv / LDLP / duplex)
# plus a Q.93B call storm; per-discipline arrival-latency CDFs and
# a 64-host mesh JSON, gated on conservation, cross-wiring equivalence
# and the message-pool leak audit.  The JSON goes to the gitignored
# _bench/ by default, so the committed BENCH_mesh.json (the
# 64/256/1024-host sweep that `make bench-mesh` writes) is left alone.
mesh: build
	dune exec bin/ldlp_repro.exe -- mesh --seed 1996 --domains $(DOMAINS)

# Sharded data path: the placement/replay figure, the cross-shard
# differential oracle over random workloads (delivered streams, wire
# multisets, conservation ledgers identical at every shard count), and
# the 4-shard call storm checked for exact equality with the
# single-domain run.
shards: build
	dune exec bin/ldlp_repro.exe -- shards --seed 1996

# Crash/restart recovery: the Q.93B call storm under a seeded host
# lifecycle plan with the deterministic retry/backoff/admission engine,
# audited by the recovery oracle (extended conservation, eventual
# completion, cross-wiring equivalence, determinism, shard merge).
recovery: build
	dune exec bin/ldlp_repro.exe -- recovery --seed 1996

# Flow-table locality: the Jain-style scheme comparison (conv vs LDLP
# batch-sorted lookups at 10k/100k flows), the flowtable differential
# oracle, and the cross-discipline digest + D-miss gates.
flows: build
	dune exec bin/ldlp_repro.exe -- flows --seed 1996

# The bench/main.exe experiments, one per flag: `make bench-<name>` runs
# `bench/main.exe --<name>`.  Each writes its schema-checked BENCH_<name>.json
# (before any gate can fail, so a failing run keeps its numbers) and exits
# nonzero when a gate fails:
#   sweeps      every sweep timed at 1 and N domains (no gate)
#   hotpath     conventional vs LDLP misses, throughput, latency and real
#               allocations per message; LDLP must win on i-misses and the
#               allocation budgets and throughput floors must hold
#   alloc-gate  the hot-path budgets alone plus the shard-pipeline and
#               Q.93B-stack allocation budgets, writes no file (cheap enough
#               for `make check`)
#   soak        goodput / retransmission loss ladder
#   mesh        64/256/1024-host sweep: conservation, equivalence, reloads
#   shards      call storm at 1/2/4 shards: equality with one domain and
#               CPU-limited scaling (wall clock gated on multi-core hosts)
#   recovery    crash-severity ladder: conservation, completion,
#               cross-wiring equivalence, goodput floor
#   flows       10k/100k/1M flows: digest equality and the LDLP D-miss win
# soak, mesh, recovery and flows are deterministic: they rewrite their
# committed files byte for byte.
bench-%: build
	dune exec bench/main.exe -- --$*

check: build fmt test selftest oracle engine-parity bench-alloc-gate soak soak-duplex mesh shards recovery flows
	@echo "check OK"
