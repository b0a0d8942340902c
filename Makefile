# Local CI gate.  `make check` = build + formatting + tests (unit,
# property and golden-figure) + a 2-domain determinism selftest of the
# parallel sweep engine + the differential-oracle replay.

DOMAINS ?= 2

.PHONY: all build test fmt promote selftest oracle engine-parity soak soak-duplex mesh shards recovery flows bench-sweeps bench-hotpath bench-alloc bench-soak bench-mesh bench-shards bench-recovery bench-flows check

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
# and the message-pool leak audit.  The JSON goes under _bench/ so the
# committed BENCH_mesh.json (the 64/256/1024-host sweep that `make
# bench-mesh` writes) is left alone.
mesh: build
	mkdir -p _bench
	dune exec bin/ldlp_repro.exe -- mesh --seed 1996 --domains $(DOMAINS) -o _bench/BENCH_mesh.json

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

# Times every sweep at 1 domain and at N domains; writes BENCH_sweeps.json.
bench-sweeps: build
	dune exec bench/main.exe -- --sweeps

# Conventional vs LDLP hot-path baseline (misses, throughput, latency and
# real allocations per message, metrics-on overhead); writes
# BENCH_hotpath.json and fails if LDLP stops winning on i-misses.
bench-hotpath: build
	dune exec bench/main.exe -- --hotpath

# Allocation gate only: one metrics-on run per discipline, checked
# against the per-message allocation budgets and the throughput floors.
# Cheap enough to ride in `make check` without the full soak matrix.
bench-alloc: build
	dune exec bench/main.exe -- --alloc-gate

# Goodput / retransmission loss ladder; writes BENCH_soak.json.
bench-soak: build
	dune exec bench/main.exe -- --soak

# Mesh host-count sweep (64/256/1024 hosts, pristine + chaos + storms);
# writes BENCH_mesh.json and fails on any conservation, equivalence or
# reload-gate violation.
bench-mesh: build
	dune exec bench/main.exe -- --mesh

# Sharded call storm at 1/2/4 shards; writes BENCH_shards.json (kept even
# on gate failure) and fails unless every sharded row equals the
# single-domain reference and the aggregate CPU-limited rate improves
# with shard count (wall clock additionally gated on multi-core hosts).
bench-shards: build
	dune exec bench/main.exe -- --shards

# Call storm under a crash-severity ladder (25% / 50% / 100% of hosts
# crashing twice); writes BENCH_recovery.json (kept even on gate
# failure) and fails on any conservation, completion, cross-wiring
# equivalence or goodput-floor violation.
bench-recovery: build
	dune exec bench/main.exe -- --recovery

# Flow-count ladder at 10k/100k/1M flows per scheme; writes
# BENCH_flows.json (kept even on gate failure) and fails unless LDLP
# batch-sorting strictly beats conventional lookup order on modeled
# D-misses at 100k and 1M flows with identical delivered-state digests.
bench-flows: build
	dune exec bench/main.exe -- --flows

check: build fmt test selftest oracle engine-parity bench-alloc soak soak-duplex mesh shards recovery flows
	@echo "check OK"
