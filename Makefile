# Local CI gate.  `make check` = build + formatting + tests (unit,
# property and golden-figure) + the 1-vs-2-domain determinism comparison
# + the differential-oracle replay + every seeded experiment.

DOMAINS ?= 2

# The seeded experiments of Ldlp_report.Experiment: `make <name>` prints
# its figure, rewrites the committed BENCH_<name>.json byte for byte and
# fails when a gate does.
EXPERIMENTS = soak mesh recovery flows

.PHONY: all build test fmt promote selftest determinism oracle engine-parity shards check $(EXPERIMENTS)

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

# Same seed, same bytes, at any domain count.  Every parallel path (the
# sweeps' Pool.map, the sharded mesh storm's Pool.map_array) runs on an
# Ldlp_par.Pool.Gang, while the goldens run at one domain, so this runs
# every figure and the soak, mesh and recovery experiments (figure and
# document) at --domains 1 and 2 into the gitignored _bench/ and
# byte-compares the two trees.  Flows has no parallel path.
REPRO = ./_build/default/bin/ldlp_repro.exe
DET = _bench/determinism

determinism: build
	rm -rf $(DET) && mkdir -p $(DET)/1 $(DET)/2
	set -e; for d in 1 2; do \
	  $(REPRO) all --domains $$d > $(DET)/$$d/all.txt; \
	  for e in soak mesh recovery; do \
	    (cd $(DET)/$$d && $(CURDIR)/$(REPRO) $$e --seed 1996 --domains $$d > $$e.txt); \
	  done; \
	done
	diff -r $(DET)/1 $(DET)/2
	@echo "determinism OK: all, soak, mesh, recovery identical at 1 and 2 domains"

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

$(EXPERIMENTS): build
	$(REPRO) $@ --seed 1996 --domains $(DOMAINS)

# The sharded call storm (Ldlp_report.Shards) at 1, 2 and 4 shards: its
# figure, and its gates: every row equal to the single-domain storm,
# conserved and leak-free, and the CPU-limited rate rising with the
# shard count.
shards: build
	dune exec bin/ldlp_repro.exe -- shards --seed 1996

# The host measurements, one bench/main.exe flag each: `make bench-<name>`
# runs `bench/main.exe --<name>`.  Each writes its schema-checked
# BENCH_<name>.json (before any gate can fail, so a failing run keeps its
# numbers) and exits nonzero when a gate fails; any other name exits 2:
#   sweeps      every sweep timed at 1 and N domains (no gate)
#   hotpath     conventional vs LDLP misses, throughput, latency and real
#               allocations per message; LDLP must win on i-misses and the
#               allocation budgets and throughput floors must hold
#   alloc-gate  the hot-path budgets alone plus the Q.93B-stack,
#               tcpmini-stack and mesh-storm allocation budgets, writes no
#               file (cheap enough for `make check`)
#   shards      the `make shards` storm and gates, each row also timed on
#               the wall clock (gated on multi-core hosts)
bench-%: build
	dune exec bench/main.exe -- --$*

check: build fmt test determinism oracle engine-parity bench-alloc-gate shards $(EXPERIMENTS)
	@echo "check OK"
