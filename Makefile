GO ?= go

# Packages whose concurrency is load-bearing: the sharded runtime, the
# supervised domain runtime and its chaos harness, the pool
# caches under them, the linear-ownership cells that make it safe (and
# the sfi reference tables whose crossing is those cells' Rc CAS loops —
# the package where the teardown-generation race was found), the
# telemetry core every one of them records into, both port
# implementations (the simulated NIC's per-queue sources over one
# shared pool and the socket-backed port's receive loop) with the mbuf
# slab layout both are built on, and the NF states whose capture runs
# beside their packet path (and, for the firewall, beside other
# workers' captures of one shared rule DB), and nf-pipeline's own run,
# where a serve abandoned by the hang verdict transmits on its queue
# beside its successor.
RACE_PKGS = ./cmd/nf-pipeline ./internal/netbricks ./internal/mempool ./internal/packet ./internal/linear ./internal/sfi ./internal/domain/... ./internal/telemetry ./internal/telemetry/trace ./internal/netport ./internal/dpdk ./internal/checkpoint ./internal/session ./internal/maglev ./internal/firewall ./internal/statestore

# Per-benchmark time for the JSON bench run; raise for stabler numbers.
BENCHTIME ?= 0.5s

# Floor for the loopback throughput gate: the recorded batched-syscall
# number (~400k pps sustained through the full pipeline on this class of
# single-core machine) minus 20% of headroom for scheduler noise.
NETPORT_PPS_FLOOR ?= 320000

# Ceiling for the durable-checkpoint overhead gate: a group-committed
# epoch through the store against the same bytes written and fsynced to
# a bare file (measured 0.95-1.3x: framing, CRC and the append lock are
# noise beside the fsync). 2x leaves room for a noisy run without letting
# the store become a multiple of the I/O it has to do.
STATESTORE_OVERHEAD_MAX ?= 2.0

# Ceilings for the pipeline allocation gates. The recorded numbers after
# the zero-alloc fix are ~800 allocs/op for the checkpointed pipeline at
# epoch=off (all of it per-Run cold start: supervisor construction and
# first-sight flows) and ~650 for the supervised steady run; the
# regression this gate exists to catch was 168k+. 4000 absorbs iteration-
# count amortisation noise while tripping at a tiny fraction of the bug.
# The epoch=10ms case additionally pays for its checkpoint epochs:
# recorded 1003-1017 allocs/op at -benchtime=5x, ~40 above epoch=off; the
# ceiling is 1010 plus 25%. It was ~8-10k when an epoch cost an allocation
# per live flow. Each Run of that bench boots fresh domains over fresh
# StateSets and is over after two or three epochs per worker, while a RAM
# sink is still making its second buffer; BenchmarkChaosRestore is the
# one that runs long enough to see the two buffers rotate, and restores
# besides.
PIPELINE_ALLOCS_MAX ?= 4000
PIPELINE_EPOCH_ALLOCS_MAX ?= 1262

# Ceilings for BenchmarkChaosRestore (mem-chaos in miniature: a few dozen
# 10ms epochs and ~11 restores per Run over 4096 flows). Recorded 553-554
# allocs/op and 0.60 MB/op, nearly all of it the Run's cold start, when
# the ceilings were set; before a fault and its restart stopped making
# garbage a Run read 967-1013 allocs/op (≈ 48 objects per fault), and
# before epoch buffers rotated ~1400 allocs/op and 7.3-8.4 MB/op. Since a
# RAM epoch is captured into its domain's sink of two buffers, a Run reads
# ≈ 500 allocs/op and ≈ 0.59 MB/op. The object ceiling is 553 plus 25%. The byte ceiling is the one that resolves — an epoch buffer or
# a restored flow graph is a few large objects, not many — and sits at
# twice 0.60 MB, a sixth of what one Run used to leave behind. The bench
# also prices one fault against a fault-free twin: recorded 10.0-10.1
# allocs/fault and 490-510 B/fault (48 and ≈ 2.8 KB before), gated at
# TestFaultAllocBudget's budget of 20 and 1024 B.
CHAOS_RESTORE_ALLOCS_MAX ?= 690
CHAOS_RESTORE_BYTES_MAX ?= 1200000

# Ceiling for BenchmarkNewPort (PoolSize 65 536): the two data arenas
# (65 536 × 2 KiB = 128 MiB of large rooms and 65 536 × 128 B = 8 MiB of
# small ones, pointer-free and untouched at construction) plus 256 KiB.
# Recorded 142 650 608 B/op, the arenas and ≈ 43 KiB of queues, caches and
# RETA; the eager header slab they replaced added ≈ 16.8 MB.
NEWPORT_BYTES_MAX ?= 142868480

.PHONY: check fmt build cross test test-e2e test-recovery test-bench race race-all vet guard-atomics alloc-gate fuzz bench bench-all bench-gate loc

## check: the PR gate — gofmt, vet, build, cross-build, full tests, race
## tier, e2e tier, kill -9 recovery tier, atomics guard, zero-allocation
## gate, and the benchmark module's own vet + smoke test.
check: fmt vet build cross test race test-e2e test-recovery guard-atomics alloc-gate test-bench

## fmt: every Go file of the module and of bench/ (a subdirectory, so the
## same walk) is gofmt-clean; the gate lists the ones that are not.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "$$out"; \
		echo "fmt: gofmt -w the files above"; \
		exit 1; \
	fi

## guard-atomics: hot-path counters must be typed atomic cells
## (atomic.Uint64 / telemetry.Counter), never raw integers passed to the
## legacy atomic.AddUint64-style functions — typed cells cannot be read
## non-atomically by accident and plug into the telemetry registry.
guard-atomics:
	@matches=$$(grep -rnE 'atomic\.(Add|Load|Store|Swap|CompareAndSwap)(Int|Uint)(32|64)\(' \
		--include='*.go' --exclude='*_test.go' cmd internal 2>/dev/null || true); \
	if [ -n "$$matches" ]; then \
		echo "$$matches"; \
		echo "guard-atomics: raw-integer atomic calls found; use atomic.Int64/atomic.Uint64 or telemetry cells"; \
		exit 1; \
	fi

## alloc-gate: the tracer's record paths must stay allocation-free —
## the untraced path (sampler miss + unarmed stamp, what every packet
## pays) and the armed path (arm, stamp, complete into the ring). A
## -benchmem run with a benchgate allocs/op ceiling of 0 enforces both.
## The second half gates the full pipeline: benchgate ceilings on the
## checkpointed and supervised pipeline benches catch any return of the
## per-packet allocation regression (168k allocs/op before the fix,
## ~800 after — all cold start). benchgate echoes stdin unchanged but a
## mid-pipe failure would be masked without pipefail, so the output is
## captured once and each gate reads the file. BenchmarkChaosRestore
## rides in the same run: its ceilings (objects and bytes per Run) are
## what keeps epoch-buffer and restore garbage from coming back
## unnoticed, and its per-fault ceilings (objects and bytes one fault and
## its restart allocate, against a fault-free twin) keep the fault path
## from making garbage again. TestRAMEpochAllocatesNothing (domain) gates
## a warm RAM epoch of a 4096-flow worker at 0 objects — captured into
## its domain's sink, whose two buffers rotate — and a restore from the
## sink at 0 too; TestPersistEpochAllocatesNothing holds
## the buffer path's whole-epoch append to a statestore.Store at 0. The last
## gate holds the socket datapath to the same
## standard: the loopback bench (pktgen, recvmmsg, rings, idle polls,
## pipeline, sendmmsg accounting) must round to 0 allocs per packet, with
## frames for either mbuf room (BenchmarkNetportLoopbackLarge sends
## 1400-byte ones) — it read 1 while every idle poll made a timer
## and every batched syscall a closure. So must the RSS hash by key, which
## every software-steered datagram pays: a table cache that missed would
## allocate a 36 KiB table per call. The
## construction gate holds a port of 65 536 mbufs to its data arenas plus
## 256 KiB: mbuf headers are made on first use, so an eager header slab
## (≈ 16 MB of headers and a 0.5 MB free list at that size) fails it.
## Maglev's capped connection table and session's capped RAM table evict
## on the packet path: a new flow into a full table must allocate nothing
## once the warm-up has filled it (BenchmarkPickChurn, BenchmarkTrackChurn).
## The benches' allocs/op spread a sweep over the cap/8 inserts between
## sweeps and would round its garbage to 0, so TestSweepAllocatesNothing
## (maglev) and TestEvictionSteadyStateAllocs (session) count whole sweeps.
## The flow index under session's spill is held to its bound in bytes:
## TestFlowIndexAllocatesItsBoundOnce (statestore) lets the first cycle of
## spills, up to its compaction, allocate its resident formula and ten
## more cycles only their compactions' file handles — its overlay, when
## it was a map, allocated twice what it held by growing.
alloc-gate:
	$(GO) test -run='^$$' -bench='TraceRecordPath' -benchmem -benchtime=10000x ./internal/telemetry/trace \
		| $(GO) run ./cmd/benchgate -bench BenchmarkTraceRecordPathUntraced -metric allocs/op -max 0
	$(GO) test -run='^$$' -bench='TraceRecordPathArmed' -benchmem -benchtime=10000x ./internal/telemetry/trace \
		| $(GO) run ./cmd/benchgate -bench BenchmarkTraceRecordPathArmed -metric allocs/op -max 0
	@set -e; out=$$(mktemp); trap "rm -f $$out" EXIT; \
	$(GO) test -run='^$$' -bench='CheckpointedPipeline|SupervisedPipeline/steady$$|ChaosRestore$$' -benchmem -benchtime=5x . | tee $$out; \
	$(GO) run ./cmd/benchgate -bench BenchmarkCheckpointedPipeline/epoch=off -metric allocs/op -max $(PIPELINE_ALLOCS_MAX) < $$out > /dev/null; \
	$(GO) run ./cmd/benchgate -bench BenchmarkCheckpointedPipeline/epoch=10ms -metric allocs/op -max $(PIPELINE_EPOCH_ALLOCS_MAX) < $$out > /dev/null; \
	$(GO) run ./cmd/benchgate -bench BenchmarkCheckpointedPipeline/epoch=100ms -metric allocs/op -max $(PIPELINE_ALLOCS_MAX) < $$out > /dev/null; \
	$(GO) run ./cmd/benchgate -bench BenchmarkSupervisedPipeline/steady -metric allocs/op -max $(PIPELINE_ALLOCS_MAX) < $$out > /dev/null; \
	$(GO) run ./cmd/benchgate -bench BenchmarkChaosRestore -metric allocs/op -max $(CHAOS_RESTORE_ALLOCS_MAX) < $$out > /dev/null; \
	$(GO) run ./cmd/benchgate -bench BenchmarkChaosRestore -metric B/op -max $(CHAOS_RESTORE_BYTES_MAX) < $$out > /dev/null; \
	$(GO) run ./cmd/benchgate -bench BenchmarkChaosRestore -metric allocs/fault -max 20 < $$out > /dev/null; \
	$(GO) run ./cmd/benchgate -bench BenchmarkChaosRestore -metric B/fault -max 1024 < $$out > /dev/null
	$(GO) test -run='^TestRAMEpochAllocatesNothing$$' -count=1 -v ./internal/domain
	$(GO) test -run='^TestPersistEpochAllocatesNothing$$' -count=1 -v .
	@set -e; out=$$(mktemp); trap "rm -f $$out" EXIT; \
	$(GO) test -run='^$$' -bench='NetportLoopback(Large)?$$' -benchmem -benchtime=1s ./internal/netport | tee $$out; \
	$(GO) run ./cmd/benchgate -bench BenchmarkNetportLoopback -metric allocs/op -max 0 < $$out > /dev/null; \
	$(GO) run ./cmd/benchgate -bench BenchmarkNetportLoopbackLarge -metric allocs/op -max 0 < $$out > /dev/null
	$(GO) test -run='^$$' -bench='RSSHashTable$$' -benchmem -benchtime=100000x ./internal/packet \
		| $(GO) run ./cmd/benchgate -bench BenchmarkRSSHashTable -metric allocs/op -max 0
	$(GO) test -run='^$$' -bench='NewPort$$' -benchmem -benchtime=1x ./internal/dpdk \
		| $(GO) run ./cmd/benchgate -bench BenchmarkNewPort -metric B/op -max $(NEWPORT_BYTES_MAX)
	$(GO) test -run='^$$' -bench='PickChurn$$' -benchmem -benchtime=1000000x ./internal/maglev \
		| $(GO) run ./cmd/benchgate -bench BenchmarkPickChurn -metric allocs/op -max 0
	$(GO) test -run='^TestSweepAllocatesNothing$$' -count=1 -v ./internal/maglev
	$(GO) test -run='^$$' -bench='TrackChurn$$' -benchmem -benchtime=1000000x ./internal/session \
		| $(GO) run ./cmd/benchgate -bench BenchmarkTrackChurn -metric allocs/op -max 0
	$(GO) test -run='^TestEvictionSteadyStateAllocs$$' -count=1 -v ./internal/session
	$(GO) test -run='^TestFlowIndexAllocatesItsBoundOnce$$' -count=1 -v ./internal/statestore

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

## cross: netport splits on the platform — recvmmsg/sendmmsg on Linux,
## a one-datagram fallback elsewhere. Building for a target that is not
## Linux keeps the fallback side compiling.
cross:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...

test:
	$(GO) test ./...

## test-e2e: the loopback end-to-end tier — real UDP sockets, pktgen,
## and the supervised pipeline (nf-pipeline's own run included, with a
## stage held until the hang verdict), under a generous timeout. These
## tests skip themselves under -short, so a plain `go test -short ./...`
## stays socket-free.
test-e2e:
	$(GO) test -timeout 120s -run 'TestE2E|TestChaosSupervisedPipeline' ./internal/netport ./internal/netbricks ./cmd/nf-pipeline

## test-recovery: the durable-state acceptance tier — a supervised
## pipeline persisting checkpoint epochs over live loopback traffic is
## killed with SIGKILL mid-run; a cold reopen of its state directory
## must restore the exact fault-free oracle, one restore per worker.
test-recovery:
	$(GO) test -timeout 180s -run 'TestRecoveryKill9' -count=1 ./internal/statestore

## test-bench: bench/ is a module of its own (the benchmark driver
## requires it), so `go test ./...` neither compiles nor runs it. It
## decorates domain.Stateful, TokenCodec, Persister, StateSet,
## session.Spill and the NF constructors; this is the guard that a change
## to any of them still compiles against the benchmark and still passes
## its correctness checks.
test-bench:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

## race: race-detector pass over the concurrency-bearing packages, one
## package binary at a time (-p 1). Several race binaries sharing a 2-CPU
## machine slow each other 10-20x, and the tests that still judge hangs on
## the wall clock (HangAfter: 2ms) — TestChaosSupervisedPipeline*,
## TestNoPublishOrHandBackDuringRestore — then declare live goroutines
## hung, which costs restarts and time, though no verdict they assert.
## Every test that asserts an exact hang verdict runs on sim.Fake.
race:
	$(GO) test -race -p 1 $(RACE_PKGS)

## race-all: race-detector pass over the whole module (slower), serial
## for the same reason as race.
race-all:
	$(GO) test -race -p 1 ./...

## loc: non-test Go lines per package directory under internal/, cmd/ and
## examples/, and their total — plain `wc -l`, comments and blank lines
## included, so every PR reports design size by the same method.
loc:
	@total=0; \
	for d in $$(find internal cmd examples -name '*.go' ! -name '*_test.go' -exec dirname {} + | sort -u); do \
		n=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		printf '%6d %s\n' $$n $$d; total=$$((total + n)); \
	done; \
	printf '%6d total\n' $$total

## fuzz: short fuzz smoke on the packet parser (raw bytes, and built
## packets), the table-driven RSS hash against its bit-serial
## definition, the mailbox ownership boundary, a StateSet's decode of
## hostile epoch bytes, the netport decoder, the checkpoint round-trip,
## the wire-checkpoint-vs-reflect-engine oracles, WAL replay (whole and
## streamed epochs), the epoch-buffer ownership script, the flow index's
## streaming merge against a plain-map oracle, the flow table against the
## map and clock it replaced (FuzzFlowTable: same members, same victims
## in the same order), the session table's track / evict / spill /
## promote / checkpoint / restore scripts against a plain-map oracle, and
## the minirust parser and interpreter (seed corpus + 10s each).
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=10s ./internal/packet
	$(GO) test -run='^$$' -fuzz=FuzzParsePacket -fuzztime=10s ./internal/packet
	$(GO) test -run='^$$' -fuzz=FuzzToeplitzTable -fuzztime=10s ./internal/packet
	$(GO) test -run='^$$' -fuzz=FuzzMailboxOwnership -fuzztime=10s ./internal/domain
	$(GO) test -run='^$$' -fuzz=FuzzStateSetDecode -fuzztime=10s ./internal/domain
	$(GO) test -run='^$$' -fuzz=FuzzNetportDecode -fuzztime=10s ./internal/netport
	$(GO) test -run='^$$' -fuzz=FuzzCheckpointRestore -fuzztime=10s ./internal/checkpoint
	$(GO) test -run='^$$' -fuzz=FuzzTraceSpanEncode -fuzztime=10s ./internal/telemetry/trace
	$(GO) test -run='^$$' -fuzz=FuzzWALReplay -fuzztime=10s ./internal/statestore
	$(GO) test -run='^$$' -fuzz=FuzzEpochOwnership -fuzztime=10s ./internal/statestore
	$(GO) test -run='^$$' -fuzz=FuzzFlowIndexMerge -fuzztime=10s ./internal/statestore
	$(GO) test -run='^$$' -fuzz=FuzzFlowTable -fuzztime=10s ./internal/evict
	$(GO) test -run='^$$' -fuzz=FuzzTableScript -fuzztime=10s ./internal/session
	$(GO) test -run='^$$' -fuzz=FuzzTableCheckpointOracle -fuzztime=10s ./internal/session
	$(GO) test -run='^$$' -fuzz=FuzzBalancerCheckpointOracle -fuzztime=10s ./internal/maglev
	$(GO) test -run='^$$' -fuzz=FuzzStatefulCheckpointOracle -fuzztime=10s ./internal/firewall
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=10s ./internal/minirust
	$(GO) test -run='^$$' -fuzz=FuzzInterp -fuzztime=10s ./internal/minirust

## bench: the telemetry record-path micro-benchmarks, recorded in
## BENCH_telemetry.json (every record path must read 0 allocs/op).
## Throughput, per-layer cost and memory are nfbench's to report
## (bench/README.md), one run of one commit; the named `go test -bench`
## targets behind alloc-gate and bench-gate stay as gates, not records.
bench:
	$(GO) test -run='^$$' -bench='Telemetry' -benchmem -benchtime=$(BENCHTIME) ./internal/telemetry \
		| $(GO) run ./cmd/benchgate -out BENCH_telemetry.json

## bench-all: the full testing.B harness (human-readable only).
bench-all:
	$(GO) test -run='^$$' -bench=. -benchmem .

## bench-gate: perf regression gates — the loopback throughput bench
## must sustain NETPORT_PPS_FLOOR, and the traced variant (sampling at
## 1/1024) must sustain at least 98% of the untraced run's pps from the
## same bench invocation.
bench-gate:
	$(GO) test -run='^$$' -bench='NetportLoopback$$' -benchtime=2s -count=1 ./internal/netport \
		| $(GO) run ./cmd/benchgate -bench BenchmarkNetportLoopback -metric pps -min $(NETPORT_PPS_FLOOR)
	$(GO) test -run='^$$' -bench='NetportLoopback(Traced)?$$' -benchtime=2s -count=1 ./internal/netport \
		| $(GO) run ./cmd/benchgate -bench BenchmarkNetportLoopbackTraced -metric pps \
			-baseline BenchmarkNetportLoopback -min-frac 0.98
	$(GO) test -run='^$$' -bench='CheckpointEpochDisk$$' -benchtime=2s -count=1 ./internal/statestore \
		| $(GO) run ./cmd/benchgate -bench BenchmarkCheckpointEpochDisk -metric x-raw -max $(STATESTORE_OVERHEAD_MAX)
