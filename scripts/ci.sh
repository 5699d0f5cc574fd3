#!/bin/sh
# Repo gate: formatting, vet, build, race-test the concurrency-bearing
# packages, then the full test suite (including the simcheck-tagged loop
# guard). Run from the repo root: ./scripts/ci.sh
set -eux

# Formatting gate: gofmt -l prints offending files; fail if any.
test -z "$(gofmt -l . | tee /dev/stderr)"

# Repo-hygiene gate: no committed file may exceed 1 MB. (A stray
# compiled wgtt.test once weighed in at 5.7 MB; .gitignore now blocks
# *.test, this catches everything else before it lands.) Sizes are read
# from the index's blobs, so the gate checks what is staged, whatever
# the working tree holds.
git ls-files -s | while read -r mode blob stage f; do
    size=$(git cat-file -s "$blob")
    if [ "$size" -gt 1048576 ]; then
        echo "repo-hygiene gate: $f is $size bytes (> 1 MB); do not commit build artifacts"
        exit 1
    fi
done

go vet ./...
go build ./...

# The runner and the sim loop carry the concurrency invariants, the
# deploy package's trunks cross segment event-loop boundaries, and the
# federation package's directory/relocate RPCs ride those trunks; shake
# all four under the race detector first. The TestDomain* parity tests
# then exercise full corridor rides (including fault-injected and
# workload-bearing ones) on the parallel coordinator's goroutine pool.
# Every network runs through Coordinator.Run, so one seed of the
# one-domain pins and the one-domain DomainsParallel fallback (a pool
# with no helpers) go under the race detector too.
# The runner's tests repeat five times and the sim package's
# round-dispatch tests (sparse meshes at GOMAXPROCS 1, 2 and 8, sliced
# runs, helper lifetime) ten times, to shake out rare interleavings of
# the goroutines that claim work from a shared counter.
go test -race -count=5 ./internal/runner/
go test -race ./internal/deploy/ ./internal/federation/
go test -race -count=10 ./internal/sim/
go test -race -run 'TestDomain' ./internal/core/
go test -race -run 'TestDomain' .
go test -race -run 'TestSingleLoopPins/seed1' .
go test -race -run 'TestCorridorSingleSegmentFallback' .
# A serial coordinator's Run lends helper goroutines to its domains'
# fan-outs, and the medium evaluates a PPDU's receivers on them before
# committing in registration order. Shake the fan-out pool, two-phase
# delivery against its sequential reference, and one seed of the crowd
# and boundary-interference pins under the race detector at 1, 2 and 4
# procs, so helpers are engaged whatever the host's core count. The
# crowd pin's split shape also runs segment domains concurrently over
# the AP positions and the fading delay-rotation table every link
# shares, so this one ride of it covers that sharing too. The boundary
# pin's seed 1 also holds its posted/applied counts, which move if the
# interference hook is skipped for a reception whose fill stopped.
go test -race -cpu 1,2,4 -run 'TestFan' ./internal/sim/
go test -race -cpu 1,2,4 -run 'TestTwoPhaseDeliveryMatchesSequential' ./internal/mac/
go test -race -cpu 1,2,4 -run 'TestCrowdPins/seed1|TestBoundaryInterferenceParity/seed1' .
# The floored subcarrier fill runs on those fan-out helpers, and a stop
# must leave only receptions that would not have been heard: shake the
# rf and channel floor properties (both backends, fills from four
# goroutines on fresh links) five times at 1, 2 and 4 procs.
go test -race -cpu 1,2,4 -count=5 -run 'TestFillSNRsDBFloor|TestFloorFillBothBackends' ./internal/rf/ ./internal/channel/
# Recurring events bind their callbacks once, on pooled records: the
# medium's contention grants and PPDU-end deliveries, the mailboxes'
# typed dispatches (taken at the barrier, returned by the receiving
# loop inside a round) and owner-held timers re-armed with Loop.Rearm.
# Shake the pool-safety tests five times at 1, 2 and 4 procs.
go test -race -cpu 1,2,4 -count=5 -run 'TestMediumCycleAllocatesNothing|TestGrant|TestLiteralTransmissionDelivers|TestCommitPERPerLength' ./internal/mac/
go test -race -cpu 1,2,4 -count=5 -run 'TestMailboxTypedDispatch|TestMailboxDispatchRecords|TestPooledDispatchKeepsEventOrder|TestRearm' ./internal/sim/
# A link draws each realization at its first use under a sync.Once, and
# the fan-out may sense one link from two goroutines at once: race first
# uses ten times at 1, 2 and 4 procs.
go test -race -cpu 1,2,4 -count=10 -run 'TestLinkConcurrentFirstUse' ./internal/channel/

# The wire transport carries the cross-process exchange protocol
# (reconnect, resend, dedup, journal replay). Exchange reads on the
# caller's goroutine while reconnects install connections and large
# frames are written from goroutines of their own, so the whole package
# goes under the race detector five times to shake out rare
# interleavings.
go test -race -count=5 ./internal/wire/

# Wire-exchange allocation gate: one lockstep exchange of an empty round
# between two transports (both sides' Exchange) allocates 4 objects: each
# side's frame and result slice. Allocation counts repeat exactly, so
# any extra allocation fails; timings do not, so none is gated.
go test -run='^$' -bench='^BenchmarkTransportExchange$/^empty$' -benchtime=20000x -benchmem ./internal/wire/ | awk '
    /^BenchmarkTransportExchange\/empty/ {
        for (i = 2; i <= NF; i++) if ($i == "allocs/op") allocs = $(i-1)
    }
    END {
        if (allocs == "") { print "wire alloc gate: benchmark output missing"; exit 1 }
        printf "wire alloc gate: %d allocs/op (budget 4)\n", allocs
        if (allocs + 0 > 4) { print "wire alloc gate: empty-round exchange allocates more than 4 objects"; exit 1 }
    }'

# Link allocation gates. A network builds a link for every client×AP
# pair but evaluates far fewer, so building one (its fork, then
# Model.NewLink) only forks the realizations' streams: ~0.8 KB, three
# streams that seed lazily and the link itself. A link that draws its
# realizations at construction again adds ~1.3 KB and blows the 900 B
# budget; a stream that fills math/rand's 5 KB register per seed blows
# it too. The first MeanSNRdB and first fill of a fresh wifi5g link draw
# the shadowing into the link and the fading into two objects, its taps
# and its waves; a third allocation (scratch, a slice grown by append, a
# closure that escapes) fails the second gate. Allocation counts and
# sizes repeat exactly; timings do not, so none is gated.
go test -run='^$' -bench='^BenchmarkNewLink$/^wifi5g$' -benchtime=2000x -benchmem ./internal/channel/ | awk '
    /^BenchmarkNewLink\/wifi5g/ {
        for (i = 2; i <= NF; i++) if ($i == "B/op") bytes = $(i-1)
    }
    END {
        if (bytes == "") { print "link alloc gate: benchmark output missing"; exit 1 }
        printf "link alloc gate: %d B/op (budget 900)\n", bytes
        if (bytes + 0 > 900) { print "link alloc gate: building a wifi5g link allocates more than 900 B"; exit 1 }
    }'
go test -run='^$' -bench='^BenchmarkLinkFirstUse$/^wifi5g$' -benchtime=2000x -benchmem ./internal/channel/ | awk '
    /^BenchmarkLinkFirstUse\/wifi5g/ {
        for (i = 2; i <= NF; i++) if ($i == "allocs/op") allocs = $(i-1)
    }
    END {
        if (allocs == "") { print "link first-use gate: benchmark output missing"; exit 1 }
        printf "link first-use gate: %d allocs/op (budget 2)\n", allocs
        if (allocs + 0 > 2) { print "link first-use gate: a wifi5g link first use allocates more than 2 objects"; exit 1 }
    }'

# Flight-recorder/stitching gate: the trace package (ring recorder,
# stitch, Chrome export) races against nothing by design — prove it —
# and the recorder-on parity + cross-process stitching tests shake the
# trace-register propagation through the parallel executor under the
# race detector.
go test -race ./internal/trace/
go test -race -run 'TestFlightRecorderOffOnParity|TestMultiProcessStitchedTimeline' .

# The mmWave corridor and the cross-domain boundary-interference
# exchange both ride the parallel-domain executor; shake one seed of
# each under the race detector (the remaining seeds run race-free in
# the full suite below).
go test -race -run 'TestCorridorMMWave/seed1|TestBoundaryInterferenceParity/seed1' .

# Scenario gate, part 1: the declarative scenario layer (parse →
# validate → compile → generate) under the race detector, plus the
# compiled-scenario integration tests (corridor golden parity,
# generated serial==parallel sweeps) which drive the parallel-domain
# executor.
go test -race ./internal/scenario/
go test -race -run 'TestScenario|TestGeneratedScenarioParity|TestServeScenarioFile' .

# Scenario gate, part 2: replay the checked-in fuzz corpus (every
# example scenario plus the structural edge cases) without -fuzz — a
# cheap smoke that no corpus input panics the parse/validate/compile
# front end.
go test -run 'FuzzScenario' ./internal/scenario/

# Loop owner-guard diagnostics only compile under the simcheck tag.
go test -tags simcheck ./internal/sim/

# The full suite includes the scale gate, TestScaleCellPins: the small
# cells of the city-scale grid against their BENCH_scale.json rows.
go test ./...

# The benchmark (bench/) is its own Go module, so the root build and
# test above never compile it; vet and smoke-test it here.
go -C bench vet ./...
go -C bench test ./...

# Pinned bench gate: the bench's own tests ride -short and unpinned, so
# ride every workload once at seed 1 for one timed second and require
# each ride's goodput to match bench/testdata/signatures.json. Only this
# catches a change to a workload's shape that no root test rides (the
# corridor workload stretches wgtt-serve's corridor to 24 segments).
bench_line=$(bash bench/run.sh --workload testbed,crowd,corridor,serve2 --seed 1 --seconds 1 --trace 0 | tail -n 1)
echo "bench gate: $bench_line"
case "$bench_line" in
*'"correct":true'*) ;;
*)
    echo "bench gate: a ride's goodput left its pinned signature"
    exit 1
    ;;
esac

# Scenario digest-determinism gate: compiling the same scenario twice —
# a generated network and the corridor example — must print the same
# content digest both times. Nondeterminism here would silently break
# the golden pins and the parity sweeps above.
for spec in '-gen-scenario 7:small' '-scenario examples/scenarios/corridor.yaml'; do
    d1=$(go run ./cmd/wgtt-sim $spec -scenario-digest)
    d2=$(go run ./cmd/wgtt-sim $spec -scenario-digest)
    if [ "$d1" != "$d2" ]; then
        echo "scenario digest gate: nondeterministic compile for $spec: $d1 vs $d2"
        exit 1
    fi
    echo "scenario digest gate: $spec -> $d1"
done

# Distributed-runtime gate: the corridor sharded across two wgtt-serve
# processes over unix sockets must merge — figures and telemetry — to
# the bit-exact in-process serial run at seeds 1–3, and a
# checkpoint/restore mid-run must reproduce the uninterrupted reports
# byte for byte. The in-test runner side goes under the race detector
# (the subprocesses themselves are plain builds).
go test -race -run 'TestMultiProcessParity|TestServeCheckpointRestore' .

# Federation fault gate: a four-segment federated corridor with a canned
# trunk fault schedule (mid-run outage + random drops + jitter) must end
# with zero unowned clients and at least one completed re-locate in the
# metrics snapshot.
go run ./cmd/wgtt-sim -segments 4x7.5,4x7.5,4x7.5,4x7.5 -federation -clients 2 -mph 25 \
    -trunk-faults 'drop=0.02,jitter=40us,outage=1-2@2s-3.5s' -metrics | awk '
    /^server\/clients_unowned/ { seen_unowned = 1; unowned = $2+0 }
    /^server\/relocates/       { relocates = $2+0 }
    END {
        if (!seen_unowned) { print "federation gate: clients_unowned missing from metrics"; exit 1 }
        printf "federation gate: unowned=%d relocates=%d\n", unowned, relocates
        if (unowned != 0) { print "federation gate: clients lost under trunk faults"; exit 1 }
        if (relocates < 1) { print "federation gate: no re-locates observed"; exit 1 }
    }'

# wgtt-sim smoke gate: the flight recorder's text view (-trace) prints
# for a multi-segment ride on one loop and under -parallel-segments, a
# scenario run writes -trace-out and its CPU profile, -trace-out -
# leaves stdout pure JSON (the summary moves to stderr), the federation
# ride above reports its trunk drops without -metrics, and the switch
# summary of a two-segment ride reports switches and cross-segment
# handoffs with telemetry and the flight-recorder ring both off.
sim_tmp=$(mktemp -d)
go build -o "$sim_tmp/wgtt-sim" ./cmd/wgtt-sim
"$sim_tmp/wgtt-sim" -segments 4x7.5,4x7.5 -mph 25 -trace 20 > "$sim_tmp/single.txt"
if ! grep -q ' trace=0x' "$sim_tmp/single.txt"; then
    echo "wgtt-sim gate: -trace printed no records for a multi-segment ride on one loop"
    exit 1
fi
"$sim_tmp/wgtt-sim" -segments 4x7.5,4x7.5 -parallel-segments -mph 25 -trace 20 > "$sim_tmp/par.txt"
if ! grep -q ' trace=0x' "$sim_tmp/par.txt"; then
    echo "wgtt-sim gate: -trace printed no records under -parallel-segments"
    exit 1
fi
"$sim_tmp/wgtt-sim" -scenario examples/scenarios/corridor.yaml -trace 20 \
    -trace-out "$sim_tmp/t.json" -cpuprofile "$sim_tmp/cpu.out" > /dev/null
if ! test -s "$sim_tmp/t.json" || ! test -s "$sim_tmp/cpu.out"; then
    echo "wgtt-sim gate: -scenario run left -trace-out or -cpuprofile empty"
    exit 1
fi
first=$("$sim_tmp/wgtt-sim" -mph 25 -trace-out - 2>/dev/null | head -c 1)
if [ "$first" != "{" ]; then
    echo "wgtt-sim gate: -trace-out - stdout starts with '$first', not JSON"
    exit 1
fi
drops=$("$sim_tmp/wgtt-sim" -segments 4x7.5,4x7.5,4x7.5,4x7.5 -federation -clients 2 -mph 25 \
    -trunk-faults 'drop=0.02,jitter=40us,outage=1-2@2s-3.5s' |
    sed -n 's/.*trunk drops: \([0-9]*\) outage, \([0-9]*\) random.*/\1 \2/p')
echo "wgtt-sim gate: trunk drops (outage random) = $drops"
set -- $drops
if [ "${1:-0}" -eq 0 ] || [ "${2:-0}" -eq 0 ]; then
    echo "wgtt-sim gate: federation ride without -metrics reports no trunk drops"
    exit 1
fi
"$sim_tmp/wgtt-sim" -segments 4x7.5,4x7.5 -mph 25 > "$sim_tmp/summary.txt"
switches=$(sed -n 's/^switches: \([0-9]*\) issued, \([0-9]*\) completed.*/\1 \2/p' "$sim_tmp/summary.txt")
handoffs=$(sed -n 's/^cross-segment handoffs: \([0-9]*\) exported, \([0-9]*\) imported.*/\1 \2/p' "$sim_tmp/summary.txt")
echo "wgtt-sim gate: switches (issued completed) = $switches; handoffs (exported imported) = $handoffs"
set -- $switches $handoffs
if [ "${1:-0}" -eq 0 ] || [ "${2:-0}" -eq 0 ] || [ "${3:-0}" -lt 1 ] || [ "${4:-0}" -lt 1 ]; then
    echo "wgtt-sim gate: switch summary without -metrics or a flight-recorder ring reports no switches or handoffs"
    exit 1
fi
rm -rf "$sim_tmp"

# Telemetry-overhead gate: the fully instrumented 24-segment corridor
# ride (counters, spans, per-domain 100 ms samplers) must not run more
# than 5% slower than the uninstrumented one. Each sample averages three
# rides (seeds 1–3) and the min-of-3 comparison discards scheduler
# noise, which dominates single rides of the parallel-domain executor.
# The pair is sampled in three interleaved processes (not -count=3,
# which sequences all base samples before all metrics samples) so a
# drifting host load lands on both sides rather than biasing one.
bench_out=$(mktemp)
for _ in 1 2 3; do
    go test -run=NONE -bench 'BenchmarkCorridorParallel$/domains-parallel|BenchmarkCorridorParallelMetrics$' \
        -benchtime=3x -count=1 . | tee -a "$bench_out"
done
awk '
    /^BenchmarkCorridorParallel\/domains-parallel/ { if (base == 0 || $3+0 < base) base = $3+0 }
    /^BenchmarkCorridorParallelMetrics/            { if (met == 0 || $3+0 < met) met = $3+0 }
    END {
        if (base == 0 || met == 0) { print "telemetry gate: benchmark output missing"; exit 1 }
        printf "telemetry overhead: base=%.0fns metrics=%.0fns ratio=%.3f\n", base, met, met/base
        if (met > base * 1.05) { print "telemetry overhead exceeds 5% budget"; exit 1 }
    }' "$bench_out"
rm -f "$bench_out"

# Flight-recorder-overhead gate: the fully instrumented 24-segment
# corridor with the recorder live in every domain must not run more
# than 5% slower than the recorder-off ride. Same interleaved
# min-of-3 sampling as the telemetry gate above.
bench_out=$(mktemp)
for _ in 1 2 3; do
    go test -run=NONE -bench 'BenchmarkCorridorParallelMetrics$|BenchmarkCorridorParallelFlightRec$' \
        -benchtime=3x -count=1 . | tee -a "$bench_out"
done
awk '
    /^BenchmarkCorridorParallelMetrics/   { if (base == 0 || $3+0 < base) base = $3+0 }
    /^BenchmarkCorridorParallelFlightRec/ { if (rec == 0 || $3+0 < rec) rec = $3+0 }
    END {
        if (base == 0 || rec == 0) { print "flight-recorder gate: benchmark output missing"; exit 1 }
        printf "flight-recorder overhead: base=%.0fns rec=%.0fns ratio=%.3f\n", base, rec, rec/base
        if (rec > base * 1.05) { print "flight-recorder overhead exceeds 5% budget"; exit 1 }
    }' "$bench_out"
rm -f "$bench_out"

# Datapath allocation gate: the drive-by ride and both executors of the
# 24-segment corridor ride must stay within 10% of their allocs/op
# budgets. Allocation counts repeat to within a few objects; timings do
# not, so none is gated. When a change legitimately moves a count,
# re-pin its budget: run the go test line below and copy each
# benchmark's allocs/op into the budget list, in the order of the names.
go test -run=NONE -bench '^BenchmarkMeanPerClientMbps$|^BenchmarkCorridorParallel$' \
    -benchtime=3x -benchmem . | awk '
    function allocs(   i) { for (i = 2; i <= NF; i++) if ($i == "allocs/op") return $(i-1) }
    /^BenchmarkMeanPerClientMbps/                 { got[1] = allocs() }
    /^BenchmarkCorridorParallel\/domains-serial/   { got[2] = allocs() }
    /^BenchmarkCorridorParallel\/domains-parallel/ { got[3] = allocs() }
    END {
        split("BenchmarkMeanPerClientMbps BenchmarkCorridorParallel/domains-serial BenchmarkCorridorParallel/domains-parallel", name)
        split("12674 111451 111462", budget)
        for (i = 1; i <= 3; i++) {
            if (got[i] == "") { print "alloc gate: " name[i] " output missing"; failed = 1; continue }
            printf "alloc gate: %s %d allocs/op (budget %d)\n", name[i], got[i], budget[i]
            if (got[i] + 0 > budget[i] * 1.10) { print "alloc gate: " name[i] " allocates more than 10% over its budget"; failed = 1 }
        }
        if (failed) exit 1
    }'

# mmWave golden gate: the 60 GHz picocell corridor must render
# bit-identically run-to-run (the blockage schedule is seed-derived and
# precomputed, so there is no excuse for drift) and its switch-time
# distribution must sit in the paper's 17–21 ms stop/start/ack band
# (±quantile-interpolation margin; see TestCorridorMMWave).
mm_out=$(mktemp)
go run ./cmd/wgtt-experiments -run corridor-mmwave | tee "$mm_out"
go run ./cmd/wgtt-experiments -run corridor-mmwave | diff "$mm_out" -
awk '
    /^handoffs:/ {
        seen = 1; handoffs = $2+0; p50 = $8+0; p90 = $11+0
        printf "mmwave gate: handoffs=%d p50=%.1fms p90=%.1fms\n", handoffs, p50, p90
        if (handoffs < 40) { print "mmwave gate: picocell switching stalled"; exit 1 }
        if (p50 < 14 || p50 > 25) { print "mmwave gate: switch-time p50 left the 17-21 ms band"; exit 1 }
        if (p90 > 40) { print "mmwave gate: switch-time p90 blew the ioctl jitter budget"; exit 1 }
    }
    END { if (!seen) { print "mmwave gate: handoff summary line missing"; exit 1 } }' "$mm_out"
rm -f "$mm_out"
