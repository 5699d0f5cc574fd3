package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	"wgtt"
	"wgtt/internal/mac"
	"wgtt/internal/telemetry"
)

// runConfig is one invocation's settings for one workload.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// sets, when positive, overrides the ride count derived from
	// seconds (smoke tests ride one set).
	sets int
	// setupSamples is the minimum number of set-ups setup_s is the
	// median of; extra set-ups are built and discarded to reach it.
	setupSamples int
	horizon      wgtt.Duration
	workDir      string
	// pins, when non-nil, holds the digests the rides must reproduce.
	pins pinSet
}

// ride identifies one ride: its seed and its variant within the set.
type ride struct {
	seed    int64
	variant int
}

// key names a ride in the pin file.
func (w *workload) key(r ride) string {
	return fmt.Sprintf("%d/%s", r.seed, w.variants[r.variant])
}

// rides lists the rides of a run: whole sets at seeds seed, seed+1, …
func (w *workload) rides(seed int64, sets int) []ride {
	var rs []ride
	for s := 0; s < sets; s++ {
		for v := range w.variants {
			rs = append(rs, ride{seed: seed + int64(s), variant: v})
		}
	}
	return rs
}

// setsFor converts a measuring time into a whole number of sets.
func (w *workload) setsFor(seconds float64) int {
	return max(1, int(math.Round(seconds/w.setCost)))
}

// rideResult is everything measured on one ride.
type rideResult struct {
	key     string
	simS    float64
	setupNs int64
	runNs   int64
	// Heap allocations during Run and the live heap after it.
	allocs, allocBytes, liveHeap uint64
	flows                        []float64
	digest                       string
	err                          error

	// Layer counters, read from outside after the run.
	clock     setupClock
	snap      *telemetry.Snapshot // traced rides only
	hasMedium bool                // a single-loop network exposes its medium
	medium    mac.MediumStats
	rounds    int64
	exchanges int64
	domains   int
	waitSumNs int64
	waitMaxNs int64
	wireBytes int64
	wireExch  int64
	resends   int64
	exchNs    []int64
	busWallNs int64 // shards x Run wall time, the span exchanges share
	rxMPDUs   int64
	rxDups    int64
	cpuGC     float64 // GC CPU seconds during Run
	cpuUsed   float64 // non-idle CPU seconds during Run
}

// rideOnce builds, runs and checks one ride. A panic or error anywhere
// in it becomes the ride's err.
func rideOnce(w *workload, r ride, o rideOpts) (res rideResult) {
	res.key = w.key(r)
	defer func() {
		if p := recover(); p != nil {
			res.err = fmt.Errorf("%s %s: panic: %v", w.name, res.key, p)
		}
	}()
	runtime.GC() // every ride starts from a collected heap

	sc := setupClock{spans: o.spans}
	setupSpan := o.spans.begin("setup", -1, 0)
	sc.parent = setupSpan
	t0 := time.Now()
	g, err := w.build(&sc, r.seed, r.variant, o)
	res.setupNs = time.Since(t0).Nanoseconds()
	o.spans.end(setupSpan)
	res.clock = sc
	if err != nil {
		res.err = fmt.Errorf("%s %s: set-up: %w", w.name, res.key, err)
		return res
	}
	if g.close != nil {
		defer g.close()
	}

	runSpan := o.spans.begin("Run", -1, 0)
	for _, b := range g.buses {
		b.parent = runSpan
	}
	cpu0 := readCPU()
	a0, b0 := heapAllocs()
	t1 := time.Now()
	err = g.run()
	res.runNs = time.Since(t1).Nanoseconds()
	a1, b1 := heapAllocs()
	cpu1 := readCPU()
	o.spans.end(runSpan)
	res.allocs, res.allocBytes = a1-a0, b1-b0
	res.simS = g.dur.Seconds()
	if err != nil {
		res.err = fmt.Errorf("%s %s: run: %w", w.name, res.key, err)
		return res
	}
	res.cpuGC = cpu1.gc - cpu0.gc
	res.cpuUsed = (cpu1.total - cpu1.idle) - (cpu0.total - cpu0.idle)

	res.flows, err = g.figures()
	if err != nil {
		res.err = fmt.Errorf("%s %s: %w", w.name, res.key, err)
		return res
	}
	for i, f := range res.flows {
		if math.IsNaN(f) || math.IsInf(f, 0) || f <= 0 {
			res.err = fmt.Errorf("%s %s: vehicle %d goodput %v", w.name, res.key, i, f)
		}
	}
	res.digest = digest(w.name, res.key, res.flows)
	readLayers(&res, g)

	runtime.GC() // the network is still reachable through g
	res.liveHeap = liveHeap()
	runtime.KeepAlive(g)
	return res
}

// digest fingerprints a ride's goodputs at full float precision.
func digest(workload, key string, flows []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s", workload, key)
	for _, f := range flows {
		fmt.Fprintf(&b, "|%016x", math.Float64bits(f))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:16])
}

// readLayers reads the public per-layer counters of a finished ride.
func readLayers(res *rideResult, g *rig) {
	var snaps []*telemetry.Snapshot
	for i, n := range g.nets {
		if n.Medium != nil {
			res.hasMedium = true
			st := n.Medium.Stats()
			res.medium.PPDUs += st.PPDUs
			res.medium.MPDUs += st.MPDUs
			res.medium.MPDULosses += st.MPDULosses
			res.medium.Collisions += st.Collisions
		}
		for _, c := range n.Clients {
			res.rxMPDUs += int64(c.RxMPDUs)
			res.rxDups += int64(c.RxDuplicates)
		}
		if n.Coord != nil {
			// Every shard of a partitioned ride runs the same rounds.
			res.rounds = max(res.rounds, n.Coord.Rounds())
			res.exchanges = max(res.exchanges, n.Coord.Exchanges())
			waits := n.Coord.WaitStats()
			res.domains += len(waits)
			for _, ws := range waits {
				res.waitSumNs += ws.SumNs
				res.waitMaxNs = max(res.waitMaxNs, ws.MaxNs)
			}
		}
		if !n.TelemetryEnabled() {
			continue
		}
		var s *telemetry.Snapshot
		if g.owned != nil {
			s = n.MetricsSnapshotOwned(g.owned[i])
		} else {
			s = n.MetricsSnapshot()
		}
		s.Series = nil // per-layer metrics read totals only
		snaps = append(snaps, s)
	}
	if len(snaps) > 0 {
		res.snap = telemetry.MergeSnapshots(snaps...)
	}
	for _, tp := range g.transports {
		st := tp.Stats()
		res.wireBytes += st.BytesTx
		res.wireExch += st.Exchanges
		res.resends += st.Resends
	}
	for _, b := range g.buses {
		res.exchNs = append(res.exchNs, b.ns...)
		res.busWallNs += res.runNs
	}
}

var allocSamples = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes"}

func heapAllocs() (objects, bytes uint64) {
	s := make([]metrics.Sample, len(allocSamples))
	for i, name := range allocSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

type cpuClasses struct{ gc, total, idle float64 }

func readCPU() cpuClasses {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuClasses{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Float64()}
}

// workloadResult is one workload's run: the rides, the checks, and the
// metrics computed from them.
type workloadResult struct {
	name      string
	seed      int64
	sets      int
	perSet    int // rides per set
	setRatios []float64
	timed     []rideResult
	traced    []rideResult
	verify    int // untimed verification rides
	reference *rideResult
	setupNs   []int64
	failures  []string
	cpuFrac   map[string]float64
	spans     *spanLog
	endToEnd  []metric
	perLayer  []metric
	// unsupported holds the per-layer metrics whose source does not
	// exist on this workload (value 0), kept apart from perLayer.
	unsupported []metric
	detail      []metric
	attempted   int
	failedRide  int
}

// fail records a failed ride.
func (wr *workloadResult) fail(err error) {
	wr.failedRide++
	wr.failures = append(wr.failures, err.Error())
}

// runWorkload runs one workload: untimed verification rides (which also
// warm the process), the timed pass, extra set-ups for setup_s, and in
// trace mode the traced pass over the same rides.
func runWorkload(w *workload, rc runConfig) *workloadResult {
	sets := rc.sets
	if sets <= 0 {
		secs := rc.seconds
		if rc.trace {
			secs /= 2 // the timed and the traced pass share the time
		}
		sets = w.setsFor(secs)
	}
	wr := &workloadResult{name: w.name, seed: rc.seed, sets: sets, perSet: len(w.variants)}
	rides := w.rides(rc.seed, sets)
	opts := rideOpts{horizon: rc.horizon, workDir: rc.workDir}

	// Verification: a first ride (re-ridden below, timed), and the
	// reference form of the first ride for workloads that have one.
	first := wr.ride(w, rides[0], opts, rc.pins)
	wr.verify++
	if w.reference {
		ref := opts
		ref.reference = true
		wr.verify++
		r := wr.ride(w, rides[0], ref, rc.pins)
		if r.err == nil && first.err == nil && r.digest != first.digest {
			wr.fail(fmt.Errorf("%s %s: digest %s differs from the reference form's %s", w.name, first.key, first.digest, r.digest))
		}
		wr.reference = &r
	}

	for i, r := range rides {
		res := wr.ride(w, r, opts, rc.pins)
		if i == 0 && res.err == nil && first.err == nil && res.digest != first.digest {
			wr.fail(fmt.Errorf("%s %s: re-ride digest %s differs from the first ride's %s", w.name, res.key, res.digest, first.digest))
		}
		wr.timed = append(wr.timed, res)
	}

	// setup_s is the median over set-ups of one whole set.
	perSet := wr.perSet
	for s := 0; s < sets; s++ {
		var ns int64
		for _, res := range wr.timed[s*perSet : (s+1)*perSet] {
			ns += res.setupNs
		}
		wr.setupNs = append(wr.setupNs, ns)
	}
	for k := 0; len(wr.setupNs) < rc.setupSamples; k++ {
		var ns int64
		for _, r := range rides[(k%sets)*perSet : (k%sets+1)*perSet] {
			ns += setupOnly(w, r, opts)
		}
		wr.setupNs = append(wr.setupNs, ns)
	}

	if rc.trace {
		wr.spans = newSpanLog()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			wr.fail(fmt.Errorf("%s: cpu profile: %w", w.name, err))
		}
		for i, r := range rides {
			to := opts
			to.traced = true
			if i == 0 {
				to.spans = wr.spans
			}
			res := wr.ride(w, r, to, rc.pins)
			if res.err == nil && wr.timed[i].err == nil && res.digest != wr.timed[i].digest {
				wr.fail(fmt.Errorf("%s %s: traced digest %s differs from the untraced %s", w.name, res.key, res.digest, wr.timed[i].digest))
			}
			wr.traced = append(wr.traced, res)
		}
		pprof.StopCPUProfile()
		frac, err := moduleCPU(prof.Bytes())
		if err != nil {
			wr.fail(fmt.Errorf("%s: %w", w.name, err))
		}
		wr.cpuFrac = frac
	}
	wr.computeMetrics()
	return wr
}

// ride runs one ride, counting it and checking it against the pins.
func (wr *workloadResult) ride(w *workload, r ride, o rideOpts, pins pinSet) rideResult {
	res := rideOnce(w, r, o)
	wr.attempted++
	if res.err == nil {
		if want, ok := pins[w.name][res.key]; ok && want != res.digest {
			res.err = fmt.Errorf("%s %s: digest %s, pinned %s", w.name, res.key, res.digest, want)
		}
	}
	if res.err != nil {
		wr.fail(res.err)
	}
	return res
}

// setupOnly builds a ride and discards it, returning the set-up time.
func setupOnly(w *workload, r ride, o rideOpts) (ns int64) {
	runtime.GC()
	sc := setupClock{}
	t0 := time.Now()
	g, err := w.build(&sc, r.seed, r.variant, o)
	ns = time.Since(t0).Nanoseconds()
	if err == nil && g.close != nil {
		g.close()
	}
	return ns
}

// metric is one named measurement.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile reports the q-quantile of samples (nearest rank) and
// whether at least ten samples lie beyond it.
func percentile(samples []int64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(n))) - 1
	i = min(max(i, 0), n-1)
	return float64(s[i]), n-1-i >= 10
}

// realtimeRatio is Σ simulated s ÷ Σ host s inside Run over rides: the
// pooled ratio.
func realtimeRatio(rides []rideResult) float64 {
	var sim, host float64
	for _, r := range rides {
		sim += r.simS
		host += float64(r.runNs) / 1e9
	}
	return ratio(sim, host)
}

// setRatios returns each set's realtime ratio. realtime_ratio reports the
// fastest set's: the host's speed per instruction drifts by up to 2x
// over tens of seconds while CPU time tracks wall time, and other load
// only ever slows a set down, so across runs the fastest set varies
// least. In ten runs at ten seeds its spread stayed within 19% where the
// pooled ratio's reached 30% (README.md). Every set rides every variant,
// so a change that slows one variant slows every set. The ratio depends
// on the set count, which --seconds fixes: compare runs of equal length.
func setRatios(rides []rideResult, perSet int) []float64 {
	var out []float64
	for s := 0; s+perSet <= len(rides); s += perSet {
		out = append(out, realtimeRatio(rides[s:s+perSet]))
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// modules are the layers CPU time is attributed to: every
// wgtt/internal/<module>, plus runtime for stacks with no module frame.
var modules = []string{
	"rf", "channel", "phy", "csi", "mac", "ap", "queue", "controller", "baseline",
	"backhaul", "deploy", "client", "transport", "workload", "sim", "wire", "core",
	"packet", "mobility", "telemetry", "trace", "federation", "scenario", "runner",
	"stats", runtimeModule,
}

// computeMetrics derives the end-to-end metrics from the timed pass and
// the per-layer metrics from the traced pass.
func (wr *workloadResult) computeMetrics() {
	var simS, allocs, allocMB, live, sumFlows float64
	var nFlows int
	for _, r := range wr.timed {
		simS += r.simS
		allocs += float64(r.allocs)
		allocMB += float64(r.allocBytes) / 1e6
		live = math.Max(live, float64(r.liveHeap)/1e6)
		for _, f := range r.flows {
			sumFlows += f
			nFlows++
		}
	}
	setups := make([]float64, len(wr.setupNs))
	for i, ns := range wr.setupNs {
		setups[i] = float64(ns) / 1e9
	}
	wr.setRatios = setRatios(wr.timed, wr.perSet)
	pooled := realtimeRatio(wr.timed)
	wr.endToEnd = []metric{
		{"realtime_ratio", slices.Max(wr.setRatios), "sim-s/s"},
		{"setup_s", median(setups), "s"},
		{"allocs_per_sim_s", ratio(allocs, simS), "1/sim-s"},
		{"alloc_mb_per_sim_s", ratio(allocMB, simS), "MB/sim-s"},
		{"live_heap_mb", live, "MB"},
		{"goodput_mbps", ratio(sumFlows, float64(nFlows)), "Mbit/s"},
	}
	wr.detail = []metric{{"realtime_ratio.pooled", pooled, "sim-s/s"}}
	if len(wr.traced) == 0 {
		return
	}

	var (
		tRunNs, tAllocs                       float64
		newNetNs, addNs, links                float64
		newNets, adds                         int
		events, rounds, exchanges             float64
		waitSum, waitDomNs, waitMax           float64
		wireBytes, wireExch, resends, exchSum float64
		busWallNs                             float64
		ppdus, mpdus, losses, collisions      float64
		rxMPDUs, rxDups, cpuGC, cpuUsed       float64
		exchNs                                []int64
		snaps                                 []*telemetry.Snapshot
		hasCoord, hasMedium                   bool
	)
	for _, r := range wr.traced {
		tRunNs += float64(r.runNs)
		tAllocs += float64(r.allocs)
		newNetNs += float64(r.clock.newNetNs)
		addNs += float64(r.clock.addNs)
		newNets += r.clock.newNets
		adds += r.clock.adds
		links += float64(r.clock.links)
		rounds += float64(r.rounds)
		exchanges += float64(r.exchanges)
		hasCoord = hasCoord || r.rounds > 0
		waitSum += float64(r.waitSumNs)
		waitDomNs += float64(r.domains) * float64(r.runNs)
		waitMax = math.Max(waitMax, float64(r.waitMaxNs))
		wireBytes += float64(r.wireBytes)
		wireExch += float64(r.wireExch)
		resends += float64(r.resends)
		for _, ns := range r.exchNs {
			exchSum += float64(ns)
		}
		busWallNs += float64(r.busWallNs)
		exchNs = append(exchNs, r.exchNs...)
		hasMedium = hasMedium || r.hasMedium
		ppdus += float64(r.medium.PPDUs)
		mpdus += float64(r.medium.MPDUs)
		losses += float64(r.medium.MPDULosses)
		collisions += float64(r.medium.Collisions)
		rxMPDUs += float64(r.rxMPDUs)
		rxDups += float64(r.rxDups)
		cpuGC += r.cpuGC
		cpuUsed += r.cpuUsed
		if r.snap != nil {
			snaps = append(snaps, r.snap)
		}
	}
	snap := telemetry.MergeSnapshots(snaps...)
	events = snap.SumGauges("loop_events")
	counter := func(leaf string) float64 { return float64(snap.SumCounters(leaf)) }
	handoffs, _ := snap.MergeHistograms("total_ms")

	// A metric whose source does not exist on this workload — no timed
	// AddClient, no coordinator, no wait statistics, no wire, no public
	// medium (domain mode keeps one per segment), too few handoffs for a
	// percentile — is set aside as unsupported rather than read as 0.
	var layer []metric
	add := func(ok bool, ms ...metric) {
		if ok {
			layer = append(layer, ms...)
		} else {
			for _, m := range ms {
				wr.unsupported = append(wr.unsupported, metric{m.Name, 0, m.Unit})
			}
		}
	}
	for _, m := range modules {
		add(true, metric{m + ".cpu_frac", wr.cpuFrac[m], "fraction"})
	}
	apMPDUs := counter("mpdus")
	issued := counter("switches_issued")
	upDel, upDup := counter("uplink_delivered"), counter("uplink_dups")
	add(true, metric{"core.new_network_ms", ratio(newNetNs/1e6, float64(newNets)), "ms"})
	add(adds > 0,
		metric{"core.add_client_ms", ratio(addNs/1e6, float64(adds)), "ms"},
		metric{"channel.links", links, "count"},
		metric{"channel.us_per_link", ratio(addNs/1e3, links), "us"})
	add(true,
		metric{"sim.events", events, "count"},
		metric{"sim.ns_per_event", ratio(tRunNs, events), "ns"})
	add(hasCoord, metric{"sim.rounds", rounds, "count"})
	add(waitDomNs > 0, metric{"sim.barrier_wait_frac", ratio(waitSum, waitDomNs), "fraction"})
	add(wireExch > 0,
		metric{"wire.exchanges", exchanges, "count"},
		metric{"wire.exchange_frac", ratio(exchSum, busWallNs), "fraction"},
		metric{"wire.bytes_per_exchange", ratio(wireBytes, wireExch), "B"},
		metric{"wire.resends", resends, "count"})
	add(hasMedium,
		metric{"mac.ppdus", ppdus, "count"},
		// Losses are counted at every receiver that detects the PPDU, so
		// on a crowded medium there are more losses than MPDUs sent.
		metric{"mac.losses_per_mpdu", ratio(losses, mpdus), "count"},
		metric{"mac.collisions", collisions, "count"})
	add(true,
		metric{"ap.mpdus", apMPDUs, "count"},
		metric{"ap.retx_frac", ratio(counter("mpdus_retx"), apMPDUs), "fraction"},
		metric{"ap.drop_frac", ratio(counter("mpdus_dropped"), apMPDUs), "fraction"},
		metric{"ap.mpdus_per_aggregate", ratio(apMPDUs, counter("aggregates")), "count"},
		metric{"ap.flushed_pkts", counter("flushed_pkts"), "count"},
		metric{"ap.ba_recovered", counter("ba_recovered"), "count"},
		metric{"controller.switches_issued", issued, "count"},
		metric{"controller.switch_ack_frac", ratio(counter("switches_acked"), issued), "fraction"},
		metric{"controller.stop_retx", counter("stop_retx"), "count"},
		metric{"controller.handoffs", float64(handoffs.Count), "count"},
	)
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p90", 0.9}} {
		// Supported only when at least ten handoffs lie beyond it.
		add(float64(handoffs.Count)*(1-q.q) >= 10,
			metric{"controller.handoff_ms." + q.name, handoffs.Quantile(q.q), "sim-ms"})
	}
	add(true,
		metric{"controller.uplink_dup_frac", ratio(upDup, upDel+upDup), "fraction"},
		metric{"backhaul.msgs", counter("msgs"), "count"},
		metric{"backhaul.bytes", counter("bytes"), "B"},
		metric{"deploy.trunk_msgs", counter("tx_msgs"), "count"},
		metric{"deploy.trunk_bytes", counter("tx_bytes"), "B"},
		metric{"client.rx_dup_frac", ratio(rxDups, rxMPDUs+rxDups), "fraction"},
		metric{"runtime.gc_cpu_frac", ratio(cpuGC, cpuUsed), "fraction"},
		metric{"runtime.allocs_per_event", ratio(tAllocs, events), "count"},
		// Pooled over the same rides on both sides: a like-for-like ratio.
		metric{"bench.trace_overhead_frac", 1 - ratio(realtimeRatio(wr.traced), pooled), "fraction"},
	)
	wr.perLayer = layer

	// Workload-specific host timings: reported where their layer runs.
	if hasCoord {
		wr.detail = append(wr.detail, metric{"sim.round_us", ratio(tRunNs/1e3, rounds), "us"})
	}
	if ref := wr.reference; ref != nil && ref.rounds > 0 {
		// The same first ride in its reference form (DomainsSerial, or
		// in-process), untraced: what the rounds cost without the
		// parallel barrier or the wire.
		wr.detail = append(wr.detail, metric{"sim.reference_round_us", float64(ref.runNs) / 1e3 / float64(ref.rounds), "us"})
	}
	if waitDomNs > 0 {
		wr.detail = append(wr.detail, metric{"sim.barrier_wait_max_ms", waitMax / 1e6, "ms"})
	}
	if len(exchNs) > 0 {
		wr.detail = append(wr.detail, metric{"wire.exchange_us.n", float64(len(exchNs)), "count"})
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50", 0.5}, {"p99", 0.99}} {
			if v, ok := percentile(exchNs, q.q); ok {
				wr.detail = append(wr.detail, metric{"wire.exchange_us." + q.name, v / 1e3, "us"})
			}
		}
	}
}
