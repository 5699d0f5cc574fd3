package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"wgtt"
	"wgtt/internal/core"
	"wgtt/internal/sim"
	"wgtt/internal/wire"
)

// The four workloads are closed-loop batch simulations: each ride
// builds a fresh network from its seed, runs it to a fixed simulated
// horizon, and reads every vehicle's goodput. They differ in which layer
// the host time lands in (see README.md for the measured split).

const (
	// warmup delays flow start past association, as the experiments do.
	warmup = 100 * wgtt.Millisecond
	// offeredMbps is the experiments' saturating UDP downlink load.
	offeredMbps = 30
	// corridorCap bounds the corridor ride like BenchmarkCorridorParallel.
	corridorCap = 10 * wgtt.Second
)

// workload is one benchmark input set. A "set" is one ride of every
// variant at one seed; a run rides whole sets at consecutive seeds.
type workload struct {
	name string
	// variants label the rides of one set; most workloads have one.
	variants []string
	// setCost is the host seconds one set takes on the reference host
	// (2-core x86-64). It converts --seconds into a fixed ride count, so
	// every run of a given seed and length does identical simulated work.
	setCost float64
	build   func(sc *setupClock, seed int64, variant int, o rideOpts) (*rig, error)
	// reference reports that build has a reference form
	// (rideOpts.reference) each run checks its first ride against.
	reference bool
}

// rideOpts selects how a ride is built and run.
type rideOpts struct {
	// traced turns on telemetry, coordinator wait statistics, the
	// timing PeerBus wrapper and (with spans set) span recording.
	traced bool
	spans  *spanLog
	// reference builds the ride's reference form: the corridor under
	// DomainsSerial, serve2 as one in-process BuildServeScenario run.
	reference bool
	// horizon, when positive, caps the simulated time (smoke tests).
	horizon wgtt.Duration
	// workDir holds serve2's unix sockets.
	workDir string
}

func (o rideOpts) capped(d wgtt.Duration) wgtt.Duration {
	if o.horizon > 0 && d > o.horizon {
		return o.horizon
	}
	return d
}

// rig is one built ride, ready to run.
type rig struct {
	dur  wgtt.Duration
	nets []*wgtt.Network
	run  func() error
	// figures returns the goodput of every flow-carrying vehicle.
	figures func() ([]float64, error)
	close   func()
	// Sharded rides only: each network's owned domains, its transport,
	// and (traced) its timing bus.
	owned      []map[string]bool
	transports []*wire.Transport
	buses      []*timedBus
}

// meter is any goodput-reporting flow.
type meter interface{ Mbps(wgtt.Time) float64 }

func figuresAt(now func() wgtt.Time, flows []meter) func() ([]float64, error) {
	return func() ([]float64, error) {
		out := make([]float64, len(flows))
		for i, f := range flows {
			out[i] = f.Mbps(now())
		}
		return out, nil
	}
}

// udpAfterWarmup attaches the saturating UDP downlink the hand-built
// workloads use (BuildServeScenario attaches its own).
func udpAfterWarmup(n *wgtt.Network, c *wgtt.Client) meter {
	f := wgtt.NewUDPDownlink(n, c, offeredMbps)
	n.Loop.After(warmup, f.Start)
	return f
}

// driveAcross is the experiments' crossing: 5 m of lead-in and lead-out
// beyond the AP array at a constant speed.
func driveAcross(cfg *wgtt.Config, mph float64) (wgtt.Linear, wgtt.Duration) {
	lo, hi := cfg.RoadSpanX()
	const margin = 5.0
	traj := wgtt.Drive(lo-margin, 0, mph)
	secs := ((hi + margin) - (lo - margin)) / traj.SpeedMps()
	return traj, wgtt.Duration(secs * float64(wgtt.Second))
}

type testbedVariant struct {
	scheme wgtt.Scheme
	tcp    bool
	mph    float64
}

var testbedVariants = func() []testbedVariant {
	var vs []testbedVariant
	for _, s := range []wgtt.Scheme{wgtt.SchemeWGTT, wgtt.SchemeEnhanced80211r} {
		for _, tcp := range []bool{false, true} {
			for _, mph := range []float64{5, 15, 35} {
				vs = append(vs, testbedVariant{s, tcp, mph})
			}
		}
	}
	return vs
}()

func (v testbedVariant) label() string {
	scheme, tr := "wgtt", "udp"
	if v.scheme != wgtt.SchemeWGTT {
		scheme = "11r"
	}
	if v.tcp {
		tr = "tcp"
	}
	return fmt.Sprintf("%s-%s-%g", scheme, tr, v.mph)
}

// The workloads, and why each was chosen (README.md has the measured
// split by module).
var workloads = []*workload{
	// The paper's 8-AP array with one vehicle — {WGTT, Enhanced 802.11r}
	// x {UDP 30 Mbit/s, bulk TCP} x {5, 15, 35} mph, the unit of work
	// behind Fig 13-15. Per-vehicle radio, ESNR and switch work dominate;
	// TCP adds uplink ACKs; there is no coordinator and no wire.
	{
		name: "testbed",
		variants: func() []string {
			var ls []string
			for _, v := range testbedVariants {
				ls = append(ls, v.label())
			}
			return ls
		}(),
		setCost: 2.6,
		build:   buildTestbed,
	},
	// 64 vehicles, 16 with UDP, on one shared medium of 64 APs for 2
	// sim-s: per-PPDU fan-out to many receivers and 4096 link
	// realizations per ride stress mac, channel and set-up, on the same
	// datapath as testbed at another population.
	{name: "crowd", variants: []string{"ride"}, setCost: 3.6, build: buildCrowd},
	// 24 segments x 4 APs, 2 following vehicles with UDP, 10 sim-s under
	// DomainsParallel: coordinator rounds carrying ~8 us of model work
	// each dominate, which is why parallel loses to serial on few cores.
	{name: "corridor", variants: []string{"ride"}, setCost: 0.86, build: buildCorridor, reference: true},
	// wgtt-serve's corridor sharded "segs,server" over two wire
	// transports on unix sockets, one goroutine per shard: lockstep
	// exchanges dominate, and only here does the wire layer work.
	{name: "serve2", variants: []string{"ride"}, setCost: 0.85, build: buildServe2, reference: true},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func buildTestbed(sc *setupClock, seed int64, variant int, o rideOpts) (*rig, error) {
	v := testbedVariants[variant]
	cfg := wgtt.DefaultConfig(v.scheme)
	cfg.Seed = seed
	cfg.Telemetry = o.traced
	n := sc.newNetwork(cfg)
	traj, dur := driveAcross(&cfg, v.mph)
	c := sc.addClient(n, traj)
	var f meter
	if v.tcp {
		t := wgtt.NewTCPDownlink(n, c, 0)
		n.Loop.After(warmup, t.Start)
		f = t
	} else {
		f = udpAfterWarmup(n, c)
	}
	dur = o.capped(dur)
	return &rig{
		dur:     dur,
		nets:    []*wgtt.Network{n},
		run:     func() error { n.Run(dur); return nil },
		figures: figuresAt(n.Loop.Now, []meter{f}),
	}, nil
}

// buildCrowd is the 8-segment x 64-client geometry of the scale grid
// (wgtt.RunScaleCell), but with sixteen flows spread one per four
// vehicles from the third on, rather than on the first sixteen. Packed
// into the first two segments those starve one another, and a vehicle
// starting on a segment boundary (every eighth one) is never adopted;
// either way some flow delivers nothing within the ride.
func buildCrowd(sc *setupClock, seed int64, _ int, o rideOpts) (*rig, error) {
	const (
		segments  = 8
		clients   = 64
		flowEvery = 4
	)
	cfg := wgtt.DefaultConfig(wgtt.SchemeWGTT)
	cfg.Seed = seed
	cfg.Telemetry = o.traced
	for i := 0; i < segments; i++ {
		cfg.Segments = append(cfg.Segments, wgtt.SegmentSpec{NumAPs: cfg.NumAPs})
	}
	n := sc.newNetwork(cfg)
	lo, hi := cfg.RoadSpanX()
	span := hi - lo + 10
	var flows []meter
	for i := 0; i < clients; i++ {
		x := lo - 5 + span*float64(i)/clients
		lane := float64(i%2) * -3
		c := sc.addClient(n, wgtt.Drive(x, lane, 25))
		if i%flowEvery == 2 {
			flows = append(flows, udpAfterWarmup(n, c))
		}
	}
	dur := o.capped(2 * wgtt.Second)
	return &rig{
		dur:     dur,
		nets:    []*wgtt.Network{n},
		run:     func() error { n.Run(dur); return nil },
		figures: figuresAt(n.Loop.Now, flows),
	}, nil
}

// corridorSegments lengthens wgtt-serve's three-segment corridor so that
// the domains outnumber the two cores many times over.
const corridorSegments = 24

// buildCorridor is wgtt-serve's "corridor" scenario stretched to
// corridorSegments segments of the same shape.
func buildCorridor(sc *setupClock, seed int64, _ int, o rideOpts) (*rig, error) {
	mode := wgtt.DomainsParallel
	if o.reference {
		mode = wgtt.DomainsSerial
	}
	sr, err := sc.buildServe(seed, o.traced, func(c *wgtt.Config) {
		seg := c.Segments[0]
		c.Segments = nil
		for i := 0; i < corridorSegments; i++ {
			c.Segments = append(c.Segments, seg)
		}
		c.Domains = mode
	})
	if err != nil {
		return nil, err
	}
	if o.traced {
		sr.Net.Coord.EnableWaitStats()
	}
	return wholeRun(sr, o.capped(min(sr.Dur, corridorCap))), nil
}

// wholeRun rides a ServeRun whole, in one process, for dur.
func wholeRun(sr *wgtt.ServeRun, dur wgtt.Duration) *rig {
	return &rig{
		dur:     dur,
		nets:    []*wgtt.Network{sr.Net},
		run:     func() error { sr.Net.Run(dur); return nil },
		figures: func() ([]float64, error) { return ownedFigures([]*wgtt.ServeRun{sr}, nil) },
	}
}

// serve2Partition is wgtt-serve's natural two-process split: every
// segment domain in one shard, the wired server in the other, so each
// cross-domain envelope and every client migration crosses the wire.
const serve2Partition = "segs,server"

// buildServe2 builds wgtt-serve's "corridor" scenario SPMD-style: two
// identical networks, each running its partition share on its own
// goroutine over a wire.Transport on unix sockets. Its reference form is
// the same scenario run whole in one process.
func buildServe2(sc *setupClock, seed int64, _ int, o rideOpts) (*rig, error) {
	if o.reference {
		sr, err := sc.buildServe(seed, o.traced, nil)
		if err != nil {
			return nil, err
		}
		return wholeRun(sr, o.capped(sr.Dur)), nil
	}
	const shards = 2
	dir, err := os.MkdirTemp(o.workDir, "serve2-")
	if err != nil {
		return nil, err
	}
	r := &rig{}
	r.close = func() {
		for _, tp := range r.transports {
			tp.Close()
		}
		os.RemoveAll(dir)
	}
	fail := func(err error) (*rig, error) {
		r.close()
		return nil, err
	}
	var (
		srs   []*wgtt.ServeRun
		addrs []string
	)
	for i := 0; i < shards; i++ {
		sr, err := sc.buildServe(seed, o.traced, nil)
		if err != nil {
			return fail(err)
		}
		srs = append(srs, sr)
		r.nets = append(r.nets, sr.Net)
		addrs = append(addrs, "unix:"+filepath.Join(dir, fmt.Sprintf("p%d.sock", i)))
	}
	r.dur = o.capped(srs[0].Dur)
	part, err := core.ParsePartition(serve2Partition)
	if err != nil {
		return fail(err)
	}
	digest := sha256.Sum256([]byte(fmt.Sprintf("wgtt-bench|serve2|seed=%d|part=%s|until=%d", seed, serve2Partition, r.dur)))
	for i, n := range r.nets {
		procs, err := part.Resolve(n)
		if err != nil {
			return fail(err)
		}
		r.owned = append(r.owned, procs[i])
	}
	var buses [shards]sim.PeerBus
	for i := 0; i < shards; i++ {
		tp, err := wire.New(wire.Config{Self: i, Addrs: addrs, Digest: digest})
		if err != nil {
			return fail(err)
		}
		r.transports = append(r.transports, tp)
		buses[i] = tp
		if o.traced {
			tb := &timedBus{bus: tp, spans: o.spans, parent: -1, tid: i + 1}
			r.buses = append(r.buses, tb)
			buses[i] = tb
		}
	}
	r.run = func() error {
		var wg sync.WaitGroup
		errs := make([]error, shards)
		for i := 0; i < shards; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() {
					if p := recover(); p != nil {
						errs[i] = fmt.Errorf("shard %d panicked: %v", i, p)
					}
					if errs[i] != nil {
						// Unblock the peer's pending Exchange.
						for _, tp := range r.transports {
							tp.Close()
						}
					}
				}()
				errs[i] = r.nets[i].RunPartitioned(r.dur, r.owned[i], buses[i])
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
		}
		return nil
	}
	r.figures = func() ([]float64, error) { return ownedFigures(srs, r.owned) }
	return r, nil
}

// ownedFigures reads every client's goodput, each from the one shard
// that owns it; owned nil means one whole-network run, which owns all.
func ownedFigures(srs []*wgtt.ServeRun, owned []map[string]bool) ([]float64, error) {
	var (
		out    []float64
		owners []int
	)
	for i, sr := range srs {
		var own map[string]bool
		if owned != nil {
			own = owned[i]
		}
		figs := sr.Figures(own)
		if out == nil {
			out, owners = make([]float64, len(figs)), make([]int, len(figs))
		}
		for _, f := range figs {
			if f.Owned {
				out[f.ID] = f.Mbps
				owners[f.ID]++
			}
		}
	}
	for id, k := range owners {
		if k != 1 {
			return nil, fmt.Errorf("client %d owned by %d shards", id, k)
		}
	}
	return out, nil
}

// setupClock times the public set-up calls a ride makes.
type setupClock struct {
	spans    *spanLog
	parent   int
	newNetNs int64
	newNets  int
	addNs    int64
	adds     int
	links    int
}

func (c *setupClock) newNetwork(cfg wgtt.Config) *wgtt.Network {
	id := c.spans.begin("NewNetwork", c.parent, 0)
	t0 := time.Now()
	n := wgtt.NewNetwork(cfg)
	c.newNetNs += time.Since(t0).Nanoseconds()
	c.newNets++
	c.spans.end(id)
	return n
}

// buildServe builds wgtt-serve's "corridor" scenario, with telemetry as
// traced says and then mutate applied to its config. The one call builds
// the network and attaches the vehicles, so it counts as one network
// build and no AddClient.
func (c *setupClock) buildServe(seed int64, traced bool, mutate func(*wgtt.Config)) (*wgtt.ServeRun, error) {
	id := c.spans.begin("BuildServeScenario", c.parent, 0)
	t0 := time.Now()
	sr, err := wgtt.BuildServeScenario("corridor", wgtt.Options{Seed: seed, Mutate: func(cfg *wgtt.Config) {
		cfg.Telemetry = traced
		if mutate != nil {
			mutate(cfg)
		}
	}})
	c.newNetNs += time.Since(t0).Nanoseconds()
	c.newNets++
	c.spans.end(id)
	return sr, err
}

func (c *setupClock) addClient(n *wgtt.Network, traj wgtt.Trajectory) *wgtt.Client {
	id := c.spans.begin("AddClient", c.parent, 0)
	t0 := time.Now()
	cl := n.AddClient(traj)
	c.addNs += time.Since(t0).Nanoseconds()
	c.adds++
	c.links += n.TotalAPs() // one channel link realization per AP
	c.spans.end(id)
	return cl
}

// timedBus times every Exchange of one shard.
type timedBus struct {
	bus    sim.PeerBus
	ns     []int64
	spans  *spanLog
	parent int // the ride's Run span
	tid    int
}

func (b *timedBus) Exchange(m sim.RoundMsg) ([]sim.RoundMsg, error) {
	id := b.spans.begin("Exchange", b.parent, b.tid)
	t0 := time.Now()
	out, err := b.bus.Exchange(m)
	b.ns = append(b.ns, time.Since(t0).Nanoseconds())
	b.spans.end(id)
	return out, err
}
