// Package core assembles a complete WGTT (or Enhanced-802.11r) roadside
// network: the eight-AP deployment geometry of Fig. 9, per-link radio
// channels, the shared medium, the Ethernet backhaul with controller and
// wired server, and the mobile clients. It is the paper's testbed in
// software and the substrate every experiment runs on.
package core

import (
	"fmt"
	"strings"

	"wgtt/internal/ap"
	"wgtt/internal/backhaul"
	"wgtt/internal/baseline"
	"wgtt/internal/channel"
	"wgtt/internal/client"
	"wgtt/internal/controller"
	"wgtt/internal/deploy"
	"wgtt/internal/federation"
	"wgtt/internal/rf"
)

// Scheme selects the roaming system under test.
type Scheme int

// Schemes.
const (
	// WGTT is the paper's system.
	WGTT Scheme = iota
	// Enhanced80211r is the §5.1 comparison scheme.
	Enhanced80211r
	// Stock80211r is the §2 motivation behaviour (5 s history,
	// over-the-DS transition).
	Stock80211r
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case WGTT:
		return "WGTT"
	case Enhanced80211r:
		return "Enhanced 802.11r"
	case Stock80211r:
		return "Stock 802.11r"
	}
	return "Scheme(?)"
}

// ParseScheme inverts the command-line scheme names. It accepts the
// short flag forms ("wgtt", "11r", "stock11r") and the String() forms,
// case-insensitively.
func ParseScheme(name string) (Scheme, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "wgtt":
		return WGTT, nil
	case "11r", "enhanced11r", "enhanced 802.11r":
		return Enhanced80211r, nil
	case "stock11r", "stock 802.11r":
		return Stock80211r, nil
	}
	return 0, fmt.Errorf("unknown scheme %q (want wgtt | 11r | stock11r)", name)
}

// DomainMode selects the shape of a multi-segment deployment's
// execution domains. Every network runs on a coordinator; a
// single-segment deployment always runs as one domain.
type DomainMode int

// Domain modes.
const (
	// SingleLoop runs the whole deployment as one domain: one event
	// loop and one shared medium, run to each horizon in one round —
	// the shape every golden figure pins.
	SingleLoop DomainMode = iota
	// DomainsSerial splits the deployment into per-segment domains
	// (own loop, own medium partition, mailbox trunks) plus the wired
	// server's, and executes the synchronization rounds domain by
	// domain on one goroutine.
	DomainsSerial
	// DomainsParallel is the same split with each round's active
	// domains spread over up to GOMAXPROCS goroutines; bit-identical to
	// DomainsSerial by construction.
	DomainsParallel
)

// String implements fmt.Stringer.
func (m DomainMode) String() string {
	switch m {
	case SingleLoop:
		return "single-loop"
	case DomainsSerial:
		return "domains-serial"
	case DomainsParallel:
		return "domains-parallel"
	}
	return "DomainMode(?)"
}

// Config describes a deployment.
type Config struct {
	Seed   int64
	Scheme Scheme

	// Geometry (§4, Fig. 9): NumAPs APs along the road at APSpacing,
	// set back APSetback meters from the near lane (which runs at
	// y = 0), boresights perpendicular to the road.
	NumAPs    int
	APSpacing float64
	APSetback float64
	FirstAPX  float64

	// Segments, when non-empty, shards the road into chained segments,
	// each with its own controller (or bridge) and backhaul domain;
	// NumAPs is then ignored and the fields above act as defaults for
	// unset per-segment values. Empty Segments is the classic
	// single-segment deployment.
	Segments []deploy.SegmentSpec

	// Trunk sets the inter-segment controller-to-controller link,
	// including the deterministic fault-injection schedule
	// (Trunk.Faults) applied to every trunk.
	Trunk deploy.TrunkConfig

	// Federation enables the cross-segment federation layer: the
	// replicated client→segment ownership directory, multi-hop trunk
	// routing (optionally over a ring or extra bypass trunks), and the
	// re-locate protocol controllers use to recover clients lost to
	// U-turns, coverage gaps, or trunk outages. WGTT multi-segment only.
	Federation federation.Config

	// Domains selects per-segment event-loop domains for multi-segment
	// deployments (conservative parallel simulation with the trunk
	// propagation delay as lookahead). Single-segment deployments ignore
	// it and always run as one domain. See DomainMode.
	Domains DomainMode

	// ChannelBackend selects the propagation/PHY model: "" or "wifi5g"
	// is the paper's 2.4/5 GHz roadside model (the bit-identical
	// default); "mmwave60g" the 60 GHz picocell model. See
	// internal/channel.
	ChannelBackend string

	// MMWave tunes the mmwave60g backend; ignored by wifi5g.
	MMWave channel.MMWaveParams

	// BoundaryInterference, in domain mode, exchanges boundary-zone
	// transmissions between adjacent segment domains so co-channel
	// interference at segment edges degrades SNR on both sides —
	// physics the medium partition otherwise drops. Off by default:
	// the domain-mode pins were recorded without it.
	BoundaryInterference bool
	// BoundaryZoneM is how far from a segment edge a transmitter must
	// be for its PPDUs to be exported to the neighbouring domain.
	BoundaryZoneM float64

	RF         rf.Params
	AP         ap.Config
	Controller controller.Config
	BaselineAP baseline.APConfig
	Roamer     baseline.RoamerConfig
	Client     client.Config
	Backhaul   backhaul.Config

	// FlightRecorder, when positive, gives every WGTT segment's recorder
	// (internal/trace.Recorder) a ring of this many structured
	// switch-protocol records; at 0 the recorders keep only their step
	// counts and handoff spans. It is legal in every domain mode — each
	// segment records into its own ring — and it never perturbs the
	// event schedule.
	FlightRecorder int
	// UnownedSpike, when positive, notes an unowned-spike anomaly when a
	// controller tracks more than this many clients it does not own,
	// checked at Run/slice boundaries.
	UnownedSpike int

	// Telemetry enables the metrics registry: datapath counters, handoff
	// span tracing, and 100 ms time-series sampling across every segment
	// (Network.MetricsSnapshot). It works in every domain mode — each
	// domain records into its own shard.
	Telemetry bool

	// Cross-link budgets used only for carrier sense and interference.
	// Clients sit inside vehicles (extra penetration loss); APs hear
	// each other along the wall.
	ClientClientLossDB float64
	APAPSenseSNRdB     float64
	APAPSenseRangeM    float64
}

// apBoresightDeg aims every AP antenna straight at the road (the road
// runs along y = 0 with APs set back at positive y).
const apBoresightDeg = -90

// DefaultConfig returns the paper's testbed configuration for a scheme.
func DefaultConfig(scheme Scheme) Config {
	cfg := Config{
		Seed:       1,
		Scheme:     scheme,
		NumAPs:     8,
		APSpacing:  7.5,
		APSetback:  18,
		FirstAPX:   0,
		RF:         rf.DefaultParams(),
		MMWave:     channel.DefaultMMWaveParams(),
		AP:         ap.DefaultConfig(),
		Controller: controller.DefaultConfig(),
		BaselineAP: baseline.DefaultAPConfig(),
		Roamer:     baseline.DefaultRoamerConfig(),
		Client:     client.DefaultConfig(),
		Backhaul:   backhaul.DefaultConfig(),
		Trunk:      deploy.DefaultTrunkConfig(),

		ClientClientLossDB: 20,
		APAPSenseSNRdB:     20,
		APAPSenseRangeM:    60,

		BoundaryZoneM: 40,
	}
	if scheme == Stock80211r {
		cfg.Roamer = baseline.Stock11rConfig()
	}
	return cfg
}

// Validate rejects configurations the simulator would silently
// mis-handle: empty deployments, degenerate geometry, a zero controller
// selection window, or zero-value RF parameters.
func (c *Config) Validate() error {
	if len(c.Segments) == 0 {
		if c.NumAPs <= 0 {
			return fmt.Errorf("core: NumAPs must be positive, got %d", c.NumAPs)
		}
		if c.APSpacing <= 0 {
			return fmt.Errorf("core: APSpacing must be positive, got %g", c.APSpacing)
		}
	}
	for i, s := range c.Segments {
		if s.NumAPs <= 0 {
			return fmt.Errorf("core: segment %d NumAPs must be positive, got %d", i, s.NumAPs)
		}
		if s.APSpacing < 0 || (s.APSpacing == 0 && c.APSpacing <= 0) {
			return fmt.Errorf("core: segment %d has no positive APSpacing (own %g, default %g)",
				i, s.APSpacing, c.APSpacing)
		}
	}
	if c.Scheme == WGTT && c.Controller.Window <= 0 {
		return fmt.Errorf("core: controller ESNR window must be positive, got %v", c.Controller.Window)
	}
	if c.RF.FreqHz <= 0 || c.RF.NoiseDBm >= 0 {
		return fmt.Errorf("core: RF params look unset (FreqHz %g, NoiseDBm %g); start from rf.DefaultParams",
			c.RF.FreqHz, c.RF.NoiseDBm)
	}
	if !channel.Known(c.ChannelBackend) {
		return fmt.Errorf("core: unknown channel backend %q (have %v)",
			c.ChannelBackend, channel.Names())
	}
	if c.ChannelBackend != "" && c.ChannelBackend != channel.DefaultBackend && c.Scheme != WGTT {
		return fmt.Errorf("core: channel backend %q requires the WGTT scheme (the baselines model the 2.4 GHz testbed)",
			c.ChannelBackend)
	}
	if c.BoundaryInterference {
		if c.Domains == SingleLoop {
			return fmt.Errorf("core: BoundaryInterference needs domain mode (the single loop already shares one medium)")
		}
		if len(c.segmentGeoms()) < 2 {
			return fmt.Errorf("core: BoundaryInterference needs at least 2 segments")
		}
		if c.BoundaryZoneM <= 0 {
			return fmt.Errorf("core: BoundaryInterference needs a positive BoundaryZoneM, got %g", c.BoundaryZoneM)
		}
	}
	if c.Domains != SingleLoop && len(c.Segments) > 1 {
		if c.Scheme != WGTT {
			return fmt.Errorf("core: domain mode %v requires the WGTT scheme (baseline roamers assume one shared medium)", c.Domains)
		}
		if c.Trunk.PropDelay <= 0 {
			return fmt.Errorf("core: domain mode %v needs a positive trunk PropDelay for lookahead, got %v",
				c.Domains, c.Trunk.PropDelay)
		}
	}
	numSegs := len(c.segmentGeoms())
	if err := c.Trunk.Faults.Validate(numSegs); err != nil {
		return err
	}
	if c.Trunk.Faults.Active() && numSegs < 2 {
		return fmt.Errorf("core: trunk faults need a multi-segment deployment (no trunks to fault)")
	}
	if c.Federation.Enabled {
		if c.Scheme != WGTT {
			return fmt.Errorf("core: federation requires the WGTT scheme, got %v", c.Scheme)
		}
		if numSegs < 2 {
			return fmt.Errorf("core: federation needs at least 2 segments, got %d", numSegs)
		}
		if c.Federation.Ring && numSegs < 3 {
			return fmt.Errorf("core: a ring trunk needs at least 3 segments, got %d", numSegs)
		}
		for _, e := range c.Federation.ExtraTrunks {
			if e[0] == e[1] || e[0] < 0 || e[1] < 0 || e[0] >= numSegs || e[1] >= numSegs {
				return fmt.Errorf("core: extra trunk %d-%d out of range for %d segments", e[0], e[1], numSegs)
			}
		}
	} else if c.Federation.Ring || len(c.Federation.ExtraTrunks) > 0 {
		return fmt.Errorf("core: Federation.Ring/ExtraTrunks set but Federation.Enabled is false")
	}
	return nil
}

// ChannelModel instantiates the configured channel backend (experiments
// that sample links standalone use it; NewNetwork builds its own).
func (c *Config) ChannelModel() (channel.Model, error) {
	return channel.New(c.ChannelBackend, channel.ModelConfig{
		RF:                 c.RF,
		MMWave:             c.MMWave,
		BoresightDeg:       apBoresightDeg,
		ClientClientLossDB: c.ClientClientLossDB,
	})
}

// segmentGeoms resolves the deployment's per-segment geometry; an empty
// Segments list is the classic single segment.
func (c *Config) segmentGeoms() []deploy.Geometry {
	if len(c.Segments) == 0 {
		return []deploy.Geometry{{
			NumAPs: c.NumAPs, APSpacing: c.APSpacing,
			APSetback: c.APSetback, FirstAPX: c.FirstAPX,
		}}
	}
	return deploy.Resolve(c.Segments, c.FirstAPX, c.APSpacing, c.APSetback)
}

// TotalAPs returns the deployment-wide AP count.
func (c *Config) TotalAPs() int {
	if len(c.Segments) == 0 {
		return c.NumAPs
	}
	n := 0
	for _, s := range c.Segments {
		n += s.NumAPs
	}
	return n
}

// APPosition returns the mounting position of the AP with global id i.
func (c *Config) APPosition(i int) rf.Position {
	if len(c.Segments) == 0 {
		return rf.Position{X: c.FirstAPX + float64(i)*c.APSpacing, Y: c.APSetback}
	}
	geoms := c.segmentGeoms()
	for s, g := range geoms {
		if i < g.NumAPs || s == len(geoms)-1 {
			return rf.Position{X: g.FirstAPX + float64(i)*g.APSpacing, Y: g.APSetback}
		}
		i -= g.NumAPs
	}
	return rf.Position{} // unreachable
}

// RoadSpanX returns the x-range covered by the AP array.
func (c *Config) RoadSpanX() (lo, hi float64) {
	if len(c.Segments) == 0 {
		return c.FirstAPX, c.FirstAPX + float64(c.NumAPs-1)*c.APSpacing
	}
	geoms := c.segmentGeoms()
	last := geoms[len(geoms)-1]
	return geoms[0].FirstAPX, last.FirstAPX + float64(last.NumAPs-1)*last.APSpacing
}
