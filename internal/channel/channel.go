// Package channel defines the pluggable channel-model backend seam of
// the simulator: everything frequency-dependent — path loss, antenna
// gain, shadowing, small-scale fading, subcarrier CSI synthesis, and the
// MCS rate ladder — lives behind the Model interface, so the same MAC,
// controller, and switching protocol can run over the paper's 2.4/5 GHz
// roadside testbed or over a mmWave/60 GHz picocell deployment.
//
// Two backends ship:
//
//   - "wifi5g" (the default): the original model, delegating to
//     internal/rf unchanged. Every golden figure pin and parity test is
//     bit-identical to the pre-refactor code by construction — the
//     backend forks the same RNG labels in the same order and evaluates
//     the same float expressions.
//   - "mmwave60g": a 60 GHz picocell model with steerable phased-array
//     beams, oxygen absorption, a hard cell-radius audibility cap,
//     Rician fading, and deterministic seed-driven pedestrian/vehicle
//     blockage events (see mmwave60g.go).
//
// The contract a backend must satisfy (DESIGN.md §10): the Max*Bound
// methods may over-estimate freely but must never under-estimate the
// corresponding link outputs (audibility-index soundness), all
// methods must be deterministic functions of (construction RNG forks,
// query arguments) so serial and parallel domain execution stay
// bit-identical, and calls on links may run concurrently.
package channel

import (
	"fmt"
	"math"
	"sort"

	"wgtt/internal/phy"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
)

// Link is one AP↔client radio path. It is reciprocal — uplink and
// downlink see the same instantaneous channel — which is what lets WGTT
// predict downlink delivery from uplink CSI. Methods take the query time
// explicitly: the wifi5g backend's channel is purely spatial and ignores
// it, while the mmwave60g backend's blockage process makes the channel
// time-varying.
//
// A link draws each of its realizations (shadowing, fading, and on
// mmwave60g the blockage schedule) at the realization's first use, from
// a stream forked when the link was built, so a link the ride never
// evaluates never draws. Each draw runs under its own sync.Once, and the
// methods write nothing else, so a link is safe for concurrent use after
// DisableFading, if called, has returned; links of one Model share only
// read-only state. The medium relies on this when it evaluates one PPDU
// at all its receivers at once and senses a pair and its reverse, one
// link, from two goroutines (DESIGN.md §10).
type Link interface {
	// SubcarrierSNRsDB fills dst (rf.NumSubcarriers long) with the
	// instantaneous per-subcarrier SNR in dB at the client position.
	SubcarrierSNRsDB(now sim.Time, cliPos rf.Position, dst []float64)
	// FillSubcarrierSNRsDB is SubcarrierSNRsDB for a caller that
	// already holds mean = MeanSNRdB(now, cliPos): it applies the
	// instantaneous fading to mean instead of evaluating it again.
	// SubcarrierSNRsDB is MeanSNRdB followed by this fill.
	FillSubcarrierSNRsDB(now sim.Time, cliPos rf.Position, mean float64, dst []float64)
	// MeanSNRdB is the large-scale SNR (no fast fading) at the client
	// position; blockage, being a large-scale obstruction, is included.
	MeanSNRdB(now sim.Time, cliPos rf.Position) float64
	// SNRdB is the instantaneous wideband SNR: mean SNR plus the
	// subcarrier-averaged fading power.
	SNRdB(now sim.Time, cliPos rf.Position) float64
	// DisableFading freezes small-scale fading at unit gain (tests and
	// the smoothed-ESNR heatmap experiment).
	DisableFading()
	// APPos returns the AP end of the link.
	APPos() rf.Position
}

// Box is an axis-aligned bounding box of client positions, the geometry
// the audibility index hands to the bound methods.
type Box struct {
	MinX, MaxX, MinY, MaxY float64
}

// Distance returns the distance from p to the nearest point of the box;
// zero when p is inside. (Shared by the backends' bound methods.)
func (b Box) Distance(p rf.Position) float64 {
	dx := math.Max(0, math.Max(b.MinX-p.X, p.X-b.MaxX))
	dy := math.Max(0, math.Max(b.MinY-p.Y, p.Y-b.MaxY))
	return math.Hypot(dx, dy)
}

// Contains reports whether p lies inside the box.
func (b Box) Contains(p rf.Position) bool {
	return p.X >= b.MinX && p.X <= b.MaxX && p.Y >= b.MinY && p.Y <= b.MaxY
}

// Model is one propagation/PHY backend. A Model is built once per
// network and shared read-only by every domain; NewLink is called from
// the construction goroutine only. State every link of the model shares,
// such as the fading's delay-rotation table, lives on the Model.
type Model interface {
	// Name returns the backend's registry name.
	Name() string
	// Rates returns the backend's MCS ladder (never nil).
	Rates() *phy.Table
	// NewLink builds an AP↔client radio path whose realizations are
	// drawn from rng's forks: NewLink forks them, and each realization
	// is drawn from its fork at first use (see Link). The backend owns
	// antenna patterns; callers pass only the AP mount position. The
	// RNG fork discipline inside NewLink is part of the backend's
	// bit-identity contract.
	NewLink(apPos rf.Position, rng *sim.RNG) Link

	// DetectHeadroomDB bounds how far any per-subcarrier SNR can exceed
	// MeanSNRdB: constructive-fading headroom plus the ESNR table's
	// interpolation margin. It licenses the medium's cheap large-scale
	// rejection and the audibility index's soundness (DESIGN.md §10).
	DetectHeadroomDB() float64
	// MaxSNRAPToBoxDB bounds the large-scale SNR from an AP at apPos to
	// any point of box (shadowing at its analytic peak). Must never
	// under-estimate MeanSNRdB − shadowing + MaxShadow at any box point.
	MaxSNRAPToBoxDB(apPos rf.Position, box Box) float64
	// MaxSNRClientToAPDB bounds the large-scale SNR from a client at
	// cliPos to the AP at apPos (the uplink reciprocal, exact positions).
	// It must dominate every link's MeanSNRdB(now, cliPos) from that AP
	// in float arithmetic, with no slack: the medium's threshold checks
	// trust it before the exact value (DESIGN.md §10).
	MaxSNRClientToAPDB(cliPos, apPos rf.Position) float64
	// ClientClientSNRdB is the flat vehicle-to-vehicle budget at
	// distance d (clamped to the 1 m reference inside). No fading is
	// applied to this path, so it is exact, not a bound.
	ClientClientSNRdB(d float64) float64

	// InterferenceOverNoiseDB returns the interference-to-noise ratio
	// (dB) a transmission from txPos deposits at rxPos, used by the
	// cross-domain boundary-interference exchange. txIsAP selects the
	// transmit antenna model. Returns a very negative value when the
	// coupling is negligible.
	InterferenceOverNoiseDB(txIsAP bool, txPos, rxPos rf.Position) float64
}

// ModelConfig carries the configuration slice each backend reads. Core
// fills it from Config; backends ignore fields they do not use.
type ModelConfig struct {
	// RF is the 2.4/5 GHz budget (wifi5g).
	RF rf.Params
	// MMWave is the 60 GHz budget (mmwave60g).
	MMWave MMWaveParams
	// BoresightDeg aims the AP antennas (wifi5g's fixed parabolics; the
	// mmwave arrays steer and use it only as the panel normal).
	BoresightDeg float64
	// ClientClientLossDB is the extra in-vehicle penetration loss on the
	// client↔client path.
	ClientClientLossDB float64
}

// factory builds a backend from its config.
type factory func(ModelConfig) (Model, error)

// registry maps backend names to factories. Registration happens in
// package init functions, so the map is read-only afterwards.
var registry = map[string]factory{}

// register adds a backend; duplicate names are a programming error.
func register(name string, fn factory) {
	if _, dup := registry[name]; dup {
		panic("channel: duplicate backend " + name)
	}
	registry[name] = fn
}

// DefaultBackend is the name an empty Config.ChannelBackend resolves to.
const DefaultBackend = "wifi5g"

// Known reports whether name (or "", the default) is a registered
// backend.
func Known(name string) bool {
	if name == "" {
		return true
	}
	_, ok := registry[name]
	return ok
}

// Names lists the registered backends, sorted.
func Names() []string {
	var ns []string
	for n := range registry {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// New builds the named backend ("" = DefaultBackend).
func New(name string, cfg ModelConfig) (Model, error) {
	if name == "" {
		name = DefaultBackend
	}
	fn, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("channel: unknown backend %q (have %v)", name, Names())
	}
	return fn(cfg)
}
