package channel

import (
	"math"
	"sort"
	"sync"

	"wgtt/internal/csi"
	"wgtt/internal/phy"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
)

func init() {
	register("mmwave60g", func(cfg ModelConfig) (Model, error) {
		return newMMWave(cfg)
	})
}

// MMWaveParams is the 60 GHz picocell budget. The regime it models is
// the one that makes rapid picocell switching interesting: huge
// free-space loss and oxygen absorption cap cells at a few tens of
// meters, steerable phased arrays recover the budget inside the cell,
// and pedestrian/vehicle blockage kills a link in milliseconds — so the
// controller's 17–21 ms stop/start/ack band is the difference between a
// blip and an outage.
type MMWaveParams struct {
	FreqHz     float64 // carrier (channel 2 = 60.48 GHz)
	TxPowerDBm float64 // per-element-sum EIRP is TxPower + ArrayGain
	NoiseDBm   float64 // noise floor over the wide channel
	// RefLossDB is free-space loss at 1 m (≈68 dB at 60 GHz);
	// PathLossExp the street-canyon LOS exponent.
	RefLossDB   float64
	PathLossExp float64
	// OxygenDBPerKm is the 60 GHz O₂ absorption line (~15 dB/km).
	OxygenDBPerKm float64
	SystemLossDB  float64
	// ArrayGainDBi is the AP phased array's gain toward the tracked
	// client (the array steers, so the served direction always sees
	// peak gain); ClientGainDBi the client sub-array's.
	ArrayGainDBi  float64
	ClientGainDBi float64
	// SidelobeDB is the array gain toward untracked directions relative
	// to peak (negative), the coupling boundary interference sees.
	SidelobeDB float64
	// CellRadiusM is the hard picocell reach: beyond it the link is
	// dead (and the audibility bound returns −∞, which is what keeps
	// city-scale mmWave deployments cheap to index).
	CellRadiusM float64
	// Shadowing of the unblocked LOS path (small: street furniture).
	ShadowSigmaDB   float64
	ShadowCorrDistM float64
	// Fading is the small-scale model; strongly Rician under LOS.
	Fading rf.FadingParams
	// Blockage: a deterministic seed-driven renewal process per link.
	// Events arrive at BlockageRatePerSec, last an exponential duration
	// with mean BlockageMeanDur, and attenuate by BlockageDepthDB.
	BlockageRatePerSec float64
	BlockageMeanDur    sim.Duration
	BlockageDepthDB    float64
}

// DefaultMMWaveParams returns a 60 GHz picocell budget tuned so a client
// under an AP sees ~25 dB SNR decaying to the MCS0 threshold near the
// cell edge, with blockage deep enough to force a switch.
func DefaultMMWaveParams() MMWaveParams {
	const freq = 60.48e9
	return MMWaveParams{
		FreqHz:        freq,
		TxPowerDBm:    10,
		NoiseDBm:      -75,
		RefLossDB:     68, // free space at 1 m, 60.48 GHz
		PathLossExp:   2.2,
		OxygenDBPerKm: 15,
		SystemLossDB:  3,
		ArrayGainDBi:  23,
		ClientGainDBi: 10,
		SidelobeDB:    -20,
		CellRadiusM:   28,

		ShadowSigmaDB:   1.5,
		ShadowCorrDistM: 4,
		Fading: rf.FadingParams{
			FreqHz:        freq,
			NumTaps:       2,
			TapSpacingSec: 10e-9,
			DecayDB:       9,
			NumWaves:      8,
			RicianK:       8,
		},
		BlockageRatePerSec: 0.25,
		BlockageMeanDur:    350 * sim.Millisecond,
		BlockageDepthDB:    22,
	}
}

// mmwaveRates is an 802.11ad-like single-carrier MCS ladder, reshaped to
// the simulator's fixed NumRates rows. Thresholds follow the DMG
// receiver-sensitivity ladder.
func mmwaveRates() *phy.Table {
	rates := []phy.Rate{
		{MCS: 0, Mbps: 385, Modulation: csi.BPSK, CodeRate: "1/2", ThresholdDB: 3},
		{MCS: 1, Mbps: 770, Modulation: csi.QPSK, CodeRate: "1/2", ThresholdDB: 6},
		{MCS: 2, Mbps: 962.5, Modulation: csi.QPSK, CodeRate: "5/8", ThresholdDB: 8},
		{MCS: 3, Mbps: 1155, Modulation: csi.QPSK, CodeRate: "3/4", ThresholdDB: 9.5},
		{MCS: 4, Mbps: 1540, Modulation: csi.QAM16, CodeRate: "1/2", ThresholdDB: 12.5},
		{MCS: 5, Mbps: 1925, Modulation: csi.QAM16, CodeRate: "5/8", ThresholdDB: 15},
		{MCS: 6, Mbps: 2310, Modulation: csi.QAM16, CodeRate: "3/4", ThresholdDB: 17},
		{MCS: 7, Mbps: 3080, Modulation: csi.QAM64, CodeRate: "2/3", ThresholdDB: 21.5},
	}
	return &phy.Table{Name: "dmg-sc", Rates: rates, Basic: rates[0]}
}

// blockageHorizon bounds the precomputed per-link blockage schedule;
// queries past it see a clear channel. Experiments run seconds, so ten
// minutes of schedule is effectively unbounded while keeping per-link
// memory trivial.
const blockageHorizon = 600 * sim.Second

// blockEvent is one blockage interval.
type blockEvent struct {
	start, end sim.Time
}

// mmwave implements Model for the 60 GHz picocell regime.
type mmwave struct {
	p          MMWaveParams
	tbl        *phy.Table
	cliLossDB  float64
	headroomDB float64
	// rot is the fading's delay-rotation table, shared by every link.
	rot *rf.DelayRotations
	// deadSNRdB is what the budget reports outside the cell radius:
	// far below any detect threshold.
	deadSNRdB float64
}

func newMMWave(cfg ModelConfig) (*mmwave, error) {
	p := cfg.MMWave
	if p.FreqHz <= 0 {
		p = DefaultMMWaveParams()
	}
	return &mmwave{
		p:          p,
		tbl:        mmwaveRates(),
		cliLossDB:  cfg.ClientClientLossDB,
		headroomDB: rf.MaxFadeDB(p.Fading) + 0.2,
		rot:        rf.NewDelayRotations(p.Fading),
		deadSNRdB:  -200,
	}, nil
}

// Name implements Model.
func (m *mmwave) Name() string { return "mmwave60g" }

// Rates implements Model.
func (m *mmwave) Rates() *phy.Table { return m.tbl }

// NewLink implements Model. Fork order ("fading", "shadow", "blockage")
// is fixed: it is part of the backend's determinism contract. Each
// realization is drawn from its fork at its first use, as rf.Link's are.
func (m *mmwave) NewLink(apPos rf.Position, rng *sim.RNG) Link {
	l := &mmLink{m: m, apPos: apPos}
	l.fader.Init(m.rot, m.p.Fading, rng.Fork("fading"))
	l.shadow.Init(m.p.ShadowSigmaDB, m.p.ShadowCorrDistM, rng.Fork("shadow"))
	l.blockRNG = rng.Fork("blockage")
	return l
}

// drawBlockage materializes the renewal process: exponential
// inter-arrivals at BlockageRatePerSec, exponential durations with mean
// BlockageMeanDur, over blockageHorizon. A link draws its whole schedule
// at its first in-cell query, so queries are pure lookups — the property
// that keeps serial and parallel domain execution bit-identical.
func drawBlockage(p MMWaveParams, rng *sim.RNG) []blockEvent {
	if p.BlockageRatePerSec <= 0 || p.BlockageMeanDur <= 0 {
		return nil
	}
	var evs []blockEvent
	t := sim.Time(0)
	for {
		gap := sim.Duration(rng.ExpFloat64() / p.BlockageRatePerSec * float64(sim.Second))
		dur := sim.Duration(rng.ExpFloat64() * float64(p.BlockageMeanDur))
		start := t.Add(gap)
		if start > sim.Time(blockageHorizon) {
			return evs
		}
		end := start.Add(dur)
		evs = append(evs, blockEvent{start: start, end: end})
		t = end
	}
}

// mmLink is one AP↔client 60 GHz path. Like rf.Link, it forks its
// streams at construction and draws each realization (fading, shadowing,
// blockage schedule) at its first use, under a sync.Once of its own, so
// a link the ride never evaluates inside its cell draws nothing.
type mmLink struct {
	m         *mmwave
	apPos     rf.Position
	fadeOff   bool
	fader     rf.Fader
	shadow    rf.Shadowing
	blockOnce sync.Once
	blockRNG  *sim.RNG // the schedule's stream; nil once drawn
	blocks    []blockEvent
}

// schedule returns the link's blockage schedule, drawing it at the first
// call.
func (l *mmLink) schedule() []blockEvent {
	l.blockOnce.Do(l.drawSchedule)
	return l.blocks
}

// drawSchedule draws the blockage schedule. Run it only through
// l.blockOnce.
func (l *mmLink) drawSchedule() {
	l.blocks = drawBlockage(l.m.p, l.blockRNG)
	l.blockRNG = nil
}

// blockageDB returns the blockage attenuation active at time now.
func (l *mmLink) blockageDB(now sim.Time) float64 {
	blocks := l.schedule()
	i := sort.Search(len(blocks), func(i int) bool { return blocks[i].start > now })
	if i == 0 {
		return 0
	}
	if ev := blocks[i-1]; now < ev.end {
		return l.m.p.BlockageDepthDB
	}
	return 0
}

// meanSNRdB is the large-scale budget: steered-array gain, log-distance
// plus oxygen absorption, shadowing, and any active blockage. Beyond the
// cell radius the link is dead.
func (l *mmLink) meanSNRdB(now sim.Time, cliPos rf.Position) float64 {
	p := &l.m.p
	d := l.apPos.Distance(cliPos)
	if d > p.CellRadiusM {
		return l.m.deadSNRdB
	}
	if d < 1 {
		d = 1
	}
	pl := p.RefLossDB + 10*p.PathLossExp*math.Log10(d) + p.OxygenDBPerKm*d/1000
	return p.TxPowerDBm + p.ArrayGainDBi + p.ClientGainDBi - pl -
		p.SystemLossDB + l.shadow.DB(cliPos) - l.blockageDB(now) - p.NoiseDBm
}

// MeanSNRdB implements Link.
func (l *mmLink) MeanSNRdB(now sim.Time, cliPos rf.Position) float64 {
	return l.meanSNRdB(now, cliPos)
}

// SubcarrierSNRsDB implements Link.
func (l *mmLink) SubcarrierSNRsDB(now sim.Time, cliPos rf.Position, dst []float64) {
	l.FillSubcarrierSNRsDB(now, cliPos, l.meanSNRdB(now, cliPos), dst)
}

// FillSubcarrierSNRsDB implements Link. Blockage is already in mean;
// the fading depends on position only.
func (l *mmLink) FillSubcarrierSNRsDB(_ sim.Time, cliPos rf.Position, mean float64, dst []float64) {
	if len(dst) != rf.NumSubcarriers {
		panic("channel: SubcarrierSNRsDB dst must have rf.NumSubcarriers elements")
	}
	if l.fadeOff {
		for i := range dst {
			dst[i] = mean
		}
		return
	}
	var gains [rf.NumSubcarriers]complex128
	l.fader.Gains(cliPos, gains[:])
	for i, g := range gains {
		re, im := real(g), imag(g)
		pw := re*re + im*im
		if pw < 1e-12 {
			pw = 1e-12
		}
		dst[i] = mean + 10*math.Log10(pw)
	}
}

// SNRdB implements Link.
func (l *mmLink) SNRdB(now sim.Time, cliPos rf.Position) float64 {
	if l.fadeOff {
		return l.meanSNRdB(now, cliPos)
	}
	return l.meanSNRdB(now, cliPos) + l.fader.PowerDB(cliPos)
}

// DisableFading implements Link (blockage stays: it is large-scale).
func (l *mmLink) DisableFading() { l.fadeOff = true }

// APPos implements Link.
func (l *mmLink) APPos() rf.Position { return l.apPos }

// DetectHeadroomDB implements Model. Blockage only attenuates, so the
// fading bound alone is sound.
func (m *mmwave) DetectHeadroomDB() float64 { return m.headroomDB }

// maxShadowDB mirrors rf.Params.MaxShadowDB for the mmWave shadowing.
func (m *mmwave) maxShadowDB() float64 {
	return m.p.ShadowSigmaDB * math.Sqrt(2*rf.ShadowComps)
}

// MaxSNRAPToBoxDB implements Model. The steerable array can point at any
// box point, so the gain bound is peak array gain; blockage is ≥ 0 and
// omitted. Boxes entirely outside the cell radius are dead — the bound
// that makes mmWave audibility sets tiny.
func (m *mmwave) MaxSNRAPToBoxDB(apPos rf.Position, box Box) float64 {
	d := box.Distance(apPos)
	if d > m.p.CellRadiusM {
		return m.deadSNRdB
	}
	if d < 1 {
		d = 1
	}
	pl := m.p.RefLossDB + 10*m.p.PathLossExp*math.Log10(d) + m.p.OxygenDBPerKm*d/1000
	return m.p.TxPowerDBm + m.p.ArrayGainDBi + m.p.ClientGainDBi - pl -
		m.p.SystemLossDB + m.maxShadowDB() - m.p.NoiseDBm
}

// MaxSNRClientToAPDB implements Model (reciprocal budget, exact
// positions). It is meanSNRdB's expression in the same operation order
// with maxShadowDB for the shadowing and the blockage term (≥ 0)
// dropped, so it dominates meanSNRdB in float arithmetic.
func (m *mmwave) MaxSNRClientToAPDB(cliPos, apPos rf.Position) float64 {
	d := apPos.Distance(cliPos)
	if d > m.p.CellRadiusM {
		return m.deadSNRdB
	}
	if d < 1 {
		d = 1
	}
	pl := m.p.RefLossDB + 10*m.p.PathLossExp*math.Log10(d) + m.p.OxygenDBPerKm*d/1000
	return m.p.TxPowerDBm + m.p.ArrayGainDBi + m.p.ClientGainDBi - pl -
		m.p.SystemLossDB + m.maxShadowDB() - m.p.NoiseDBm
}

// ClientClientSNRdB implements Model: device-to-device 60 GHz coupling
// with no array gain and double in-vehicle penetration — effectively
// dead past a few meters, as it should be.
func (m *mmwave) ClientClientSNRdB(d float64) float64 {
	if d < 1 {
		d = 1
	}
	pl := m.p.RefLossDB + 10*m.p.PathLossExp*math.Log10(d) + m.p.OxygenDBPerKm*d/1000
	return m.p.TxPowerDBm - pl - m.cliLossDB - m.p.NoiseDBm
}

// InterferenceOverNoiseDB implements Model: an interfering AP's array is
// steered at its own client, so the victim sees sidelobe gain; client
// interferers couple like the device-to-device path. Beyond the cell
// radius the coupling is negligible.
func (m *mmwave) InterferenceOverNoiseDB(txIsAP bool, txPos, rxPos rf.Position) float64 {
	d := txPos.Distance(rxPos)
	if d > m.p.CellRadiusM {
		return m.deadSNRdB
	}
	if d < 1 {
		d = 1
	}
	pl := m.p.RefLossDB + 10*m.p.PathLossExp*math.Log10(d) + m.p.OxygenDBPerKm*d/1000
	if txIsAP {
		gain := m.p.ArrayGainDBi + m.p.SidelobeDB
		return m.p.TxPowerDBm + gain + m.p.ClientGainDBi - pl - m.p.SystemLossDB - m.p.NoiseDBm
	}
	return m.p.TxPowerDBm - pl - m.cliLossDB - m.p.NoiseDBm
}
