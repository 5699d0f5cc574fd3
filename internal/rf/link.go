package rf

import (
	"math"

	"wgtt/internal/sim"
)

// Params sets the large-scale radio budget shared by every link in a
// deployment. Defaults (see DefaultParams) are tuned so that a client on
// the road directly in an AP's beam sees ~28 dB ESNR — matching the peak of
// the paper's Fig. 10 heatmap — decaying to single digits within ±10 m
// along the road, which reproduces the 5.2 m cells with 6–10 m overlap.
type Params struct {
	FreqHz      float64 // carrier frequency (channel 11 = 2.462 GHz)
	TxPowerDBm  float64 // transmit power at the antenna port
	NoiseDBm    float64 // receiver noise floor over 20 MHz
	RefLossDB   float64 // path loss at the 1 m reference distance
	PathLossExp float64 // log-distance path-loss exponent
	// SystemLossDB lumps splitter, cable, window-glass and body losses —
	// the fixed insertion losses of the §4.2 hardware chain.
	SystemLossDB float64
	// ShadowSigmaDB is the standard deviation of the smooth log-normal
	// shadowing process; ShadowCorrDistM its spatial decorrelation
	// distance.
	ShadowSigmaDB   float64
	ShadowCorrDistM float64
	Fading          FadingParams
}

// DefaultParams returns the radio budget of the eight-AP testbed.
func DefaultParams() Params {
	const freq = 2.462e9 // 2.4 GHz channel 11
	return Params{
		FreqHz:          freq,
		TxPowerDBm:      15,
		NoiseDBm:        -95,
		RefLossDB:       40.2, // free space at 1 m, 2.462 GHz
		PathLossExp:     2.7,
		SystemLossDB:    21,
		ShadowSigmaDB:   2.5,
		ShadowCorrDistM: 8,
		Fading:          DefaultFadingParams(freq),
	}
}

// MaxShadowDB returns the largest magnitude (dB) the shadowing process
// can reach: every sinusoid component at its peak simultaneously.
func (p Params) MaxShadowDB() float64 {
	return p.ShadowSigmaDB * math.Sqrt(2*shadowComps)
}

// Shadowing is a smooth, spatially-correlated log-normal process over the
// client position, built from a small sum of long-wavelength sinusoids.
// Unlike per-sample Gaussian draws it is continuous in position, so a car
// driving by sees shadowing evolve at the ~10 m scale (Gudmundson model
// behaviour) rather than flickering packet to packet. Exported so channel
// backends other than the default can reuse the realization machinery.
type Shadowing struct {
	sigma float64
	kx    []float64
	ky    []float64
	phase []float64
	norm  float64
}

// shadowComps is the number of sinusoid components in the shadowing
// process; it bounds the process at ±sigma·√(2·shadowComps) dB.
const shadowComps = 8

// ShadowComps exposes the sinusoid component count so backends can state
// the matching MaxShadowDB-style bound: sigma·√(2·ShadowComps).
const ShadowComps = shadowComps

// NewShadowing draws a shadowing realization from rng.
func NewShadowing(sigmaDB, corrDistM float64, rng *sim.RNG) *Shadowing {
	const comps = shadowComps
	s := &Shadowing{sigma: sigmaDB, norm: math.Sqrt(2.0 / comps)}
	if sigmaDB == 0 {
		return s
	}
	for i := 0; i < comps; i++ {
		// Spatial frequencies spread around 1/corrDist.
		w := (0.5 + rng.Float64()) * 2 * math.Pi / corrDistM
		ang := 2 * math.Pi * rng.Float64()
		s.kx = append(s.kx, w*math.Cos(ang))
		s.ky = append(s.ky, w*math.Sin(ang))
		s.phase = append(s.phase, 2*math.Pi*rng.Float64())
	}
	return s
}

// DB evaluates the shadowing process in dB at a position.
func (s *Shadowing) DB(pos Position) float64 {
	if s.sigma == 0 || len(s.kx) == 0 {
		return 0
	}
	sum := 0.0
	for i := range s.kx {
		sum += math.Sin(s.kx[i]*pos.X + s.ky[i]*pos.Y + s.phase[i])
	}
	return s.sigma * s.norm * sum
}

// Link is the radio path between one AP and one client. It is reciprocal:
// uplink and downlink see the same instantaneous channel, which is what
// lets WGTT predict downlink delivery from uplink CSI.
type Link struct {
	params  Params
	apPos   Position
	apAnt   Antenna
	cliAnt  Antenna
	fader   *Fader
	shadow  *Shadowing
	fadeOff bool
}

// NewLink creates the radio path between an AP (fixed position and antenna)
// and a mobile client carrying antenna cliAnt. Each link gets its own
// fading and shadowing realization from rng.
func NewLink(p Params, apPos Position, apAnt Antenna, cliAnt Antenna, rng *sim.RNG) *Link {
	return NewLinkWith(NewDelayRotations(p.Fading), p, apPos, apAnt, cliAnt, rng)
}

// NewLinkWith is NewLink whose fader shares rot, a delay-rotation table
// built from p.Fading (see NewFaderWith). The realization is identical.
func NewLinkWith(rot *DelayRotations, p Params, apPos Position, apAnt Antenna, cliAnt Antenna, rng *sim.RNG) *Link {
	return &Link{
		params: p,
		apPos:  apPos,
		apAnt:  apAnt,
		cliAnt: cliAnt,
		fader:  NewFaderWith(rot, p.Fading, rng.Fork("fading")),
		shadow: NewShadowing(p.ShadowSigmaDB, p.ShadowCorrDistM, rng.Fork("shadow")),
	}
}

// DisableFading freezes small-scale fading at unit gain; used by tests and
// by the heatmap experiment, which the paper computes from smoothed ESNR.
func (l *Link) DisableFading() { l.fadeOff = true }

// APPos returns the AP end of the link.
func (l *Link) APPos() Position { return l.apPos }

// meanRxPowerDBm is the large-scale (fading-free) received power at the
// client position.
func (l *Link) meanRxPowerDBm(cliPos Position) float64 {
	d := l.apPos.Distance(cliPos)
	if d < 1 {
		d = 1
	}
	pl := l.params.RefLossDB + 10*l.params.PathLossExp*math.Log10(d)
	gTx := l.apAnt.GainDB(l.apPos.AngleTo(cliPos))
	gRx := l.cliAnt.GainDB(cliPos.AngleTo(l.apPos))
	return l.params.TxPowerDBm + gTx + gRx - pl - l.params.SystemLossDB + l.shadow.DB(cliPos)
}

// MeanSNRdB returns the large-scale SNR (no fast fading) at the client
// position — the smoothed curve of the paper's Fig. 2.
func (l *Link) MeanSNRdB(cliPos Position) float64 {
	return l.meanRxPowerDBm(cliPos) - l.params.NoiseDBm
}

// SubcarrierSNRsDB fills dst (length NumSubcarriers) with the instantaneous
// per-subcarrier SNR in dB at the client position — the quantity the
// Atheros CSI tool exposes and from which ESNR is computed.
func (l *Link) SubcarrierSNRsDB(cliPos Position, dst []float64) {
	l.FillSubcarrierSNRsDB(cliPos, l.MeanSNRdB(cliPos), dst)
}

// FillSubcarrierSNRsDB is SubcarrierSNRsDB for a caller that already
// holds mean = MeanSNRdB(cliPos): it applies the fading at cliPos to
// mean without evaluating the large-scale budget again.
func (l *Link) FillSubcarrierSNRsDB(cliPos Position, mean float64, dst []float64) {
	if len(dst) != NumSubcarriers {
		panic("rf: SubcarrierSNRsDB dst must have NumSubcarriers elements")
	}
	if l.fadeOff {
		for i := range dst {
			dst[i] = mean
		}
		return
	}
	var gains [NumSubcarriers]complex128
	l.fader.Gains(cliPos, gains[:])
	for i, g := range gains {
		re, im := real(g), imag(g)
		p := re*re + im*im
		if p < 1e-12 {
			p = 1e-12
		}
		dst[i] = mean + 10*math.Log10(p)
	}
}

// SNRdB returns the instantaneous wideband SNR (dB) at the client
// position: mean SNR plus the subcarrier-averaged fading power.
func (l *Link) SNRdB(cliPos Position) float64 {
	if l.fadeOff {
		return l.MeanSNRdB(cliPos)
	}
	return l.MeanSNRdB(cliPos) + l.fader.PowerDB(cliPos)
}
