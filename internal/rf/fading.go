package rf

import (
	"math"
	"math/cmplx"
	"sync"

	"wgtt/internal/sim"
)

// NumSubcarriers is the number of data/pilot subcarriers the Atheros CSI
// tool reports for a 20 MHz 802.11n channel, and hence the resolution at
// which WGTT sees the channel.
const NumSubcarriers = 56

// SubcarrierSpacingHz is the 802.11 OFDM subcarrier spacing (312.5 kHz).
const SubcarrierSpacingHz = 312.5e3

// subcarrierOffsetHz returns the baseband frequency offset of subcarrier
// index i (0..55), mapping onto the HT20 occupied set −28..−1, +1..+28.
func subcarrierOffsetHz(i int) float64 {
	k := i - NumSubcarriers/2 // −28..27
	if k >= 0 {
		k++ // skip DC
	}
	return float64(k) * SubcarrierSpacingHz
}

// tap is one resolvable multipath cluster: a sum of planar scattered
// waves whose phases rotate with client position. Its delay lives in the
// Fader's DelayRotations.
type tap struct {
	ampl        float64 // linear amplitude weight (sqrt of tap power)
	scatterAmpl float64 // per-wave scattered amplitude incl. 1/√N
	// Scattered-wave parameters: unit arrival directions and phases.
	dirX, dirY []float64
	phase      []float64
	// los is the deterministic (Rician) component amplitude; zero for
	// pure Rayleigh taps.
	los      float64
	losDirX  float64
	losDirY  float64
	losPhase float64
	// reach bounds |h_k| summed over this tap and every later one. A
	// tap's own bound is its scattered amplitude times its wave count
	// (every wave in phase) plus its LOS amplitude.
	reach float64
}

// Fader produces the small-scale complex channel gain of one AP↔client
// link, per subcarrier, as a function of client position. It implements a
// spatial sum-of-sinusoids (Jakes/Clarke) model over a tapped delay line:
//
//	h_l(pos) = a_l · [ sqrt(K/(K+1))·e^{j(k·d_los·pos+φ)} +
//	                   sqrt(1/(K+1))·(1/√N)·Σ_n e^{j(k·d_n·pos + φ_n)} ]
//	H_i(pos) = Σ_l h_l(pos) · e^{−j2π f_i τ_l}
//
// with k = 2π/λ. The envelope of each tap is Rayleigh (or Rician with
// factor K), spatially correlated with coherence distance ≈ λ/2, and the
// delay spread across taps makes the response frequency-selective — the
// property ESNR exists to capture.
//
// A Fader built by Init draws its realization at its first Gains or
// FillSNRsDB, from the stream Init was given; NewFader and NewFaderWith
// draw it at once. Either way the waves are the same draws in the same
// order, so when the draw happens moves no float. The draw runs under a
// sync.Once, and Gains and FillSNRsDB otherwise write only dst, so a
// Fader is safe for concurrent use. The delay-rotation table is shared
// read-only with every other Fader built from it.
//
// FillSNRsDB takes a floor and stops as soon as it can tell that every
// subcarrier SNR it would write is below it, from bounds on the taps
// the realization stores and then from the strongest subcarrier; a
// fill it does not stop computes the unfloored fill's floats.
type Fader struct {
	once sync.Once
	rng  *sim.RNG // the realization's stream; nil once drawn
	p    FadingParams
	// rot is the delay-rotation table (see DelayRotations), shared
	// read-only with every other Fader built from the same table.
	rot        *DelayRotations
	waveNumber float64 // 2π/λ
	taps       []tap
}

// FadingParams configures a Fader.
type FadingParams struct {
	FreqHz float64 // carrier frequency
	// NumTaps is the number of resolvable multipath clusters. The paper
	// notes WGTT's small cells keep delay spread indoor-like, so a few
	// taps with ~100 ns spacing suffice.
	NumTaps int
	// TapSpacingSec is the excess delay between consecutive taps.
	TapSpacingSec float64
	// DecayDB is the per-tap power decay of the exponential power delay
	// profile.
	DecayDB float64
	// NumWaves is the number of scattered plane waves per tap.
	NumWaves int
	// RicianK is the K-factor (linear) of the first tap; 0 = Rayleigh.
	RicianK float64
}

// DefaultFadingParams models the roadside testbed: three clusters 100 ns
// apart decaying 3 dB per tap, Rayleigh (the street-level path to a car is
// dominated by reflections off vehicles and facades).
func DefaultFadingParams(freqHz float64) FadingParams {
	return FadingParams{
		FreqHz:        freqHz,
		NumTaps:       3,
		TapSpacingSec: 100e-9,
		DecayDB:       3,
		NumWaves:      12,
		RicianK:       0,
	}
}

// DelayRotations is the per-subcarrier delay rotation table of a
// tap-delay profile, e^{−j2π f_i τ_l} at rot[l*NumSubcarriers+i]. It
// depends only on FadingParams.NumTaps and TapSpacingSec and draws
// nothing from an RNG, so a deployment builds it once and every Fader
// of the same FadingParams shares it read-only.
type DelayRotations struct {
	numTaps int
	spacing float64
	rot     []complex128
}

// NewDelayRotations computes the delay rotation table of p's tap-delay
// profile.
func NewDelayRotations(p FadingParams) *DelayRotations {
	if p.NumTaps < 1 {
		p.NumTaps = 1
	}
	r := &DelayRotations{
		numTaps: p.NumTaps,
		spacing: p.TapSpacingSec,
		rot:     make([]complex128, p.NumTaps*NumSubcarriers),
	}
	for l := 0; l < p.NumTaps; l++ {
		delaySec := float64(l) * p.TapSpacingSec
		for i := 0; i < NumSubcarriers; i++ {
			ph := -2 * math.Pi * subcarrierOffsetHz(i) * delaySec
			s, c := math.Sincos(ph)
			r.rot[l*NumSubcarriers+i] = complex(c, s)
		}
	}
	return r
}

// NewFader draws a random multipath realization for one link. The same RNG
// fork always yields the same realization, so experiment runs are
// reproducible.
func NewFader(p FadingParams, rng *sim.RNG) *Fader {
	return NewFaderWith(NewDelayRotations(p), p, rng)
}

// NewFaderWith is NewFader over a delay-rotation table the caller built
// from the same FadingParams (NewDelayRotations) and shares between
// faders. The realization is identical to NewFader's.
func NewFaderWith(rot *DelayRotations, p FadingParams, rng *sim.RNG) *Fader {
	f := new(Fader)
	f.Init(rot, p, rng)
	f.once.Do(f.draw)
	return f
}

// Init sets up f, a zero Fader, to draw its realization from rng at its
// first use, over rot, a delay-rotation table built from p. f takes rng
// over: nothing else may draw from it. A link that is never evaluated
// thus never draws its waves, and one that is draws the realization
// NewFaderWith would have drawn from the same stream.
func (f *Fader) Init(rot *DelayRotations, p FadingParams, rng *sim.RNG) {
	if p.NumTaps < 1 {
		p.NumTaps = 1
	}
	if p.NumWaves < 1 {
		p.NumWaves = 1
	}
	if rot.numTaps != p.NumTaps || rot.spacing != p.TapSpacingSec {
		panic("rf: delay rotations built for another tap-delay profile")
	}
	f.rng, f.p, f.rot = rng, p, rot
}

// tapPower returns tap l's share of the exponential power delay profile
// before normalization to unit total power.
func tapPower(p FadingParams, l int) float64 {
	return math.Pow(10, -p.DecayDB*float64(l)/10)
}

// draw draws the realization from f's stream: per tap, the LOS direction
// and phase when the tap is Rician, then each wave's direction and phase.
// Run it only through f.once.
func (f *Fader) draw() {
	p, rng := f.p, f.rng
	lambda := SpeedOfLight / p.FreqHz
	f.waveNumber = 2 * math.Pi / lambda

	// Exponential power delay profile, normalized to unit total power.
	total := 0.0
	for l := 0; l < p.NumTaps; l++ {
		total += tapPower(p, l)
	}

	// One backing array holds every tap's wave parameters, and taps is
	// sized up front, so a realization allocates its waves once.
	f.taps = make([]tap, 0, p.NumTaps)
	waves := make([]float64, 3*p.NumTaps*p.NumWaves)
	for l := 0; l < p.NumTaps; l++ {
		t := tap{ampl: math.Sqrt(tapPower(p, l) / total)}
		w := waves[3*l*p.NumWaves:]
		t.dirX = w[0:0:p.NumWaves]
		t.dirY = w[p.NumWaves : p.NumWaves : 2*p.NumWaves]
		t.phase = w[2*p.NumWaves : 2*p.NumWaves : 3*p.NumWaves]
		k := 0.0
		if l == 0 {
			k = p.RicianK
		}
		scatter := math.Sqrt(1 / (k + 1))
		t.los = math.Sqrt(k / (k + 1))
		if t.los > 0 {
			ang := 2 * math.Pi * rng.Float64()
			t.losDirX, t.losDirY = math.Cos(ang), math.Sin(ang)
			t.losPhase = 2 * math.Pi * rng.Float64()
		}
		for n := 0; n < p.NumWaves; n++ {
			ang := 2 * math.Pi * rng.Float64()
			t.dirX = append(t.dirX, math.Cos(ang))
			t.dirY = append(t.dirY, math.Sin(ang))
			t.phase = append(t.phase, 2*math.Pi*rng.Float64())
		}
		t.los *= t.ampl
		t.amplScatter(scatter, p.NumWaves)
		f.taps = append(f.taps, t)
	}
	reach := 0.0
	for l := len(f.taps) - 1; l >= 0; l-- {
		t := &f.taps[l]
		reach += t.scatterAmpl*float64(len(t.phase)) + t.los
		t.reach = reach
	}
	f.rng = nil
}

// amplScatter folds the Rician scatter fraction and the 1/√N wave
// normalization into the tap's scattered amplitude.
func (t *tap) amplScatter(scatter float64, numWaves int) {
	t.scatterAmpl = t.ampl * scatter / math.Sqrt(float64(numWaves))
}

// tapGain evaluates the tap's complex gain at a client position.
func (t *tap) gain(k float64, pos Position) complex128 {
	var re, im float64
	for n := range t.phase {
		ph := k*(t.dirX[n]*pos.X+t.dirY[n]*pos.Y) + t.phase[n]
		s, c := math.Sincos(ph)
		re += c
		im += s
	}
	g := complex(re*t.scatterAmpl, im*t.scatterAmpl)
	if t.los > 0 {
		ph := k*(t.losDirX*pos.X+t.losDirY*pos.Y) + t.losPhase
		g += cmplx.Rect(t.los, ph)
	}
	return g
}

// Gains fills dst with the complex channel gain of every subcarrier at the
// given client position. dst must have length NumSubcarriers. The mean
// square of the gains over positions and realizations is 1, so large-scale
// power is untouched on average.
//
// Past the first call, which may draw the realization, Gains allocates
// nothing and writes only dst.
func (f *Fader) Gains(pos Position, dst []complex128) {
	if len(dst) != NumSubcarriers {
		panic("rf: Gains dst must have NumSubcarriers elements")
	}
	f.once.Do(f.draw)
	acc := (*[NumSubcarriers]complex128)(dst)
	clear(acc[:])
	for l := range f.taps {
		f.addTap(l, f.taps[l].gain(f.waveNumber, pos), acc)
	}
}

// addTap adds tap l's gain g to every subcarrier of acc, rotated by the
// tap's delay. A response adds its taps in order, so every subcarrier
// sums ((0 + g₀·r₀) + g₁·r₁) + ….
func (f *Fader) addTap(l int, g complex128, acc *[NumSubcarriers]complex128) {
	row := f.rot.rot[l*NumSubcarriers:][:NumSubcarriers]
	for i, r := range row {
		acc[i] += g * r
	}
}

// minPower clamps a subcarrier's fading power before its dB conversion,
// so a null reads 120 dB under the mean rather than −Inf.
const minPower = 1e-12

// minPowerDB is a clamped power in dB, 10·log10(minPower).
var minPowerDB = 10 * math.Log10(minPower)

// FillSNRsDB writes each subcarrier's SNR at pos into dst (length
// NumSubcarriers): mean plus its fading power in dB. If every one of
// those values is below floor it may stop instead, report false and
// leave dst unspecified. It stops once the taps evaluated so far, plus
// the bound on the rest (tap.reach), cannot reach 10^((floor−mean)/20)
// in amplitude, and after the delay rotation if the strongest
// subcarrier is below floor. A fill it does not stop writes the floats
// of a −Inf floor, which is the unfloored fill, bit for bit.
//
// Past the first call, which may draw the realization, FillSNRsDB
// allocates nothing and writes only dst.
func (f *Fader) FillSNRsDB(pos Position, mean, floor float64, dst []float64) bool {
	if len(dst) != NumSubcarriers {
		panic("rf: FillSNRsDB dst must have NumSubcarriers elements")
	}
	f.once.Do(f.draw)
	// A clamped power reads minPowerDB under the mean, so the tap bound
	// may stop the fill only for a floor above that.
	lim := 0.0
	if floor-mean > minPowerDB {
		lim = math.Pow(10, (floor-mean)/20)
	}
	if f.taps[0].reach < lim {
		return false
	}
	// Tap l is added to the response only after the check that follows
	// it, so a fill the bound stops adds no tap in vain.
	var gains [NumSubcarriers]complex128
	seen := 0.0 // Σ |h_k| over the taps evaluated so far
	for l := range f.taps {
		g := f.taps[l].gain(f.waveNumber, pos)
		seen += cmplx.Abs(g)
		rest := 0.0
		if l+1 < len(f.taps) {
			rest = f.taps[l+1].reach
		}
		if seen+rest < lim {
			return false
		}
		f.addTap(l, g, &gains)
	}
	dst = dst[:NumSubcarriers]
	top := 0.0
	for i, g := range gains {
		re, im := real(g), imag(g)
		p := re*re + im*im
		if p < minPower {
			p = minPower
		}
		dst[i] = p
		top = max(top, p)
	}
	if mean+10*math.Log10(top) < floor {
		return false
	}
	for i, p := range dst {
		dst[i] = mean + 10*math.Log10(p)
	}
	return true
}

// PowerDB returns the wideband (subcarrier-averaged) fading power in dB at
// a position: 10·log10(mean |H_i|²).
func (f *Fader) PowerDB(pos Position) float64 {
	var gains [NumSubcarriers]complex128
	f.Gains(pos, gains[:])
	sum := 0.0
	for _, g := range gains {
		re, im := real(g), imag(g)
		sum += re*re + im*im
	}
	return 10 * math.Log10(sum/NumSubcarriers)
}

// MaxFadeDB returns an analytic upper bound (dB) on the per-subcarrier
// fading gain any Fader built from p can produce, over all positions,
// phases, and realizations. Per tap, the scattered sum of N unit phasors
// is at most N·scatterAmpl in magnitude and the LOS component adds its
// amplitude; |H_i| is at most the sum of the per-tap bounds. The bound is
// what licenses the audibility prefilter: large-scale SNR plus MaxFadeDB
// below the detect threshold ⇒ every subcarrier is below it too.
func MaxFadeDB(p FadingParams) float64 {
	if p.NumTaps < 1 {
		p.NumTaps = 1
	}
	if p.NumWaves < 1 {
		p.NumWaves = 1
	}
	// Mirror the realization's power normalization exactly.
	total := 0.0
	for l := 0; l < p.NumTaps; l++ {
		total += tapPower(p, l)
	}
	sum := 0.0
	for l := 0; l < p.NumTaps; l++ {
		ampl := math.Sqrt(tapPower(p, l) / total)
		k := 0.0
		if l == 0 {
			k = p.RicianK
		}
		sum += ampl * (math.Sqrt(float64(p.NumWaves)/(k+1)) + math.Sqrt(k/(k+1)))
	}
	return 20 * math.Log10(sum)
}
