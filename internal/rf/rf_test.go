package rf

import (
	"math"
	"testing"
	"testing/quick"

	"wgtt/internal/sim"
)

func TestPositionGeometry(t *testing.T) {
	a := Position{0, 0}
	b := Position{3, 4}
	if d := a.Distance(b); d != 5 {
		t.Errorf("Distance = %v, want 5", d)
	}
	if d := b.Distance(a); d != 5 {
		t.Errorf("Distance not symmetric: %v", d)
	}
	if ang := a.AngleTo(Position{1, 0}); ang != 0 {
		t.Errorf("AngleTo(+X) = %v, want 0", ang)
	}
	if ang := a.AngleTo(Position{0, 1}); ang != 90 {
		t.Errorf("AngleTo(+Y) = %v, want 90", ang)
	}
	if ang := a.AngleTo(Position{-1, 0}); ang != 180 {
		t.Errorf("AngleTo(-X) = %v, want 180", ang)
	}
}

func TestNormalizeAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {180, 180}, {-180, 180}, {190, -170}, {-190, 170}, {540, 180}, {360, 0},
	}
	for _, c := range cases {
		if got := normalizeAngle(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("normalizeAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParabolicPattern(t *testing.T) {
	p := DefaultParabolic(90) // pointing +Y
	peak := p.GainDB(90)
	if peak != 14 {
		t.Errorf("boresight gain = %v, want 14", peak)
	}
	// Half-power beamwidth: −3 dB at ±10.5° off boresight.
	if g := p.GainDB(90 + 10.5); math.Abs(g-(14-3)) > 1e-9 {
		t.Errorf("gain at half beamwidth = %v, want 11", g)
	}
	// Symmetric pattern.
	if p.GainDB(90+7) != p.GainDB(90-7) {
		t.Error("pattern not symmetric about boresight")
	}
	// Side-lobe floor: far off boresight the gain clamps at peak−28.
	if g := p.GainDB(90 + 120); g != 14-28 {
		t.Errorf("side-lobe gain = %v, want -14", g)
	}
	// Wrap-around: bearing −179 vs boresight 180 is only 1° off.
	q := DefaultParabolic(180)
	if g := q.GainDB(-179); g < 13.9 {
		t.Errorf("wrap-around gain = %v, want ~14", g)
	}
}

func TestParabolicMonotoneInMainLobe(t *testing.T) {
	p := DefaultParabolic(0)
	prev := p.GainDB(0)
	for off := 1.0; off <= 25; off++ {
		g := p.GainDB(off)
		if g > prev {
			t.Fatalf("gain increased moving off boresight at %v°", off)
		}
		prev = g
	}
}

func TestSubcarrierOffsets(t *testing.T) {
	// 56 subcarriers: −28..−1 and +1..+28, no DC.
	if subcarrierOffsetHz(0) != -28*SubcarrierSpacingHz {
		t.Errorf("first subcarrier offset = %v", subcarrierOffsetHz(0))
	}
	if subcarrierOffsetHz(NumSubcarriers-1) != 28*SubcarrierSpacingHz {
		t.Errorf("last subcarrier offset = %v", subcarrierOffsetHz(NumSubcarriers-1))
	}
	for i := 0; i < NumSubcarriers; i++ {
		if subcarrierOffsetHz(i) == 0 {
			t.Fatal("DC subcarrier present")
		}
		if i > 0 && subcarrierOffsetHz(i) <= subcarrierOffsetHz(i-1) {
			t.Fatal("subcarrier offsets not strictly increasing")
		}
	}
}

func TestFaderUnitMeanPower(t *testing.T) {
	// Average |H|² over many positions ≈ 1: fading must not add or
	// remove average link budget.
	rng := sim.NewRNG(3)
	f := NewFader(DefaultFadingParams(2.462e9), rng)
	var gains [NumSubcarriers]complex128
	sum, n := 0.0, 0
	for i := 0; i < 400; i++ {
		pos := Position{X: float64(i) * 0.37, Y: float64(i%7) * 0.11}
		f.Gains(pos, gains[:])
		for _, g := range gains {
			re, im := real(g), imag(g)
			sum += re*re + im*im
			n++
		}
	}
	mean := sum / float64(n)
	if mean < 0.7 || mean > 1.4 {
		t.Errorf("mean fading power = %v, want ~1", mean)
	}
}

func TestFaderSpatialCoherence(t *testing.T) {
	// The channel must be nearly constant over ~1 cm (≪ λ/2) and
	// decorrelated over several wavelengths (fast fading at the 12 cm
	// scale, §1).
	rng := sim.NewRNG(4)
	f := NewFader(DefaultFadingParams(2.462e9), rng)
	var a, b, c [NumSubcarriers]complex128
	pos := Position{X: 5, Y: 0}
	f.Gains(pos, a[:])
	f.Gains(Position{X: 5.002, Y: 0}, b[:]) // 2 mm away
	f.Gains(Position{X: 6.5, Y: 0}, c[:])   // ~12 λ away
	var dNear, dFar, p float64
	for i := range a {
		dNear += absSq(a[i] - b[i])
		dFar += absSq(a[i] - c[i])
		p += absSq(a[i])
	}
	if dNear/p > 0.02 {
		t.Errorf("channel changed by %v over 2 mm, want <2%%", dNear/p)
	}
	if dFar/p < 0.2 {
		t.Errorf("channel changed by only %v over 1.5 m, want substantial decorrelation", dFar/p)
	}
}

func absSq(g complex128) float64 {
	return real(g)*real(g) + imag(g)*imag(g)
}

func TestFaderFrequencySelectivity(t *testing.T) {
	// With multiple taps the response must vary across subcarriers;
	// with a single tap it must be flat.
	rng := sim.NewRNG(5)
	multi := NewFader(DefaultFadingParams(2.462e9), rng.Fork("multi"))
	flatParams := DefaultFadingParams(2.462e9)
	flatParams.NumTaps = 1
	flat := NewFader(flatParams, rng.Fork("flat"))

	var g [NumSubcarriers]complex128
	spreadMulti, spreadFlat := 0.0, 0.0
	for i := 0; i < 50; i++ {
		pos := Position{X: float64(i) * 0.9, Y: 0}
		multi.Gains(pos, g[:])
		spreadMulti += powerSpreadDB(g[:])
		flat.Gains(pos, g[:])
		spreadFlat += powerSpreadDB(g[:])
	}
	if spreadFlat > 1e-6 {
		t.Errorf("single-tap channel has subcarrier spread %v dB, want 0", spreadFlat/50)
	}
	if spreadMulti/50 < 1 {
		t.Errorf("multi-tap channel subcarrier spread %v dB, want ≥1 dB", spreadMulti/50)
	}
}

// powerSpreadDB returns max−min subcarrier power in dB.
func powerSpreadDB(g []complex128) float64 {
	minP, maxP := math.Inf(1), math.Inf(-1)
	for _, x := range g {
		p := absSq(x)
		if p < minP {
			minP = p
		}
		if p > maxP {
			maxP = p
		}
	}
	if minP <= 0 {
		minP = 1e-12
	}
	return 10 * (math.Log10(maxP) - math.Log10(minP))
}

func TestFaderDeterministicRealization(t *testing.T) {
	p := DefaultFadingParams(2.462e9)
	f1 := NewFader(p, sim.NewRNG(9).Fork("x"))
	f2 := NewFader(p, sim.NewRNG(9).Fork("x"))
	var a, b [NumSubcarriers]complex128
	pos := Position{X: 3.3, Y: 1.1}
	f1.Gains(pos, a[:])
	f2.Gains(pos, b[:])
	if a != b {
		t.Error("same seed produced different fading realizations")
	}
}

// TestFaderGainsMatchesDefinition pins Gains bit for bit against the
// per-subcarrier definition H_i = Σ_l g_l·rot[l][i], summed from zero in
// tap order, for the Rayleigh roadside profile and a Rician one.
func TestFaderGainsMatchesDefinition(t *testing.T) {
	rician := DefaultFadingParams(60.48e9)
	rician.NumTaps, rician.TapSpacingSec, rician.RicianK = 2, 10e-9, 8
	for _, p := range []FadingParams{DefaultFadingParams(2.462e9), rician} {
		f := NewFader(p, sim.NewRNG(21))
		var got [NumSubcarriers]complex128
		for k := 0; k < 200; k++ {
			pos := Position{X: float64(k) * 0.173, Y: float64(k%5) * 0.61}
			f.Gains(pos, got[:])
			for i := range got {
				var want complex128
				for l := range f.taps {
					want += f.taps[l].gain(f.waveNumber, pos) * f.rot.rot[l*NumSubcarriers+i]
				}
				if got[i] != want {
					t.Fatalf("%d taps, pos %v, subcarrier %d: Gains %v, definition %v", p.NumTaps, pos, i, got[i], want)
				}
			}
		}
	}
}

func TestLinkBudget(t *testing.T) {
	p := DefaultParams()
	rng := sim.NewRNG(11)
	apPos := Position{X: 0, Y: 18}
	// Boresight points straight down at the road (−Y).
	link := NewLink(p, apPos, DefaultParabolic(-90), Omni{}, rng)
	link.DisableFading()

	boresight := link.MeanSNRdB(Position{X: 0, Y: 0})
	if boresight < 22 || boresight > 34 {
		t.Errorf("boresight SNR = %v dB, want ~28 (Fig. 10 peak)", boresight)
	}
	// 10 m along the road: deep in the pattern skirt, near cell edge.
	edge := link.MeanSNRdB(Position{X: 10, Y: 0})
	if edge > boresight-12 {
		t.Errorf("edge SNR %v dB not far enough below boresight %v dB", edge, boresight)
	}
	// SNR monotonically degrades (modulo shadowing) moving away.
	far := link.MeanSNRdB(Position{X: 40, Y: 0})
	if far > edge {
		t.Errorf("SNR grew with distance: %v at 10 m, %v at 40 m", edge, far)
	}
}

func TestLinkSubcarrierSNRs(t *testing.T) {
	p := DefaultParams()
	link := NewLink(p, Position{X: 0, Y: 18}, DefaultParabolic(-90), Omni{}, sim.NewRNG(12))
	var snrs [NumSubcarriers]float64
	link.SubcarrierSNRsDB(Position{X: 1, Y: 0}, snrs[:])
	mean := link.MeanSNRdB(Position{X: 1, Y: 0})
	for i, s := range snrs {
		if s < mean-40 || s > mean+15 {
			t.Errorf("subcarrier %d SNR %v wildly far from mean %v", i, s, mean)
		}
	}
	// Disabled fading: all subcarriers equal the mean.
	link.DisableFading()
	link.SubcarrierSNRsDB(Position{X: 1, Y: 0}, snrs[:])
	for _, s := range snrs {
		if s != mean {
			t.Errorf("fading-off subcarrier SNR %v != mean %v", s, mean)
		}
	}
}

func TestLinkReciprocityAndDeterminism(t *testing.T) {
	p := DefaultParams()
	l1 := NewLink(p, Position{X: 5, Y: 18}, DefaultParabolic(-90), Omni{}, sim.NewRNG(13))
	l2 := NewLink(p, Position{X: 5, Y: 18}, DefaultParabolic(-90), Omni{}, sim.NewRNG(13))
	for i := 0; i < 20; i++ {
		pos := Position{X: float64(i), Y: 0.5}
		if l1.SNRdB(pos) != l2.SNRdB(pos) {
			t.Fatal("identical links disagree")
		}
	}
}

func TestShadowingSmoothAndBounded(t *testing.T) {
	s := NewShadowing(2.5, 8, sim.NewRNG(14))
	prev := s.DB(Position{})
	for x := 0.1; x < 50; x += 0.1 {
		v := s.DB(Position{X: x})
		if math.Abs(v) > 4*2.5 {
			t.Fatalf("shadowing %v dB exceeds 4σ", v)
		}
		if math.Abs(v-prev) > 1.5 {
			t.Fatalf("shadowing jumped %v dB over 10 cm — not smooth", v-prev)
		}
		prev = v
	}
	// Zero sigma is exactly zero everywhere.
	z := NewShadowing(0, 8, sim.NewRNG(15))
	if z.DB(Position{X: 3}) != 0 {
		t.Error("zero-sigma shadowing nonzero")
	}
}

// Property: mean SNR never increases when moving directly away from the AP
// along the boresight ray (no shadowing, no fading).
func TestPathLossMonotoneProperty(t *testing.T) {
	p := DefaultParams()
	p.ShadowSigmaDB = 0
	link := NewLink(p, Position{X: 0, Y: 0}, Omni{}, Omni{}, sim.NewRNG(16))
	link.DisableFading()
	f := func(d1, d2 uint8) bool {
		a := 1 + float64(d1)
		b := a + float64(d2)
		return link.MeanSNRdB(Position{X: b}) <= link.MeanSNRdB(Position{X: a})+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBestAPFlipsAtMillisecondScale(t *testing.T) {
	// The defining property of the vehicular picocell regime (Fig. 2):
	// in the overlap zone between adjacent APs, the instantaneous best
	// AP changes many times per second at driving speed.
	p := DefaultParams()
	p.ShadowSigmaDB = 0
	rng := sim.NewRNG(17)
	ap1 := NewLink(p, Position{X: 0, Y: 18}, DefaultParabolic(-90), Omni{}, rng.Fork("ap1"))
	ap2 := NewLink(p, Position{X: 7.5, Y: 18}, DefaultParabolic(-90), Omni{}, rng.Fork("ap2"))

	speed := 11.2 // 25 mph in m/s
	flips, prevBest := 0, -1
	samples := 0
	for ms := 0; ms < 500; ms++ { // client crosses the midpoint zone
		x := 2.0 + speed*float64(ms)/1000
		pos := Position{X: x, Y: 0}
		best := 0
		if ap2.SNRdB(pos) > ap1.SNRdB(pos) {
			best = 1
		}
		if prevBest >= 0 && best != prevBest {
			flips++
		}
		prevBest = best
		samples++
	}
	if flips < 5 {
		t.Errorf("best AP flipped only %d times in 500 ms at 25 mph, want ≥5", flips)
	}
}

// TestLinkRealizesFromItsForks holds NewLinkWith's fork discipline under
// lazy realization. The link forks "fading" then "shadow" at
// construction, leaving its parent stream where two forks leave it, and
// draws nothing more until used. Whichever method runs first, its
// realizations then equal the ones NewFaderWith and NewShadowing draw at
// once from the same forks, and a link whose fading is disabled never
// draws its waves.
func TestLinkRealizesFromItsForks(t *testing.T) {
	p := DefaultParams()
	rot := NewDelayRotations(p.Fading)
	apPos := Position{X: 0, Y: 18}
	for _, first := range []string{"MeanSNRdB", "SubcarrierSNRsDB", "FillSubcarrierSNRsDB", "SNRdB", "DisableFading"} {
		eager := sim.NewRNG(5)
		fader := NewFaderWith(rot, p.Fading, eager.Fork("fading"))
		shadow := NewShadowing(p.ShadowSigmaDB, p.ShadowCorrDistM, eager.Fork("shadow"))
		parent := sim.NewRNG(5)
		l := NewLinkWith(rot, p, apPos, DefaultParabolic(-90), Omni{}, parent)
		if parent.Uint64() != eager.Uint64() {
			t.Fatalf("%s: NewLinkWith moved its parent stream unlike two forks", first)
		}
		if l.fader.taps != nil || l.shadow.rng == nil {
			t.Fatalf("%s: a fresh link drew a realization", first)
		}
		pos := Position{X: 3, Y: 0.5}
		var snrs [NumSubcarriers]float64
		switch first {
		case "MeanSNRdB":
			l.MeanSNRdB(pos)
			if l.fader.taps != nil {
				t.Fatal("MeanSNRdB drew the fading")
			}
		case "SubcarrierSNRsDB":
			l.SubcarrierSNRsDB(pos, snrs[:])
		case "FillSubcarrierSNRsDB":
			l.FillSubcarrierSNRsDB(pos, 20, math.Inf(-1), snrs[:])
			if l.shadow.rng == nil {
				t.Fatal("a fill drew the shadowing")
			}
		case "SNRdB":
			l.SNRdB(pos)
		case "DisableFading":
			l.DisableFading()
		}
		var a, b [NumSubcarriers]complex128
		for i := 0; i < 100; i++ {
			pos := Position{X: float64(i)*0.37 - 15, Y: float64(i%7) * 0.5}
			if got, want := l.shadow.DB(pos), shadow.DB(pos); got != want {
				t.Fatalf("%s: shadowing %v at %v, eager realization %v", first, got, pos, want)
			}
			l.SubcarrierSNRsDB(pos, snrs[:])
			if first == "DisableFading" {
				continue
			}
			l.fader.Gains(pos, a[:])
			fader.Gains(pos, b[:])
			if a != b {
				t.Fatalf("%s: fading gains at %v differ from the eager realization", first, pos)
			}
		}
		if first == "DisableFading" && l.fader.taps != nil {
			t.Error("a link with fading disabled drew its waves")
		}
	}
}
