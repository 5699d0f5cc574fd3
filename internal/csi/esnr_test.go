package csi

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"wgtt/internal/rf"
	"wgtt/internal/sim"
)

func TestModulationStringsAndBits(t *testing.T) {
	cases := []struct {
		m    Modulation
		s    string
		bits int
	}{
		{BPSK, "BPSK", 1}, {QPSK, "QPSK", 2}, {QAM16, "16-QAM", 4}, {QAM64, "64-QAM", 6},
	}
	for _, c := range cases {
		if c.m.String() != c.s {
			t.Errorf("String() = %q, want %q", c.m.String(), c.s)
		}
		if c.m.BitsPerSymbol() != c.bits {
			t.Errorf("%v BitsPerSymbol = %d, want %d", c.m, c.m.BitsPerSymbol(), c.bits)
		}
	}
	if Modulation(9).BitsPerSymbol() != 0 || Modulation(9).String() == "" {
		t.Error("unknown modulation not handled")
	}
}

func TestBERKnownValues(t *testing.T) {
	// BPSK at 9.6 dB SNR ⇒ BER ≈ 1e-5 (classic digital comms result:
	// Eb/N0 = 9.6 dB gives Pb = 1e-5 for BPSK).
	ber := BER(BPSK, math.Pow(10, 9.6/10))
	if ber < 0.5e-5 || ber > 2e-5 {
		t.Errorf("BPSK BER at 9.6 dB = %v, want ~1e-5", ber)
	}
	// At 0 SNR every modulation is hopeless (BER near its max).
	if b := BER(BPSK, 0); b != 0.5 {
		t.Errorf("BPSK BER at zero SNR = %v, want 0.5", b)
	}
	// Negative linear SNR is clamped, not NaN.
	if b := BER(QAM64, -3); math.IsNaN(b) {
		t.Error("BER(-3) is NaN")
	}
}

func TestBEROrderingAcrossModulations(t *testing.T) {
	// At any fixed SNR in the operating range, denser constellations
	// have higher BER. (Below ~2 dB the standard approximation formulas'
	// leading coefficients — 3/4, 7/12 — cross over, so start there.)
	for db := 2.5; db <= 35; db += 2.5 {
		snr := math.Pow(10, db/10)
		if !(BER(BPSK, snr) <= BER(QPSK, snr)+1e-15 &&
			BER(QPSK, snr) <= BER(QAM16, snr)+1e-15 &&
			BER(QAM16, snr) <= BER(QAM64, snr)+1e-15) {
			t.Fatalf("BER ordering violated at %v dB", db)
		}
	}
}

func TestBERMonotoneDecreasing(t *testing.T) {
	for _, m := range []Modulation{BPSK, QPSK, QAM16, QAM64} {
		prev := 1.0
		for db := -10.0; db <= 40; db += 0.5 {
			b := BER(m, math.Pow(10, db/10))
			if b > prev+1e-15 {
				t.Fatalf("%v BER increased at %v dB", m, db)
			}
			prev = b
		}
	}
}

func TestEffectiveSNRFlatChannel(t *testing.T) {
	// On a flat channel ESNR must equal the (common) subcarrier SNR.
	for _, m := range []Modulation{BPSK, QPSK, QAM16, QAM64} {
		snrs := make([]float64, rf.NumSubcarriers)
		for i := range snrs {
			snrs[i] = 17
		}
		esnr := EffectiveSNRdB(snrs, m)
		if math.Abs(esnr-17) > 0.05 {
			t.Errorf("%v flat-channel ESNR = %v, want 17", m, esnr)
		}
	}
}

func TestEffectiveSNRPenalizesSelectivity(t *testing.T) {
	// A channel with a deep notch must score well below its average SNR:
	// that is the whole point of ESNR.
	snrs := make([]float64, rf.NumSubcarriers)
	for i := range snrs {
		snrs[i] = 25
	}
	for i := 0; i < 8; i++ { // 8 subcarriers in a deep fade
		snrs[i] = 2
	}
	avg := 0.0
	for _, s := range snrs {
		avg += s
	}
	avg /= float64(len(snrs))
	esnr := EffectiveSNRdB(snrs, QAM16)
	if esnr > avg-3 {
		t.Errorf("ESNR %v too close to naive average %v on notched channel", esnr, avg)
	}
	// But never below the worst subcarrier.
	if esnr < 2 {
		t.Errorf("ESNR %v below worst subcarrier", esnr)
	}
}

func TestEffectiveSNREmptyInput(t *testing.T) {
	if !math.IsInf(EffectiveSNRdB(nil, QAM16), -1) {
		t.Error("empty input should give -Inf")
	}
}

// Property: ESNR lies between the minimum and maximum subcarrier SNR.
func TestEffectiveSNRBoundsProperty(t *testing.T) {
	f := func(raw [8]uint8) bool {
		snrs := make([]float64, len(raw))
		minS, maxS := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			snrs[i] = float64(r%45) - 5 // −5..39 dB
			minS = math.Min(minS, snrs[i])
			maxS = math.Max(maxS, snrs[i])
		}
		esnr := EffectiveSNRdB(snrs, QAM16)
		return esnr >= minS-0.5 && esnr <= maxS+0.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: raising any subcarrier's SNR never lowers ESNR.
func TestEffectiveSNRMonotoneProperty(t *testing.T) {
	f := func(raw [8]uint8, idx uint8, bump uint8) bool {
		snrs := make([]float64, len(raw))
		for i, r := range raw {
			snrs[i] = float64(r % 40)
		}
		before := EffectiveSNRdB(snrs, QAM16)
		snrs[int(idx)%len(snrs)] += float64(bump%20) + 0.1
		after := EffectiveSNRdB(snrs, QAM16)
		return after >= before-0.01
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvBERRoundTrip(t *testing.T) {
	for _, m := range []Modulation{BPSK, QPSK, QAM16, QAM64} {
		for db := 0.0; db <= 30; db += 3 {
			snr := math.Pow(10, db/10)
			if BER(m, snr) < 1e-300 {
				continue // underflowed: round trip undefined
			}
			back := invBER(m, BER(m, snr))
			if math.Abs(linearToDB(back)-db) > 0.05 {
				t.Errorf("%v invBER(BER(%v dB)) = %v dB", m, db, linearToDB(back))
			}
		}
	}
	// Degenerate targets.
	if linearToDB(invBER(QAM16, 0)) < 50 {
		t.Error("invBER(0) should saturate high")
	}
	if linearToDB(invBER(QAM16, 0.6)) > -15 {
		t.Error("invBER(0.6) should saturate low")
	}
}

func TestSnapshotESNR(t *testing.T) {
	var s Snapshot
	for i := range s.SNRsDB {
		s.SNRsDB[i] = 20
	}
	s.Time = sim.Time(5 * sim.Millisecond)
	if e := s.ESNRdB(RefModulation); math.Abs(e-20) > 0.05 {
		t.Errorf("snapshot ESNR = %v, want 20", e)
	}
}

func TestWindowMedian(t *testing.T) {
	w := NewWindow(10 * sim.Millisecond)
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Time(sim.Millisecond) }
	w.Add(ms(0), 10)
	w.Add(ms(1), 30)
	w.Add(ms(2), 20)
	med, ok := w.MedianAt(ms(2))
	if !ok || med != 20 {
		t.Errorf("median = %v, %v; want 20", med, ok)
	}
	// Even count: upper median by the ⌊L/2⌋ rule on 0-indexed sort.
	w.Add(ms(3), 40)
	med, _ = w.MedianAt(ms(3))
	if med != 30 {
		t.Errorf("even-count median = %v, want 30", med)
	}
}

func TestWindowExpiry(t *testing.T) {
	w := NewWindow(10 * sim.Millisecond)
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Time(sim.Millisecond) }
	w.Add(ms(0), 5)
	w.Add(ms(5), 15)
	// At t=12 ms, the t=0 reading (age 12 ms) must be gone.
	med, ok := w.MedianAt(ms(12))
	if !ok || med != 15 {
		t.Errorf("median after expiry = %v, %v; want 15", med, ok)
	}
	if w.Len() != 1 {
		t.Errorf("Len = %d, want 1", w.Len())
	}
	// All readings expire eventually.
	if _, ok := w.MedianAt(ms(100)); ok {
		t.Error("window should be empty at t=100 ms")
	}
	if _, ok := w.Latest(); ok {
		t.Error("Latest should report empty")
	}
}

func TestWindowLatestAndMean(t *testing.T) {
	w := NewWindow(10 * sim.Millisecond)
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Time(sim.Millisecond) }
	w.Add(ms(1), 10)
	w.Add(ms(2), 20)
	last, ok := w.Latest()
	if !ok || last.ESNRdB != 20 || last.Time != ms(2) {
		t.Errorf("Latest = %+v, %v", last, ok)
	}
	mean, ok := w.MeanAt(ms(2))
	if !ok || mean != 15 {
		t.Errorf("mean = %v, want 15", mean)
	}
	if _, ok := NewWindow(sim.Millisecond).MeanAt(ms(0)); ok {
		t.Error("empty mean should report !ok")
	}
}

// Property: the median lies within the min/max of the live readings.
func TestWindowMedianBoundsProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		w := NewWindow(1000 * sim.Millisecond)
		minV, maxV := math.Inf(1), math.Inf(-1)
		for i, v := range vals {
			f := float64(v)
			w.Add(sim.Time(i)*sim.Time(sim.Millisecond), f)
			minV = math.Min(minV, f)
			maxV = math.Max(maxV, f)
		}
		med, ok := w.MedianAt(sim.Time(len(vals)) * sim.Time(sim.Millisecond))
		if len(vals) == 0 {
			return !ok
		}
		return ok && med >= minV && med <= maxV
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// plainESNRdB is EffectiveSNRdB without the equal-SNR reuse: one table
// lookup per subcarrier, summed in order.
func plainESNRdB(snrsDB []float64, m Modulation) float64 {
	sum := 0.0
	for _, s := range snrsDB {
		sum += berAtDB(m, s)
	}
	return esnrDBFromBER(m, sum/float64(len(snrsDB)))
}

// TestEffectiveSNRMatchesPlainLoop holds EffectiveSNRdB to the plain
// per-subcarrier loop, bit for bit, on vectors built from runs of equal
// values that recur (so a reused BER must follow its SNR, not an older
// one), ±0, NaN, ±Inf, and SNRs past both ends of the table, for every
// modulation.
func TestEffectiveSNRMatchesPlainLoop(t *testing.T) {
	values := []float64{
		3, 3.5, -7.25, 12, 28.125, 0, math.Copysign(0, -1),
		math.NaN(), math.Inf(1), math.Inf(-1),
		berTblMinDB - 5, berTblMinDB, berTblMaxDB, berTblMaxDB + 5,
	}
	rng := rand.New(rand.NewSource(1))
	var snrs [rf.NumSubcarriers]float64
	for m := BPSK; m <= QAM64; m++ {
		for k := 0; k < 5000; k++ {
			pool := values[:2+rng.Intn(len(values)-1)]
			for i := 0; i < len(snrs); {
				v := pool[rng.Intn(len(pool))]
				if k%3 == 0 {
					v = rng.Float64()*130 - 45
				}
				for run := 1 + rng.Intn(6); run > 0 && i < len(snrs); run-- {
					snrs[i] = v
					i++
				}
			}
			got, want := EffectiveSNRdB(snrs[:], m), plainESNRdB(snrs[:], m)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v %v: ESNR %v, plain loop %v", m, snrs, got, want)
			}
		}
	}
}
