package mac

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"wgtt/internal/csi"
	"wgtt/internal/rf"
)

// TestFillFloorMargin justifies fillFloorMarginDB. The medium lets a
// fill stop when every subcarrier reads below fillFloorDB, which is
// sound only if no such channel has an ESNR at or over
// detectThresholdDB. Flat channels are the tight case (their ESNR is
// their SNR up to the BER tables' rounding, ~1e-13 dB here): for every
// modulation, a flat channel at the floor, at the float just under it,
// and across the 0.1 dB under it must read under the threshold, and so
// must random channels whose strongest subcarrier is below the floor,
// from nearly flat to 40 dB of spread.
func TestFillFloorMargin(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var snrs [rf.NumSubcarriers]float64
	check := func(m csi.Modulation, what string) {
		if e := csi.EffectiveSNRdB(snrs[:], m); e >= detectThresholdDB {
			t.Fatalf("%v: %s reads ESNR %v, at or over the %v dB threshold (largest SNR %v)",
				m, what, e, detectThresholdDB, slices.Max(snrs[:]))
		}
	}
	for m := csi.BPSK; m <= csi.QAM64; m++ {
		flat := []float64{fillFloorDB, math.Nextafter(fillFloorDB, math.Inf(-1))}
		for k := 0; k < 1000; k++ {
			flat = append(flat, fillFloorDB-float64(k)*1e-4-rng.Float64()*1e-4)
		}
		for _, v := range flat {
			for i := range snrs {
				snrs[i] = v
			}
			check(m, "a flat channel")
		}
		for k := 0; k < 20000; k++ {
			top := math.Nextafter(fillFloorDB, math.Inf(-1))
			if k%2 == 1 {
				top = fillFloorDB - rng.Float64()*3
			}
			spread := []float64{1e-3, 0.1, 3, 40}[k%4]
			for i := range snrs {
				snrs[i] = top - rng.Float64()*spread
			}
			snrs[rng.Intn(len(snrs))] = top
			check(m, "a random channel")
		}
	}
}
