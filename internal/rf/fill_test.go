package rf

import (
	"math"
	"math/rand"
	"testing"

	"wgtt/internal/sim"
)

// fillProfiles are the tap-delay profiles the floored fill is checked
// on: the wifi5g default (three Rayleigh taps), the mmwave60g profile
// (a Rician tap, K = 8, then a Rayleigh one), a single strongly Rician
// tap, whose bound is almost all LOS, and three equal-power taps, whose
// last tap weighs as much as the first.
var fillProfiles = map[string]FadingParams{
	"rayleigh": DefaultFadingParams(2.462e9),
	"rician":   {FreqHz: 60.48e9, NumTaps: 2, TapSpacingSec: 10e-9, DecayDB: 9, NumWaves: 8, RicianK: 8},
	"los":      {FreqHz: 60.48e9, NumTaps: 1, TapSpacingSec: 10e-9, NumWaves: 8, RicianK: 100},
	"flat-pdp": {FreqHz: 5.2e9, NumTaps: 3, TapSpacingSec: 100e-9, DecayDB: 0, NumWaves: 6},
}

// unflooredFill is the fill as it was before it took a floor, written
// out: the complex gains, then mean plus each clamped power in dB.
func unflooredFill(f *Fader, pos Position, mean float64, dst []float64) {
	var gains [NumSubcarriers]complex128
	f.Gains(pos, gains[:])
	for i, g := range gains {
		re, im := real(g), imag(g)
		p := re*re + im*im
		if p < 1e-12 {
			p = 1e-12
		}
		dst[i] = mean + 10*math.Log10(p)
	}
}

// TestFillSNRsDBFloor checks the floored fill against the unfloored one
// over random realizations, positions, means and floors. A −Inf floor
// fills, bit for bit as unflooredFill; a floored fill that fills writes
// the same floats; one that stops does so only when every unfloored
// value is below the floor. Half the floors sit within a few dB of the
// strongest subcarrier, where a tap bound that fell short of the taps'
// reach would stop a fill that must fill.
func TestFillSNRsDBFloor(t *testing.T) {
	for name, p := range fillProfiles {
		rot := NewDelayRotations(p)
		rng := rand.New(rand.NewSource(int64(len(name))))
		var fills, stops int
		for k := 0; k < 3000; k++ {
			f := NewFaderWith(rot, p, sim.NewRNG(int64(k/10)))
			pos := Position{X: rng.Float64()*60 - 30, Y: rng.Float64()*20 - 10}
			mean := rng.Float64()*60 - 20
			var want, got [NumSubcarriers]float64
			unflooredFill(f, pos, mean, want[:])
			if !f.FillSNRsDB(pos, mean, math.Inf(-1), got[:]) || got != want {
				t.Fatalf("%s: the −Inf fill at %v differs from the unfloored fill", name, pos)
			}
			top := math.Inf(-1)
			for _, v := range want {
				top = max(top, v)
			}
			floor := mean + rng.Float64()*50 - 30
			if k%2 == 0 {
				floor = top + rng.Float64()*8 - 4
			}
			got = [NumSubcarriers]float64{}
			if f.FillSNRsDB(pos, mean, floor, got[:]) {
				fills++
				if got != want {
					t.Fatalf("%s: the fill at %v with floor %v differs from the unfloored fill", name, pos, floor)
				}
				continue
			}
			stops++
			if top >= floor {
				t.Fatalf("%s: the fill at %v stopped at floor %v, but a subcarrier reads %v", name, pos, floor, top)
			}
		}
		if fills < 500 || stops < 500 {
			t.Errorf("%s: %d fills and %d stops — the floors exercise too little", name, fills, stops)
		}
	}
}

// TestFillSNRsDBEdges pins the floored fill where mean or floor is not
// finite, and at the clamp: a floor under the clamped null (minPowerDB
// under the mean) never stops a fill.
func TestFillSNRsDBEdges(t *testing.T) {
	p := DefaultFadingParams(2.462e9)
	f := NewFader(p, sim.NewRNG(3))
	pos := Position{X: 1, Y: 2}
	inf := math.Inf(1)
	cases := []struct {
		mean, floor float64
		fill        bool
	}{
		{20, -inf, true},
		{20, inf, false},
		{-inf, 1, false},
		{-inf, -inf, true},
		{inf, inf, true},
		{math.NaN(), 1, true},
		{20, math.NaN(), true},
	}
	for _, c := range cases {
		var dst [NumSubcarriers]float64
		if got := f.FillSNRsDB(pos, c.mean, c.floor, dst[:]); got != c.fill {
			t.Errorf("mean %v floor %v: filled %v, want %v", c.mean, c.floor, got, c.fill)
		}
	}
	// A dead channel reads every subcarrier at the clamp: a floor under
	// it must fill, one over it may stop.
	dead := NewFader(p, sim.NewRNG(3))
	for l := range dead.taps {
		dead.taps[l].scatterAmpl, dead.taps[l].reach = 0, 0
	}
	var dst [NumSubcarriers]float64
	if !dead.FillSNRsDB(pos, 20, 20+minPowerDB-1, dst[:]) || dst[0] != 20+minPowerDB {
		t.Errorf("a dead channel under a floor below the clamp read %v, want %v", dst[0], 20+minPowerDB)
	}
	if dead.FillSNRsDB(pos, 20, 20+minPowerDB+1, dst[:]) {
		t.Error("a dead channel filled over a floor above the clamp")
	}
}

// TestFillSNRsDBAllocatesNothing holds a realized fader's floored fill,
// stopped or not, to zero allocations.
func TestFillSNRsDBAllocatesNothing(t *testing.T) {
	f := NewFader(DefaultFadingParams(2.462e9), sim.NewRNG(4))
	var dst [NumSubcarriers]float64
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		pos := Position{X: float64(i%97) * 0.1, Y: 1}
		f.FillSNRsDB(pos, 10, float64(i%40)-20, dst[:])
	})
	if allocs != 0 {
		t.Errorf("a floored fill allocates %v objects", allocs)
	}
}

// TestFlatSNRsDB pins the flat fill: it fills at or above the floor and
// leaves dst untouched below it.
func TestFlatSNRsDB(t *testing.T) {
	var dst [NumSubcarriers]float64
	if FillFlatSNRsDB(0.5, 1, dst[:]) || dst != ([NumSubcarriers]float64{}) {
		t.Error("a flat channel below the floor was filled")
	}
	if !FillFlatSNRsDB(1, 1, dst[:]) || dst[0] != 1 || dst[NumSubcarriers-1] != 1 {
		t.Error("a flat channel at the floor was not filled")
	}
}
