package channel

import (
	"fmt"
	"math"
	"testing"

	"wgtt/internal/rf"
	"wgtt/internal/sim"
)

func wifiCfg() ModelConfig {
	return ModelConfig{RF: rf.DefaultParams(), BoresightDeg: -90, ClientClientLossDB: 10}
}

func mmCfg() ModelConfig {
	return ModelConfig{MMWave: DefaultMMWaveParams(), BoresightDeg: -90, ClientClientLossDB: 10}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"", "wifi5g", "mmwave60g"} {
		if !Known(name) {
			t.Errorf("Known(%q) = false", name)
		}
	}
	if Known("fsk1200") {
		t.Error("Known accepted an unregistered backend")
	}
	if _, err := New("fsk1200", wifiCfg()); err == nil {
		t.Error("New accepted an unregistered backend")
	}
	m, err := New("", wifiCfg())
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != DefaultBackend {
		t.Errorf("empty name resolved to %q, want %q", m.Name(), DefaultBackend)
	}
	names := Names()
	if len(names) < 2 {
		t.Errorf("Names() = %v, want at least wifi5g and mmwave60g", names)
	}
}

// TestWifi5gMatchesRF pins the tentpole's bit-identity contract: the
// wifi5g backend is the pre-refactor rf stack verbatim — same RNG fork
// discipline, same float expressions — so a backend link and a direct
// rf.Link built from equal-seeded RNGs must agree exactly.
func TestWifi5gMatchesRF(t *testing.T) {
	cfg := wifiCfg()
	m, err := New("wifi5g", cfg)
	if err != nil {
		t.Fatal(err)
	}
	apPos := rf.Position{X: 10, Y: 3}
	ml := m.NewLink(apPos, sim.NewRNG(7))
	rl := rf.NewLink(cfg.RF, apPos, rf.DefaultParabolic(cfg.BoresightDeg), rf.Omni{}, sim.NewRNG(7))
	var a, b [rf.NumSubcarriers]float64
	for i := 0; i < 50; i++ {
		pos := rf.Position{X: float64(i), Y: 0.4}
		ml.SubcarrierSNRsDB(0, pos, a[:])
		rl.SubcarrierSNRsDB(pos, b[:])
		if a != b {
			t.Fatalf("subcarrier SNRs diverge at %v", pos)
		}
		if ml.MeanSNRdB(0, pos) != rl.MeanSNRdB(pos) {
			t.Fatalf("mean SNR diverges at %v", pos)
		}
		if ml.SNRdB(0, pos) != rl.SNRdB(pos) {
			t.Fatalf("wideband SNR diverges at %v", pos)
		}
	}
}

// TestWifi5gBoundSoundness samples the audibility contract: the box
// bound plus the detect headroom must dominate every per-subcarrier SNR
// at every sampled box point (DESIGN.md §10).
func TestWifi5gBoundSoundness(t *testing.T) {
	m, err := New("wifi5g", wifiCfg())
	if err != nil {
		t.Fatal(err)
	}
	apPos := rf.Position{X: 0, Y: 3}
	link := m.NewLink(apPos, sim.NewRNG(3))
	box := Box{MinX: 5, MaxX: 40, MinY: -2, MaxY: 2}
	bound := m.MaxSNRAPToBoxDB(apPos, box) + m.DetectHeadroomDB()
	var snrs [rf.NumSubcarriers]float64
	for x := box.MinX; x <= box.MaxX; x += 0.7 {
		pos := rf.Position{X: x, Y: 1}
		link.SubcarrierSNRsDB(0, pos, snrs[:])
		for _, s := range snrs {
			if s > bound {
				t.Fatalf("subcarrier SNR %.2f dB exceeds bound %.2f dB at %v", s, bound, pos)
			}
		}
	}
}

// TestMMWaveDeterministic pins the mmwave60g determinism contract: two
// links drawn from equal-seeded RNGs agree exactly at every (time,
// position) query — blockage included — because the whole blockage
// schedule is materialized at construction.
func TestMMWaveDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		m1, _ := New("mmwave60g", mmCfg())
		m2, _ := New("mmwave60g", mmCfg())
		apPos := rf.Position{X: 5, Y: 3}
		l1 := m1.NewLink(apPos, sim.NewRNG(seed))
		l2 := m2.NewLink(apPos, sim.NewRNG(seed))
		var a, b [rf.NumSubcarriers]float64
		for i := 0; i < 200; i++ {
			now := sim.Time(i) * sim.Time(50*sim.Millisecond)
			pos := rf.Position{X: float64(i % 30), Y: 0.5}
			l1.SubcarrierSNRsDB(now, pos, a[:])
			l2.SubcarrierSNRsDB(now, pos, b[:])
			if a != b {
				t.Fatalf("seed %d: links diverge at t=%v pos=%v", seed, now, pos)
			}
		}
	}
}

// TestMMWaveCellCap pins the picocell reach: inside CellRadiusM the link
// is live, beyond it stone dead, and the audibility bounds agree.
func TestMMWaveCellCap(t *testing.T) {
	cfg := mmCfg()
	m, _ := New("mmwave60g", cfg)
	apPos := rf.Position{}
	link := m.NewLink(apPos, sim.NewRNG(1))
	link.DisableFading()
	r := cfg.MMWave.CellRadiusM
	if snr := link.MeanSNRdB(0, rf.Position{X: r - 1}); snr < 0 {
		t.Errorf("SNR %.1f dB just inside the cell; want positive", snr)
	}
	if snr := link.MeanSNRdB(0, rf.Position{X: r + 1}); snr > -100 {
		t.Errorf("SNR %.1f dB beyond the cell radius; want dead", snr)
	}
	farBox := Box{MinX: r + 10, MaxX: r + 20, MinY: -2, MaxY: 2}
	if b := m.MaxSNRAPToBoxDB(apPos, farBox); b > -100 {
		t.Errorf("box bound %.1f dB beyond the cell radius; want dead", b)
	}
	if b := m.MaxSNRClientToAPDB(rf.Position{X: r + 5}, apPos); b > -100 {
		t.Errorf("client bound %.1f dB beyond the cell radius; want dead", b)
	}
}

// TestMMWaveBoundSoundness samples the §10 contract for the mmWave
// backend across time: blockage and shadowing only subtract from the
// analytic peak, so the box bound plus headroom dominates every
// instantaneous subcarrier SNR.
func TestMMWaveBoundSoundness(t *testing.T) {
	m, _ := New("mmwave60g", mmCfg())
	apPos := rf.Position{X: 0, Y: 3}
	link := m.NewLink(apPos, sim.NewRNG(9))
	box := Box{MinX: 1, MaxX: 20, MinY: -1, MaxY: 1}
	bound := m.MaxSNRAPToBoxDB(apPos, box) + m.DetectHeadroomDB()
	var snrs [rf.NumSubcarriers]float64
	for i := 0; i < 300; i++ {
		now := sim.Time(i) * sim.Time(100*sim.Millisecond)
		pos := rf.Position{X: 1 + float64(i%19), Y: 0.5}
		link.SubcarrierSNRsDB(now, pos, snrs[:])
		for _, s := range snrs {
			if s > bound {
				t.Fatalf("subcarrier SNR %.2f dB exceeds bound %.2f dB at t=%v %v", s, bound, now, pos)
			}
		}
	}
}

// TestMMWaveBlockage pins the blockage renewal process: with the default
// rate some of a long horizon is blocked at exactly BlockageDepthDB, and
// the attenuation is a pure function of time.
func TestMMWaveBlockage(t *testing.T) {
	cfg := mmCfg()
	m, _ := New("mmwave60g", cfg)
	link := m.NewLink(rf.Position{}, sim.NewRNG(2))
	link.DisableFading()
	pos := rf.Position{X: 5}
	clear := link.MeanSNRdB(0, pos)
	blocked := 0
	const steps = 10000
	for i := 0; i < steps; i++ {
		now := sim.Time(i) * sim.Time(10*sim.Millisecond) // 100 s span
		snr := link.MeanSNRdB(now, pos)
		switch {
		case snr == clear:
		case math.Abs(clear-snr-cfg.MMWave.BlockageDepthDB) < 1e-9:
			blocked++
		default:
			t.Fatalf("SNR %.3f dB at t=%v is neither clear (%.3f) nor blocked (%.3f)",
				snr, now, clear, clear-cfg.MMWave.BlockageDepthDB)
		}
	}
	if blocked == 0 {
		t.Error("no blockage event in 100 s at 0.25/s; renewal process never fired")
	}
	if blocked == steps {
		t.Error("channel blocked for the entire horizon")
	}
}

// TestMMWaveRateTable pins the ladder shape the Minstrel controller
// depends on: exactly NumRates rows, MCS i at row i, increasing rates.
func TestMMWaveRateTable(t *testing.T) {
	m, _ := New("mmwave60g", mmCfg())
	tbl := m.Rates()
	if !tbl.Valid() {
		t.Fatalf("mmwave table invalid: %+v", tbl)
	}
	if tbl.Basic.MCS != 0 {
		t.Errorf("basic rate MCS = %d, want 0", tbl.Basic.MCS)
	}
	for i := 1; i < len(tbl.Rates); i++ {
		if tbl.Rates[i].Mbps <= tbl.Rates[i-1].Mbps {
			t.Errorf("rate ladder not increasing at row %d", i)
		}
		if tbl.Rates[i].ThresholdDB <= tbl.Rates[i-1].ThresholdDB {
			t.Errorf("threshold ladder not increasing at row %d", i)
		}
	}
}

func TestBoxGeometry(t *testing.T) {
	b := Box{MinX: 0, MaxX: 10, MinY: -2, MaxY: 2}
	cases := []struct {
		pos  rf.Position
		want float64
	}{
		{rf.Position{X: 5, Y: 0}, 0},
		{rf.Position{X: -3, Y: 0}, 3},
		{rf.Position{X: 13, Y: 6}, 5},
		{rf.Position{X: 5, Y: 4}, 2},
	}
	for _, c := range cases {
		if got := b.Distance(c.pos); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Distance(%v) = %v, want %v", c.pos, got, c.want)
		}
	}
	if !b.Contains(rf.Position{X: 5, Y: 0}) || b.Contains(rf.Position{X: 11, Y: 0}) {
		t.Error("Contains wrong")
	}
}

// TestInterferenceCoupling sanity-checks the boundary-interference
// budgets: closer is louder, an AP's sidelobe coupling is below its
// served-beam budget, and the wifi5g client path includes the
// penetration loss.
func TestInterferenceCoupling(t *testing.T) {
	for _, name := range []string{"wifi5g", "mmwave60g"} {
		cfg := wifiCfg()
		if name == "mmwave60g" {
			cfg = mmCfg()
		}
		m, err := New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			rx := rf.Position{X: 0, Y: 0}
			near := m.InterferenceOverNoiseDB(true, rf.Position{X: 5, Y: 3}, rx)
			far := m.InterferenceOverNoiseDB(true, rf.Position{X: 20, Y: 3}, rx)
			if near <= far {
				t.Errorf("AP interference not monotone: near %.1f <= far %.1f", near, far)
			}
			cNear := m.InterferenceOverNoiseDB(false, rf.Position{X: 5, Y: 0}, rx)
			if cNear >= near+30 {
				t.Errorf("client interference %.1f implausibly above AP's %.1f", cNear, near)
			}
		})
	}
}

func ExampleNames() {
	fmt.Println(Names())
	// Output: [mmwave60g wifi5g]
}

// TestClientToAPBoundDominatesMean pins the zero-slack contract the
// medium's threshold short-cuts rely on (DESIGN.md §10): for both
// backends, MaxSNRClientToAPDB(cliPos, apPos) ≥ link.MeanSNRdB(now,
// cliPos) as an exact float comparison. The grid covers d < 1 m, both
// sides of the parabolic main-lobe/side-lobe edge, both sides of the
// mmWave cell radius, and instants inside and outside blockage. With
// shadowing off the bound and an unblocked mean are the same expression,
// so they must agree bit for bit: an operation reordered on either side
// shows up as a one-ulp deficit.
func TestClientToAPBoundDominatesMean(t *testing.T) {
	apPos := rf.Position{X: 0, Y: 18}
	var grid []rf.Position
	for x := -40.0; x <= 40; x += 0.25 {
		for _, y := range []float64{-3, 0, 9, 17.5} {
			grid = append(grid, rf.Position{X: x, Y: y})
		}
	}
	// Inside the 1 m reference distance, and across it.
	for _, d := range []float64{0, 1e-9, 0.3, 0.999999, 1, 1.000001, 1.5} {
		for _, deg := range []float64{-90, -45, 0, 135} {
			rad := deg * math.Pi / 180
			grid = append(grid, rf.Position{X: apPos.X + d*math.Cos(rad), Y: apPos.Y + d*math.Sin(rad)})
		}
	}
	// Both sides of the parabolic main-lobe edge, where the quadratic
	// roll-off meets the side-lobe floor, in both lanes.
	ant := rf.DefaultParabolic(-90)
	edge := ant.BeamwidthDeg * math.Sqrt(-ant.SideLobeDB/12) * math.Pi / 180
	for _, y := range []float64{-3, 0} {
		xe := (apPos.Y - y) * math.Tan(edge)
		for _, dx := range []float64{-0.01, -1e-9, 0, 1e-9, 0.01} {
			grid = append(grid, rf.Position{X: xe + dx, Y: y}, rf.Position{X: -xe - dx, Y: y})
		}
	}
	// Both sides of the mmWave cell radius.
	radius := DefaultMMWaveParams().CellRadiusM
	for _, dr := range []float64{-0.01, -1e-9, 0, 1e-9, 0.01} {
		grid = append(grid, rf.Position{X: apPos.X, Y: apPos.Y - radius - dr},
			rf.Position{X: apPos.X + radius + dr, Y: apPos.Y})
	}

	for _, tc := range []struct {
		backend  string
		noShadow bool
	}{{"wifi5g", false}, {"wifi5g", true}, {"mmwave60g", false}, {"mmwave60g", true}} {
		cfg := wifiCfg()
		if tc.backend == "mmwave60g" {
			cfg = mmCfg()
		}
		name := tc.backend
		if tc.noShadow {
			cfg.RF.ShadowSigmaDB, cfg.MMWave.ShadowSigmaDB = 0, 0
			name += "-no-shadowing"
		}
		t.Run(name, func(t *testing.T) {
			m, err := New(tc.backend, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var checked, equal, blocked, dead, sideLobe, mainLobe int
			for seed := int64(1); seed <= 8; seed++ {
				link := m.NewLink(apPos, sim.NewRNG(seed))
				instants := []sim.Time{0}
				mm, isMM := link.(*mmLink)
				if isMM {
					// The first blockage interval's edges and middle,
					// and clear instants around it.
					ev := mm.blocks[0]
					instants = append(instants, ev.start-1, ev.start, (ev.start+ev.end)/2, ev.end-1, ev.end)
				}
				for _, now := range instants {
					for _, pos := range grid {
						bound := m.MaxSNRClientToAPDB(pos, apPos)
						mean := link.MeanSNRdB(now, pos)
						checked++
						if bound < mean {
							t.Fatalf("seed %d t=%v pos %v: bound %v < mean %v", seed, now, pos, bound, mean)
						}
						unblocked := !isMM || mm.blockageDB(now) == 0
						if isMM && !unblocked {
							blocked++
						}
						if tc.noShadow && unblocked && bound != mean {
							t.Fatalf("seed %d t=%v pos %v: shadowing off, bound %v != mean %v", seed, now, pos, bound, mean)
						}
						if bound == mean {
							equal++
						}
						if isMM && apPos.Distance(pos) > radius {
							dead++
						}
						if !isMM {
							if ant.GainDB(apPos.AngleTo(pos)) == ant.PeakGain+ant.SideLobeDB {
								sideLobe++
							} else {
								mainLobe++
							}
						}
					}
				}
			}
			if tc.backend == "mmwave60g" && (blocked == 0 || dead == 0) {
				t.Errorf("grid missed a regime: %d blocked, %d beyond the cell radius", blocked, dead)
			}
			if tc.backend == "wifi5g" && (sideLobe == 0 || mainLobe == 0) {
				t.Errorf("grid missed a lobe: %d main-lobe, %d side-lobe points", mainLobe, sideLobe)
			}
			t.Logf("%d checks, %d exactly tight", checked, equal)
		})
	}
}
