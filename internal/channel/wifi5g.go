package channel

import (
	"math"

	"wgtt/internal/phy"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
)

func init() {
	register("wifi5g", func(cfg ModelConfig) (Model, error) {
		return newWifi5g(cfg), nil
	})
}

// wifi5g is the paper's 2.4/5 GHz roadside model, delegating to
// internal/rf unchanged: log-distance path loss with smooth shadowing, a
// fixed grid-parabolic AP antenna, omni clients, and Jakes/Clarke
// frequency-selective fading. It is the bit-identity reference: NewLink
// forks "fading" then "shadow" exactly like rf.NewLink always did, and
// the audibility bounds reproduce the pre-refactor float expressions
// operation for operation.
type wifi5g struct {
	p          rf.Params
	apAnt      rf.Parabolic
	cliLossDB  float64 // client↔client extra penetration loss
	boresight  float64
	headroomDB float64
	// rot is the fading's delay-rotation table, shared by every link.
	rot *rf.DelayRotations
}

func newWifi5g(cfg ModelConfig) *wifi5g {
	return &wifi5g{
		p:          cfg.RF,
		apAnt:      rf.DefaultParabolic(cfg.BoresightDeg),
		cliLossDB:  cfg.ClientClientLossDB,
		boresight:  cfg.BoresightDeg,
		headroomDB: rf.MaxFadeDB(cfg.RF.Fading) + 0.2,
		rot:        rf.NewDelayRotations(cfg.RF.Fading),
	}
}

// Name implements Model.
func (m *wifi5g) Name() string { return "wifi5g" }

// Rates implements Model: the stock HT20 ladder.
func (m *wifi5g) Rates() *phy.Table { return phy.DefaultTable }

// wifiLink adapts *rf.Link to the time-indexed Link interface; the
// wifi5g channel is purely spatial, so the time argument is ignored.
type wifiLink struct{ l *rf.Link }

func (w wifiLink) SubcarrierSNRsDB(_ sim.Time, cliPos rf.Position, dst []float64) {
	w.l.SubcarrierSNRsDB(cliPos, dst)
}
func (w wifiLink) FillSubcarrierSNRsDB(_ sim.Time, cliPos rf.Position, mean float64, dst []float64) {
	w.l.FillSubcarrierSNRsDB(cliPos, mean, dst)
}
func (w wifiLink) MeanSNRdB(_ sim.Time, cliPos rf.Position) float64 { return w.l.MeanSNRdB(cliPos) }
func (w wifiLink) SNRdB(_ sim.Time, cliPos rf.Position) float64     { return w.l.SNRdB(cliPos) }
func (w wifiLink) DisableFading()                                   { w.l.DisableFading() }
func (w wifiLink) APPos() rf.Position                               { return w.l.APPos() }

// NewLink implements Model. The rf constructor forks "fading" then
// "shadow" from rng — the order every golden pin depends on — and draws
// each realization from its fork at first use.
func (m *wifi5g) NewLink(apPos rf.Position, rng *sim.RNG) Link {
	return wifiLink{rf.NewLinkWith(m.rot, m.p, apPos, m.apAnt, rf.Omni{}, rng)}
}

// DetectHeadroomDB implements Model: the analytic constructive-fading
// bound for the deployment's multipath profile plus the ESNR table's
// interpolation margin.
func (m *wifi5g) DetectHeadroomDB() float64 { return m.headroomDB }

// MaxSNRAPToBoxDB implements Model: transmit power plus the best antenna
// gain toward the box, minus path loss at the nearest box point, with
// shadowing at its analytic peak.
func (m *wifi5g) MaxSNRAPToBoxDB(apPos rf.Position, box Box) float64 {
	d := math.Max(1, box.Distance(apPos))
	gain := m.maxGainToBox(apPos, box)
	return m.p.TxPowerDBm + gain -
		(m.p.RefLossDB + 10*m.p.PathLossExp*math.Log10(d)) -
		m.p.SystemLossDB + m.p.MaxShadowDB() - m.p.NoiseDBm
}

// MaxSNRClientToAPDB implements Model: the reciprocal of the downlink
// budget at exact positions. It is rf.Link.MeanSNRdB's expression in the
// same operation order with MaxShadowDB for the shadowing (the omni
// client's 0 dBi term adds exactly nothing), so it dominates it in
// float arithmetic.
func (m *wifi5g) MaxSNRClientToAPDB(cliPos, apPos rf.Position) float64 {
	d := math.Max(1, apPos.Distance(cliPos))
	gain := m.apAnt.GainDB(apPos.AngleTo(cliPos))
	return m.p.TxPowerDBm + gain -
		(m.p.RefLossDB + 10*m.p.PathLossExp*math.Log10(d)) -
		m.p.SystemLossDB + m.p.MaxShadowDB() - m.p.NoiseDBm
}

// ClientClientSNRdB implements Model: omni antennas, double in-vehicle
// penetration, log-distance path loss, no fading.
func (m *wifi5g) ClientClientSNRdB(d float64) float64 {
	if d < 1 {
		d = 1
	}
	pl := m.p.RefLossDB + 10*m.p.PathLossExp*math.Log10(d)
	return m.p.TxPowerDBm - pl - m.cliLossDB - m.p.NoiseDBm
}

// InterferenceOverNoiseDB implements Model: the large-scale co-channel
// budget between two positions, AP antenna gain toward the victim when
// the transmitter is an AP, in-vehicle penetration both ways otherwise.
// Shadowing/fading realizations live on the far side of a domain
// boundary, so the mean budget is the honest estimate.
func (m *wifi5g) InterferenceOverNoiseDB(txIsAP bool, txPos, rxPos rf.Position) float64 {
	d := txPos.Distance(rxPos)
	if d < 1 {
		d = 1
	}
	pl := m.p.RefLossDB + 10*m.p.PathLossExp*math.Log10(d)
	if txIsAP {
		gain := m.apAnt.GainDB(txPos.AngleTo(rxPos))
		return m.p.TxPowerDBm + gain - pl - m.p.SystemLossDB - m.p.NoiseDBm
	}
	return m.p.TxPowerDBm - pl - m.cliLossDB - m.p.NoiseDBm
}

// maxGainToBox bounds the AP antenna gain toward any point of the box.
// The bearing set toward a convex box is the interval spanned by the
// corner bearings; Parabolic gain decreases monotonically with the
// off-boresight angle, so the max is attained at a corner bearing or at
// boresight itself when the boresight ray enters the box.
func (m *wifi5g) maxGainToBox(p rf.Position, b Box) float64 {
	if b.Contains(p) || m.boresightHitsBox(p, b) {
		return m.apAnt.PeakGain
	}
	g := m.apAnt.GainDB(p.AngleTo(rf.Position{X: b.MinX, Y: b.MinY}))
	g = math.Max(g, m.apAnt.GainDB(p.AngleTo(rf.Position{X: b.MinX, Y: b.MaxY})))
	g = math.Max(g, m.apAnt.GainDB(p.AngleTo(rf.Position{X: b.MaxX, Y: b.MinY})))
	g = math.Max(g, m.apAnt.GainDB(p.AngleTo(rf.Position{X: b.MaxX, Y: b.MaxY})))
	return g
}

// boresightHitsBox reports whether the ray from p along the antenna
// boresight intersects the box (a standard slab test).
func (m *wifi5g) boresightHitsBox(p rf.Position, b Box) bool {
	rad := m.apAnt.BoresightDeg * math.Pi / 180
	dx, dy := math.Cos(rad), math.Sin(rad)
	tmin, tmax := 0.0, math.Inf(1)
	for _, s := range [2][3]float64{{dx, b.MinX - p.X, b.MaxX - p.X},
		{dy, b.MinY - p.Y, b.MaxY - p.Y}} {
		d, lo, hi := s[0], s[1], s[2]
		if math.Abs(d) < 1e-12 {
			if lo > 0 || hi < 0 {
				return false
			}
			continue
		}
		t0, t1 := lo/d, hi/d
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		tmin = math.Max(tmin, t0)
		tmax = math.Min(tmax, t1)
	}
	return tmin <= tmax
}
