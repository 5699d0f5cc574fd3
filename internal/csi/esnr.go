// Package csi implements channel state information snapshots and the
// Effective SNR (ESNR) metric of Halperin et al. ("Predictable 802.11
// packet delivery from wireless channel measurements", SIGCOMM 2010),
// which WGTT's controller uses to predict which AP can deliver a packet.
//
// Plain average SNR misleads on frequency-selective channels: a handful of
// deeply-faded subcarriers dominate the error rate even when the average
// looks healthy. ESNR fixes this by averaging in BER domain: compute each
// subcarrier's bit error rate for a given modulation, average those, and
// report the flat-channel SNR that would produce the same average BER.
package csi

import (
	"fmt"
	"math"

	"wgtt/internal/rf"
	"wgtt/internal/sim"
)

// Modulation enumerates the 802.11n constellations.
type Modulation int

// Supported constellations.
const (
	BPSK Modulation = iota
	QPSK
	QAM16
	QAM64
)

// String implements fmt.Stringer.
func (m Modulation) String() string {
	switch m {
	case BPSK:
		return "BPSK"
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16-QAM"
	case QAM64:
		return "64-QAM"
	}
	return fmt.Sprintf("Modulation(%d)", int(m))
}

// BitsPerSymbol returns the bits carried per subcarrier symbol.
func (m Modulation) BitsPerSymbol() int {
	switch m {
	case BPSK:
		return 1
	case QPSK:
		return 2
	case QAM16:
		return 4
	case QAM64:
		return 6
	}
	return 0
}

// qfunc is the Gaussian tail probability Q(x).
func qfunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// BER returns the uncoded bit error rate of the modulation at a given
// symbol SNR (linear). Formulas follow Halperin et al. §3.
func BER(m Modulation, snr float64) float64 {
	if snr < 0 {
		snr = 0
	}
	switch m {
	case BPSK:
		return qfunc(math.Sqrt(2 * snr))
	case QPSK:
		return qfunc(math.Sqrt(snr))
	case QAM16:
		return 0.75 * qfunc(math.Sqrt(snr/5))
	case QAM64:
		return (7.0 / 12.0) * qfunc(math.Sqrt(snr/21))
	}
	return 1
}

// dbToLinear converts dB to a linear power ratio.
func dbToLinear(db float64) float64 { return math.Pow(10, db/10) }

// linearToDB converts a linear power ratio to dB.
func linearToDB(lin float64) float64 {
	if lin <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(lin)
}

// The ESNR computation is the innermost kernel of the whole simulation:
// every transmitted PPDU and every controller CSI report evaluates it, and
// the naive form costs one math.Pow plus one math.Erfc per subcarrier plus
// a 60-step bisection (each step another Pow+Erfc). Since BER(m, ·) is a
// fixed, strictly monotone function of SNR, we sample it once per
// modulation on a fine dB grid and serve both the forward map (dB → BER)
// and its inverse (BER → dB) from that shared table with linear
// interpolation. Grid resolution is 1/128 dB, giving interpolation error
// well under the ±0.001 dB the bisection targeted.
const (
	berTblMinDB   = -40.0
	berTblMaxDB   = 80.0
	berTblStep    = 1.0 / 128
	berTblInvStep = 128.0
)

// invBER's historical saturation bracket: targets outside the BER values
// reachable in [-20, 60] dB clamp to the bracket edge.
const (
	invBERLoDB = -20.0
	invBERHiDB = 60.0
)

var (
	berTables [4][]float64
	// Grid indices of the inverse-search bracket endpoints.
	berIdxLo = int((invBERLoDB - berTblMinDB) * berTblInvStep)
	berIdxHi = int((invBERHiDB - berTblMinDB) * berTblInvStep)
)

func init() {
	n := int((berTblMaxDB-berTblMinDB)*berTblInvStep) + 1
	for m := BPSK; m <= QAM64; m++ {
		t := make([]float64, n)
		for i := range t {
			t[i] = BER(m, dbToLinear(berTblMinDB+float64(i)*berTblStep))
		}
		berTables[m] = t
	}
}

// berAtDB evaluates the tabulated BER of m at an SNR in dB, linearly
// interpolated. Inputs outside the table clamp to its edges, where BER has
// already saturated (max at the low end, underflowed to 0 at the high end).
func berAtDB(m Modulation, snrDB float64) float64 {
	t := berTables[m]
	x := (snrDB - berTblMinDB) * berTblInvStep
	if x <= 0 || math.IsNaN(x) {
		return t[0]
	}
	if x >= float64(len(t)-1) {
		return t[len(t)-1]
	}
	i := int(x)
	return t[i] + (t[i+1]-t[i])*(x-float64(i))
}

// esnrDBFromBER inverts the tabulated BER curve: the SNR in dB at which
// modulation m's BER equals target. The table is monotone non-increasing,
// so a binary search brackets the crossing and linear interpolation
// recovers the dB value. Saturation matches the bisection it replaced:
// targets below BER(60 dB) report 60, targets above BER(−20 dB) report −20.
func esnrDBFromBER(m Modulation, target float64) float64 {
	if target <= 0 {
		return invBERHiDB
	}
	t := berTables[m]
	if t[berIdxLo] <= target {
		return invBERLoDB
	}
	// Smallest index in (berIdxLo, berIdxHi] with t[i] <= target; the
	// invariant t[lo] > target >= t[hi] holds throughout.
	lo, hi := berIdxLo, berIdxHi
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if t[mid] <= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	frac := (t[lo] - target) / (t[lo] - t[hi])
	return berTblMinDB + (float64(lo)+frac)*berTblStep
}

// invBER returns the SNR (linear) at which the modulation's BER equals
// target, served from the shared monotone lookup table.
func invBER(m Modulation, target float64) float64 {
	return dbToLinear(esnrDBFromBER(m, target))
}

// invBERBisect is the reference implementation invBER replaced: a
// bisection over the dB axis, exact to ±0.001 dB. Kept for accuracy
// cross-checks in tests.
func invBERBisect(m Modulation, target float64) float64 {
	if target <= 0 {
		return dbToLinear(invBERHiDB)
	}
	lo, hi := invBERLoDB, invBERHiDB
	if BER(m, dbToLinear(lo)) < target {
		return dbToLinear(lo)
	}
	if BER(m, dbToLinear(hi)) > target {
		return dbToLinear(hi)
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if BER(m, dbToLinear(mid)) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return dbToLinear((lo + hi) / 2)
}

// EffectiveSNRdB computes ESNR in dB from per-subcarrier SNRs (dB) for a
// given modulation: mean the per-subcarrier BERs, then invert. Both
// directions are served from the per-modulation lookup table, so the call
// is allocation-free and costs a handful of table interpolations instead
// of dozens of Pow/Erfc evaluations. A subcarrier whose SNR equals the
// one before it reuses that one's BER, so a flat channel looks up one
// BER, not one per subcarrier; the sum adds the same value per
// subcarrier in the same order either way, so it is bit-identical.
func EffectiveSNRdB(snrsDB []float64, m Modulation) float64 {
	if len(snrsDB) == 0 {
		return math.Inf(-1)
	}
	if m < BPSK || m > QAM64 {
		return effectiveSNRdBSlow(snrsDB, m)
	}
	// Equal SNRs (−0 and +0 included) have equal BERs; a NaN equals
	// nothing, so it is always looked up.
	prev := snrsDB[0]
	ber := berAtDB(m, prev)
	sum := 0.0
	for _, s := range snrsDB {
		if s != prev {
			prev, ber = s, berAtDB(m, s)
		}
		sum += ber
	}
	return esnrDBFromBER(m, sum/float64(len(snrsDB)))
}

// effectiveSNRdBSlow is the direct (table-free) computation, used for
// modulations outside the tabulated set and as a test oracle.
func effectiveSNRdBSlow(snrsDB []float64, m Modulation) float64 {
	if len(snrsDB) == 0 {
		return math.Inf(-1)
	}
	sum := 0.0
	for _, s := range snrsDB {
		sum += BER(m, dbToLinear(s))
	}
	return linearToDB(invBERBisect(m, sum/float64(len(snrsDB))))
}

// Snapshot is one CSI measurement taken from a received uplink frame: the
// per-subcarrier SNRs the Atheros CSI tool would report, stamped with the
// reception time. APs encapsulate snapshots in UDP packets to the
// controller (§3.1.1).
type Snapshot struct {
	Time   sim.Time
	SNRsDB [rf.NumSubcarriers]float64
}

// ESNRdB evaluates the snapshot's effective SNR for modulation m. WGTT
// uses a fixed reference modulation for AP ranking so readings from
// different APs are comparable.
func (s *Snapshot) ESNRdB(m Modulation) float64 {
	return EffectiveSNRdB(s.SNRsDB[:], m)
}

// RefModulation is the reference constellation used when ranking APs. The
// mid-range 16-QAM keeps the metric sensitive across the whole useful SNR
// range (BPSK saturates high, 64-QAM saturates low).
const RefModulation = QAM16
