package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"wgtt/internal/csi"
	"wgtt/internal/deploy"
	"wgtt/internal/mac"
	"wgtt/internal/mobility"
	"wgtt/internal/packet"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
	"wgtt/internal/transport"
)

// indexRideSignature rides two UDP clients across a three-segment corridor
// with the audibility index on or off and returns a byte-exact signature:
// what each sink saw plus the full telemetry snapshot text.
func indexRideSignature(t *testing.T, seed int64, mode DomainMode, noIndex bool) string {
	t.Helper()
	cfg := DefaultConfig(WGTT)
	cfg.Seed = seed
	cfg.Segments = []deploy.SegmentSpec{{NumAPs: 4}, {NumAPs: 4}, {NumAPs: 4}}
	cfg.Domains = mode
	cfg.Telemetry = true
	n := MustNewNetwork(cfg)
	if noIndex {
		// The brute-force all-nodes scan is the index's oracle.
		for _, sd := range n.segs {
			sd.medium.SetAudibilityIndex(nil)
		}
	}

	var sinks []*transport.UDPSink
	for i, traj := range []mobility.Trajectory{
		mobility.Drive(-5, 0, 25), mobility.Drive(-13, 0, 25),
	} {
		c := n.AddClient(traj)
		sink := transport.NewUDPSink(c.Client)
		port := uint16(9001 + 2*i)
		c.Handle(port, func(p packet.Packet) { sink.Receive(p) })
		src := transport.NewUDPSource(n.Loop, n.SendFromServer,
			packet.ServerIP, c.IP, 9000, port, 15, 1400)
		n.Loop.After(100*sim.Millisecond, src.Start)
		sinks = append(sinks, sink)
	}
	n.Run(6 * sim.Second)

	var sb strings.Builder
	for _, s := range sinks {
		fmt.Fprintf(&sb, "%d:%v;", s.Bytes, s.LossRate())
	}
	if snap := n.MetricsSnapshot(); snap != nil {
		if err := snap.WriteText(&sb); err != nil {
			t.Fatalf("telemetry snapshot: %v", err)
		}
	}
	return sb.String()
}

// TestAudibilityIndexParity pins the tentpole guarantee of the spatial
// audibility index: with the index on, every run — serial domains,
// parallel domains, seeds 1–3 — produces byte-identical delivery figures
// AND byte-identical telemetry to the brute-force all-nodes scan. The
// index is a pure prefilter; it must never change what the medium does.
func TestAudibilityIndexParity(t *testing.T) {
	if testing.Short() {
		t.Skip("four 6 s corridor rides per seed")
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, mode := range []DomainMode{DomainsSerial, DomainsParallel} {
			on := indexRideSignature(t, seed, mode, false)
			off := indexRideSignature(t, seed, mode, true)
			if on != off {
				i := 0
				for i < len(on) && i < len(off) && on[i] == off[i] {
					i++
				}
				lo := i - 30
				if lo < 0 {
					lo = 0
				}
				t.Errorf("seed %d mode %v: index-on and index-off diverge at byte %d:\n  on:  …%s…\n  off: …%s…",
					seed, mode, i, clip(on, lo, i+30), clip(off, lo, i+30))
			}
		}
	}
}

func clip(s string, lo, hi int) string {
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}

// TestAudibilityIndexNeverSkipsAudible is the soundness property behind
// the parity guarantee: at no point during a ride may the index leave a
// node unmarked whose brute-force channel evaluation could still detect
// the transmission. For every (tx, rx) pair the index skips, the full
// per-subcarrier evaluation must land below the preamble-detection
// threshold at every modulation.
func TestAudibilityIndexNeverSkipsAudible(t *testing.T) {
	if testing.Short() {
		t.Skip("samples a 4 s three-segment ride")
	}
	cfg := DefaultConfig(WGTT)
	cfg.Seed = 7
	cfg.Segments = []deploy.SegmentSpec{{NumAPs: 4}, {NumAPs: 4}, {NumAPs: 4}}
	n := MustNewNetwork(cfg)
	for _, traj := range []mobility.Trajectory{
		mobility.Drive(-5, 0, 25),
		mobility.Drive(-20, 0, 40),
		mobility.Drive(95, 0, -25), // against traffic: exercises both box edges
	} {
		n.AddClient(traj)
	}

	// A private index replica registered in the same order as the
	// medium; bits address nodes via Node.Seq, so the mapping matches.
	ix := newAudIndex(n, n.Loop)
	var nodes []*mac.Node
	for _, a := range n.apNodes {
		nodes = append(nodes, a)
	}
	for _, c := range n.Clients {
		nodes = append(nodes, c.Node())
	}
	for _, nd := range nodes {
		ix.Register(nd)
	}

	nc := &netChannel{n: n, loop: n.Loop}
	mods := []csi.Modulation{csi.BPSK, csi.QPSK, csi.QAM16, csi.QAM64}
	bits := make([]uint64, (len(nodes)+255)/64+1)
	var snrs [rf.NumSubcarriers]float64

	checked, skipped := 0, 0
	for step := 0; step < 40; step++ {
		n.Run(sim.Duration(step+1) * 100 * sim.Millisecond)
		for _, tx := range nodes {
			for i := range bits {
				bits[i] = 0
			}
			ix.MarkAudible(tx, bits)
			for _, rx := range nodes {
				if rx == tx {
					continue
				}
				checked++
				seq := rx.Seq()
				if bits[seq>>6]&(1<<(seq&63)) != 0 {
					continue
				}
				skipped++
				if audible, _ := nc.SubcarrierSNRs(tx, rx, nc.SenseSNRdB(tx, rx), math.Inf(-1), snrs[:]); !audible {
					continue
				}
				for _, m := range mods {
					if esnr := csi.EffectiveSNRdB(snrs[:], m); esnr >= mac.DetectThresholdDB {
						t.Fatalf("step %d: index skipped %s→%s but %v ESNR %.2f dB ≥ detect threshold %v",
							step, tx.Name, rx.Name, m, esnr, mac.DetectThresholdDB)
					}
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatalf("index never skipped a pair across %d checks; prefilter is vacuous", checked)
	}
	t.Logf("index skipped %d of %d pair evaluations, all verified undetectable", skipped, checked)
}
