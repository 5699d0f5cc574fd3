package wgtt

import (
	"fmt"
	"testing"

	"wgtt/internal/packet"
	"wgtt/internal/trace"
)

// workloadDomainSignature runs the two client-side-timer workloads — CBR
// UDP uplink and the two-party conference — across a three-segment
// corridor in the given domain mode, and returns a byte-exact signature.
// Both workloads arm timers on the client's migration-safe scheduler, so
// this is the regression test for client timer sources that used to live
// on the shared loop (domain-unsafe in parallel mode).
func workloadDomainSignature(t *testing.T, seed int64, mode DomainMode) string {
	t.Helper()
	cfg := DefaultConfig(SchemeWGTT)
	cfg.Seed = seed
	cfg.Segments = []SegmentSpec{{NumAPs: 4}, {NumAPs: 4}, {NumAPs: 4}}
	cfg.Domains = mode
	n := NewNetwork(cfg)

	up := NewUDPUplink(n, n.AddClient(Drive(-5, 0, 25)), 7001, 5)
	conf := NewConference(n, n.AddClient(Drive(-13, 0, 25)))
	// Both must start before Run: in parallel mode, client-domain timers
	// may only be armed from their own domain once the run begins.
	up.Start()
	conf.Start()
	n.Run(8 * Second)

	return fmt.Sprintf("up=%d;frames=%d;fpsN=%d;fpsMean=%v",
		up.Sink.Bytes, conf.FramesRendered(), conf.FPSSamples.N(), conf.FPSSamples.Mean())
}

// TestDomainClientWorkloadParity pins that uplink CBR and conferencing —
// the workloads whose emission timers ride on the client — produce
// bit-identical results in serial and parallel domain mode while their
// client migrates across segments.
func TestDomainClientWorkloadParity(t *testing.T) {
	if testing.Short() {
		t.Skip("two 8 s corridor rides per seed")
	}
	for seed := int64(1); seed <= 2; seed++ {
		serial := workloadDomainSignature(t, seed, DomainsSerial)
		parallel := workloadDomainSignature(t, seed, DomainsParallel)
		if serial != parallel {
			t.Errorf("seed %d: %s", seed, firstDiffLabeled("serial", "parallel", serial, parallel))
		}
		if serial == "up=0;frames=0;fpsN=0;fpsMean=NaN" {
			t.Errorf("seed %d: workloads delivered nothing: %q", seed, serial)
		}
	}
}

// TestFederationReleaseRecords rides a ring-federated corridor whose
// trunk faults make the replicated directory hand clients to another
// segment. Each controller's domain must hold exactly one release
// record per release its recorder counted, naming the new owner, and
// every stitched issue must end in ack, abandon or export unless that
// client's switch is still pending: a release mid-switch abandons the
// switch it stands down.
func TestFederationReleaseRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("three four-segment federated rides")
	}
	total := 0
	for seed := int64(2); seed <= 4; seed++ {
		opts := DefaultDeployOptions()
		opts.Seed = seed
		opts.Segments = "4x7.5,4x7.5,4x7.5,4x7.5"
		opts.RingTrunk = true
		opts.TrunkFaults = "drop=0.05,jitter=40us,outage=1-2@1s-4s,outage=2-3@3s-6s"
		opts.FlightRecorder = flightRecCap
		cfg, err := opts.Config()
		if err != nil {
			t.Fatal(err)
		}
		n := NewNetwork(cfg)
		lo, hi := cfg.RoadSpanX()
		trajs := Scenario(Following, 3, lo-5, 0, 25)
		for _, traj := range trajs {
			f := NewUDPDownlink(n, n.AddClient(traj), 30)
			n.Loop.After(100*Millisecond, f.Start)
		}
		n.Run(Duration((hi - lo + 10) / trajs[0].SpeedMps() * 1e9))

		recs := n.FlightRecords()
		ctrls := n.Controllers()
		for seg, ctrl := range ctrls {
			// lastMove holds each client's final ownership-moving record
			// in this domain: export, import, or release.
			lastMove := map[packet.MAC]TraceRecord{}
			releases := 0
			for _, r := range recs {
				if int(r.Domain) != seg {
					continue
				}
				switch r.Op {
				case trace.OpRelease:
					releases++
					if r.B < 0 || int(r.B) >= len(cfg.Segments) || int(r.B) == seg {
						t.Errorf("seed %d seg %d: release of %s names owner %d", seed, seg, r.Client, r.B)
					}
					fallthrough
				case trace.OpExport, trace.OpImport:
					lastMove[r.Client] = r
				}
			}
			for _, r := range lastMove {
				if r.Op == trace.OpRelease && ctrl.ExportedTo(r.Client) != int(r.B) {
					t.Errorf("seed %d seg %d: %s released to seg %d, but the controller routes it to %d",
						seed, seg, r.Client, r.B, ctrl.ExportedTo(r.Client))
				}
			}
			if want := n.FlightRecorder(seg).Count(-1, trace.OpRelease); releases != want {
				t.Errorf("seed %d seg %d: %d release records for %d releases", seed, seg, releases, want)
			}
			total += releases
		}
		for _, h := range trace.Handoffs(recs) {
			if h.HasIssue && !h.HasAck && !h.Abandoned && !h.Exported && !ctrls[h.Domain].SwitchPending(h.Client) {
				t.Errorf("seed %d: switch %#x of %s (seg %d, issued %v) never ended", seed, h.Trace, h.Client, h.Domain, h.Issue)
			}
		}
	}
	if total == 0 {
		t.Error("no releases at seeds 2-4: the ride no longer exercises Release")
	}
}
