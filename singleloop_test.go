package wgtt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"wgtt/internal/core"
	"wgtt/internal/trace"
)

// goldenSingleLoop pins three single-loop rides per seed, with telemetry
// and the flight recorder on: the figure (%#v), the MetricsText
// snapshot and the text dump of the stitched flight records, each as the
// first 16 bytes of its SHA-256. The figure goldens pin goodput only;
// these also pin every counter, series sample and switch-protocol record
// the single loop produces, so a change to how the network is built or
// executed that leaves goodput alone but moves one event still fails.
var goldenSingleLoop = map[string]string{
	"seed1/wgtt-udp-15": "figure=97c4c6102a716201bc0b1fe938eda4e2 metrics=e916da136bd155cd9a3830a9bdd2f2f2 trace=d48bca47647124b202ab1429ac397400",
	"seed1/11r-udp-15":  "figure=71ab203b85985cf4ae163767bcac279c metrics=bbc7372873e1b61c5fe46e0cdcf8b071 trace=e3b0c44298fc1c149afbf4c8996fb924",
	"seed1/corridor":    "figure=e487de6ad71e04d9cbd0266a0fe84a2c metrics=c46b916a3c8fb3759fd5f364362715db trace=34e1b37796fa6ee5e1f7d159c42c77e4",
	"seed2/wgtt-udp-15": "figure=7dd7e8079152c63b9aa05f49a44be852 metrics=aba05e77a657ac0f5a3126310d3d6289 trace=35c7589c5027f252b4b33a4c2c909bb3",
	"seed2/11r-udp-15":  "figure=5a820f3428567887f57943c60120d74b metrics=8258f5e3ff4fa7ce72e471416c5874f1 trace=e3b0c44298fc1c149afbf4c8996fb924",
	"seed2/corridor":    "figure=758963139448bab6f6d6181664c0576d metrics=2382f763bd36fac9850f64725acac4c4 trace=c0398bc76625effd4ae8c72885c79e16",
	"seed3/wgtt-udp-15": "figure=5dc8c189ca36330fa47ee806f319935d metrics=26fce88c420f7ffd766766685ed90934 trace=de8281f2e810f5ca62cfd5389d71ab54",
	"seed3/11r-udp-15":  "figure=d557c130681b1a863fe3639cc337460c metrics=be879dc0b906eed6be69b977b842a97a trace=e3b0c44298fc1c149afbf4c8996fb924",
	"seed3/corridor":    "figure=03fccc050f80b73ed46b66c0ec707783 metrics=d34cc51b8acd232dc881dc9c01d575f2 trace=7395db3f9d44c9736c71acf33b532073",
}

// singleLoopRides are the pinned rides: the paper's 8-AP array driven
// across at 15 mph with saturating UDP under WGTT and under Enhanced
// 802.11r (whose baseline plane exists only on one shared medium), and
// the three-segment corridor on one loop.
var singleLoopRides = []struct {
	name string
	ride func(opt Options) (figure string, n *Network)
}{
	{"wgtt-udp-15", func(opt Options) (string, *Network) { return driveByUDP(opt, SchemeWGTT, 15) }},
	{"11r-udp-15", func(opt Options) (string, *Network) { return driveByUDP(opt, SchemeEnhanced80211r, 15) }},
	{"corridor", func(opt Options) (string, *Network) {
		r := corridorSetup(opt, core.SingleLoop, 3, 0)
		r.Net.Run(r.Dur)
		return fmt.Sprintf("%#v", r.Figures(nil)), r.Net
	}},
}

// driveByUDP rides one vehicle across the default array at mph with the
// experiments' saturating UDP downlink and returns its goodput.
func driveByUDP(opt Options, scheme Scheme, mph float64) (string, *Network) {
	cfg := DefaultConfig(scheme)
	cfg.Seed = opt.Seed
	opt.Mutate(&cfg)
	n := NewNetwork(cfg)
	traj, dur := driveAcross(&cfg, mph)
	f := NewUDPDownlink(n, n.AddClient(traj), offeredUDPMbps)
	startAfterWarmup(n, f.Start)
	n.Run(dur)
	return fmt.Sprintf("%#v", f.Mbps(n.Loop.Now())), n
}

// TestSingleLoopPins rides every single-loop pin at seeds 1–3 and
// compares the digests of its figure, metrics and flight records.
func TestSingleLoopPins(t *testing.T) {
	if testing.Short() {
		t.Skip("nine end-to-end rides")
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			opt := Options{Seed: seed, Mutate: func(c *Config) {
				c.Telemetry = true
				c.FlightRecorder = flightRecCap
			}}
			for _, r := range singleLoopRides {
				fig, n := r.ride(opt)
				got := pinDigests(t, fig, n)
				key := fmt.Sprintf("seed%d/%s", seed, r.name)
				if want := goldenSingleLoop[key]; got != want {
					t.Errorf("%s drifted (figure %s)\n  want %s\n  got  %s", key, fig, want, got)
				}
			}
		})
	}
}

// pinDigests formats a finished ride's pin: the digests of its figure,
// its MetricsText snapshot and the text dump of its stitched flight
// records.
func pinDigests(t *testing.T, fig string, n *Network) string {
	t.Helper()
	var metrics, records strings.Builder
	if err := n.MetricsSnapshot().Write(&metrics, MetricsText); err != nil {
		t.Fatal(err)
	}
	if err := trace.Dump(&records, n.FlightRecords()); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("figure=%s metrics=%s trace=%s",
		digest16(fig), digest16(metrics.String()), digest16(records.String()))
}

// digest16 is the hex of the first 16 bytes of s's SHA-256.
func digest16(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:16])
}
