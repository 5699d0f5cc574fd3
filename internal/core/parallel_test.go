package core

import (
	"errors"
	"fmt"
	"testing"

	"wgtt/internal/deploy"
	"wgtt/internal/mobility"
	"wgtt/internal/packet"
	"wgtt/internal/sim"
	"wgtt/internal/transport"
)

// domainRideSignature rides two UDP clients across a three-segment
// corridor in the given domain mode and returns a byte-exact signature of
// what each sink saw. Equal signatures mean the serial and parallel
// domain executions delivered the same packets at the same virtual times.
func domainRideSignature(t *testing.T, seed int64, mode DomainMode, prop sim.Duration) string {
	t.Helper()
	cfg := DefaultConfig(WGTT)
	cfg.Seed = seed
	cfg.Segments = []deploy.SegmentSpec{{NumAPs: 4}, {NumAPs: 4}, {NumAPs: 4}}
	cfg.Domains = mode
	cfg.Trunk.PropDelay = prop
	n := MustNewNetwork(cfg)

	var sinks []*transport.UDPSink
	for i, traj := range []mobility.Trajectory{
		mobility.Drive(-5, 0, 25), mobility.Drive(-13, 0, 25),
	} {
		c := n.AddClient(traj)
		// The sink lives client-side, so its clock must be the client's
		// (its owning segment domain's loop, wherever the client is).
		sink := transport.NewUDPSink(c.Client)
		port := uint16(9001 + 2*i)
		c.Handle(port, func(p packet.Packet) { sink.Receive(p) })
		src := transport.NewUDPSource(n.Loop, n.SendFromServer,
			packet.ServerIP, c.IP, 9000, port, 15, 1400)
		n.Loop.After(100*sim.Millisecond, src.Start)
		sinks = append(sinks, sink)
	}
	n.Run(8 * sim.Second)

	sig := ""
	for _, s := range sinks {
		sig += fmt.Sprintf("%d:%v;", s.Bytes, s.LossRate())
	}
	return sig
}

// TestDomainParitySerialParallel pins the conservative-synchronization
// guarantee at the core layer: per-segment domains produce bit-identical
// results whether they run on one goroutine or one per domain.
func TestDomainParitySerialParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("two 8 s corridor rides per seed")
	}
	for seed := int64(1); seed <= 3; seed++ {
		prop := DefaultConfig(WGTT).Trunk.PropDelay
		serial := domainRideSignature(t, seed, DomainsSerial, prop)
		parallel := domainRideSignature(t, seed, DomainsParallel, prop)
		if serial != parallel {
			t.Errorf("seed %d: serial %q != parallel %q", seed, serial, parallel)
		}
	}
}

// TestDomainParityRandomTrunkDelays stresses the same guarantee across
// randomized lookaheads: the trunk propagation delay (and with it the
// synchronization round width, the mailbox minimum latency, and the
// client-migration latency) is drawn per seed, and the serial and
// parallel executions must still agree bit for bit. Run under -race this
// also hunts cross-domain data races in the round barriers.
func TestDomainParityRandomTrunkDelays(t *testing.T) {
	if testing.Short() {
		t.Skip("two 8 s corridor rides per seed")
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := sim.NewRNG(seed).Fork("trunk-delay")
		prop := 50*sim.Microsecond + sim.Duration(rng.Intn(8))*75*sim.Microsecond
		serial := domainRideSignature(t, seed, DomainsSerial, prop)
		parallel := domainRideSignature(t, seed, DomainsParallel, prop)
		if serial != parallel {
			t.Errorf("seed %d (prop %v): serial %q != parallel %q",
				seed, prop, serial, parallel)
		}
	}
}

// TestDomainModeValidation pins the configurations domain mode refuses.
func TestDomainModeValidation(t *testing.T) {
	base := func() Config {
		cfg := DefaultConfig(WGTT)
		cfg.Segments = []deploy.SegmentSpec{{NumAPs: 4}, {NumAPs: 4}}
		cfg.Domains = DomainsParallel
		return cfg
	}
	ok := base()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid domain config rejected: %v", err)
	}
	bad := base()
	bad.Scheme = Enhanced80211r
	bad.Roamer = DefaultConfig(Enhanced80211r).Roamer
	if bad.Validate() == nil {
		t.Error("accepted a baseline scheme in domain mode")
	}
	bad = base()
	bad.Trunk.PropDelay = 0
	if bad.Validate() == nil {
		t.Error("accepted a zero-lookahead trunk in domain mode")
	}
}

// TestPartitionNeedsSplitShape pins that only the split shape can be
// partitioned: a network running as one domain, whether SingleLoop on
// several segments or any mode on one segment, rejects Resolve and
// RunPartitioned with an explicit error.
func TestPartitionNeedsSplitShape(t *testing.T) {
	p, err := ParsePartition("segs,server")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mode  DomainMode
		segs  int
		split bool
	}{{SingleLoop, 3, false}, {DomainsParallel, 1, false}, {DomainsSerial, 3, true}} {
		cfg := DefaultConfig(WGTT)
		for i := 0; i < c.segs; i++ {
			cfg.Segments = append(cfg.Segments, deploy.SegmentSpec{NumAPs: 4})
		}
		cfg.Domains = c.mode
		n := MustNewNetwork(cfg)
		_, err := p.Resolve(n)
		if c.split {
			if err != nil {
				t.Errorf("%v on %d segments: Resolve: %v", c.mode, c.segs, err)
			}
			continue
		}
		if !errors.Is(err, errOneDomain) {
			t.Errorf("%v on %d segments: Resolve returned %v, want %v", c.mode, c.segs, err, errOneDomain)
		}
		if err := n.RunPartitioned(sim.Second, nil, nil); !errors.Is(err, errOneDomain) {
			t.Errorf("%v on %d segments: RunPartitioned returned %v, want %v", c.mode, c.segs, err, errOneDomain)
		}
	}
}
