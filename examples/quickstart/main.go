// Quickstart: build the eight-AP roadside network, drive one client past
// it at 15 mph with a saturating UDP downlink, and print what the paper's
// headline mechanisms did along the way.
package main

import (
	"fmt"

	"wgtt"
	"wgtt/internal/trace"
)

func main() {
	// The paper's testbed: eight APs 7.5 m apart behind 14 dBi / 21°
	// parabolic antennas, one controller, shared BSSID.
	cfg := wgtt.DefaultConfig(wgtt.SchemeWGTT)
	n := wgtt.NewNetwork(cfg)

	// A car entering 5 m before the first AP, doing 15 mph down the road.
	car := n.AddClient(wgtt.Drive(-5, 0, 15))

	// An iperf-style 30 Mbit/s UDP downlink from the wired server.
	flow := wgtt.NewUDPDownlink(n, car, 30)
	flow.Start()

	// Print the serving AP twice a second while driving.
	done := make(chan struct{})
	_ = done
	for step := 1; step <= 19; step++ {
		n.Run(wgtt.Duration(step) * 500 * wgtt.Millisecond)
		x := car.Traj.Pos(n.Loop.Now()).X
		fmt.Printf("t=%4.1fs  x=%5.1fm  serving AP %d (oracle %d)  %5.1f Mbit/s so far\n",
			n.Loop.Now().Seconds(), x, n.ServingAP(0), n.OracleBestAP(0),
			flow.Mbps(n.Loop.Now()))
	}

	fmt.Println()
	fmt.Printf("goodput:        %.1f Mbit/s of 30 offered\n", flow.Mbps(n.Loop.Now()))
	fmt.Printf("loss rate:      %.3f\n", flow.Sink.LossRate())
	fmt.Printf("switches:       %d issued, %d completed\n",
		n.ProtocolCount(trace.OpIssue), n.ProtocolCount(trace.OpAck))
	fmt.Printf("uplink dedup:   %d duplicates removed\n", n.Ctrl.UplinkDuplicates)
	forwarded, recovered := 0, 0
	for _, a := range n.APs {
		forwarded += a.BAForwarded
		recovered += a.BARecovered
	}
	fmt.Printf("BA forwarding:  %d relayed, %d aggregates saved\n", forwarded, recovered)
}
