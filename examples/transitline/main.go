// Transitline: a three-segment roadway — each segment with its own
// controller, trunked to its neighbours — and a bus doing a stop-and-go
// transit run down the whole line under a bulk TCP download. Shows the
// cross-segment controller-to-controller handoff of §"sharded
// deployment": the serving segment changes mid-ride without the TCP
// flow collapsing.
package main

import (
	"fmt"

	"wgtt"
	"wgtt/internal/trace"
)

func main() {
	// Three eight-AP segments back to back: a dense downtown stretch,
	// then two progressively sparser ones toward the terminus.
	cfg := wgtt.DefaultConfig(wgtt.SchemeWGTT)
	cfg.Segments = []wgtt.SegmentSpec{
		{NumAPs: 8, APSpacing: 7.5},
		{NumAPs: 8, APSpacing: 10},
		{NumAPs: 8, APSpacing: 12.5},
	}
	n := wgtt.NewNetwork(cfg)

	// A bus route: enter before the first AP, cruise at 20 mph, dwell
	// 4 s at two evenly placed stops, exit past the last AP.
	lo, hi := cfg.RoadSpanX()
	stops := wgtt.RouteStops(lo, hi, 2)
	route := wgtt.StopAndGo(lo-5, 0, 20, stops, 4*wgtt.Second, hi+5)
	bus := n.AddClient(route)

	// Riders streaming: a bulk TCP download for the whole ride.
	flow := wgtt.NewTCPDownlink(n, bus, 0)
	flow.Start()

	ride := route.Duration()
	fmt.Printf("road: %.0f m in 3 segments, %d APs; ride: %.0f s with stops at x=%.0f and x=%.0f\n\n",
		hi-lo, n.TotalAPs(), ride.Seconds(), stops[0], stops[1])

	// Report every 2 s of the ride: position, serving AP, owning segment.
	step := 2 * wgtt.Second
	for t := step; t <= ride; t += step {
		n.Run(wgtt.Duration(t))
		now := n.Loop.Now()
		x := bus.Traj.Pos(now).X
		apIdx := n.ServingAP(0)
		segIdx := -1
		if s := n.Deploy.SegmentOfAP(apIdx); s != nil {
			segIdx = s.Index
		}
		fmt.Printf("t=%4.0fs  x=%6.1fm  serving AP %2d (segment %d)  %5.1f Mbit/s so far\n",
			now.Seconds(), x, apIdx, segIdx, flow.Mbps(now))
	}

	fmt.Println()
	fmt.Printf("goodput over the ride: %.1f Mbit/s\n", flow.Mbps(n.Loop.Now()))
	for i := range n.Controllers() {
		rec := n.FlightRecorder(i)
		fmt.Printf("segment %d: %d switches issued, %d acked, handed off %d out / %d in\n",
			i, rec.Count(-1, trace.OpIssue), rec.Count(-1, trace.OpAck),
			rec.Count(-1, trace.OpExport), rec.Count(-1, trace.OpImport))
	}
}
