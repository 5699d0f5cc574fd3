// Package wgtt is a faithful Go reproduction of "Wi-Fi Goes to Town:
// Rapid Picocell Switching for Wireless Transit Networks" (Song,
// Shangguan, Jamieson — SIGCOMM 2017).
//
// It provides, on top of a deterministic discrete-event wireless
// simulator that stands in for the paper's roadside testbed:
//
//   - the WGTT system itself — controller-driven median-ESNR AP
//     selection, the stop/start/ack cross-AP queue-switching protocol,
//     block-ACK forwarding, and uplink de-duplication;
//   - the "Enhanced 802.11r" comparison scheme of §5.1 and the stock
//     802.11r behaviour of §2;
//   - application workloads (bulk TCP/UDP, video streaming, video
//     conferencing, web browsing); and
//   - one Experiment function per table and figure of the paper's
//     evaluation, each returning a result that renders like the
//     original.
//
// # Quick start
//
//	cfg := wgtt.DefaultConfig(wgtt.SchemeWGTT)
//	n := wgtt.NewNetwork(cfg)
//	car := n.AddClient(wgtt.Drive(-5, 0, 15)) // enter at x=-5 m, 15 mph
//	flow := wgtt.NewUDPDownlink(n, car, 30)   // 30 Mbit/s CBR
//	flow.Start()
//	n.Run(10 * wgtt.Second)
//	fmt.Printf("%.1f Mbit/s\n", flow.Mbps(n.Loop.Now()))
package wgtt

import (
	"wgtt/internal/channel"
	"wgtt/internal/core"
	"wgtt/internal/deploy"
	"wgtt/internal/federation"
	"wgtt/internal/mobility"
	"wgtt/internal/sim"
	"wgtt/internal/telemetry"
	"wgtt/internal/workload"
)

// Scheme selects the roaming system under test.
type Scheme = core.Scheme

// Schemes.
const (
	// SchemeWGTT is the paper's system.
	SchemeWGTT = core.WGTT
	// SchemeEnhanced80211r is the §5.1 comparison scheme.
	SchemeEnhanced80211r = core.Enhanced80211r
	// SchemeStock80211r is the §2 motivation behaviour.
	SchemeStock80211r = core.Stock80211r
)

// ParseScheme inverts the command-line scheme names ("wgtt", "11r",
// "stock11r", case-insensitive).
func ParseScheme(name string) (Scheme, error) { return core.ParseScheme(name) }

// Config describes a deployment; see core.Config for every knob.
type Config = core.Config

// Channel-model backend re-exports (Config.ChannelBackend): the RF/PHY
// stack is pluggable — "wifi5g" (the paper's 2.4/5 GHz roadside model,
// the default) or "mmwave60g" (a 60 GHz picocell model with steered
// beams, a hard cell-radius cap, and deterministic blockage).
type MMWaveParams = channel.MMWaveParams

// DefaultMMWaveParams returns the 60 GHz picocell tuning
// (Config.MMWave).
func DefaultMMWaveParams() MMWaveParams { return channel.DefaultMMWaveParams() }

// ChannelBackends lists the registered channel-model backends.
func ChannelBackends() []string { return channel.Names() }

// SegmentSpec describes one road segment in a multi-segment deployment
// (Config.Segments).
type SegmentSpec = deploy.SegmentSpec

// TrunkConfig sets the inter-segment controller-to-controller link
// (Config.Trunk).
type TrunkConfig = deploy.TrunkConfig

// FederationConfig enables and tunes the cross-segment federation
// layer (Config.Federation): the replicated client→segment ownership
// directory, multi-hop trunk routing (ring/bypass trunks), and the
// re-locate protocol that recovers clients lost to U-turns, coverage
// gaps, or trunk outages.
type FederationConfig = federation.Config

// Trunk fault-injection re-exports (Config.Trunk.Faults): a
// deterministic, seed-driven schedule of trunk outages, random drops,
// and delay jitter.
type (
	// FaultSchedule is the full trunk fault model.
	FaultSchedule = deploy.FaultSchedule
	// Outage is one scheduled trunk blackout window.
	Outage = deploy.Outage
)

// ParseFaultSchedule parses the -trunk-faults flag syntax, e.g.
// "drop=0.01,jitter=50us,outage=1-2@2s-3s,outage=all@5s-5.1s".
func ParseFaultSchedule(s string) (FaultSchedule, error) { return deploy.ParseFaultSchedule(s) }

// DomainMode selects how a multi-segment deployment executes
// (Config.Domains): as one domain on one event loop, or split into
// per-segment domains. See core.DomainMode.
type DomainMode = core.DomainMode

// Domain modes.
const (
	// SingleLoop runs the whole deployment as one domain on one loop.
	SingleLoop = core.SingleLoop
	// DomainsSerial splits per segment; each round runs the domains on
	// the Run goroutine, which lends helpers to their fan-outs.
	DomainsSerial = core.DomainsSerial
	// DomainsParallel builds the same split on the same executor as
	// DomainsSerial and rides bit-identically to it; the benchmark's
	// corridor workload and -parallel-segments select it.
	DomainsParallel = core.DomainsParallel
)

// DefaultConfig returns the paper's eight-AP testbed configuration.
func DefaultConfig(s Scheme) Config { return core.DefaultConfig(s) }

// Network is a fully wired deployment, run as execution domains on its
// Coord: one domain, or one per segment (see core.Network).
type Network = core.Network

// NewNetwork builds a deployment; it panics if the configuration fails
// validation (use core.NewNetwork directly for the error form).
func NewNetwork(cfg Config) *Network { return core.MustNewNetwork(cfg) }

// Client is a mobile station attached to a Network.
type Client = core.Client

// Telemetry re-exports (Config.Telemetry). A network built with
// telemetry on records datapath counters, per-handoff spans, and 100 ms
// time series; export them with Network.MetricsSnapshot and the
// snapshot's Write (text, json, csv, or Prometheus exposition).
type (
	// MetricsSnapshot is a point-in-time export of a network's metrics.
	MetricsSnapshot = telemetry.Snapshot
	// MetricsFormat selects a MetricsSnapshot.Write encoding.
	MetricsFormat = telemetry.Format
	// MetricsCollector aggregates per-case summaries across runs
	// (Options.Metrics).
	MetricsCollector = telemetry.Collector
)

// Metric export formats.
const (
	MetricsText = telemetry.FormatText
	MetricsJSON = telemetry.FormatJSON
	MetricsCSV  = telemetry.FormatCSV
	MetricsProm = telemetry.FormatProm
)

// ParseMetricsFormat inverts the -metrics flag values ("text", "json",
// "csv", "prom"; "" means text).
func ParseMetricsFormat(s string) (MetricsFormat, error) { return telemetry.ParseFormat(s) }

// NewMetricsCollector returns an empty cross-run collector.
func NewMetricsCollector() *MetricsCollector { return telemetry.NewCollector() }

// Time and duration re-exports so callers need not import internal/sim.
type (
	// Time is a virtual timestamp.
	Time = sim.Time
	// Duration is a virtual interval.
	Duration = sim.Duration
)

// Common intervals.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Trajectory re-exports.
type (
	// Trajectory reports a client's position over time.
	Trajectory = mobility.Trajectory
	// Stationary is a parked client.
	Stationary = mobility.Stationary
	// Linear is a constant-velocity drive.
	Linear = mobility.Linear
	// Pattern names the Fig. 19 multi-client scenarios.
	Pattern = mobility.Pattern
)

// Multi-client driving patterns (Fig. 19).
const (
	Following = mobility.Following
	Parallel  = mobility.Parallel
	Opposing  = mobility.Opposing
)

// Drive returns a +X drive at the given mph entering at startX in lane
// laneY.
func Drive(startX, laneY, mph float64) Linear { return mobility.Drive(startX, laneY, mph) }

// DriveOpposing returns a −X drive.
func DriveOpposing(startX, laneY, mph float64) Linear {
	return mobility.DriveOpposing(startX, laneY, mph)
}

// Scenario builds trajectories for n clients in a driving pattern.
func Scenario(p Pattern, n int, startX, laneY, mph float64) []Trajectory {
	return mobility.Scenario(p, n, startX, laneY, mph)
}

// Waypoints is a piecewise-linear timed trajectory (stop-and-go traffic).
type Waypoints = mobility.Waypoints

// Waypoint is one timed position sample.
type Waypoint = mobility.Waypoint

// NewWaypoints builds a trajectory through timed positions.
func NewWaypoints(points []Waypoint) *Waypoints { return mobility.NewWaypoints(points) }

// RouteStops places n transit stops evenly across a road span.
func RouteStops(lo, hi float64, n int) []float64 { return mobility.RouteStops(lo, hi, n) }

// StopAndGo builds a transit-style trajectory with stops along the road.
func StopAndGo(startX, laneY, cruiseMph float64, stops []float64, stopDur Duration, endX float64) *Waypoints {
	return mobility.StopAndGo(startX, laneY, cruiseMph, stops, stopDur, endX)
}

// Workload re-exports.
type (
	// UDPDownlink is an iperf-style CBR downlink flow.
	UDPDownlink = workload.UDPDownlink
	// UDPUplink is an iperf-style CBR uplink flow.
	UDPUplink = workload.UDPUplink
	// TCPDownlink is a bulk TCP downlink flow.
	TCPDownlink = workload.TCPDownlink
	// Video is the Table 4 streaming session.
	Video = workload.Video
	// Conference is the Fig. 24 two-party call.
	Conference = workload.Conference
	// PageLoad is the Table 5 web fetch.
	PageLoad = workload.PageLoad
)

// NewUDPDownlink attaches a CBR downlink flow to a client.
func NewUDPDownlink(n *Network, c *Client, rateMbps float64) *UDPDownlink {
	return workload.NewUDPDownlink(n, c, rateMbps)
}

// NewUDPUplink attaches a CBR uplink flow from a client.
func NewUDPUplink(n *Network, c *Client, dstPort uint16, rateMbps float64) *UDPUplink {
	return workload.NewUDPUplink(n, c, dstPort, rateMbps)
}

// NewTCPDownlink attaches a bulk TCP flow to a client.
func NewTCPDownlink(n *Network, c *Client, totalSegments uint32) *TCPDownlink {
	return workload.NewTCPDownlink(n, c, totalSegments)
}

// NewVideo attaches a video streaming session.
func NewVideo(n *Network, c *Client) *Video {
	return workload.NewVideo(n, c, workload.DefaultVideoConfig())
}

// NewConference attaches a Skype-like call.
func NewConference(n *Network, c *Client) *Conference {
	return workload.NewConference(n, c, workload.SkypeLike())
}

// NewPageLoad attaches a 2.1 MB page fetch.
func NewPageLoad(n *Network, c *Client) *PageLoad {
	return workload.NewPageLoad(n, c)
}
