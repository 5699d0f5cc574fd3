// Package backhaul models the wired Ethernet that interconnects the WGTT
// controller, the eight APs, and the wired server: a star topology through
// one switch, with per-node egress serialization, propagation delay, and —
// critical to the switching protocol's latency — a strict-priority control
// queue that lets stop/start/ack messages bypass queued data (§3.1.2).
//
// Messages cross the backhaul as encoded bytes: Send marshals, delivery
// decodes. Nothing richer than what would be on the real wire flows
// between nodes.
package backhaul

import (
	"fmt"
	"slices"

	"wgtt/internal/packet"
	"wgtt/internal/queue"
	"wgtt/internal/sim"
	"wgtt/internal/telemetry"
)

// NodeID identifies an endpoint on the backhaul.
type NodeID int

// Handler receives a decoded message addressed to the node. Data-plane
// messages are decoded into a scratch buffer shared across deliveries
// (packet.DecodeBuf), so msg is only valid for the duration of the call:
// a handler that retains it must copy the value.
type Handler func(from NodeID, msg packet.Message)

// Config sets the backhaul's physical parameters.
type Config struct {
	// LinkMbps is each node's Ethernet line rate.
	LinkMbps float64
	// PropDelay is the one-way wire + switch latency.
	PropDelay sim.Duration
	// QueueFrames bounds each egress queue (0 = unbounded).
	QueueFrames int
}

// DefaultConfig models the testbed's switched gigabit LAN.
func DefaultConfig() Config {
	return Config{
		LinkMbps:    1000,
		PropDelay:   100 * sim.Microsecond,
		QueueFrames: 4096,
	}
}

// encapOverhead is the per-message wire overhead: Ethernet header + FCS +
// preamble + IFG (38) plus the IP/UDP encapsulation the implementation
// tunnels everything in (28).
const encapOverhead = 66

// frame is one queued backhaul transmission. Frames are pooled per Net:
// the marshal buffer and the two scheduling closures (end of egress
// serialization, end of propagation) are built once per pooled frame and
// reused, so a steady message stream costs no per-frame allocation.
type frame struct {
	from, to NodeID
	data     []byte
	// trace is the sender's causal trace id, captured at Send time and
	// restored around the destination handler. Frames queue per node and
	// the drain events chain off each other, so the loop's inherited
	// register alone would attribute a queued frame to whichever frame's
	// txDone scheduled it — the explicit copy keeps causality exact.
	trace uint64
	// src is the egress node, for chaining the next drain step.
	src *node
	// txDone fires when the frame finishes serializing onto the wire;
	// arrived fires one propagation delay later at the destination.
	txDone  func()
	arrived func()
}

type node struct {
	handler Handler
	control *queue.FIFO[*frame]
	data    *queue.FIFO[*frame]
	// draining reports whether an egress serialization event is
	// scheduled.
	draining bool
}

// Net is the backhaul network. All methods must be called from the
// simulation loop's goroutine.
type Net struct {
	loop  *sim.Loop
	cfg   Config
	nodes map[NodeID]*node
	// ids lists the attached nodes in ascending order: Broadcast's send
	// order, which must not follow map iteration.
	ids []NodeID

	// Stats.
	sent      int
	delivered int
	bytes     int64
	perType   map[packet.MsgType]int

	// Telemetry handles (nil-safe no-ops until SetTelemetry).
	metSent      *telemetry.Counter
	metDelivered *telemetry.Counter
	metBytes     *telemetry.Counter
	metControl   *telemetry.Counter

	// free is the frame pool; frames return here once handled.
	free []*frame
	// dec reuses message scratch across deliveries (see Handler).
	dec packet.DecodeBuf
}

// acquire returns a pooled (or fresh) frame with its step closures bound.
func (n *Net) acquire() *frame {
	if k := len(n.free); k > 0 {
		f := n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
		return f
	}
	f := &frame{}
	f.txDone = func() {
		// deliver may release f (unknown destination), so snapshot the
		// egress chain fields first.
		from, src := f.from, f.src
		n.deliver(f)
		n.drain(from, src)
	}
	f.arrived = func() { n.handle(f) }
	return f
}

// release returns a handled frame (and its buffer) to the pool.
func (n *Net) release(f *frame) {
	f.src = nil
	f.data = f.data[:0]
	n.free = append(n.free, f)
}

// New returns an empty backhaul on the given loop.
func New(loop *sim.Loop, cfg Config) *Net {
	return &Net{
		loop:    loop,
		cfg:     cfg,
		nodes:   make(map[NodeID]*node),
		perType: make(map[packet.MsgType]int),
	}
}

// SetTelemetry installs the backhaul's counters under sc. A disabled
// scope leaves every handle nil (all increments are no-ops).
func (n *Net) SetTelemetry(sc telemetry.Scope) {
	if !sc.Enabled() {
		return
	}
	n.metSent = sc.Counter("msgs")
	n.metDelivered = sc.Counter("delivered")
	n.metBytes = sc.Counter("bytes")
	n.metControl = sc.Counter("control_msgs")
}

// AddNode attaches an endpoint. The handler runs on the sim loop when a
// message addressed to id is delivered.
func (n *Net) AddNode(id NodeID, h Handler) {
	if _, dup := n.nodes[id]; dup {
		panic(fmt.Sprintf("backhaul: duplicate node %d", id))
	}
	n.nodes[id] = &node{
		handler: h,
		control: queue.NewFIFO[*frame](n.cfg.QueueFrames),
		data:    queue.NewFIFO[*frame](n.cfg.QueueFrames),
	}
	i, _ := slices.BinarySearch(n.ids, id)
	n.ids = slices.Insert(n.ids, i, id)
}

// Send transmits msg from one node to another. The message is serialized
// immediately; mutating msg afterwards does not affect delivery. Unknown
// destinations are silently dropped (a real switch floods then ages them
// out — nothing would answer).
func (n *Net) Send(from, to NodeID, msg packet.Message) {
	src, ok := n.nodes[from]
	if !ok {
		panic(fmt.Sprintf("backhaul: send from unknown node %d", from))
	}
	f := n.acquire()
	f.from, f.to, f.src = from, to, src
	f.trace = n.loop.Trace()
	f.data = msg.Marshal(f.data[:0])
	n.sent++
	n.metSent.Inc()
	n.perType[msg.Type()]++
	ok = false
	if msg.Control() {
		n.metControl.Inc()
		ok = src.control.Push(f)
	} else {
		ok = src.data.Push(f)
	}
	if !ok {
		n.release(f) // tail drop
	}
	if !src.draining {
		src.draining = true
		n.drain(from, src)
	}
}

// drain serializes the node's queued frames one at a time, control queue
// strictly first.
func (n *Net) drain(id NodeID, src *node) {
	f, ok := src.control.Pop()
	if !ok {
		f, ok = src.data.Pop()
	}
	if !ok {
		src.draining = false
		return
	}
	wire := len(f.data) + encapOverhead
	txTime := sim.Duration(float64(wire*8) / (n.cfg.LinkMbps * 1e6) * 1e9)
	n.loop.After(txTime, f.txDone)
}

// deliver hands the serialized frame to the destination after the
// propagation delay.
func (n *Net) deliver(f *frame) {
	if _, ok := n.nodes[f.to]; !ok {
		n.release(f)
		return
	}
	n.loop.After(n.cfg.PropDelay, f.arrived)
}

// handle decodes an arrived frame, runs the destination handler, and
// recycles the frame.
func (n *Net) handle(f *frame) {
	dst, ok := n.nodes[f.to]
	if !ok {
		n.release(f)
		return
	}
	msg, err := n.dec.Decode(f.data)
	if err != nil {
		// Corruption is impossible by construction; a decode
		// failure is a programming error worth crashing on.
		panic(fmt.Sprintf("backhaul: undecodable frame: %v", err))
	}
	n.delivered++
	n.metDelivered.Inc()
	n.bytes += int64(len(f.data) + encapOverhead)
	n.metBytes.Add(int64(len(f.data) + encapOverhead))
	prev := n.loop.SetTrace(f.trace)
	n.handlerFor(dst)(f.from, msg)
	n.loop.SetTrace(prev)
	n.release(f)
}

func (n *Net) handlerFor(dst *node) Handler {
	if dst.handler == nil {
		return func(NodeID, packet.Message) {}
	}
	return dst.handler
}

// Broadcast sends msg from one node to every other attached node, in
// ascending NodeID order: the sends share the sender's egress queue, so
// their order fixes every copy's delivery time.
func (n *Net) Broadcast(from NodeID, msg packet.Message) {
	for _, id := range n.ids {
		if id != from {
			n.Send(from, id, msg)
		}
	}
}

// Stats reports totals since creation.
func (n *Net) Stats() (sent, delivered int, bytes int64) {
	return n.sent, n.delivered, n.bytes
}

// SentByType returns how many messages of type t entered the backhaul.
func (n *Net) SentByType(t packet.MsgType) int { return n.perType[t] }
