package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"wgtt/internal/backhaul"
	"wgtt/internal/deploy"
	"wgtt/internal/packet"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
)

// This file defines the typed envelope kinds a split network posts
// across sim.Mailboxes, with wire codecs for every kind that may cross a
// process boundary. The kinds mirror the cross-domain interactions of
// parallel.go/network.go, each of which is a direct same-loop call when
// both ends share a domain:
//
//   - kindTrunk: one trunk direction's control-plane message (Handoff,
//     AssocState, federation Routed/DirUpdate/DirQuery, ...), tagged
//     with the trunk channel id so trunks sharing a directed mailbox
//     (adjacent chain plus ring bypass) demultiplex.
//   - kindServerTap: a segment backhaul's server tap crossing into the
//     server domain (ServerData uplink plus control notifications).
//   - kindServerSend: the wired server's downlink injection into a
//     segment backhaul (ServerData).
//   - kindMigrate: the border patrol handing a client's radio to the
//     adjacent segment. The payload is the live *Client object graph —
//     necessarily local-only (nil Encode): a partition must keep every
//     segment a client can visit in one process.
//   - kindBoundary: a boundary-zone transmission summary for the
//     neighbour's noise floor (Config.BoundaryInterference).
//
// All wire-crossing payloads round-trip losslessly: packet messages
// marshal integer fields (Handoff scores via Float64bits), and the
// boundary summary is encoded below with Float64bits. CSIReport is the
// one lossy packet codec (centi-dB quantization), and it never crosses
// a mailbox — it rides the intra-segment backhaul only.

const (
	kindTrunk sim.EnvelopeKind = iota + 1
	kindServerTap
	kindServerSend
	kindMigrate
	kindBoundary
)

func init() {
	sim.RegisterEnvelope(kindTrunk, sim.EnvelopeCodec{
		Name: "trunk",
		Encode: func(p any, b []byte) []byte {
			tp := p.(*trunkPayload)
			b = binary.AppendUvarint(b, uint64(tp.ch))
			return tp.msg.Marshal(b)
		},
		Decode: func(b []byte) (any, error) {
			ch, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, fmt.Errorf("trunk envelope: bad channel id")
			}
			m, err := packet.Decode(b[n:])
			if err != nil {
				return nil, err
			}
			return &trunkPayload{ch: int(ch), msg: m}, nil
		},
	})
	sim.RegisterEnvelope(kindServerTap, sim.EnvelopeCodec{
		Name: "server-tap",
		Encode: func(p any, b []byte) []byte {
			tp := p.(*serverTapPayload)
			b = binary.AppendUvarint(b, uint64(tp.seg))
			b = binary.AppendUvarint(b, uint64(tp.from))
			return tp.msg.Marshal(b)
		},
		Decode: func(b []byte) (any, error) {
			seg, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, fmt.Errorf("server-tap envelope: bad segment")
			}
			b = b[n:]
			from, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, fmt.Errorf("server-tap envelope: bad sender")
			}
			m, err := packet.Decode(b[n:])
			if err != nil {
				return nil, err
			}
			tp := &serverTapPayload{seg: int(seg), from: backhaul.NodeID(from)}
			if sd, ok := m.(*packet.ServerData); ok {
				tp.sd = *sd
				tp.msg = &tp.sd
			} else {
				tp.msg = m
			}
			return tp, nil
		},
	})
	sim.RegisterEnvelope(kindServerSend, sim.EnvelopeCodec{
		Name: "server-send",
		Encode: func(p any, b []byte) []byte {
			return p.(*packet.ServerData).Marshal(b)
		},
		Decode: func(b []byte) (any, error) {
			m, err := packet.Decode(b)
			if err != nil {
				return nil, err
			}
			sd, ok := m.(*packet.ServerData)
			if !ok {
				return nil, fmt.Errorf("server-send envelope: decoded %T", m)
			}
			return sd, nil
		},
	})
	// Migration payloads are live object graphs; local-only by design.
	sim.RegisterEnvelope(kindMigrate, sim.EnvelopeCodec{Name: "migrate"})
	sim.RegisterEnvelope(kindBoundary, sim.EnvelopeCodec{
		Name: "boundary-tx",
		Encode: func(p any, b []byte) []byte {
			r := p.(*remoteTx)
			b = binary.BigEndian.AppendUint64(b, uint64(r.start))
			b = binary.BigEndian.AppendUint64(b, uint64(r.end))
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.pos.X))
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.pos.Y))
			if r.isAP {
				return append(b, 1)
			}
			return append(b, 0)
		},
		Decode: func(b []byte) (any, error) {
			if len(b) != 33 {
				return nil, fmt.Errorf("boundary-tx envelope: %d bytes", len(b))
			}
			return &remoteTx{
				start: sim.Time(binary.BigEndian.Uint64(b)),
				end:   sim.Time(binary.BigEndian.Uint64(b[8:])),
				pos: rf.Position{
					X: math.Float64frombits(binary.BigEndian.Uint64(b[16:])),
					Y: math.Float64frombits(binary.BigEndian.Uint64(b[24:])),
				},
				isAP: b[32] == 1,
			}, nil
		},
	})
}

// trunkPayload is one kindTrunk envelope: the channel id of the
// TrunkTransport that posted it plus the trunk message itself.
type trunkPayload struct {
	ch  int
	msg packet.Message
}

// serverTapPayload is one kindServerTap envelope. For ServerData the
// payload embeds the copy (the backhaul hands the tap its decode
// scratch, which must not outlive the handler call) and msg aliases it;
// for control messages msg is the message itself.
type serverTapPayload struct {
	seg  int
	from backhaul.NodeID
	msg  packet.Message
	sd   packet.ServerData
}

// trunkChannel is one directed trunk's demultiplexing channel over a
// shared segment-to-segment mailbox. Channel ids are assigned in
// TrunkLink call order, which deploy.Build makes deterministic, so
// every process of a partitioned run numbers the channels identically.
type trunkChannel struct {
	mb *sim.Mailbox
	ch int
	fn func(packet.Message)
}

// Post implements deploy.TrunkTransport.
func (c *trunkChannel) Post(at sim.Time, msg packet.Message) {
	c.mb.Post(at, sim.Envelope{Kind: kindTrunk, Payload: &trunkPayload{ch: c.ch, msg: msg}})
}

// OnDeliver implements deploy.TrunkTransport.
func (c *trunkChannel) OnDeliver(fn func(packet.Message)) { c.fn = fn }

// trunkLink implements deploy.Builder.TrunkLink: between segments of
// one domain, an event on its loop; otherwise a fresh channel per
// directed trunk, demultiplexed by the per-mailbox kindTrunk handler.
func (n *Network) trunkLink(from, to int) deploy.TrunkTransport {
	if n.segs[from] == n.segs[to] {
		return deploy.NewLoopTransport(n.segs[to].dom.Loop)
	}
	mb := n.segs[from].mbTo[to]
	c := &trunkChannel{mb: mb, ch: len(n.trunkChans)}
	n.trunkChans = append(n.trunkChans, c)
	if !n.trunkWired[mb] {
		n.trunkWired[mb] = true
		mb.OnReceive(kindTrunk, func(p any) {
			tp := p.(*trunkPayload)
			n.trunkChans[tp.ch].fn(tp.msg)
		})
	}
	return c
}

// wireDomainEnvelopes registers the receiving-domain handlers for every
// typed kind a split network's mailboxes carry, except the trunk demux
// (trunkLink) and boundary summaries (wireBoundaryInterference). It runs
// before deploy.Build; the server-send handler finds its segment's
// backhaul at delivery.
func (n *Network) wireDomainEnvelopes() {
	for _, sd := range n.segs {
		sd := sd
		sd.toServer.OnReceive(kindServerTap, func(p any) {
			tp := p.(*serverTapPayload)
			n.onServerBackhaul(tp.seg, tp.from, tp.msg)
		})
		n.serverToSeg[sd.idx].OnReceive(kindServerSend, func(p any) {
			n.Deploy.Segments[sd.idx].Backhaul.Send(deploy.NodeServer, deploy.NodeController, p.(*packet.ServerData))
		})
		// Migration rides the adjacent chain only (one hop per patrol
		// tick); register the adopt handler on both directions of it.
		for _, dst := range []int{sd.idx - 1, sd.idx + 1} {
			if dst < 0 || dst >= len(n.segs) {
				continue
			}
			to := n.segs[dst]
			sd.mbTo[dst].OnReceive(kindMigrate, func(p any) { to.adopt(p.(*Client)) })
		}
	}
}
