package controller

import (
	"wgtt/internal/packet"
	"wgtt/internal/trace"
)

// This file is the controller's half of the federation layer: it
// implements federation.Handler. The claim/export/import state machine
// it drives is shared with direct trunks (controller.go).

// ExportedTo implements federation.Handler: where the client went, so
// the node can chase stale claims along the export chain.
func (c *Controller) ExportedTo(addr packet.MAC) int {
	cs := c.clients[addr]
	if cs == nil || cs.owned {
		return -1
	}
	return cs.exportedSeg
}

// OnFederated implements federation.Handler: a message from segment
// src addressed to this one, unwrapped from its Routed envelope by the
// node or read straight off a direct trunk.
func (c *Controller) OnFederated(src int, msg packet.Message) {
	switch m := msg.(type) {
	case *packet.Handoff:
		// A direct trunk's HandoffAck needs no action: the importer's
		// import record, under the same trace id, already shows the
		// handoff completed. Federation acks resolve in the node.
		switch m.Kind {
		case packet.HandoffClaim:
			c.onClaim(src, m)
		case packet.HandoffExport:
			c.importClient(src, m)
		}
	case *packet.DownlinkData:
		// Pre-stamped backlog after an import: re-fan as-is, or pass it
		// further along the chain if the client moved again.
		cs := c.clients[m.Client]
		if cs == nil {
			return
		}
		if cs.owned {
			c.fanOut(cs, m.Inner)
		} else if cs.exportedSeg >= 0 && cs.exportedSeg != src {
			c.send(cs.exportedSeg, m)
		}
	case *packet.ServerData:
		c.Downlink(m.Inner)
	}
}

// exportOutcome resolves an export: flip ownership and flush the held
// traffic toward the importer, or — after a federated export's retry
// exhaustion — reclaim the client and re-admit the held traffic locally.
func (c *Controller) exportOutcome(cs *clientState, sw *switchState, ok bool) {
	if cs.sw != sw {
		return // a Release (or abandonment) already resolved this switch
	}
	cs.sw = nil
	now := c.loop.Now()
	if ok {
		dst := sw.remote
		cs.owned = false
		cs.exportedSeg = dst
		cs.serving = -1
		cs.hasAdoptAt = false
		if c.fed != nil {
			c.fed.NoteExported(cs.addr, dst)
		}
		for i := range sw.heldData {
			c.send(dst, &sw.heldData[i])
		}
		for _, p := range sw.held {
			c.send(dst, &packet.ServerData{Inner: p})
		}
		c.Rec.Record(trace.Record{At: now, Trace: c.traceID(sw.id), SwitchID: sw.id,
			Node: -1, Op: trace.OpExport, Client: cs.addr, A: int32(len(sw.held)), B: int32(dst)})
		return
	}
	// The importer never acked: keep the client, re-assert ownership
	// with a fresh directory epoch, and put the held traffic back on
	// the local datapath. Selection re-adopts the client if its radio
	// is still audible; otherwise the next claim from wherever it
	// surfaces re-locates it.
	c.fed.Announce(cs.addr)
	c.Rec.Record(trace.Record{At: now, Trace: c.traceID(sw.id), SwitchID: sw.id,
		Node: -1, Op: trace.OpAbandon, Client: cs.addr, A: int32(sw.retries), B: int32(sw.remote)})
	for i := range sw.heldData {
		c.fanOut(cs, sw.heldData[i].Inner)
	}
	for _, p := range sw.held {
		c.Downlink(p)
	}
}

// Release implements federation.Handler: the replicated directory
// converged on another owner (a reclaimed export that nevertheless
// arrived, or a duplicate acquisition resolved by the epoch order).
// Stand down: stop the serving AP, chase held traffic to the winner,
// and route future downlink along the export chain.
func (c *Controller) Release(addr packet.MAC, owner int) {
	cs := c.clients[addr]
	if cs == nil || !cs.owned {
		return
	}
	now := c.loop.Now()
	if sw := cs.sw; sw != nil {
		if sw.timer != nil {
			c.loop.Cancel(sw.timer)
		}
		if sw.remote >= 0 {
			c.fed.AbortExport(addr, sw.id)
		}
		// Standing down abandons the in-flight switch: the abandon
		// record ends its timeline and drops its handoff span.
		c.Rec.Record(trace.Record{At: now, Trace: c.traceID(sw.id), SwitchID: sw.id,
			Node: -1, Op: trace.OpAbandon, Client: addr, A: int32(sw.retries), B: int32(owner)})
		cs.sw = nil
		for i := range sw.heldData {
			c.fed.Send(owner, &sw.heldData[i])
		}
		for _, p := range sw.held {
			c.fed.Send(owner, &packet.ServerData{Inner: p})
		}
	}
	cs.owned = false
	cs.exportedSeg = owner
	cs.hasAdoptAt = false
	rel := trace.Record{At: now, Trace: c.loop.Trace(), Node: -1, Op: trace.OpRelease,
		Client: addr, A: -1, B: int32(owner)}
	if cs.serving >= 0 {
		c.switchID++
		// Trace the stand-down stop so the AP's records attach to a
		// causal id even though no local switch state exists for it;
		// the release record carries the same id.
		rel.Trace, rel.SwitchID, rel.A = c.traceID(c.switchID), c.switchID, int32(c.traceAP(cs.serving))
		prev := c.loop.SetTrace(rel.Trace)
		c.bh.Send(c.self, c.fabric.APNode(uint16(c.apBase+cs.serving)), &packet.Stop{
			Client:   addr,
			NewAPID:  packet.RemoteAPID,
			SwitchID: c.switchID,
		})
		c.loop.SetTrace(prev)
		cs.serving = -1
	}
	c.Rec.Record(rel)
}
