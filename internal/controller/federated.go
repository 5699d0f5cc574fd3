package controller

import (
	"wgtt/internal/packet"
	"wgtt/internal/trace"
)

// This file is the controller's half of the federation layer: it
// implements federation.Handler and the federated variants of the
// claim/export/import pipeline. The legacy adjacent-trunk paths in
// controller.go are untouched — a deployment without Config.Federation
// never reaches this code.

// ExportedTo implements federation.Handler: where the client went, so
// the node can chase stale claims along the export chain.
func (c *Controller) ExportedTo(addr packet.MAC) int {
	cs := c.clients[addr]
	if cs == nil || cs.owned {
		return -1
	}
	return cs.exportedSeg
}

// OnFederated implements federation.Handler: a message addressed to
// this segment, unwrapped from its Routed envelope by the node.
func (c *Controller) OnFederated(src int, msg packet.Message) {
	switch m := msg.(type) {
	case *packet.Handoff:
		switch m.Kind {
		case packet.HandoffClaim:
			c.onFedClaim(src, m)
		case packet.HandoffExport:
			c.importFed(src, m)
		}
	case *packet.DownlinkData:
		// Pre-stamped backlog routed after an import: re-fan as-is, or
		// pass it further along the chain if the client moved again.
		cs := c.clients[m.Client]
		if cs == nil {
			return
		}
		if cs.owned {
			c.fanOut(cs, m.Inner)
		} else if cs.exportedSeg >= 0 && cs.exportedSeg != src {
			c.fed.Send(cs.exportedSeg, m)
		}
	case *packet.ServerData:
		c.Downlink(m.Inner)
	}
}

// onFedClaim is the owner's side of a re-locate: identical admission
// rules to the legacy onClaim, but the export destination is a segment
// index reached through the router rather than an adjacent peer.
func (c *Controller) onFedClaim(src int, m *packet.Handoff) {
	cs := c.clients[m.Client]
	if cs == nil || !cs.owned || cs.sw != nil || src == c.fed.Self() {
		return
	}
	now := c.loop.Now()
	if cs.everInit && now.Sub(cs.lastInit) < c.cfg.Hysteresis {
		return
	}
	if cs.everImport && now.Sub(cs.importedAt) < c.cfg.Hysteresis {
		return
	}
	if cs.serving >= 0 {
		if s, ok := c.score(cs, cs.serving); ok && m.Score < s+c.cfg.SwitchMarginDB {
			return
		}
	}
	c.switchID++
	sw := &switchState{id: c.switchID, from: cs.serving, to: -1, remote: -1, remoteSeg: src, issued: now}
	prev := c.loop.SetTrace(c.traceID(sw.id))
	defer c.loop.SetTrace(prev)
	cs.sw = sw
	cs.lastInit, cs.everInit = now, true
	c.SwitchesIssued++
	c.met.switchesIssued.Inc()
	if sw.from >= 0 {
		// Begun here, dropped at export — the importer completes the
		// client-visible protocol (same accounting as legacy claims).
		c.spans.Begin(sw.id, now, c.traceAP(sw.from), -1)
	}
	c.Rec.Record(trace.Record{At: now, Trace: c.traceID(sw.id), SwitchID: sw.id,
		Node: -1, Op: trace.OpIssue, Client: cs.addr, A: int32(c.traceAP(sw.from)), B: -1})
	if cs.serving < 0 {
		c.exportFed(cs, sw, cs.nextIndex)
		return
	}
	c.sendStop(cs, sw)
}

// exportFed ships association + queue state through the federation
// node's reliable-transfer RPC. Unlike the legacy fire-and-forget
// export, ownership is retained until the importer acks — a trunk
// outage mid-handoff must not leave the client owned by nobody.
func (c *Controller) exportFed(cs *clientState, sw *switchState, k uint16) {
	c.fed.SendReliable(sw.remoteSeg, &packet.Handoff{
		Kind:     packet.HandoffExport,
		Client:   cs.addr,
		IP:       cs.ip,
		Index:    k,
		NextIdx:  cs.nextIndex,
		SwitchID: sw.id,
	}, func(ok bool) { c.exportOutcome(cs, sw, ok) })
}

// exportOutcome resolves a federated export: flip ownership and flush
// the held traffic toward the importer, or — after retry exhaustion —
// reclaim the client and re-admit the held traffic locally.
func (c *Controller) exportOutcome(cs *clientState, sw *switchState, ok bool) {
	if cs.sw != sw {
		return // a Release (or abandonment) already resolved this switch
	}
	cs.sw = nil
	now := c.loop.Now()
	if ok {
		dst := sw.remoteSeg
		cs.owned = false
		cs.exportedTo = -1
		cs.exportedSeg = dst
		cs.serving = -1
		cs.hasAdoptAt = false
		c.HandoffsExported++
		c.met.handoffExports.Inc()
		c.spans.Drop(sw.id)
		c.fed.NoteExported(cs.addr, dst)
		for _, d := range sw.heldData {
			c.fed.Send(dst, d)
		}
		for _, p := range sw.held {
			c.fed.Send(dst, &packet.ServerData{Inner: p})
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
	c.met.switchAbandoned.Inc()
	c.spans.Drop(sw.id)
	c.fed.Announce(cs.addr)
	c.Rec.Record(trace.Record{At: now, Trace: c.traceID(sw.id), SwitchID: sw.id,
		Node: -1, Op: trace.OpAbandon, Client: cs.addr, A: int32(sw.retries), B: int32(sw.remoteSeg)})
	for _, d := range sw.heldData {
		c.fanOut(cs, d.Inner)
	}
	for _, p := range sw.held {
		c.Downlink(p)
	}
}

// importFed adopts a client transferred through the federation layer.
// Duplicate exports (a retransmission racing our ack) are re-acked
// idempotently.
func (c *Controller) importFed(src int, m *packet.Handoff) {
	cs := c.stateFor(m.Client)
	ack := &packet.Handoff{Kind: packet.HandoffAck, Client: m.Client, SwitchID: m.SwitchID}
	if cs.owned {
		c.fed.Send(src, ack)
		return
	}
	cs.owned = true
	cs.exportedTo = -1
	cs.exportedSeg = -1
	cs.ip = m.IP
	c.ipToMAC[m.IP] = m.Client
	cs.nextIndex = m.NextIdx
	cs.adoptAt, cs.hasAdoptAt = m.Index, true
	cs.serving = -1
	cs.importedAt, cs.everImport = c.loop.Now(), true
	c.HandoffsImported++
	c.met.handoffImports.Inc()
	c.Rec.Record(trace.Record{At: c.loop.Now(), Trace: c.loop.Trace(), SwitchID: m.SwitchID,
		Node: -1, Op: trace.OpImport, Client: m.Client, A: int32(m.Index)})
	c.bh.Broadcast(c.self, &packet.AssocState{
		Client: m.Client,
		IP:     m.IP,
		State:  packet.StateAssociated,
	})
	c.fed.Send(src, ack)
	c.fed.Announce(m.Client)
	c.fed.ClaimResolved(m.Client)
	c.maybeSwitch(cs)
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
		if sw.remoteSeg >= 0 {
			c.fed.AbortExport(addr, sw.id)
		}
		c.spans.Drop(sw.id)
		cs.sw = nil
		for _, d := range sw.heldData {
			c.fed.Send(owner, d)
		}
		for _, p := range sw.held {
			c.fed.Send(owner, &packet.ServerData{Inner: p})
		}
	}
	cs.owned = false
	cs.exportedTo = -1
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
	c.FedReleases++
	c.Rec.Record(rel)
}
