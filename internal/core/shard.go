package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"wgtt/internal/sim"
	"wgtt/internal/telemetry"
)

// This file maps the sim-level partitioned runner (sim.Coordinator.
// RunPartitioned) onto a Network: naming the execution domains, parsing
// a partition assignment, running one process's share, and exporting
// the telemetry shards that share owns. Construction is SPMD — every
// process builds the identical Network from the identical Config — so
// a Partition is pure bookkeeping: which of the already-identical
// domains each process executes.

// Partition assigns every execution domain of a split Network to
// exactly one process: Partition[p] lists the domain names process p
// owns ("seg0".."segN-1" and "server").
type Partition [][]string

// ParsePartition parses the -partition flag syntax: process groups
// separated by commas, domain names within a group joined by "+", e.g.
// "seg0+seg1+seg2,server" for a two-process run. The shorthand "segs"
// expands to every segment domain of the network it is validated
// against.
func ParsePartition(s string) (Partition, error) {
	var p Partition
	for _, group := range strings.Split(s, ",") {
		group = strings.TrimSpace(group)
		if group == "" {
			return nil, fmt.Errorf("partition: empty process group in %q", s)
		}
		var names []string
		for _, name := range strings.Split(group, "+") {
			name = strings.TrimSpace(name)
			if name == "" {
				return nil, fmt.Errorf("partition: empty domain name in %q", group)
			}
			names = append(names, name)
		}
		p = append(p, names)
	}
	if len(p) < 2 {
		return nil, fmt.Errorf("partition %q has %d process group(s); a partitioned run needs at least 2", s, len(p))
	}
	return p, nil
}

// DomainNames lists a split network's execution domains in creation
// order ("seg0".."segN-1", then "server"); empty for a network that
// runs as one domain, which cannot be partitioned.
func (n *Network) DomainNames() []string {
	if n.segs[0].dom == n.server {
		return nil
	}
	names := make([]string, 0, len(n.segs)+1)
	for _, sd := range n.segs {
		names = append(names, sd.dom.Name())
	}
	return append(names, "server")
}

// errOneDomain rejects partitioning a network that runs as one domain.
var errOneDomain = errors.New("network runs as one domain; partitioning needs Config.Domains on two or more segments")

// Resolve validates the partition against a network — every domain
// assigned exactly once, no unknown names — expanding the "segs"
// shorthand, and returns the per-process ownership sets.
func (p Partition) Resolve(n *Network) ([]map[string]bool, error) {
	if n.DomainNames() == nil {
		return nil, fmt.Errorf("partition: %w", errOneDomain)
	}
	valid := make(map[string]bool)
	for _, name := range n.DomainNames() {
		valid[name] = true
	}
	owner := make(map[string]int)
	procs := make([]map[string]bool, len(p))
	for pi, group := range p {
		procs[pi] = make(map[string]bool)
		for _, name := range group {
			var names []string
			if name == "segs" {
				for _, sd := range n.segs {
					names = append(names, sd.dom.Name())
				}
			} else {
				names = []string{name}
			}
			for _, nm := range names {
				if !valid[nm] {
					return nil, fmt.Errorf("partition: unknown domain %q (have %s)",
						nm, strings.Join(n.DomainNames(), " "))
				}
				if prev, dup := owner[nm]; dup {
					return nil, fmt.Errorf("partition: domain %q assigned to both process %d and %d",
						nm, prev, pi)
				}
				owner[nm] = pi
				procs[pi][nm] = true
			}
		}
	}
	var missing []string
	for name := range valid {
		if _, ok := owner[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("partition: domains not assigned to any process: %s",
			strings.Join(missing, " "))
	}
	return procs, nil
}

// RunPartitioned advances this process's share of the domain graph to
// virtual time until, exchanging cross-domain envelopes over bus. owned
// is one entry of Partition.Resolve. Every process of the run must make
// the same sequence of RunPartitioned calls with the same untils — the
// exchange schedule is lockstep (see sim.Coordinator.RunPartitioned).
func (n *Network) RunPartitioned(until sim.Duration, owned map[string]bool, bus sim.PeerBus) error {
	if n.DomainNames() == nil {
		return fmt.Errorf("RunPartitioned: %w", errOneDomain)
	}
	if err := n.Coord.RunPartitioned(sim.Time(until),
		func(d *sim.Domain) bool { return owned[d.Name()] }, bus); err != nil {
		return err
	}
	n.noteUnownedSpike(owned)
	return nil
}

// MetricsSnapshotOwned exports the telemetry shards owned by this
// process: each segment domain's shard goes with that domain, and the
// root shard (server, clients, coordinator gauges) with the "server"
// domain. Remote shards are excluded — their series never sample here
// and their gauge callbacks would read never-run state. Merging every
// process's export with telemetry.MergeSnapshots reproduces the
// in-process MetricsSnapshot bit for bit.
func (n *Network) MetricsSnapshotOwned(owned map[string]bool) *telemetry.Snapshot {
	if n.tel == nil {
		return nil
	}
	return n.tel.SnapshotShards(n.Coord.Now(), func(shard string) bool {
		if shard == "" {
			return owned["server"]
		}
		return owned[shard]
	})
}

// OwnsClient reports whether one of the process's owned segment domains
// currently holds the client's radio — i.e. whether this process's
// figures (throughput meters and other client-side readings) for that
// client are authoritative. Residency maps of remote domains are
// construction-time stale, which is exactly why the owned set is
// required.
func (n *Network) OwnsClient(owned map[string]bool, c *Client) bool {
	for _, sd := range n.segs {
		if !owned[sd.dom.Name()] {
			continue
		}
		if _, ok := sd.resident[c.Client]; ok {
			return true
		}
	}
	return false
}
