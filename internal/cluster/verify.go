// Cluster-wide integrity verification: the control-plane face of
// anti-entropy. Where the Scrubber runs on each server comparing itself
// against its own replica group, VerifyIntegrity runs from outside the data
// path (the `platod2gl-rebalance verify` verb): it fetches every server's
// whole-store state digest, compares them within each replica group of the
// shard map, and on a group mismatch drills down per logical shard to name
// exactly which shards diverged. Optionally it also drives one on-demand
// scrub round per server, surfacing on-disk CRC failures (and any
// auto-repairs) in the same report.
package cluster

import "fmt"

// GroupIntegrity is one replica group's digest comparison.
type GroupIntegrity struct {
	Group   int
	Members []PeerDigest
	// Mismatch is true when two serving members disagree. BadShards then
	// names the diverged logical shards (per-shard digest drill-down).
	Mismatch  bool
	BadShards []int
}

// ScrubResult is one server's on-demand scrub round in an integrity check.
type ScrubResult struct {
	Addr   string
	Err    string // RPC failure or no scrubber installed
	Report RoundReport
}

// IntegrityReport is a whole-cluster integrity verification outcome.
type IntegrityReport struct {
	Groups []GroupIntegrity
	Scrubs []ScrubResult // only when scrubbing was requested
}

// Healthy reports whether the verification found nothing wrong and reached
// everything it needed to: every member probed, no group mismatched, and
// every requested scrub round came back clean (a repaired round counts as
// unhealthy — it proves state had rotted).
func (r *IntegrityReport) Healthy() bool {
	for _, g := range r.Groups {
		if g.Mismatch {
			return false
		}
		for _, m := range g.Members {
			if m.Err != "" {
				return false
			}
		}
	}
	for _, s := range r.Scrubs {
		if s.Err != "" || !s.Report.healthy() || s.Report.Repaired {
			return false
		}
	}
	return true
}

// DigestOf fetches one server's state digest. shard < 0 digests the whole
// store; shard >= 0 restricts to one logical shard under numShards.
func (d *Driver) DigestOf(addr string, shard, numShards int) (DigestReply, error) {
	var reply DigestReply
	err := d.call(addr, "ShardDigest", &DigestArgs{Shard: shard, NumShards: numShards}, &reply, d.ctlTimeout())
	return reply, err
}

// ScrubNow triggers one scrub round on addr and returns its report (errors
// if the server has no scrubber installed).
func (d *Driver) ScrubNow(addr string) (RoundReport, error) {
	var reply ScrubReply
	// Scrub rounds walk the store and may repair; give them the data budget.
	err := d.call(addr, "Scrub", &ScrubArgs{}, &reply, d.pullTimeout())
	return reply.Report, err
}

// VerifyIntegrity compares state digests across every replica group of m.
// With m == nil (an unrouted cluster) each address forms its own group of
// one: digests are collected and reported but nothing can be compared.
// With scrub set, every server additionally runs one on-demand scrub round.
func (d *Driver) VerifyIntegrity(m *ShardMap, addrs []string, scrub bool) *IntegrityReport {
	rep := &IntegrityReport{}
	groups := make([][]string, 0)
	if m == nil {
		for _, a := range addrs {
			groups = append(groups, []string{a})
		}
	} else {
		for g := 0; g < m.NumGroups(); g++ {
			groups = append(groups, m.Group(g))
		}
	}
	for g, members := range groups {
		gi := GroupIntegrity{Group: g}
		for _, addr := range members {
			md := PeerDigest{Addr: addr}
			var err error
			if md.Digest, err = d.DigestOf(addr, -1, 0); err != nil {
				md.Err = err.Error()
			}
			gi.Members = append(gi.Members, md)
		}
		// Compare serving members pairwise against the first serving one.
		var ref *PeerDigest
		for i := range gi.Members {
			mem := &gi.Members[i]
			if !mem.ok() {
				continue
			}
			if ref == nil {
				ref = mem
				continue
			}
			if mem.Digest.key() != ref.Digest.key() {
				gi.Mismatch = true
			}
		}
		if gi.Mismatch && m != nil {
			gi.BadShards = d.divergedShards(m, g, gi.Members)
		}
		rep.Groups = append(rep.Groups, gi)
		if d.Logf != nil && gi.Mismatch {
			d.Logf("verify: group %d digests mismatch (diverged shards %v)", g, gi.BadShards)
		}
	}
	if scrub {
		for _, members := range groups {
			for _, addr := range members {
				sr := ScrubResult{Addr: addr}
				var err error
				if sr.Report, err = d.ScrubNow(addr); err != nil {
					sr.Err = err.Error()
				}
				rep.Scrubs = append(rep.Scrubs, sr)
			}
		}
	}
	return rep
}

// divergedShards re-probes a mismatched group per logical shard to name the
// shards whose digests disagree.
func (d *Driver) divergedShards(m *ShardMap, g int, members []PeerDigest) []int {
	var bad []int
	for _, shard := range m.OwnedBy(g) {
		var ref *digestKey
		mismatch := false
		for _, mem := range members {
			if !mem.ok() {
				continue
			}
			dg, err := d.DigestOf(mem.Addr, shard, m.NumShards)
			if err != nil || !dg.Ready {
				continue
			}
			if k := dg.key(); ref == nil {
				ref = &k
			} else if k != *ref {
				mismatch = true
				break
			}
		}
		if mismatch {
			bad = append(bad, shard)
		}
	}
	return bad
}

// String renders the report for the CLI, one line per member and scrub.
func (r *IntegrityReport) String() string {
	out := ""
	for _, g := range r.Groups {
		state := "ok"
		if g.Mismatch {
			state = fmt.Sprintf("MISMATCH (shards %v)", g.BadShards)
		}
		out += fmt.Sprintf("group %d: %s\n", g.Group, state)
		for _, m := range g.Members {
			if m.Err != "" {
				out += fmt.Sprintf("  %-24s unreachable: %s\n", m.Addr, m.Err)
				continue
			}
			out += fmt.Sprintf("  %-24s topo=%016x attrs=%016x edges=%d wal_seq=%d ready=%v\n",
				m.Addr, m.Digest.Topology, m.Digest.Attrs, m.Digest.NumEdges, m.Digest.WALSeq, m.Digest.Ready)
		}
	}
	for _, s := range r.Scrubs {
		if s.Err != "" {
			out += fmt.Sprintf("scrub %-18s error: %s\n", s.Addr, s.Err)
			continue
		}
		out += fmt.Sprintf("scrub %-18s diverged=%v corrupt=%v disk_errors=%d repaired=%v\n",
			s.Addr, s.Report.Diverged, s.Report.Corrupt, len(s.Report.DiskErrors), s.Report.Repaired)
	}
	return out
}
