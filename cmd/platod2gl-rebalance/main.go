// Command platod2gl-rebalance is the cluster elasticity control plane: it
// inspects and edits the epoch-versioned shard map and drives live shard
// migrations (internal/cluster/migrate.go) from outside the data path.
//
// Usage:
//
//	platod2gl-rebalance -servers host1:7090,host2:7090 <verb> [args]
//
// Verbs:
//
//	status               print every server's routing state and the map
//	init                 install the identity map on an unrouted cluster
//	                     (-num-shards, -replicas)
//	push                 re-push the newest map to every server it lists
//	                     (heals servers that restarted without a map)
//	grow -add addr[,..]  add a new (empty) server group, then rebalance
//	                     shards onto it — the N→N+1 scale-out
//	move -shard S -to G  migrate one logical shard to server group G
//	rebalance            count-balance shards across groups, one live
//	                     migration at a time
//	verify               compare state digests across every replica group
//	                     (names diverged shards; -scrub also runs one
//	                     anti-entropy round per server); exits nonzero on
//	                     any mismatch or corruption
//
// Shard selection is count-balanced (every group within one shard of even).
// The planner is a pluggable seam: a locality-aware policy in the spirit of
// the paper's GLISP successor — minimizing cross-server edges instead of
// just counts — slots in behind the same Driver without protocol changes.
//
// Every migration is abortable until its cutover: a failure (or Ctrl-C
// between moves) leaves the cluster serving on the old placement with the
// staged copy dropped. See docs/OPERATIONS.md "Elasticity" for runbooks.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"platod2gl/internal/cluster"
)

func usage() {
	fmt.Fprintf(os.Stderr, "usage: platod2gl-rebalance -servers a,b,c <status|init|push|grow|move|rebalance|verify> [args]\n")
	flag.PrintDefaults()
	os.Exit(2)
}

func main() {
	var (
		servers   = flag.String("servers", "", "comma-separated server addresses (required)")
		replicas  = flag.Int("replicas", 1, "replicas per server group (init)")
		numShards = flag.Int("num-shards", 0, "logical shards for init (0 = one per server group); fixed for the cluster's lifetime")
		add       = flag.String("add", "", "new server group addresses for grow (comma-separated, one per replica)")
		shard     = flag.Int("shard", -1, "logical shard to move (move)")
		to        = flag.Int("to", -1, "destination server group (move)")
		callT     = flag.Duration("call-timeout", 10*time.Second, "control RPC timeout (park, routing)")
		pullT     = flag.Duration("pull-timeout", 10*time.Minute, "data-move RPC timeout (shard pull, drop)")
		parkTTL   = flag.Duration("park-ttl", 30*time.Second, "source write-park self-release backstop")
		keepSrc   = flag.Bool("keep-source", false, "keep the source's (unreachable) shard copy after cutover instead of dropping it")
		scrub     = flag.Bool("scrub", false, "verify: also trigger one anti-entropy scrub round on every server (needs server-side scrubber)")
	)
	flag.Usage = usage
	flag.Parse()
	if *servers == "" || flag.NArg() < 1 {
		usage()
	}
	addrs := strings.Split(*servers, ",")
	verb := flag.Arg(0)

	d := &cluster.Driver{
		CallTimeout: *callT,
		PullTimeout: *pullT,
		ParkTTL:     *parkTTL,
		KeepSource:  *keepSrc,
		Logf:        log.Printf,
	}

	switch verb {
	case "status":
		status(d, addrs)

	case "init":
		m, err := d.InitRouting(addrs, *replicas, *numShards)
		if err != nil {
			log.Fatalf("init: %v", err)
		}
		fmt.Printf("installed %s\n", m)

	case "push":
		m, err := d.FetchMap(addrs)
		if err != nil {
			log.Fatalf("push: %v", err)
		}
		if err := d.Push(m); err != nil {
			log.Fatalf("push: %v", err)
		}
		fmt.Printf("pushed %s\n", m)

	case "grow":
		if *add == "" {
			log.Fatalf("grow needs -add addr[,addr...] (the new server group)")
		}
		m, err := d.FetchMap(addrs)
		if err != nil {
			log.Fatalf("grow: %v", err)
		}
		next, moved, err := d.Grow(m, strings.Split(*add, ","))
		if err != nil {
			log.Fatalf("grow: moved %d shard(s), then: %v", moved, err)
		}
		fmt.Printf("grew cluster: %d shard(s) migrated, now %s\n", moved, next)

	case "move":
		if *shard < 0 || *to < 0 {
			log.Fatalf("move needs -shard S and -to G")
		}
		m, err := d.FetchMap(addrs)
		if err != nil {
			log.Fatalf("move: %v", err)
		}
		next, err := d.MigrateShard(m, *shard, *to)
		if err != nil {
			log.Fatalf("move: %v", err)
		}
		fmt.Printf("moved shard %d, now %s\n", *shard, next)

	case "rebalance":
		m, err := d.FetchMap(addrs)
		if err != nil {
			log.Fatalf("rebalance: %v", err)
		}
		next, moved, err := d.Rebalance(m)
		if err != nil {
			log.Fatalf("rebalance: moved %d shard(s), then: %v", moved, err)
		}
		fmt.Printf("rebalanced: %d shard(s) migrated, now %s\n", moved, next)

	case "verify":
		// Tolerate an unrouted cluster: digests are still collected and
		// printed, there is just no replica group to compare within.
		m, err := d.FetchMap(addrs)
		if err != nil {
			log.Printf("verify: no shard map (%v); reporting ungrouped digests", err)
			m = nil
		}
		rep := d.VerifyIntegrity(m, addrs, *scrub)
		fmt.Print(rep)
		if !rep.Healthy() {
			log.Fatalf("verify: integrity check FAILED")
		}
		fmt.Println("verify: all replica groups consistent")

	default:
		usage()
	}
}

// status prints each server's view plus the newest map's assignment table.
func status(d *cluster.Driver, addrs []string) {
	var newest *cluster.ShardMap
	for _, sr := range d.Survey(addrs) {
		switch {
		case sr.Err != nil:
			fmt.Printf("%-24s unreachable: %v\n", sr.Addr, sr.Err)
		case !sr.Has:
			fmt.Printf("%-24s no shard map (unrouted; clients use their frozen placement)\n", sr.Addr)
		default:
			fmt.Printf("%-24s routing epoch %d (%d shards x %d replicas)\n",
				sr.Addr, sr.Epoch, sr.Map.NumShards, sr.Map.Replicas)
			if newest == nil || sr.Map.Epoch > newest.Epoch {
				newest = sr.Map
			}
		}
	}
	if newest == nil {
		fmt.Println("cluster is unrouted; `init` installs the identity map")
		return
	}
	fmt.Printf("\nnewest map: %s\n", newest)
	for g := 0; g < newest.NumGroups(); g++ {
		owned := newest.OwnedBy(g)
		fmt.Printf("  group %d (%s): %d shard(s) %v\n", g, strings.Join(newest.Group(g), ","), len(owned), owned)
	}
	if plan := cluster.CountBalancePlan(newest); len(plan) > 0 {
		fmt.Printf("  imbalanced: `rebalance` would move %d shard(s)\n", len(plan))
	}
}
