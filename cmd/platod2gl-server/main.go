// Command platod2gl-server runs one PlatoD2GL graph server: a samtree-backed
// dynamic topology store plus an attribute store, served over the binary
// wire protocol (internal/wire). A cluster is N of these processes; clients partition sources across them
// hash-by-source (see internal/cluster).
//
// Usage:
//
//	platod2gl-server -addr :7090 -capacity 256
//
// Durability (see docs/OPERATIONS.md): the server recovers from -snapshot
// and -wal at boot (cluster.Service.OpenDurable), logs every applied batch
// to the WAL under the -wal-sync fsync policy, and on SIGINT/SIGTERM saves
// the snapshot, then truncates the WAL (Service.Checkpoint).
//
// Replication (see internal/cluster/replica.go): run R identical servers
// per logical shard and point clients at all of them with -replicas R on
// the loadgen side. A server rejoining its group after a crash or
// replacement starts with -catchup-from <live-replica-addr>: local
// snapshot/WAL state is discarded (the group may have deleted edges this
// replica still holds), the store is rebuilt from the peer's snapshot plus
// its WAL tail while reads fail over elsewhere, and once converged a fresh
// local snapshot is written so durability matches the synced state.
//
// Elasticity (see docs/OPERATIONS.md "Elasticity"): -advertise is the
// address this server appears under in shard maps (required for -join and
// for receiving migrations); -join seed1,seed2 registers this empty server
// with a running routed cluster as a new group owning no shards — follow
// with `platod2gl-rebalance rebalance` (or use `grow`, which does both) to
// migrate shards onto it live.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"platod2gl/internal/cluster"
	"platod2gl/internal/core"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/obs"
	"platod2gl/internal/storage"
)

func main() {
	var (
		addr      = flag.String("addr", ":7090", "listen address")
		capacity  = flag.Int("capacity", core.DefaultCapacity, "samtree node capacity")
		alpha     = flag.Int("alpha", 0, "alpha-split slackness")
		noCP      = flag.Bool("no-compress", false, "disable CP-IDs prefix compression")
		workers   = flag.Int("workers", 0, "batch update workers (0 = all CPUs)")
		snapshot  = flag.String("snapshot", "", "snapshot file: loaded at startup if present, written on SIGINT/SIGTERM")
		metrics   = flag.String("metrics-addr", "", "HTTP address serving /metrics (Prometheus) and /debug/vars (JSON) (empty = disabled)")
		walPath   = flag.String("wal", "", "write-ahead log: replayed at startup, appended per batch")
		walSync   = flag.String("wal-sync", "always", "WAL fsync policy: always (fsync per batch), interval (background fsync), never (OS decides)")
		walEvery  = flag.Duration("wal-sync-interval", 200*time.Millisecond, "fsync period for -wal-sync=interval (must be positive)")
		catchup   = flag.String("catchup-from", "", "live replica address to rebuild from at boot; local snapshot/WAL are discarded first")
		catchupT  = flag.Duration("catchup-call-timeout", 30*time.Second, "per-RPC timeout for catch-up snapshot/WAL-tail calls")
		advertise = flag.String("advertise", "", "address this server appears under in shard maps (host:port reachable by peers and clients; default: -addr)")
		join      = flag.String("join", "", "comma-separated seed server addresses of a routed cluster to join as a new, empty server group")
		scrubInt  = flag.Duration("scrub-interval", 0, "anti-entropy scrub cadence (0 = no background scrubbing; on-demand Scrub RPC stays available)")
		scrubPeer = flag.String("scrub-peers", "", "comma-separated replica-group addresses to compare state digests against (may include this server)")
		scrubFix  = flag.Bool("scrub-auto-repair", true, "let a scrub round that finds this replica diverged or corrupt rebuild it from a healthy peer")

		admitMax   = flag.Int("admit-max", cluster.DefaultAdmission().MaxConcurrent, "max concurrently served requests before prioritized queueing kicks in (0 disables admission control)")
		admitQueue = flag.Int("admit-queue", 0, "max queued requests awaiting admission (0 = 2x -admit-max)")
		admitWait  = flag.Duration("admit-queue-wait", cluster.DefaultAdmission().MaxQueueWait, "max time a request may wait for admission before being shed")
		maxConns   = flag.Int("max-conns", cluster.DefaultServerLimits().MaxConns, "max concurrent client connections (0 = unlimited)")
		maxHs      = flag.Int("max-handshakes", cluster.DefaultServerLimits().MaxHandshakes, "max concurrent in-flight connection handshakes (0 = unlimited)")
		hsTimeout  = flag.Duration("handshake-timeout", cluster.DefaultServerLimits().HandshakeTimeout, "per-connection handshake deadline (0 = none)")
	)
	flag.Parse()
	if *join != "" && *advertise == "" {
		log.Fatalf("-join requires -advertise (the address the cluster will route to this server)")
	}

	// Storage op histograms only when there is an endpoint to scrape them —
	// a nil Metrics keeps the samtree hot path clock-free.
	var storeMetrics *storage.Metrics
	if *metrics != "" {
		storeMetrics = &storage.Metrics{}
	}
	store := storage.NewDynamicStore(storage.Options{
		Tree: core.Options{
			Capacity: *capacity,
			Alpha:    *alpha,
			Compress: !*noCP,
		},
		Workers: *workers,
		Metrics: storeMetrics,
	})
	if *catchup != "" {
		// A rejoining replica rebuilds from its live sibling, not from its
		// own stale history: the group may have deleted edges this replica
		// still holds, and Load/replay merge rather than replace.
		if *snapshot != "" {
			os.Remove(*snapshot)
		}
		if *walPath != "" {
			os.Remove(*walPath)
		}
	}
	svc := cluster.NewService(store, kvstore.New())
	cm := &cluster.Metrics{}
	svc.SetMetrics(cm)
	// A server must know which map address is "me" to answer ownership
	// checks once routing is installed. Fall back to the listen address —
	// it matches what operators pass to -servers in the common case. Pass
	// -advertise explicitly when -addr is not the reachable form (e.g.
	// ":7191" behind NAT).
	if *advertise == "" {
		*advertise = *addr
	}
	svc.SetAdvertise(*advertise)
	// Migrations pull shard state from the source by address; resolve over TCP.
	svc.SetDialResolver(func(a string) cluster.Dialer { return cluster.TCPDialer(a, *catchupT) })
	rec, err := svc.OpenDurable(cluster.DurableConfig{
		Snapshot:        *snapshot,
		WAL:             *walPath,
		WALSync:         *walSync,
		WALSyncInterval: *walEvery,
	})
	if err != nil {
		log.Fatalf("open durable state: %v", err)
	}
	if rec.SnapshotLoaded {
		log.Printf("loaded snapshot %s", *snapshot)
	}
	if *walPath != "" {
		log.Printf("replayed %d wal batches: %d edges", rec.WALBatches, store.NumEdges())
	}
	// Anti-entropy: a Scrubber is always installed (the Scrub RPC lets
	// `platod2gl-rebalance verify` trigger on-demand rounds); the background
	// loop only runs when -scrub-interval is set. Every round re-verifies the
	// WAL and snapshot CRCs, and with -scrub-peers also compares state
	// digests across the replica group.
	var scrubPeers []string
	if *scrubPeer != "" {
		scrubPeers = strings.Split(*scrubPeer, ",")
	}
	scrub := cluster.NewScrubber(svc, cluster.ScrubConfig{
		Interval:   *scrubInt,
		Self:       *advertise,
		Peers:      scrubPeers,
		AutoRepair: *scrubFix,
		Metrics:    cm,
		Logf:       log.Printf,
	})
	svc.SetScrubber(scrub)
	if *scrubInt > 0 {
		scrub.Start()
		log.Printf("anti-entropy scrubbing every %v (peers=%q auto-repair=%v)", *scrubInt, *scrubPeer, *scrubFix)
	}
	srv := cluster.NewServer(svc)
	srv.SetAdmission(cluster.AdmissionConfig{
		MaxConcurrent: *admitMax,
		MaxQueue:      *admitQueue,
		MaxQueueWait:  *admitWait,
	})
	srv.SetLimits(cluster.ServerLimits{
		MaxConns:         *maxConns,
		MaxHandshakes:    *maxHs,
		HandshakeTimeout: *hsTimeout,
	})

	// Metrics endpoint: one registry behind /metrics and /debug/vars.
	stopMetrics := func(context.Context) error { return nil }
	if *metrics != "" {
		reg := obs.NewRegistry()
		cm.Register(reg)
		storeMetrics.Register(reg)
		reg.GaugeFunc("platod2gl_store_edges", "Current edge count across all relations.", nil,
			func() float64 { return float64(store.NumEdges()) })
		reg.GaugeFunc("platod2gl_store_memory_bytes", "Structural memory footprint of the store.", nil,
			func() float64 { return float64(store.MemoryBytes()) })
		reg.GaugeFunc("platod2gl_sync_ready", "1 when this replica serves reads (not catching up).", nil,
			func() float64 {
				if svc.Ready() {
					return 1
				}
				return 0
			})
		bound, shutdown, err := obs.Serve(*metrics, reg)
		if err != nil {
			log.Fatalf("metrics listen %s: %v", *metrics, err)
		}
		stopMetrics = shutdown
		log.Printf("metrics at http://%s/metrics (Prometheus) and /debug/vars (JSON)", bound)
	}

	if *catchup != "" {
		// Hold writes (rejected, then parked near convergence) and reads
		// (fail over to live replicas) until the store matches the group.
		svc.BeginCatchUp()
		peerAddr := *catchup
		go func() {
			dial := func() (net.Conn, error) { return net.DialTimeout("tcp", peerAddr, 10*time.Second) }
			start := time.Now()
			stats, err := cluster.SyncFromPeer(svc, dial, cluster.SyncOptions{CallTimeout: *catchupT, Metrics: cm})
			if err != nil {
				log.Fatalf("catch-up from %s: %v", peerAddr, err)
			}
			log.Printf("caught up from %s in %v: %d edges (%d wal batches, %d attribute bytes)",
				peerAddr, time.Since(start).Round(time.Millisecond), store.NumEdges(), stats.Batches, stats.AttrBytes)
			if *snapshot != "" {
				log.Printf("saved post-catch-up snapshot %s", *snapshot)
			}
		}()
	}

	// One shutdown path for SIGINT/SIGTERM: close the metrics listener
	// first (it must not outlive the process's useful life), then
	// checkpoint and close the durable state.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		// Stop scrubbing first: a repair racing the final snapshot would
		// tear the durable state this handler is about to write.
		scrub.Stop()
		// Unpark any write goroutines gated for a migration cutover — the
		// migration dies with this process, and a parked client call must
		// get its error before the listener goes away.
		svc.ReleaseAllShards()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := stopMetrics(ctx); err != nil {
			log.Printf("metrics shutdown: %v", err)
		}
		cancel()
		if err := svc.Checkpoint(); err != nil {
			log.Fatalf("%v", err)
		}
		if *snapshot != "" {
			log.Printf("saved snapshot %s: %d edges", *snapshot, store.NumEdges())
			if *walPath != "" {
				log.Printf("truncated wal %s", *walPath)
			}
		}
		if err := svc.Close(); err != nil {
			log.Fatalf("close durable state: %v", err)
		}
		os.Exit(0)
	}()

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen %s: %v", *addr, err)
	}
	if *join != "" {
		// Register with the running cluster once we are serving: fetch the
		// newest shard map from the seeds and push an epoch+1 map that adds
		// this server as an empty group. Shards arrive later, via a
		// rebalance — joining never moves data by itself.
		seeds := strings.Split(*join, ",")
		self := *advertise
		go func() {
			time.Sleep(200 * time.Millisecond) // let Serve pick up the listener
			d := &cluster.Driver{Logf: log.Printf, Metrics: cm}
			m, err := d.FetchMap(seeds)
			if err != nil {
				log.Fatalf("join %v: %v", seeds, err)
			}
			if m.GroupOf(self) >= 0 {
				log.Printf("already a member of the cluster at epoch %d", m.Epoch)
				return
			}
			next, err := d.AddServer(m, []string{self})
			if err != nil {
				log.Fatalf("join %v: %v", seeds, err)
			}
			log.Printf("joined cluster at routing epoch %d as empty group %d; run `platod2gl-rebalance -servers %s rebalance` to receive shards",
				next.Epoch, next.NumGroups()-1, strings.Join(next.Servers, ","))
		}()
	}
	log.Printf("platod2gl-server listening on %s (capacity=%d alpha=%d compress=%v wal-sync=%s)",
		lis.Addr(), *capacity, *alpha, !*noCP, *walSync)
	srv.Serve(lis)
}
