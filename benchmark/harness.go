package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"platod2gl/internal/cluster"
	"platod2gl/internal/core"
	"platod2gl/internal/dataset"
	"platod2gl/internal/eventlog"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/storage"
)

// env is what one set-up is given: the seed every input is made from, the
// sizes, and the tracer (nil unless this is the traced run).
type env struct {
	seed   int64
	sz     *sizes
	tr     *tracer
	outDir string
	procs  int
}

func (e *env) traced() bool { return e.tr != nil }

// newStore is the store every workload uses: samtrees with CP-IDs on and the
// Table V counters attached.
func newStore(procs int) (*storage.DynamicStore, *core.Counters) {
	c := &core.Counters{}
	return storage.NewDynamicStore(storage.Options{
		Tree:    core.Options{Compress: true, Counters: c},
		Workers: procs,
	}), c
}

// node is one graph server: its stores, its RPC service and the loopback
// listener it serves on from a goroutine of this process.
type node struct {
	store    *storage.DynamicStore
	counters *core.Counters
	attrs    *kvstore.Store
	svc      *cluster.Service
	metrics  *cluster.Metrics
	lis      net.Listener
	wal      *eventlog.Writer
	served   chan struct{}
}

// testbed is a cluster of in-process servers behind real TCP listeners.
// Peers are grouped consecutively by shard, as cluster.Options.Replicas
// expects.
type testbed struct {
	nodes    []*node
	addrs    []string
	replicas int
	clients  []*cluster.Client
}

// bootCluster starts shards*replicas servers. With wal set every server logs
// each batch through eventlog in its batch hook before applying it: appended
// and flushed to the operating system per batch, never fsynced (the policy
// platod2gl-server runs with between snapshots).
func bootCluster(e *env, shards, replicas int, wal bool) (*testbed, error) {
	tb := &testbed{replicas: replicas}
	for i := 0; i < shards*replicas; i++ {
		n := &node{attrs: kvstore.New(), metrics: &cluster.Metrics{}, served: make(chan struct{})}
		n.store, n.counters = newStore(e.procs)
		tk := tServer0 + track(i)
		var topo storage.TopologyStore = n.store
		if e.traced() {
			topo = &tracedStore{DynamicStore: n.store, tr: e.tr, tk: tk}
		}
		n.svc = cluster.NewService(topo, n.attrs)
		n.svc.SetMetrics(n.metrics)
		if wal {
			path := filepath.Join(e.outDir, fmt.Sprintf("wal-%d.log", i))
			os.Remove(path)
			w, err := eventlog.Create(path)
			if err != nil {
				tb.close()
				return nil, fmt.Errorf("create wal: %w", err)
			}
			n.wal = w
			tr := e.tr
			n.svc.SetBatchHook(func(clientID, seq uint64, events []graph.Event) error {
				s := tr.open(kWALAppend, tk, uint32(len(events)))
				_, err := w.AppendBatch(clientID, seq, events)
				tr.close(s)
				return err
			})
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		n.lis = lis
		var serveOn net.Listener = lis
		if e.traced() {
			serveOn = &tracedListener{Listener: lis, tr: e.tr, tk: tk}
		}
		srv := cluster.NewServer(n.svc)
		go func() {
			defer close(n.served)
			srv.Serve(serveOn)
		}()
		tb.nodes = append(tb.nodes, n)
		tb.addrs = append(tb.addrs, lis.Addr().String())
	}
	return tb, nil
}

// dial returns a fan-out client over the binary wire protocol with the
// production defaults. Connections are made lazily through per-peer dialers:
// plain TCP dialers, or on a traced run the same dialers handing out counted
// and timed connections that record on track tk.
func (tb *testbed) dial(e *env, tk track, seed int64) *cluster.Client {
	opts := cluster.DefaultOptions()
	opts.Protocol = cluster.ProtoWire
	opts.Replicas = tb.replicas
	opts.Seed = seed
	dialers := make([]cluster.Dialer, len(tb.addrs))
	var td *tracedDialer
	if e.traced() {
		td = &tracedDialer{tr: e.tr, tk: tk}
		e.tr.flushers = append(e.tr.flushers, td.flush)
	}
	for i, addr := range tb.addrs {
		dialers[i] = cluster.TCPDialer(addr, opts.CallTimeout)
		if td != nil {
			dialers[i] = td.wrap(dialers[i])
		}
	}
	c := cluster.NewClientOptions(nil, dialers, opts)
	c.SetPeerAddrs(tb.addrs)
	tb.clients = append(tb.clients, c)
	return c
}

// primaries are the first replica of each shard.
func (tb *testbed) primaries() []*node {
	var out []*node
	for i := 0; i < len(tb.nodes); i += tb.replicas {
		out = append(out, tb.nodes[i])
	}
	return out
}

// bytesPerEdge is MemoryBytes over NumEdges, summed over the primaries.
func (tb *testbed) bytesPerEdge() float64 {
	var mem, edges int64
	for _, n := range tb.primaries() {
		mem += n.store.MemoryBytes()
		edges += n.store.NumEdges()
	}
	return ratio(float64(mem), float64(edges))
}

// close stops every client and server and waits for the accept loops.
func (tb *testbed) close() {
	for _, c := range tb.clients {
		c.Close()
	}
	for _, n := range tb.nodes {
		if n.lis != nil {
			n.lis.Close()
			<-n.served
		}
		if n.wal != nil {
			path := n.wal.Path()
			n.wal.Close()
			os.Remove(path)
		}
	}
}

// load streams n forward events of gen into the cluster in batches.
func load(c *cluster.Client, gen *dataset.Generator, n, batch int) error {
	for n > 0 {
		b := batch
		if b > n {
			b = n
		}
		if err := c.ApplyBatch(gen.Next(b)); err != nil {
			return fmt.Errorf("load edges: %w", err)
		}
		n -= b
	}
	return nil
}

// pushFeatures gives every one of the first n vertices of type vt a learnable
// dim-wide feature row and a class label, through the client.
func pushFeatures(c *cluster.Client, vt graph.VertexType, n, dim, classes int, seed int64) ([]graph.VertexID, error) {
	staging := kvstore.New()
	dataset.AssignFeatures(staging, vt, uint64(n), dim, classes, 2.0, seed)
	ids := make([]graph.VertexID, n)
	for i := range ids {
		ids[i] = graph.MakeVertexID(vt, uint64(i))
	}
	const chunk = 4096
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		part := ids[lo:hi]
		if err := c.SetFeatures(part, dim, staging.GatherFeatures(part, dim), staging.GatherLabels(part)); err != nil {
			return nil, fmt.Errorf("push features: %w", err)
		}
	}
	return ids, nil
}

// scaled returns spec shrunk so that its generator emits about events
// forward events in total.
func scaled(spec *dataset.Spec, events int) *dataset.Spec {
	return spec.Scale(float64(events) / float64(spec.TotalEvents()))
}

// until runs step until d has passed.
func until(d time.Duration, step func()) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		step()
	}
}
