package serve

import (
	"context"
	"fmt"
	"time"

	"platod2gl/internal/cluster"
	"platod2gl/internal/graph"
	"platod2gl/internal/view"
)

// ChangeSource reports one coarse digest per logical shard. The refresher
// treats any digest change as "everything in that shard may have moved" —
// deliberately coarse, because the digests are O(1) to serve (the cluster
// maintains them incrementally for anti-entropy) while per-vertex change
// tracking would need a new write-path feed. Implementations must return
// the same slice length on every call.
type ChangeSource interface {
	Digests(ctx context.Context) ([]uint64, error)
}

// ChangeFunc adapts a closure (the local backend's single-shard digest).
type ChangeFunc func(ctx context.Context) ([]uint64, error)

// Digests implements ChangeSource.
func (f ChangeFunc) Digests(ctx context.Context) ([]uint64, error) { return f(ctx) }

// ClusterChanges polls every shard's anti-entropy digest through the
// fan-out client. Polls ride the background admission class by way of the
// ShardDigest method's own priority, so a busy cluster sheds them first.
type ClusterChanges struct {
	Client *cluster.Client
}

// Digests implements ChangeSource: Topology ⊕ Attrs per shard, so both
// edge and feature mutations surface.
func (c ClusterChanges) Digests(ctx context.Context) ([]uint64, error) {
	n := c.Client.NumShards()
	out := make([]uint64, n)
	for s := 0; s < n; s++ {
		rep, err := c.Client.ShardDigestCtx(ctx, s)
		if err != nil {
			return nil, fmt.Errorf("serve: digest shard %d: %w", s, err)
		}
		out[s] = rep.Topology ^ rep.Attrs
	}
	return out, nil
}

// RefreshConfig wires a Refresher.
type RefreshConfig struct {
	Engine *Engine
	Source ChangeSource
	// View routes the refresher's sampling and feature pulls; pass a
	// background-priority view (view.Cluster.Background) so index
	// maintenance yields to live queries. Nil uses the engine's view.
	View view.GraphView
	// Interval between digest polls (default 2s).
	Interval time.Duration
	// Batch bounds vertices per re-embed call (default 128).
	Batch int
	// Metrics receives refresh counters and lag. nil: a private instance.
	Metrics *Metrics
}

// Refresher closes the dynamic loop: it polls shard digests, marks every
// indexed-or-current vertex of a changed shard dirty, and re-embeds the
// dirty set in background batches — bounding how stale the ANN index can
// drift from the live graph. It also retires vertices that left the graph:
// an indexed ID no longer among the changed shard's sources is deleted.
type Refresher struct {
	engine   *Engine
	src      ChangeSource
	view     view.GraphView
	interval time.Duration
	batch    int
	metrics  *Metrics

	lastSeen []uint64
	primed   bool
	dirty    map[graph.VertexID]time.Time
}

// NewRefresher validates and wires the refresher. It does not start it;
// call Run.
func NewRefresher(cfg RefreshConfig) (*Refresher, error) {
	if cfg.Engine == nil || cfg.Source == nil {
		return nil, fmt.Errorf("serve: RefreshConfig needs Engine and Source")
	}
	v := cfg.View
	if v == nil {
		v = cfg.Engine.view
	}
	interval := cfg.Interval
	if interval <= 0 {
		interval = 2 * time.Second
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = 128
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &Metrics{}
	}
	return &Refresher{
		engine: cfg.Engine, src: cfg.Source, view: v,
		interval: interval, batch: batch, metrics: cfg.Metrics,
		dirty: make(map[graph.VertexID]time.Time),
	}, nil
}

// Run polls until ctx is done. The first poll only records the baseline
// digests: the index is assumed freshly warmed, so pre-existing state is
// not treated as churn.
func (r *Refresher) Run(ctx context.Context) {
	tick := time.NewTicker(r.interval)
	defer tick.Stop()
	r.poll(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			r.poll(ctx)
		}
	}
}

// poll runs one detect-and-repair round.
func (r *Refresher) poll(ctx context.Context) {
	digests, err := r.src.Digests(ctx)
	if err != nil {
		if ctx.Err() == nil {
			r.metrics.RefreshErrors.Inc()
		}
		return
	}
	r.metrics.RefreshPolls.Inc()
	if !r.primed || len(digests) != len(r.lastSeen) {
		r.lastSeen = digests
		r.primed = true
		return
	}
	changed := make([]int, 0, len(digests))
	for s := range digests {
		if digests[s] != r.lastSeen[s] {
			changed = append(changed, s)
		}
	}
	r.lastSeen = digests
	if len(changed) > 0 {
		if err := r.mark(changed, len(digests)); err != nil {
			r.metrics.RefreshErrors.Inc()
		}
	}
	r.metrics.EmbeddingsStale.Set(int64(len(r.dirty)))
	if len(r.dirty) > 0 {
		r.sweep(ctx)
		r.metrics.EmbeddingsStale.Set(int64(len(r.dirty)))
	}
}

// mark turns a changed shard into dirty vertices: every current source of
// the serving relation hashing into the shard is (re)marked, and indexed
// vertices that vanished from the shard's source set are deleted.
func (r *Refresher) mark(changed []int, numShards int) error {
	srcs, err := r.view.Sources(r.engine.rel)
	if err != nil {
		return fmt.Errorf("serve: refresh sources: %w", err)
	}
	changedSet := make(map[int]bool, len(changed))
	for _, s := range changed {
		changedSet[s] = true
	}
	now := time.Now()
	current := make(map[graph.VertexID]bool)
	for _, id := range srcs {
		if !changedSet[cluster.ShardOf(id, numShards)] {
			continue
		}
		current[id] = true
		if _, already := r.dirty[id]; !already {
			r.dirty[id] = now
		}
	}
	var gone []uint64
	r.engine.index.ForEach(func(raw uint64, _ []float32) bool {
		id := graph.VertexID(raw)
		if changedSet[cluster.ShardOf(id, numShards)] && !current[id] {
			gone = append(gone, raw)
		}
		return true
	})
	for _, raw := range gone {
		r.engine.index.Delete(raw)
		delete(r.dirty, graph.VertexID(raw))
	}
	return nil
}

// sweep re-embeds the dirty set in batches, observing per-vertex lag. A
// failed batch stays dirty and is retried next round.
func (r *Refresher) sweep(ctx context.Context) {
	ids := make([]graph.VertexID, 0, len(r.dirty))
	for id := range r.dirty {
		ids = append(ids, id)
	}
	for lo := 0; lo < len(ids); lo += r.batch {
		hi := lo + r.batch
		if hi > len(ids) {
			hi = len(ids)
		}
		batch := ids[lo:hi]
		if err := r.engine.IndexVertices(ctx, r.view, batch); err != nil {
			if ctx.Err() == nil {
				r.metrics.RefreshErrors.Inc()
			}
			return
		}
		now := time.Now()
		for _, id := range batch {
			r.metrics.RefreshLag.Observe(now.Sub(r.dirty[id]).Nanoseconds())
			r.metrics.Refreshed.Inc()
			delete(r.dirty, id)
		}
	}
}
