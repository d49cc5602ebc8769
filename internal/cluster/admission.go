// Overload protection for the cluster tier: priority classes carried in the
// wire request envelope, a server-side admission gate with weighted
// per-priority concurrency limits and bounded queues, typed shed errors that
// clients treat as backpressure rather than failure. Together these keep
// interactive sampling latency bounded when offered load exceeds capacity:
// background traffic (migration copy, WAL catch-up, scrub) yields first,
// then prefetch, and only then are interactive requests shed — with a
// retry-after hint so the retrying client neither hammers the server nor
// trips its circuit breaker on a peer that is healthy but busy.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"platod2gl/internal/wire"
)

// Priority classifies a request for admission control. Lower value = more
// latency-sensitive. On the wire the envelope carries priority+1 so that 0
// can mean "use the method's default class".
type Priority uint8

const (
	// PriorityInteractive is latency-sensitive read traffic: sampling,
	// degrees, feature lookups — the requests a training step or an online
	// inference blocks on.
	PriorityInteractive Priority = 0
	// PriorityPrefetch is training prefetch and bulk ingest: ApplyBatch,
	// SetFeatures, and pipeline-tagged sampling that runs ahead of the
	// consumer and can absorb delay.
	PriorityPrefetch Priority = 1
	// PriorityBackground is cluster maintenance: migration copies, WAL
	// catch-up, scrub digests, shard control-plane operations.
	PriorityBackground Priority = 2

	numPriorities = 3
)

// String returns the stable label used in metrics and error messages.
func (p Priority) String() string {
	switch p {
	case PriorityInteractive:
		return "interactive"
	case PriorityPrefetch:
		return "prefetch"
	case PriorityBackground:
		return "background"
	}
	return "unknown"
}

// priorityNames is the label set used to pre-seed per-priority metric
// families.
var priorityNames = []string{"interactive", "prefetch", "background"}

type priorityCtxKey struct{}

// WithPriority tags ctx with an explicit priority class. Calls made under
// the returned context carry the class in the request envelope instead of
// the method's default — the prefetch pipeline uses this to demote its
// sampling traffic below interactive callers of the very same RPCs.
func WithPriority(ctx context.Context, p Priority) context.Context {
	return context.WithValue(ctx, priorityCtxKey{}, p)
}

// PriorityFromContext extracts a priority set by WithPriority.
func PriorityFromContext(ctx context.Context) (Priority, bool) {
	p, ok := ctx.Value(priorityCtxKey{}).(Priority)
	return p, ok
}

// overloaded is the admission gate shedding a request: the server is
// healthy but saturated, and the client should back off for retryAfter
// before retrying, against this peer or a sibling replica. Its own kind
// keeps it apart from transport failure, so circuit breakers never open on
// load.
func overloaded(method string, pri Priority, retryAfter time.Duration) *ServerError {
	return &ServerError{Kind: KindOverloaded, RetryAfter: retryAfter,
		Msg: fmt.Sprintf("cluster: overloaded: %s (%s): retry after %dms", method, pri, retryAfter.Milliseconds())}
}

// IsOverloaded reports whether err is a shed response.
func IsOverloaded(err error) bool { return isKind(err, KindOverloaded) }

// OverloadRetryAfter returns the server's retry-after hint from a shed
// response, or 0 when err is not one.
func OverloadRetryAfter(err error) time.Duration {
	var se *ServerError
	if errors.As(err, &se) && se.Kind == KindOverloaded {
		return se.RetryAfter
	}
	return 0
}

// AdmissionConfig tunes the server-side admission gate.
type AdmissionConfig struct {
	// MaxConcurrent is the total number of in-flight handler slots.
	// Interactive requests may use all of them; prefetch is capped at 3/4
	// and background at 1/4, so maintenance traffic yields as soon as the
	// server is a quarter busy. <= 0 disables the gate entirely.
	MaxConcurrent int
	// MaxQueue bounds each priority class's admission queue; a request
	// arriving at a full queue is shed immediately. <= 0 defaults to
	// 2*MaxConcurrent.
	MaxQueue int
	// MaxQueueWait bounds how long a request may wait for a slot before
	// being shed (further capped by the request's own remaining budget).
	// <= 0 defaults to 100ms.
	MaxQueueWait time.Duration
}

// DefaultAdmission is the gate every NewServer starts with: generous enough
// that lightly loaded servers never queue, tight enough that a storm cannot
// run the handler count unbounded.
func DefaultAdmission() AdmissionConfig {
	return AdmissionConfig{MaxConcurrent: 256, MaxQueue: 512, MaxQueueWait: 100 * time.Millisecond}
}

const (
	minRetryAfter = 5 * time.Millisecond
	maxRetryAfter = time.Second
)

// admitWaiter is one queued request parked until a slot frees or its wait
// budget expires.
type admitWaiter struct {
	enqueued time.Time
	done     chan struct{} // closed when admitted
	admitted bool          // guarded by the gate mutex
}

// admissionGate is the server's per-priority admission controller. All
// state is under one short-held mutex: admission decisions are a few
// comparisons, and the queues are bounded.
type admissionGate struct {
	cfg      AdmissionConfig
	caps     [numPriorities]int
	maxQueue int
	maxWait  time.Duration
	m        *Metrics

	mu       sync.Mutex
	inflight int
	queues   [numPriorities][]*admitWaiter
	svcTime  map[string]time.Duration // per-method EWMA of handler time
}

// newAdmissionGate builds a gate, or returns nil (gate disabled) when
// MaxConcurrent <= 0.
func newAdmissionGate(cfg AdmissionConfig, m *Metrics) *admissionGate {
	if cfg.MaxConcurrent <= 0 {
		return nil
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 2 * cfg.MaxConcurrent
	}
	if cfg.MaxQueueWait <= 0 {
		cfg.MaxQueueWait = 100 * time.Millisecond
	}
	g := &admissionGate{cfg: cfg, maxQueue: cfg.MaxQueue, maxWait: cfg.MaxQueueWait,
		m: m, svcTime: make(map[string]time.Duration)}
	n := cfg.MaxConcurrent
	g.caps[PriorityInteractive] = n
	g.caps[PriorityPrefetch] = max(1, n*3/4)
	g.caps[PriorityBackground] = max(1, n/4)
	return g
}

// acquire admits, queues, fast-rejects, or sheds one request. A nil error
// means the request holds a handler slot and must release() it.
func (g *admissionGate) acquire(method string, pri Priority, budget time.Duration) error {
	if g == nil {
		return nil
	}
	if pri >= numPriorities {
		pri = PriorityBackground
	}
	g.mu.Lock()
	// Fast-reject: if the caller's remaining budget is already below this
	// method's observed service time, the reply would arrive after the
	// caller gave up — shed now, before burning a slot on dead work.
	if budget > 0 {
		if est := g.svcTime[method]; est > 0 && budget < est {
			g.mu.Unlock()
			g.m.DeadlineExpired.Inc()
			return &ServerError{Kind: KindBudgetExpired, Msg: fmt.Sprintf("cluster: deadline: %s budget %dms below observed service time %dms",
				method, budget.Milliseconds(), est.Milliseconds())}
		}
	}
	// Immediate admission: a free slot under this class's cap and nobody of
	// the same class already waiting (FIFO within a class; strict priority
	// across classes is enforced at release time).
	if g.inflight < g.caps[pri] && len(g.queues[pri]) == 0 {
		g.inflight++
		g.mu.Unlock()
		g.m.observeAdmissionWait(pri, 0)
		return nil
	}
	if len(g.queues[pri]) >= g.maxQueue {
		ra := g.retryAfterLocked(method)
		g.mu.Unlock()
		g.m.incShed(method, pri)
		return overloaded(method, pri, ra)
	}
	w := &admitWaiter{enqueued: time.Now(), done: make(chan struct{})}
	g.queues[pri] = append(g.queues[pri], w)
	g.m.setQueueDepth(pri, int64(len(g.queues[pri])))
	g.mu.Unlock()

	wait := g.maxWait
	if budget > 0 && budget < wait {
		wait = budget
	}
	tm := time.NewTimer(wait)
	defer tm.Stop()
	select {
	case <-w.done:
		g.m.observeAdmissionWait(pri, time.Since(w.enqueued))
		return nil
	case <-tm.C:
		g.mu.Lock()
		if w.admitted {
			// Lost the race: a release admitted us as the timer fired. Keep
			// the slot rather than leak it.
			g.mu.Unlock()
			g.m.observeAdmissionWait(pri, time.Since(w.enqueued))
			return nil
		}
		q := g.queues[pri]
		for i, qw := range q {
			if qw == w {
				g.queues[pri] = append(q[:i], q[i+1:]...)
				break
			}
		}
		g.m.setQueueDepth(pri, int64(len(g.queues[pri])))
		ra := g.retryAfterLocked(method)
		g.mu.Unlock()
		g.m.incShed(method, pri)
		return overloaded(method, pri, ra)
	}
}

// release returns a slot, folds the observed service time into the
// per-method EWMA, and promotes queued waiters in strict priority order.
func (g *admissionGate) release(method string, start time.Time) {
	if g == nil {
		return
	}
	elapsed := time.Since(start)
	g.mu.Lock()
	if old := g.svcTime[method]; old == 0 {
		g.svcTime[method] = elapsed
	} else {
		// EWMA with alpha 1/4: responsive to load shifts, stable under noise.
		g.svcTime[method] = old + (elapsed-old)/4
	}
	g.inflight--
	for pri := Priority(0); pri < numPriorities; pri++ {
		for len(g.queues[pri]) > 0 && g.inflight < g.caps[pri] {
			w := g.queues[pri][0]
			g.queues[pri] = g.queues[pri][1:]
			g.inflight++
			w.admitted = true
			close(w.done)
		}
		g.m.setQueueDepth(pri, int64(len(g.queues[pri])))
	}
	g.mu.Unlock()
}

// retryAfterLocked scales the hint with queue pressure: roughly "how long
// until the backlog ahead of you drains at the observed service rate",
// clamped to keep clients neither hammering nor stalling.
func (g *admissionGate) retryAfterLocked(method string) time.Duration {
	base := g.svcTime[method]
	if base <= 0 {
		base = minRetryAfter
	}
	queued := 0
	for i := range g.queues {
		queued += len(g.queues[i])
	}
	ra := time.Duration(float64(base) * float64(g.inflight+queued+1) / float64(g.cfg.MaxConcurrent))
	if ra < minRetryAfter {
		ra = minRetryAfter
	}
	if ra > maxRetryAfter {
		ra = maxRetryAfter
	}
	return ra
}

// replyBudgetBytes is the most bytes of Features and SampleNeighbors
// replies one server builds and holds at once. It is the largest reply one
// request may ask for, wire.MaxFrame, so any admissible request can run
// alone, but the admission gate's handler slots no longer let a few small
// request frames make the server build GiBs of replies.
const replyBudgetBytes = wire.MaxFrame

// replyBudget is a server's reply byte budget. handleWireFrame reserves a
// reply's size before the handler builds it, and the connection loop
// releases it once the reply's frame is written.
type replyBudget struct {
	free atomic.Int64
}

func newReplyBudget(n int64) *replyBudget {
	b := &replyBudget{}
	b.free.Store(n)
	return b
}

// reserve takes n bytes and reports true, or reports false when fewer are
// free.
func (b *replyBudget) reserve(n int64) bool {
	for {
		f := b.free.Load()
		if n > f {
			return false
		}
		if b.free.CompareAndSwap(f, f-n) {
			return true
		}
	}
}

// release returns n reserved bytes.
func (b *replyBudget) release(n int64) { b.free.Add(n) }

// replySized is implemented by the arguments of the calls whose reply the
// server builds at a size the request picks: replyBytes is that size (more
// than wire.MaxFrame makes handleWireFrame refuse the request), or 0 for a
// request the handler refuses itself.
type replySized interface {
	replyBytes() uint64
}

// replyBytes is a Features reply's frame size.
func (a *FeatureArgs) replyBytes() uint64 {
	if a.Dim < 0 {
		return 0 // refused by the handler
	}
	return featureReplySize(len(a.Nodes), a.Dim, a.WithLabels)
}

// replyBytes is a SampleNeighbors reply's in-memory size, 8 bytes per id.
func (a *SampleArgs) replyBytes() uint64 {
	if a.Fanout < 0 {
		return 0 // refused by the handler
	}
	if len(a.Seeds) > 0 && a.Fanout > wire.MaxFrame/8/len(a.Seeds) {
		return math.MaxUint64
	}
	return 8 * uint64(len(a.Seeds)) * uint64(a.Fanout)
}
