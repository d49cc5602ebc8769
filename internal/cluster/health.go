// Per-peer health tracking: a small circuit breaker in front of each graph
// server so a dead shard fails fast instead of eating a full
// timeout-and-retry cycle on every training step, plus the health snapshot
// the client exposes for operators.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrPeerUnavailable wraps failures rejected by an open circuit breaker.
var ErrPeerUnavailable = errors.New("cluster: peer unavailable (circuit open)")

// breakerState is the classic three-state circuit.
type breakerState int

const (
	breakerClosed   breakerState = iota // healthy: all calls pass
	breakerOpen                         // tripped: calls fail fast until cooldown
	breakerHalfOpen                     // probing: one call allowed through
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("breakerState(%d)", int(s))
}

// breaker is a per-peer circuit breaker. Threshold consecutive failures trip
// it open; after Cooldown it lets one probe through (half-open); the probe's
// outcome closes or re-opens it. A Threshold <= 0 disables the breaker.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	metrics   *Metrics // counts open transitions
	state     breakerState
	failures  int       // consecutive failures while closed
	openedAt  time.Time // when the circuit last tripped
	lastErr   error     // the failure that tripped it, for reporting
}

func newBreaker(threshold int, cooldown time.Duration, metrics *Metrics) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, metrics: metrics}
}

// allow reports whether a call may proceed now. When the breaker is open and
// the cooldown has elapsed it transitions to half-open and admits exactly
// one probe; concurrent callers during the probe are rejected.
func (b *breaker) allow(now time.Time) error {
	if b == nil || b.threshold <= 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return nil
	case breakerOpen:
		if now.Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			return nil // the probe
		}
		return fmt.Errorf("%w: %v", ErrPeerUnavailable, b.lastErr)
	case breakerHalfOpen:
		return fmt.Errorf("%w: probe in flight", ErrPeerUnavailable)
	}
	return nil
}

// reopensIn returns how long an open breaker will keep rejecting calls, or
// 0 when it would admit a call (or a probe) now. A half-open breaker
// reports 0: its probe may finish at any moment.
func (b *breaker) reopensIn(now time.Time) time.Duration {
	if b == nil || b.threshold <= 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerOpen {
		return 0
	}
	return max(b.cooldown-now.Sub(b.openedAt), 0)
}

// success records a completed call, closing the circuit.
func (b *breaker) success() {
	if b == nil || b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	b.state = breakerClosed
	b.failures = 0
	b.lastErr = nil
	b.mu.Unlock()
}

// failure records a transport-level failure; enough of them in a row trip
// the circuit. A failed half-open probe re-opens it immediately.
func (b *breaker) failure(now time.Time, err error) {
	if b == nil || b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lastErr = err
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.openedAt = now
		b.metrics.BreakerOpens.Inc()
	case breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = breakerOpen
			b.openedAt = now
			b.metrics.BreakerOpens.Inc()
		}
	case breakerOpen:
		// Already open (e.g. a call that started before the trip); keep the
		// original openedAt so the cooldown is not extended forever under
		// a stream of stragglers.
	}
}

// inconclusive records an attempt that ended without saying anything about
// the peer's health (the caller's budget ran out first). Closed and open
// circuits are left as they are; a half-open probe that ends this way is
// handed back — the circuit returns to open with its original openedAt, so
// the next call is admitted as a fresh probe instead of every call being
// rejected as "probe in flight" forever.
func (b *breaker) inconclusive() {
	if b == nil || b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	if b.state == breakerHalfOpen {
		b.state = breakerOpen
	}
	b.mu.Unlock()
}

// snapshot returns the current state for health reporting.
func (b *breaker) snapshot() (state breakerState, consecutiveFailures int, lastErr error) {
	if b == nil || b.threshold <= 0 {
		return breakerClosed, 0, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.failures, b.lastErr
}

// PeerHealth is one replica's view in a Client health report.
type PeerHealth struct {
	Peer      int    // global peer index
	Group     int    // Peer / R: the replica group the peer was dialed or learned in
	Replica   int    // position within the replica group
	Connected bool   // an RPC connection is currently established
	Breaker   string // "closed", "open", or "half-open"
	Failures  int    // consecutive transport failures
	Stale     bool   // missed a write; out of the read rotation pending re-sync
	LastErr   string // failure that tripped (or is accumulating on) the breaker
}

// Health reports per-replica connection, breaker, and staleness state.
func (c *Client) Health() []PeerHealth {
	peers := c.allPeers()
	out := make([]PeerHealth, len(peers))
	for i, p := range peers {
		p.mu.Lock()
		connected := p.tc != nil
		p.mu.Unlock()
		st, fails, lastErr := p.br.snapshot()
		out[i] = PeerHealth{
			Peer: i, Group: i / c.replicas, Replica: p.replica,
			Connected: connected, Breaker: st.String(), Failures: fails,
			Stale: p.stale.Load(),
		}
		if lastErr != nil {
			out[i].LastErr = lastErr.Error()
		}
	}
	return out
}
