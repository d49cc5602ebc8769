// Fault-tolerant call path for the cluster client: per-call timeouts on top
// of the pooled wire transport, exponential backoff with jitter, bounded
// retries for idempotent calls, and automatic redial of dead peers through a
// pluggable Dialer. The paper's deployment (54 storage servers under
// continuous training traffic, Sec. VI) makes slow or crashed shards an
// expected condition, not an exception: without this layer one wedged shard
// stalls every training step forever.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrCallTimeout is returned when a single RPC attempt exceeds
// Options.CallTimeout. The underlying connection is torn down (the reply
// could arrive arbitrarily late and must not be mistaken for a later
// call's), so the next attempt redials.
var ErrCallTimeout = errors.New("cluster: rpc call timed out")

// Dialer establishes a transport to one graph server. The client invokes it
// on first use and again whenever the previous connection died, so it must
// be safe to call repeatedly.
type Dialer func() (net.Conn, error)

// TCPDialer returns a Dialer for addr with a connect timeout.
func TCPDialer(addr string, timeout time.Duration) Dialer {
	return func() (net.Conn, error) {
		if timeout <= 0 {
			return net.Dial("tcp", addr)
		}
		return net.DialTimeout("tcp", addr, timeout)
	}
}

// dialAddr builds the Dialer for a server address from a configured
// factory (in-process clusters, tests), or over TCP with a connect timeout
// when there is none.
func dialAddr(factory func(addr string) Dialer, addr string, timeout time.Duration) Dialer {
	if factory != nil {
		return factory(addr)
	}
	return TCPDialer(addr, timeout)
}

// Options tune the client's fault-tolerance behavior. The zero value means
// "legacy": no timeouts, no retries, no breaker, fail the whole fan-out on
// the first shard error — exactly the pre-fault-tolerance client.
// DefaultOptions is the production starting point.
type Options struct {
	// CallTimeout bounds each RPC attempt. 0 disables (not recommended:
	// a partitioned peer then blocks forever).
	CallTimeout time.Duration
	// MaxRetries is the number of additional attempts after the first, for
	// idempotent calls (SampleNeighbors, Degree, Features, Stats,
	// SetFeatures) and for ApplyBatch, whose at-most-once batch sequence
	// numbers make retries safe. 0 disables retries.
	MaxRetries int
	// RetryBaseDelay scales the backoff before the first retry; the
	// exponential ceiling doubles per retry up to RetryMaxDelay, and each
	// delay is drawn uniformly from [0, ceiling) — "full jitter", which
	// decorrelates the retry times of the many clients that all failed at
	// the same instant (a partition heal, a server restart) instead of
	// having them re-arrive in synchronized waves.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// BreakerThreshold consecutive transport failures open a peer's circuit
	// breaker; while open, calls to that peer fail fast. <= 0 disables.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects calls before
	// letting a probe through.
	BreakerCooldown time.Duration
	// Degraded enables graceful degradation for sampling fan-outs: if a
	// shard is down, SampleNeighbors fills its slots with the seed itself
	// (the protocol's existing fallback for unknown vertices) and counts
	// the shard in Metrics.DegradedShards instead of failing the whole
	// batch.
	// With replica groups, degradation only engages after every replica of
	// a shard has failed — a single replica loss is absorbed by failover
	// and never degrades results.
	Degraded bool
	// Replicas is the replica-group size R. The peer list is grouped
	// consecutively: logical shard s owns peers [s*R, (s+1)*R). Writes fan
	// out to every replica of the owning shard (converging through the
	// at-most-once batch identity); reads rotate across live replicas and
	// fail over on timeout, circuit-open, or a replica that is still
	// catching up. 0 or 1 means unreplicated (every peer is its own shard).
	Replicas int
	// DialServer, if set, builds the transport to a server address when the
	// client meets one it has no dialer for — which happens when an adopted
	// shard map (see shardmap.go) lists a server that joined after the
	// client dialed. Defaults to TCP with CallTimeout as the connect
	// timeout; in-process clusters plug their pipe factory in here.
	DialServer func(addr string) Dialer
	// Protocol is ignored: every connection speaks the binary wire protocol.
	//
	// Deprecated: leave unset.
	Protocol Protocol
	// Metrics, if set, receives fault-tolerance counters (attempts,
	// timeouts, retries, breaker opens, failovers, catch-up traffic). May
	// be shared with a Service and registered in an obs.Registry. nil: a
	// private instance (Client.Metrics).
	Metrics *Metrics
	// Seed seeds the retry-jitter RNG and the client's dedup identity.
	// 0 draws an unpredictable seed.
	Seed int64
}

// DefaultOptions are sane production defaults: 2s per-attempt timeout,
// 4 retries starting at 25ms backoff, breaker at 5 failures / 1s cooldown.
func DefaultOptions() Options {
	return Options{
		CallTimeout:      2 * time.Second,
		MaxRetries:       4,
		RetryBaseDelay:   25 * time.Millisecond,
		RetryMaxDelay:    time.Second,
		BreakerThreshold: 5,
		BreakerCooldown:  time.Second,
	}
}

// peer is one replica endpoint: its current RPC connection (if any), the
// dialer that can replace it, its circuit breaker, and the client-side
// staleness tracking that keeps a replica which missed one of our writes
// out of the read rotation until it has demonstrably re-synced.
type peer struct {
	idx     int    // global peer index
	replica int    // position within the replica group
	addr    string // advertised server address; "" for conn-only legacy peers
	dial    Dialer // nil: no redial — a dead connection stays dead (legacy mode)
	br      *breaker

	// stale is set when a write fan-out could not reach this replica while
	// a sibling acknowledged it: the replica may be missing data, so reads
	// skip it. staleEpoch records the replica's sync epoch observed at (or
	// nearest after) the miss; the peer re-enters the rotation only when a
	// SyncState probe reports Ready with a different epoch — i.e. it
	// completed a catch-up — or, when no epoch could be observed (the
	// typical crashed-replica case), with any ready state, since a
	// replicated server always catches up before declaring itself ready.
	stale      atomic.Bool
	staleEpoch atomic.Uint64
	lastProbe  atomic.Int64 // unix nanos of the last stale probe, rate-limiting

	mu sync.Mutex
	tc *wireTransport
}

// transportFor returns peer p's established transport, dialing (and
// handshaking) if necessary.
func (c *Client) transportFor(p *peer) (*wireTransport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.tc != nil {
		return p.tc, nil
	}
	if p.dial == nil {
		return nil, fmt.Errorf("cluster: peer %d: connection closed and no dialer configured", p.idx)
	}
	t, err := dialTransport(p.dial, c.opts.CallTimeout, c.metrics)
	if err != nil {
		return nil, fmt.Errorf("cluster: redial peer %d: %w", p.idx, err)
	}
	p.tc = t
	return t, nil
}

// fail discards tc if it is still the peer's current transport, closing it
// so any stuck goroutines unblock. Safe to call with an already-replaced
// transport: a concurrent call that failed on the old one must not kill the
// new one.
func (p *peer) fail(tc *wireTransport) {
	p.mu.Lock()
	if p.tc == tc {
		p.tc = nil
	}
	p.mu.Unlock()
	if tc != nil {
		tc.Close()
	}
}

// close shuts down the current transport without forgetting the dialer.
func (p *peer) close() error {
	p.mu.Lock()
	tc := p.tc
	p.tc = nil
	p.mu.Unlock()
	if tc != nil {
		return tc.Close()
	}
	return nil
}

// retryable reports whether err is worth retrying: a transport failure,
// per-call timeout, failed dial, or open circuit breaker. A server's
// refusal (ServerError) is deterministic — retrying it wastes a round trip
// — with one exception: a payload checksum rejection means the bytes were
// damaged in flight, and a retry re-sends them intact. callPeCtx retries
// sheds on its own terms.
func retryable(err error) bool {
	var se *ServerError
	if errors.As(err, &se) {
		return se.Kind == KindChecksum
	}
	return err != nil
}

// backoff returns the delay before retry attempt (1-based): full jitter,
// i.e. uniform in [0, ceiling) where the ceiling grows exponentially from
// base and caps at max. Full jitter (vs the previous fixed-multiplier
// jitter in [d/2, d)) spreads the retries of clients that failed together —
// after a partition heals, every client's first retry lands at a different
// instant instead of hammering the recovering server in lockstep.
func (c *Client) backoff(attempt int) time.Duration {
	base := c.opts.RetryBaseDelay
	if base <= 0 {
		base = time.Millisecond
	}
	d := base << (attempt - 1)
	if maxD := c.opts.RetryMaxDelay; maxD > 0 && d > maxD {
		d = maxD
	}
	c.jitterMu.Lock()
	f := c.jitter.Float64()
	c.jitterMu.Unlock()
	return time.Duration(float64(d) * f)
}

// callPeCtx performs one fault-tolerant RPC against peer pe: breaker check,
// (re)dial, per-attempt timeout, and up to maxRetries retries with backoff
// for transport failures. Transport outcomes feed the breaker; application
// errors do not (the peer is healthy, the request was bad). Replica
// fan-outs spend fewer retries on a peer already marked stale (the catch-up
// path will repair it), and probes pass 0.
//
// Deadline and priority propagate from ctx. The caller's context bounds the
// *total* elapsed time — per-attempt timeouts are clipped to the remaining
// budget, backoff sleeps never overrun the deadline, and an attempt whose
// budget is already spent fails fast before dialing — so a 500ms caller can
// never be held for MaxRetries × CallTimeout. Two outcomes never feed the
// circuit breaker: a server shed (KindOverloaded — backpressure; the retry
// delay honors its retry-after hint), and a timeout clipped short of
// CallTimeout by the caller's budget (the budget expired, which says nothing
// about the peer).
//
// failover says a sibling replica can take the call: an open breaker then
// fails the call at once. Otherwise the loop waits out the breaker's
// cooldown, so a lone peer survives an outage shorter than its retry budget.
func (c *Client) callPeCtx(ctx context.Context, pe *peer, method string, args, reply wireMessage, maxRetries int, failover bool) error {
	pri, hasPri := PriorityFromContext(ctx)
	deadline, hasDL := ctx.Deadline()
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if attempt > maxRetries {
				return lastErr
			}
			delay := c.backoff(attempt)
			if ra := OverloadRetryAfter(lastErr); ra > 0 {
				// The server told us when to come back; our jittered backoff
				// would either hammer it early or waste budget.
				delay = ra
			}
			if !failover {
				// An open breaker admits nothing before its cooldown ends, so
				// a retry sooner only burns the budget. The jitter stays on
				// top: waiters that all woke at the reopen instant would race
				// for the single probe and all but one would be rejected again.
				delay += pe.br.reopensIn(time.Now())
			}
			if hasDL && time.Until(deadline) <= delay {
				c.metrics.BudgetExhausted.Inc()
				return fmt.Errorf("cluster: %s: %w (budget spent after %d attempts, last: %v)",
					method, context.DeadlineExceeded, attempt, lastErr)
			}
			c.metrics.RPCRetries.Inc()
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				c.metrics.BudgetExhausted.Inc()
				return fmt.Errorf("cluster: %s: %w (last: %v)", method, ctx.Err(), lastErr)
			}
		}
		// Fast-fail before dialing when the budget is already exhausted: a
		// reply we cannot wait for is not worth a connection.
		var budget time.Duration
		if hasDL {
			budget = time.Until(deadline)
			if budget <= 0 {
				c.metrics.BudgetExhausted.Inc()
				if lastErr != nil {
					return fmt.Errorf("cluster: %s: %w (last: %v)", method, context.DeadlineExceeded, lastErr)
				}
				return fmt.Errorf("cluster: %s: %w", method, context.DeadlineExceeded)
			}
		}
		if err := pe.br.allow(time.Now()); err != nil {
			if failover {
				return err
			}
			// An open breaker rejects without consuming a network attempt,
			// but still honors the retry budget; the next attempt waits out
			// the cooldown and may be the probe.
			lastErr = err
			continue
		}
		c.metrics.RPCAttempts.Inc()
		attemptStart := time.Now()
		tc, err := c.transportFor(pe)
		if err != nil {
			pe.br.failure(time.Now(), err)
			lastErr = err
			continue
		}
		timeout := c.opts.CallTimeout
		if budget > 0 && (timeout <= 0 || budget < timeout) {
			timeout = budget
		}
		err = tc.Call(method, args, reply, timeout, callEnv{pri: pri, hasPri: hasPri, budget: budget})
		c.metrics.observeClientCall(method, attemptStart)
		if err == nil {
			pe.br.success()
			return nil
		}
		lastErr = err
		if errors.Is(err, ErrCallTimeout) {
			c.metrics.RPCTimeouts.Inc()
			if timeout != c.opts.CallTimeout {
				// The caller's budget ran out before the peer's CallTimeout
				// did: a slow-but-healthy peer looks exactly like this, so the
				// attempt says nothing about peer health. The transport has
				// already closed the one timed-out connection; keep the rest
				// of the pool and leave the breaker alone.
				pe.br.inconclusive()
				continue
			}
		}
		if IsOverloaded(err) {
			// Server shed: the transport and the peer are healthy, the
			// server is just full. Count it as a breaker success so load
			// can never cascade into breaker trips.
			c.metrics.ShedSeen.Inc()
			pe.br.success()
			continue
		}
		if !retryable(err) {
			pe.br.success() // the transport worked; the request was rejected
			return err
		}
		// Transport failure: drop the connection so the next attempt
		// redials, and record it against the breaker.
		pe.fail(tc)
		pe.br.failure(time.Now(), err)
	}
}

// newJitterRNG builds the retry-jitter RNG from Options.Seed, falling back
// to an unpredictable seed.
func newJitterRNG(seed int64) *rand.Rand {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return rand.New(rand.NewSource(seed))
}
