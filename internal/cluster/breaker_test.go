package cluster

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"platod2gl/internal/faultinject"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/storage"
)

// slowStatsStore delays every Stats RPC by the current value of delay: a
// healthy peer that is merely slow.
type slowStatsStore struct {
	storage.TopologyStore
	delay *atomic.Int64 // nanoseconds
}

func (s slowStatsStore) NumEdges() int64 {
	time.Sleep(time.Duration(s.delay.Load()))
	return s.TopologyStore.NumEdges()
}

// slowPeerClient returns a one-peer client over in-memory pipes to a server
// whose Stats takes delay. Admission control is off, so the server never
// fast-rejects a short budget and every short call really times out.
func slowPeerClient(t *testing.T, opts Options, delay *atomic.Int64) *Client {
	t.Helper()
	store := slowStatsStore{storage.NewDynamicStore(storage.Options{}), delay}
	srv := NewServer(NewService(store, kvstore.New()))
	srv.SetAdmission(AdmissionConfig{})
	dial := Dialer(func() (net.Conn, error) {
		cc, sc := net.Pipe()
		go srv.ServeConn(sc)
		return cc, nil
	})
	c := NewClientOptions(nil, []Dialer{dial}, opts)
	t.Cleanup(func() { c.Close() })
	return c
}

// statsWithin issues one Stats call whose caller budget is d.
func statsWithin(c *Client, d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	_, err := c.StatsCtx(ctx)
	return err
}

// TestBudgetClippedTimeoutKeepsBreakerClosed: calls whose per-attempt
// timeout was clipped to a short caller budget time out against a slow but
// healthy peer. The caller's budget expired, not the peer, so however many
// of them there are the breaker stays closed and the peer stays usable.
func TestBudgetClippedTimeoutKeepsBreakerClosed(t *testing.T) {
	var delay atomic.Int64
	delay.Store(int64(300 * time.Millisecond))
	opts := Options{CallTimeout: time.Second, BreakerThreshold: 3, BreakerCooldown: time.Minute, Seed: 1}
	c := slowPeerClient(t, opts, &delay)
	for i := 0; i < opts.BreakerThreshold+2; i++ {
		if err := statsWithin(c, 20*time.Millisecond); err == nil {
			t.Fatalf("call %d finished inside a 20ms budget against a 300ms peer", i)
		}
	}
	if h := c.Health()[0]; h.Breaker != "closed" || h.Failures != 0 {
		t.Fatalf("health after budget-clipped timeouts = %+v, want a closed breaker with no failures", h)
	}
	if n := c.Metrics().BreakerOpens.Load(); n != 0 {
		t.Fatalf("budget-clipped timeouts opened the breaker %d times", n)
	}
	delay.Store(0)
	if _, err := c.Stats(); err != nil {
		t.Fatalf("healthy peer unusable after budget-clipped timeouts: %v", err)
	}
}

// TestBlackholedPeerStillOpensBreaker: a timeout at the full CallTimeout is
// still peer ill-health, even when the caller's budget is far longer.
func TestBlackholedPeerStillOpensBreaker(t *testing.T) {
	inj := faultinject.New(5, faultinject.Config{})
	opts := Options{CallTimeout: 50 * time.Millisecond, BreakerThreshold: 3, BreakerCooldown: time.Minute, Seed: 1}
	lc := NewLocalClusterOptions(1, LocalOptions{
		Client: opts,
		StoreFactory: func(int) (storage.TopologyStore, *kvstore.Store) {
			return storage.NewDynamicStore(storage.Options{}), kvstore.New()
		},
		WrapConn: func(_ int, c net.Conn) net.Conn { return inj.WrapConn(c) },
	})
	defer lc.Shutdown()
	c := lc.Client()
	if err := c.ApplyBatch([]graph.Event{{Kind: graph.AddEdge, Edge: graph.Edge{Src: 1, Dst: 2, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	inj.Partition(false, true) // outbound blackhole
	for i := 0; i < opts.BreakerThreshold; i++ {
		if err := statsWithin(c, 5*time.Second); err == nil {
			t.Fatalf("call %d succeeded through a blackhole", i)
		}
	}
	if h := c.Health()[0]; h.Breaker != "open" {
		t.Fatalf("breaker = %q after %d full-timeout failures, want open", h.Breaker, opts.BreakerThreshold)
	}
	if err := statsWithin(c, 5*time.Second); !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("call against an open breaker = %v, want ErrPeerUnavailable", err)
	}
}

// TestInconclusiveProbeDoesNotWedgeBreaker: when the half-open probe is a
// budget-clipped call that times out, the probe is handed back — the breaker
// returns to open with its original trip time, so the very next call is
// admitted as a fresh probe rather than rejected for another cooldown or,
// worse, forever as "probe in flight".
func TestInconclusiveProbeDoesNotWedgeBreaker(t *testing.T) {
	var delay atomic.Int64
	delay.Store(int64(200 * time.Millisecond))
	opts := Options{CallTimeout: 50 * time.Millisecond, BreakerThreshold: 1, BreakerCooldown: 30 * time.Millisecond, Seed: 1}
	c := slowPeerClient(t, opts, &delay)
	if _, err := c.Stats(); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("full-timeout call = %v, want ErrCallTimeout", err)
	}
	if h := c.Health()[0]; h.Breaker != "open" {
		t.Fatalf("breaker = %q after a full-timeout failure, want open", h.Breaker)
	}
	time.Sleep(opts.BreakerCooldown + 20*time.Millisecond)
	if err := statsWithin(c, 10*time.Millisecond); err == nil {
		t.Fatal("probe finished inside a 10ms budget against a 200ms peer")
	}
	if h := c.Health()[0]; h.Breaker != "open" {
		t.Fatalf("breaker = %q after an inconclusive probe, want open", h.Breaker)
	}
	delay.Store(0)
	if _, err := c.Stats(); err != nil {
		t.Fatalf("next call after an inconclusive probe = %v, want a fresh probe that closes the breaker", err)
	}
	if h := c.Health()[0]; h.Breaker != "closed" {
		t.Fatalf("breaker = %q after a successful probe, want closed", h.Breaker)
	}
}

// localClient builds an in-process cluster of n empty servers.
func localClient(t *testing.T, n int, opts Options) (*LocalCluster, *Client) {
	t.Helper()
	lc := NewLocalClusterOptions(n, LocalOptions{
		Client: opts,
		StoreFactory: func(int) (storage.TopologyStore, *kvstore.Store) {
			return storage.NewDynamicStore(storage.Options{}), kvstore.New()
		},
	})
	t.Cleanup(lc.Shutdown)
	return lc, lc.Client()
}

// TestCallWaitsOutBreakerCooldown: with R = 1 no replica can take a call an
// open breaker rejects, so the call waits out the cooldown and its next
// attempt is the probe. A shard back inside the cooldown is reached by a
// call started while the breaker was open, although the call's whole
// backoff schedule is far shorter than the cooldown.
func TestCallWaitsOutBreakerCooldown(t *testing.T) {
	opts := Options{CallTimeout: time.Second, MaxRetries: 4, RetryBaseDelay: time.Millisecond, RetryMaxDelay: 5 * time.Millisecond,
		BreakerThreshold: 2, BreakerCooldown: 200 * time.Millisecond, Seed: 1}
	lc, c := localClient(t, 1, opts)
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	lc.StopShard(0)
	// The short budget ends the call once the breaker is open, before the
	// cooldown wait.
	if err := statsWithin(c, 50*time.Millisecond); err == nil {
		t.Fatal("call reached a stopped shard")
	}
	if h := c.Health()[0]; h.Breaker != "open" {
		t.Fatalf("breaker = %q after the shard stopped, want open", h.Breaker)
	}
	lc.RestartShard(0)
	if _, err := c.Stats(); err != nil {
		t.Fatalf("call started with the breaker open = %v, want success once the cooldown passed", err)
	}
	if h := c.Health()[0]; h.Breaker != "closed" {
		t.Fatalf("breaker = %q after the probe succeeded, want closed", h.Breaker)
	}
}

// TestReadFailsOverPastOpenBreaker: with R = 2 a read never waits on one
// replica's open breaker. Every read, whichever replica the rotation starts
// at, returns from the live sibling in far less than the cooldown and far
// less than the backoff a retry against the open breaker would cost.
func TestReadFailsOverPastOpenBreaker(t *testing.T) {
	opts := Options{CallTimeout: time.Second, MaxRetries: 4, RetryBaseDelay: 100 * time.Millisecond, RetryMaxDelay: time.Second,
		BreakerThreshold: 1, BreakerCooldown: 10 * time.Second, Replicas: 2, Seed: 1}
	lc, c := localClient(t, 2, opts)
	if err := c.ApplyBatch([]graph.Event{{Kind: graph.AddEdge, Edge: graph.Edge{Src: 1, Dst: 2, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	lc.StopShard(0)
	for i := 0; c.Health()[0].Breaker != "open"; i++ {
		if i == 4 {
			t.Fatal("replica 0's breaker never opened")
		}
		if _, err := c.Degree([]graph.VertexID{1}, 0); err != nil {
			t.Fatalf("read with one replica down: %v", err)
		}
	}
	failovers := c.Metrics().ReadFailovers.Load()
	for i := 0; i < 4; i++ {
		start := time.Now()
		deg, err := c.Degree([]graph.VertexID{1}, 0)
		if err != nil || deg[0] != 1 {
			t.Fatalf("read %d = %v, %v; want degree 1 from the live replica", i, deg, err)
		}
		if d := time.Since(start); d > 50*time.Millisecond {
			t.Fatalf("read %d took %s with one replica's breaker open", i, d)
		}
	}
	if got := c.Metrics().ReadFailovers.Load() - failovers; got != 2 {
		t.Fatalf("failovers = %d over 4 rotating reads, want 2 (one per read that started at the open replica)", got)
	}
}
