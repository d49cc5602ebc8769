// Routing layer tests: the epoch-versioned shard map, NotOwner rejection,
// server-side push semantics, client-side re-route after a
// cutover, and the dial-time routing handshake over real TCP.
package cluster

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"platod2gl/internal/core"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/storage"
)

func TestShardOfStable(t *testing.T) {
	// The placement hash is part of the wire contract: every client and
	// server must agree, forever. Pin a few values.
	if ShardOf(0, 4) != ShardOf(0, 4) {
		t.Fatal("ShardOf not deterministic")
	}
	counts := make([]int, 8)
	for v := graph.VertexID(0); v < 10_000; v++ {
		s := ShardOf(v, 8)
		if s < 0 || s >= 8 {
			t.Fatalf("ShardOf(%d, 8) = %d out of range", v, s)
		}
		counts[s]++
	}
	for s, n := range counts {
		if n < 1000 || n > 1500 {
			t.Fatalf("shard %d holds %d of 10k sequential vertices — mixing is broken", s, n)
		}
	}
}

func TestIdentityMapAndValidate(t *testing.T) {
	m, err := IdentityMap([]string{"a", "b"}, 1, 4)
	if err != nil {
		t.Fatalf("IdentityMap: %v", err)
	}
	if m.Epoch != 1 || m.NumShards != 4 || m.NumGroups() != 2 {
		t.Fatalf("unexpected identity map: %+v", m)
	}
	for s, g := range m.Assign {
		if g != s%2 {
			t.Fatalf("Assign[%d] = %d, want %d", s, g, s%2)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	bad := m.Clone()
	bad.Epoch = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("epoch 0 must be invalid (reserved for the frozen placement)")
	}
	bad = m.Clone()
	bad.Assign[0] = 5
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range assignment must be invalid")
	}
	bad = m.Clone()
	bad.Servers = []string{"a", "a"}
	if err := bad.Validate(); err == nil {
		t.Fatal("duplicate server must be invalid")
	}
	if _, err := IdentityMap([]string{"a", "b", "c"}, 2, 4); err == nil {
		t.Fatal("3 servers with replicas=2 must be invalid")
	}
}

func TestCountBalancePlan(t *testing.T) {
	m, _ := IdentityMap([]string{"a", "b"}, 1, 6)
	if plan := CountBalancePlan(m); len(plan) != 0 {
		t.Fatalf("balanced map produced plan %v", plan)
	}
	// Grow: a third, empty group appears; the plan must move 2 shards to it.
	m.Servers = append(m.Servers, "c")
	m.Epoch++
	plan := CountBalancePlan(m)
	if len(plan) != 2 {
		t.Fatalf("grow plan = %v, want 2 moves", plan)
	}
	counts := make([]int, 3)
	for s, g := range m.Assign {
		_ = s
		counts[g]++
	}
	for _, mv := range plan {
		if mv.To != 2 {
			t.Fatalf("move %v does not target the empty group", mv)
		}
		counts[mv.From]--
		counts[mv.To]++
	}
	for g, n := range counts {
		if n != 2 {
			t.Fatalf("group %d ends with %d shards after plan, want 2", g, n)
		}
	}
}

// TestNotOwnerErrorRoundTrip: a NotOwner rejection keeps its kind and its
// text, which names the server's routing epoch, across the wire, bare and
// wrapped by a retry layer; nothing else reads as NotOwner.
func TestNotOwnerErrorRoundTrip(t *testing.T) {
	for _, err := range roundTripErrors(t, []error{notOwnerError(3, 17)}) {
		if !isKind(err, KindNotOwner) {
			t.Errorf("%v lost its not-owner kind after the wire", err)
		}
		if !strings.Contains(err.Error(), "routing epoch 17") {
			t.Errorf("%q does not name the server's routing epoch 17", err)
		}
	}
	if isKind(errors.New("cluster: not owner of shard 3 (routing epoch 17)"), KindNotOwner) {
		t.Error("an untyped error read as NotOwner by its text")
	}
	if isKind(nil, KindNotOwner) {
		t.Error("nil error read as NotOwner")
	}
}

func newTestService(t *testing.T) *Service {
	t.Helper()
	store := storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 16}})
	return NewService(store, kvstore.New())
}

func TestUpdateRoutingSemantics(t *testing.T) {
	svc := newTestService(t)
	svc.SetAdvertise("b")
	m, _ := IdentityMap([]string{"a", "b"}, 1, 4)

	var reply UpdateRoutingReply
	if err := svc.UpdateRouting(&UpdateRoutingArgs{Map: *m}, &reply); err != nil {
		t.Fatalf("install: %v", err)
	}
	if reply.Epoch != 1 {
		t.Fatalf("install epoch = %d", reply.Epoch)
	}
	got, self := svc.RoutingSnapshot()
	if got == nil || got.Epoch != 1 || self != 1 {
		t.Fatalf("snapshot = (%v, %d), want epoch 1 self 1", got, self)
	}

	// Newer epoch installs; re-push of the same or older is a no-op.
	next := m.Clone()
	next.Epoch = 3
	next.Assign[0] = 1 // migrate shard 0 onto group 1
	if err := svc.UpdateRouting(&UpdateRoutingArgs{Map: *next}, &reply); err != nil || reply.Epoch != 3 {
		t.Fatalf("newer push: %v epoch %d", err, reply.Epoch)
	}
	if err := svc.UpdateRouting(&UpdateRoutingArgs{Map: *m}, &reply); err != nil {
		t.Fatalf("stale push errored: %v", err)
	}
	if reply.Epoch != 3 {
		t.Fatalf("stale push changed epoch to %d", reply.Epoch)
	}
	if got, _ := svc.RoutingSnapshot(); got.Assign[0] != 1 {
		t.Fatal("stale push overwrote assignment")
	}

	// The hash space is fixed for the cluster's lifetime.
	resized, _ := IdentityMap([]string{"a", "b"}, 1, 8)
	resized.Epoch = 9
	if err := svc.UpdateRouting(&UpdateRoutingArgs{Map: *resized}, &reply); err == nil {
		t.Fatal("NumShards change accepted")
	}

	// Ownership checks follow the installed map; epoch 0 (a client's frozen
	// placement) is rejected even for an owned shard.
	var owned, notOwned int
	for s := 0; s < 4; s++ {
		if err := svc.checkRoute(s, 3); err == nil {
			owned++
		} else if isKind(err, KindNotOwner) {
			notOwned++
		} else {
			t.Fatalf("checkRoute(%d): %v", s, err)
		}
	}
	if owned != 3 || notOwned != 1 { // self=1 owns shards 0 (migrated), 1, 3
		t.Fatalf("owned=%d notOwned=%d, want 3/1", owned, notOwned)
	}
	const want = "cluster: not owner of shard 0 (routing epoch 3)"
	if err := svc.checkRoute(0, 0); !isKind(err, KindNotOwner) || err.Error() != want {
		t.Fatalf("epoch-0 request on a routed server: %v, want NotOwner %q", err, want)
	}
	if err := newTestService(t).checkRoute(0, 0); err != nil {
		t.Fatalf("epoch-0 request rejected by an unrouted server: %v", err)
	}
}

// TestShardExportsRejectOutOfRangeShard: the shard exports answer a shard
// id outside the map's [0, NumShards) with a range error, never an index
// panic. FetchAttrs reads shard -1 as the whole store, as DigestArgs does.
func TestShardExportsRejectOutOfRangeShard(t *testing.T) {
	svc := newTestService(t)
	svc.SetAdvertise("a")
	m, _ := IdentityMap([]string{"a"}, 1, 4)
	if err := svc.UpdateRouting(&UpdateRoutingArgs{Map: *m}, &UpdateRoutingReply{}); err != nil {
		t.Fatalf("install: %v", err)
	}
	for _, shard := range []int{-1, 4, 9} {
		errs := map[string]error{
			"FetchShardSnapshot": svc.FetchShardSnapshot(&ShardSnapshotArgs{Shard: shard}, &ShardSnapshotReply{}),
			"ParkShard":          svc.ParkShard(&ParkShardArgs{Shard: shard}, &ParkShardReply{}),
		}
		if shard >= 0 {
			errs["FetchAttrs"] = svc.FetchAttrs(&AttrsArgs{Shard: shard}, &AttrsReply{})
		}
		for name, err := range errs {
			if err == nil || !strings.Contains(err.Error(), "out of range (4 logical shards)") {
				t.Errorf("%s(shard %d) = %v, want an out-of-range error", name, shard, err)
			}
		}
	}
	// An unrouted server has no shards to park: a park there would stall
	// every frozen-placement write for the park TTL.
	unrouted := newTestService(t)
	if err := unrouted.ParkShard(&ParkShardArgs{Shard: 0}, &ParkShardReply{}); err == nil ||
		!strings.Contains(err.Error(), "no shard map") {
		t.Errorf("ParkShard on an unrouted server = %v, want a no-shard-map refusal", err)
	}
	if n := len(unrouted.parked); n != 0 {
		t.Errorf("refused park left %d gates installed", n)
	}
}

// TestClientDialedBeforeInitFollowsMap: a client built while the cluster was
// unrouted routes under its epoch-0 frozen placement. After init and a grow
// moved shards to a new server, its first write to a moved shard must fail
// with NotOwner instead of landing on the old owner; the client then holds
// the final map and its retry is visible to routed readers.
func TestClientDialedBeforeInitFollowsMap(t *testing.T) {
	const numShards = 4
	h := newMigHarness(t, 2, &Metrics{})
	defer h.lc.Shutdown()
	client := h.lc.Client()
	if client.RoutingMap() != nil {
		t.Fatal("client on an unrouted cluster reports a shard map")
	}
	d := h.driver()
	m, err := d.InitRouting([]string{LocalAddr(0), LocalAddr(1)}, 1, numShards)
	if err != nil {
		t.Fatalf("init routing: %v", err)
	}
	addr := h.lc.AddServer()
	final, moved, err := d.Grow(m, []string{addr})
	if err != nil || moved == 0 {
		t.Fatalf("grow: moved %d, %v", moved, err)
	}
	newGroup := final.GroupOf(addr)
	var srcs []graph.VertexID
	var events []graph.Event
	for v := graph.VertexID(0); len(srcs) < 20; v++ {
		if final.Assign[ShardOf(v, numShards)] == newGroup {
			srcs = append(srcs, v)
			events = append(events, graph.Event{Kind: graph.AddEdge,
				Edge: graph.Edge{Src: v, Dst: v + 1000, Type: 0, Weight: 1}})
		}
	}
	cp := append([]graph.Event(nil), events...)
	if !isKind(client.ApplyBatch(cp), KindNotOwner) {
		t.Fatal("first write after init was not rejected with NotOwner")
	}
	if rm := client.RoutingMap(); rm == nil || rm.Epoch != final.Epoch {
		t.Fatalf("client holds %v after the rejection, want epoch %d", rm, final.Epoch)
	}
	cp = append([]graph.Event(nil), events...)
	if err := client.ApplyBatch(cp); err != nil {
		t.Fatalf("retried write: %v", err)
	}
	reader := NewClientOptions(nil, []Dialer{h.lc.DialAddr(LocalAddr(0))}, Options{DialServer: h.lc.DialAddr})
	defer reader.Close()
	reader.SetPeerAddrs([]string{LocalAddr(0)})
	if err := reader.AdoptRouting(final); err != nil {
		t.Fatalf("reader adopt: %v", err)
	}
	degs, err := reader.Degree(srcs, 0)
	if err != nil {
		t.Fatalf("routed read: %v", err)
	}
	lost := 0
	for _, deg := range degs {
		if deg != 1 {
			lost++
		}
	}
	if lost != 0 {
		t.Fatalf("%d/%d written sources read degree != 1 through a routed client", lost, len(srcs))
	}
}

// TestFirstAdoptionNeverMisroutesReads: a read partitioned under the frozen
// placement must never be answered under the first adopted map, whose shard
// ids name another hash space. Reads on fresh epoch-0 clients race the
// adoption of a grown map; every read that succeeds must be exact, and every
// one that fails must be a NotOwner rejection.
func TestFirstAdoptionNeverMisroutesReads(t *testing.T) {
	const numShards, dim = 4, 2
	h := newMigHarness(t, 2, &Metrics{})
	defer h.lc.Shutdown()

	// Load under the frozen 2-way placement before routing: an identity map
	// with 4 shards over the same 2 servers keeps every source in place.
	var nodes []graph.VertexID
	var events []graph.Event
	var feats []float32
	var labels []int32
	for v := graph.VertexID(0); v < 64; v++ {
		nodes = append(nodes, v)
		for k := graph.VertexID(0); k <= v%5; k++ {
			events = append(events, graph.Event{Kind: graph.AddEdge,
				Edge: graph.Edge{Src: v, Dst: 1000 + 8*v + k, Type: 0, Weight: 1}})
		}
		feats = append(feats, float32(v), -float32(v))
		labels = append(labels, int32(v%7)+1)
	}
	loader := h.lc.Client()
	if err := loader.ApplyBatch(events); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := loader.SetFeatures(nodes, dim, feats, labels); err != nil {
		t.Fatalf("load features: %v", err)
	}
	d := h.driver()
	m, err := d.InitRouting([]string{LocalAddr(0), LocalAddr(1)}, 1, numShards)
	if err != nil {
		t.Fatalf("init routing: %v", err)
	}
	final, moved, err := d.Grow(m, []string{h.lc.AddServer()})
	if err != nil || moved == 0 {
		t.Fatalf("grow: moved %d, %v", moved, err)
	}

	// Read every vertex many times over: the long id list widens the span
	// between an operation loading its route and sending its first shard
	// call, which the adoption below lands in.
	var ids []graph.VertexID
	for i := 0; i < 300; i++ {
		ids = append(ids, nodes...)
	}
	check := func(err error, exact bool, what string) (ok bool) {
		t.Helper()
		if err != nil {
			if !isKind(err, KindNotOwner) {
				t.Fatalf("%s failed with %v, want only NotOwner failures", what, err)
			}
			return false
		}
		if !exact {
			t.Fatalf("%s succeeded with a wrong answer", what)
		}
		return true
	}
	var served, rejected int
	for round := 0; round < 60; round++ {
		c := NewClientOptions(nil, []Dialer{h.lc.DialAddr(LocalAddr(0)), h.lc.DialAddr(LocalAddr(1))},
			Options{DialServer: h.lc.DialAddr})
		c.SetPeerAddrs([]string{LocalAddr(0), LocalAddr(1)})
		var wg sync.WaitGroup
		wg.Add(1)
		go func(delay time.Duration) {
			defer wg.Done()
			time.Sleep(delay)
			if err := c.AdoptRouting(final); err != nil {
				t.Errorf("adopt: %v", err)
			}
		}(time.Duration(round%10) * 100 * time.Microsecond)
		for i := 0; i < 4; i++ {
			degs, err := c.Degree(ids, 0)
			exact := err == nil
			for j, v := range ids {
				exact = exact && degs[j] == int(v%5)+1
			}
			if check(err, exact, "Degree") {
				served++
			} else {
				rejected++
			}
			data, labs, err := c.FeaturesLabels(ids, dim)
			exact = err == nil
			for j, v := range ids {
				exact = exact && data[j*dim] == float32(v) && data[j*dim+1] == -float32(v) && labs[j] == int32(v%7)+1
			}
			if check(err, exact, "FeaturesLabels") {
				served++
			} else {
				rejected++
			}
		}
		wg.Wait()
		if rm := c.RoutingMap(); rm == nil || rm.Epoch != final.Epoch {
			t.Fatalf("round %d: client holds %v, want epoch %d", round, rm, final.Epoch)
		}
		c.Close()
	}
	t.Logf("%d reads served exactly, %d rejected with NotOwner", served, rejected)
	if served == 0 {
		t.Fatal("no read succeeded after adoption")
	}
}

// TestClientReRouteOnCutover drives a live migration and asserts a client
// holding the pre-cutover map transparently follows the shard: its next
// operations hit the old owner, bounce with NotOwner, refresh the map, and
// succeed against the new owner — zero surfaced errors.
func TestClientReRouteOnCutover(t *testing.T) {
	const servers = 2
	const numShards = 4
	metrics := &Metrics{}
	lc, oracle := newMigrationCluster(t, servers, metrics)
	defer lc.Shutdown()
	client := lc.Client()

	d := &Driver{Dial: lc.DialAddr, Metrics: metrics, Logf: t.Logf}
	addrs := []string{LocalAddr(0), LocalAddr(1)}
	m, err := d.InitRouting(addrs, 1, numShards)
	if err != nil {
		t.Fatalf("init routing: %v", err)
	}
	if err := client.AdoptRouting(m); err != nil {
		t.Fatalf("adopt: %v", err)
	}

	apply := func(events []graph.Event) {
		t.Helper()
		if err := applyToBoth(client, oracle, events); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
	var events []graph.Event
	for v := graph.VertexID(0); v < 400; v++ {
		events = append(events, graph.Event{Kind: graph.AddEdge,
			Edge: graph.Edge{Src: v, Dst: v + 1000, Type: 0, Weight: 1}})
	}
	apply(events)

	// Move shard 0 from group 0 to group 1. The client is not told.
	if _, err := d.MigrateShard(m, 0, 1); err != nil {
		t.Fatalf("migrate: %v", err)
	}

	// Reads and writes for shard 0 re-route transparently.
	var probe []graph.VertexID
	for v := graph.VertexID(0); len(probe) < 16; v++ {
		if ShardOf(v, numShards) == 0 {
			probe = append(probe, v)
		}
	}
	degs, err := client.Degree(probe, 0)
	if err != nil {
		t.Fatalf("degree after cutover: %v", err)
	}
	for i, v := range probe {
		if want := oracle.Degree(v, 0); degs[i] != want {
			t.Fatalf("degree(%v) = %d, want %d", v, degs[i], want)
		}
	}
	var more []graph.Event
	for _, v := range probe {
		more = append(more, graph.Event{Kind: graph.AddEdge,
			Edge: graph.Edge{Src: v, Dst: v + 2000, Type: 0, Weight: 1}})
	}
	apply(more)

	rm := client.RoutingMap()
	if rm == nil || rm.Epoch != m.Epoch+1 {
		t.Fatalf("client did not adopt the cutover map: %+v", rm)
	}
	snap := metrics.Snapshot()
	if snap.Reroutes == 0 || snap.RoutingRefreshes == 0 || snap.NotOwnerRejects == 0 {
		t.Fatalf("re-route path not exercised: %s", snap)
	}
	if snap.ShardsMigrated != 1 || snap.MigrationBytes == 0 {
		t.Fatalf("migration not accounted: %s", snap)
	}
}

// TestDialHandshake covers the routing-epoch handshake over real TCP: a
// uniformly legacy cluster dials fine; a mixed cluster (one server lost the
// map) fails fast with the re-push instruction; a uniformly routed cluster
// adopts the newest map at dial time.
func TestDialHandshake(t *testing.T) {
	newTCPServer := func() (addr string, svc *Service, closeFn func()) {
		svc = newTestService(t)
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		srv := NewServer(svc)
		go srv.Serve(lis)
		return lis.Addr().String(), svc, func() { lis.Close() }
	}
	addr0, svc0, close0 := newTCPServer()
	defer close0()
	addr1, svc1, close1 := newTCPServer()
	defer close1()
	addrs := []string{addr0, addr1}
	opts := DefaultOptions()
	opts.CallTimeout = 5 * time.Second

	// Uniformly legacy: dial succeeds, no map adopted.
	c, err := Dial(addrs, opts)
	if err != nil {
		t.Fatalf("legacy dial: %v", err)
	}
	if c.RoutingMap() != nil {
		t.Fatal("legacy dial adopted a map from nowhere")
	}
	c.Close()

	// Mixed: server 0 routed, server 1 legacy — fail fast, name the laggard.
	m, err := IdentityMap(addrs, 1, 4)
	if err != nil {
		t.Fatalf("IdentityMap: %v", err)
	}
	svc0.SetAdvertise(addr0)
	svc1.SetAdvertise(addr1)
	var ur UpdateRoutingReply
	if err := svc0.UpdateRouting(&UpdateRoutingArgs{Map: *m}, &ur); err != nil {
		t.Fatalf("push to svc0: %v", err)
	}
	if _, err := Dial(addrs, opts); err == nil {
		t.Fatal("mixed routed/legacy dial succeeded")
	} else if !strings.Contains(err.Error(), addr1) || !strings.Contains(err.Error(), "re-push") {
		t.Fatalf("mixed dial error unhelpful: %v", err)
	}

	// Uniformly routed: dial adopts the map.
	if err := svc1.UpdateRouting(&UpdateRoutingArgs{Map: *m}, &ur); err != nil {
		t.Fatalf("push to svc1: %v", err)
	}
	c, err = Dial(addrs, opts)
	if err != nil {
		t.Fatalf("routed dial: %v", err)
	}
	defer c.Close()
	rm := c.RoutingMap()
	if rm == nil || rm.Epoch != m.Epoch || rm.NumShards != 4 {
		t.Fatalf("routed dial adopted %+v, want epoch %d x 4 shards", rm, m.Epoch)
	}
	if c.NumShards() != 4 {
		t.Fatalf("NumShards = %d under routing, want 4", c.NumShards())
	}
}
