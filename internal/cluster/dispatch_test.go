package cluster

import (
	"bufio"
	"errors"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"platod2gl/internal/core"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/storage"
	"platod2gl/internal/wire"
)

// requestFrame is a bare request frame calling method id with args.
func requestFrame(id int, args wireMessage) []byte {
	return args.appendWire(wire.AppendUvarint([]byte{wire.KindRequest}, uint64(id)))
}

// callFrame sends method id one request frame of args (zero-valued when
// nil) through handleWireFrame and returns the error the client decodes
// from an error frame. A response frame is decoded into reply, when one is
// given.
func callFrame(t *testing.T, s *Server, id int, args, reply wireMessage) error {
	t.Helper()
	if args == nil {
		args = wireMethods[id].newArgs()
	}
	resp, method, held := s.handleWireFrame(requestFrame(id, args))
	defer wire.PutBuf(resp)
	s.replies.release(held)
	if method != wireMethods[id].name {
		t.Errorf("method id %d dispatched as %q, want %q", id, method, wireMethods[id].name)
	}
	kind, err := replyKind(t, resp)
	if kind == wire.KindResponse && reply != nil {
		if err := decodeResponse(append([]byte(nil), resp[wire.HeaderSize:]...), reply); err != nil {
			t.Fatalf("decode %s reply: %v", method, err)
		}
	}
	return err
}

// replyKind splits a framed reply into its kind and, for an error frame,
// the error the client's decoder makes of it, which must consume the whole
// frame. Any other kind fails t.
func replyKind(t *testing.T, resp []byte) (kind byte, err error) {
	t.Helper()
	if len(resp) <= wire.HeaderSize {
		t.Fatalf("reply frame %q has no kind byte", resp)
	}
	switch kind = resp[wire.HeaderSize]; kind {
	case wire.KindResponse:
	case wire.KindError:
		// decodeResponse recycles its frame, so it gets a copy.
		var se *ServerError
		if err = decodeResponse(append([]byte(nil), resp[wire.HeaderSize:]...), nil); !errors.As(err, &se) {
			t.Fatalf("client decode of error frame %q: %v", resp, err)
		}
	default:
		t.Fatalf("reply kind 0x%02x is neither a response nor an error", kind)
	}
	return kind, err
}

// TestDispatchRowsOnTheWire sends one frame per method to a replica that is
// catching up. Exactly the read-gated methods answer not-ready, and every
// dispatched call adds one ServerLatency observation under its own name and
// none under another. The shard map makes zero-epoch writes bounce on
// routing before their own catch-up gate (gateWrite), so a not-ready answer
// can only come from the dispatcher's read gate.
func TestDispatchRowsOnTheWire(t *testing.T) {
	readGated := map[string]bool{
		"SampleNeighbors": true, "Degree": true, "Features": true, "Sources": true,
		"Stats": true, "FetchSnapshot": true, "FetchShardSnapshot": true, "FetchAttrs": true,
	}
	svc := newTestService(t)
	m, err := IdentityMap([]string{"self"}, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.SetRouting(m, 0); err != nil {
		t.Fatal(err)
	}
	svc.BeginCatchUp()
	s := NewServer(svc)
	counts := func() []int64 {
		out := make([]int64, len(wireMethods))
		for i, wm := range wireMethods {
			out[i] = svc.metrics.ServerLatency.With(wm.name).Count()
		}
		return out
	}
	for id, wm := range wireMethods {
		before := counts()
		err := callFrame(t, s, id, nil, nil)
		if notReady := isKind(err, KindNotReady); notReady != readGated[wm.name] {
			t.Errorf("%s mid-catch-up: not-ready = %v, want %v (reply %v)", wm.name, notReady, readGated[wm.name], err)
		}
		for i, n := range counts() {
			want := before[i]
			if i == id {
				want++
			}
			if n != want {
				t.Errorf("a %s call moved %s's ServerLatency count from %d to %d, want %d",
					wm.name, wireMethods[i].name, before[i], n, want)
			}
		}
	}
}

// TestSampleNeighborsRejectsOversizedReply: a fanout whose reply could not
// fit in a frame is refused by the dispatcher before the reply is built, so
// one request cannot make the server allocate without bound.
func TestSampleNeighborsRejectsOversizedReply(t *testing.T) {
	s := NewServer(newTestService(t))
	id := wireMethodID["SampleNeighbors"]
	args := SampleArgs{Seeds: []graph.VertexID{1, 2}, Fanout: wire.MaxFrame / 8}
	if err := callFrame(t, s, id, &args, nil); !isKind(err, KindApplication) || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("SampleNeighbors(2 seeds, fanout %d) = %v, want a frame-limit error", args.Fanout, err)
	}
	args.Fanout = 3
	var reply SampleReply
	if err := callFrame(t, s, id, &args, &reply); err != nil || len(reply.Neighbors) != 6 {
		t.Fatalf("SampleNeighbors(2 seeds, fanout 3) = %d ids, %v", len(reply.Neighbors), err)
	}
}

// TestRoutedMethodsFlagged holds the dispatch flags to the payloads: a row
// is routed exactly when its args carry a route, and the write rows, which
// are routed too, are exactly the two client writes.
func TestRoutedMethodsFlagged(t *testing.T) {
	writes := map[string]bool{"ApplyBatch": true, "SetFeatures": true}
	for _, wm := range wireMethods {
		_, hasRoute := wm.newArgs().(routedArgs)
		if isRouted := wm.flags&routed != 0; isRouted != hasRoute {
			t.Errorf("%s: routed flag %v, args implement routedArgs %v", wm.name, isRouted, hasRoute)
		}
		isWrite := wm.flags&write != 0
		if isWrite && wm.flags&routed == 0 {
			t.Errorf("%s: write without routed", wm.name)
		}
		if isWrite != writes[wm.name] {
			t.Errorf("%s: write flag %v, want %v", wm.name, isWrite, writes[wm.name])
		}
	}
}

// TestRoutedRulesOnTheWire sends each routed method, as a frame, to a
// server that owns shard 0 of a 4-shard map on two groups. The dispatcher
// applies the row's rules in order — read gate, ownership, write gates:
// a request at epoch 0 or for a shard owned elsewhere is refused as not
// owner; mid-catch-up a read is refused as not ready whatever it names, a
// write only once it passes the ownership check; and an owned request at
// the map's epoch is served. A SampleNeighbors or Features request whose
// reply is past the frame limit is refused by the dispatcher with next to
// nothing allocated.
func TestRoutedRulesOnTheWire(t *testing.T) {
	svc := newTestService(t)
	m, err := IdentityMap([]string{"self", "other"}, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.SetRouting(m, 0); err != nil {
		t.Fatal(err)
	}
	s := NewServer(svc)
	const owned, foreign = 0, 1
	for id, wm := range wireMethods {
		if wm.flags&routed == 0 {
			continue
		}
		// Mid-catch-up, a read for a foreign shard stops at the read gate, a
		// write at the ownership check.
		foreignCatchUp := KindNotReady
		if wm.flags&write != 0 {
			foreignCatchUp = KindNotOwner
		}
		for _, c := range []struct {
			shard    int
			epoch    uint64
			catchUp  bool
			wantKind ErrorKind
			wantOK   bool
		}{
			{owned, m.Epoch, false, 0, true},
			{owned, 0, false, KindNotOwner, false},
			{foreign, m.Epoch, false, KindNotOwner, false},
			{owned, m.Epoch, true, KindNotReady, false},
			{foreign, m.Epoch, true, foreignCatchUp, false},
		} {
			args := wm.newArgs()
			if b, ok := args.(*BatchArgs); ok {
				b.Sum = checksumEvents(b.Events)
			}
			stampRoute(args, c.shard, c.epoch)
			if c.catchUp {
				svc.BeginCatchUp()
			}
			err := callFrame(t, s, id, args, nil)
			if c.catchUp {
				svc.MarkSynced()
			}
			if c.wantOK {
				if err != nil {
					t.Errorf("%s for owned shard %d at epoch %d: %v", wm.name, c.shard, c.epoch, err)
				}
			} else if !isKind(err, c.wantKind) {
				t.Errorf("%s for shard %d at epoch %d (catching up %v): %v, want kind %v",
					wm.name, c.shard, c.epoch, c.catchUp, err, c.wantKind)
			}
		}
	}
	nodes := []graph.VertexID{1, 2}
	for _, c := range []struct {
		method string
		args   wireMessage
	}{
		{"SampleNeighbors", &SampleArgs{Seeds: nodes, Fanout: wire.MaxFrame / 8}},
		{"Features", &FeatureArgs{Nodes: nodes, Dim: wire.MaxFrame / 4}},
		{"Features", &FeatureArgs{Nodes: nodes, Dim: 1 << 50, WithLabels: true}},
	} {
		stampRoute(c.args, owned, m.Epoch)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := callFrame(t, s, wireMethodID[c.method], c.args, nil)
		runtime.ReadMemStats(&after)
		if !isKind(err, KindApplication) || !strings.Contains(err.Error(), "frame limit") {
			t.Errorf("oversized %s %+v: %v, want a frame-limit error", c.method, c.args, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("oversized %s %+v allocated %d bytes before its refusal", c.method, c.args, n)
		}
	}
}

// TestSetFeaturesRejectsOverflowingDim: a dim whose product with the node
// count wraps to the payload length is refused, not used to size rows.
func TestSetFeaturesRejectsOverflowingDim(t *testing.T) {
	svc := newTestService(t)
	nodes := []graph.VertexID{1, 2, 3, 4}
	for _, dim := range []int{1 << 62, -1 << 62} {
		if err := svc.setFeatures(&SetFeaturesArgs{Nodes: nodes, Dim: dim}, &SetFeaturesReply{}); err == nil {
			t.Errorf("SetFeatures(4 nodes, dim %d, no payload) succeeded", dim)
		}
	}
	args := SetFeaturesArgs{Nodes: nodes[:2], Dim: 2, Data: []float32{1, 2, 3, 4}}
	if err := svc.setFeatures(&args, &SetFeaturesReply{}); err != nil {
		t.Fatalf("SetFeatures(2 nodes, dim 2): %v", err)
	}
}

// fuzzReplyBudget is the fuzzed server's reply budget: a handful of
// requests whose replies the default budget admits (up to wire.MaxFrame)
// would exhaust the fuzzer's memory, and past this budget they are shed
// before their replies are built.
const fuzzReplyBudget = 8 << 20

// FuzzHandleWireFrame feeds arbitrary request frames to handleWireFrame on
// a fresh small service, once unrouted and once with a shard map installed
// (the rules of the routed rows run only there). Every frame must come back as a response or an
// error frame the client decodes whole, and no handler or codec may panic:
// the dispatcher's recover is a backstop, not a code path. Seeded with one valid frame per method,
// zero-valued and populated, bare and in a priority envelope.
func FuzzHandleWireFrame(f *testing.F) {
	fixtures := wireFixtures()
	for id, wm := range wireMethods {
		args := []wireMessage{wm.newArgs()}
		for _, fx := range fixtures {
			if reflect.TypeOf(fx) == reflect.TypeOf(args[0]) {
				args = append(args, fx)
			}
		}
		for _, a := range args {
			f.Add(requestFrame(id, a))
			env := wire.AppendUvarint([]byte{wire.KindRequestEnv, byte(PriorityBackground) + 1}, 250)
			f.Add(a.appendWire(wire.AppendUvarint(env, uint64(id))))
		}
	}
	f.Add([]byte{})
	// Requests that once crashed or panicked the server: a fanout whose reply
	// is past the frame limit made it allocate the whole reply before it
	// could fail, and a feature dim whose product with the node count
	// overflows to the payload length passed the size check.
	for _, c := range []struct {
		method string
		args   wireMessage
	}{
		{"SampleNeighbors", &SampleArgs{Seeds: []graph.VertexID{1}, Fanout: 1 << 40}},
		{"SetFeatures", &SetFeaturesArgs{Nodes: []graph.VertexID{1, 2, 3, 4}, Dim: 1 << 62}},
		{"SetFeatures", &SetFeaturesArgs{Nodes: []graph.VertexID{1, 2, 3, 4}, Dim: -1 << 62}},
	} {
		f.Add(requestFrame(wireMethodID[c.method], c.args))
	}
	m, err := IdentityMap([]string{"self", "other"}, 1, 4)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		for _, routedServer := range []bool{false, true} {
			store := storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 16}})
			svc := NewService(store, kvstore.New())
			if routedServer {
				if err := svc.SetRouting(m, 0); err != nil {
					t.Fatal(err)
				}
			}
			s := NewServer(svc)
			s.replies = newReplyBudget(fuzzReplyBudget)
			resp, _, _ := s.handleWireFrame(frame)
			_, err := replyKind(t, resp)
			wire.PutBuf(resp)
			if err != nil && strings.Contains(err.Error(), ": recovered panic: ") {
				t.Fatalf("handler panicked (routed server %v): %v", routedServer, err)
			}
		}
	})
}

// TestOperationsMethodTable holds the operations guide's per-method table
// (docs/OPERATIONS.md, "Priority classes") to wireMethods: every method is
// listed once, in frame-id order, with its class, admission, read gate,
// ownership check and write gates.
func TestOperationsMethodTable(t *testing.T) {
	f, err := os.Open("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows [][]string
	inSection := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			inSection = line == "### Priority classes"
			continue
		}
		if !inSection || !strings.HasPrefix(line, "| `") {
			continue
		}
		var cells []string
		for _, c := range strings.Split(strings.Trim(line, "|"), "|") {
			cells = append(cells, strings.Trim(strings.TrimSpace(c), "`"))
		}
		rows = append(rows, cells)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(wireMethods) {
		t.Fatalf("docs/OPERATIONS.md lists %d methods, wireMethods has %d", len(rows), len(wireMethods))
	}
	yesNo := map[bool]string{true: "yes", false: "no"}
	admission := map[bool]string{true: "exempt", false: "gated"}
	for id, wm := range wireMethods {
		want := []string{wm.name, wm.pri.String(), admission[wm.flags&exempt != 0], yesNo[wm.flags&readGated != 0],
			yesNo[wm.flags&routed != 0], yesNo[wm.flags&write != 0]}
		if !reflect.DeepEqual(rows[id], want) {
			t.Errorf("docs/OPERATIONS.md row %d = %q, want %q", id, rows[id], want)
		}
	}
}
