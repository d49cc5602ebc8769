package cluster

import (
	"bufio"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"platod2gl/internal/core"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/storage"
	"platod2gl/internal/wire"
)

// callFrame sends method id one request frame of zero-valued args through
// handleWireFrame and returns the reply's kind and, for an error frame, the
// error the client decodes from it.
func callFrame(t *testing.T, s *Server, id int) (kind byte, err error) {
	t.Helper()
	frame := wire.AppendUvarint([]byte{wire.KindRequest}, uint64(id))
	frame = wireMethods[id].newArgs().appendWire(frame)
	resp, method, _ := s.handleWireFrame(frame)
	defer wire.PutBuf(resp)
	if method != wireMethods[id].name {
		t.Errorf("method id %d dispatched as %q, want %q", id, method, wireMethods[id].name)
	}
	return replyKind(t, resp)
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
		_, err := callFrame(t, s, id)
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
// fit in a frame is refused before the reply is built, so one request cannot
// make the server allocate without bound.
func TestSampleNeighborsRejectsOversizedReply(t *testing.T) {
	svc := newTestService(t)
	args := SampleArgs{Seeds: []graph.VertexID{1, 2}, Fanout: wire.MaxFrame / 8}
	if err := svc.SampleNeighbors(&args, &SampleReply{}); err == nil || !strings.Contains(err.Error(), "reply limit") {
		t.Fatalf("SampleNeighbors(2 seeds, fanout %d) = %v, want a reply-limit error", args.Fanout, err)
	}
	args.Fanout = 3
	var reply SampleReply
	if err := svc.SampleNeighbors(&args, &reply); err != nil || len(reply.Neighbors) != 6 {
		t.Fatalf("SampleNeighbors(2 seeds, fanout 3) = %d ids, %v", len(reply.Neighbors), err)
	}
}

// TestSetFeaturesRejectsOverflowingDim: a dim whose product with the node
// count wraps to the payload length is refused, not used to size rows.
func TestSetFeaturesRejectsOverflowingDim(t *testing.T) {
	svc := newTestService(t)
	nodes := []graph.VertexID{1, 2, 3, 4}
	for _, dim := range []int{1 << 62, -1 << 62} {
		if err := svc.SetFeatures(&SetFeaturesArgs{Nodes: nodes, Dim: dim}, &SetFeaturesReply{}); err == nil {
			t.Errorf("SetFeatures(4 nodes, dim %d, no payload) succeeded", dim)
		}
	}
	args := SetFeaturesArgs{Nodes: nodes[:2], Dim: 2, Data: []float32{1, 2, 3, 4}}
	if err := svc.SetFeatures(&args, &SetFeaturesReply{}); err != nil {
		t.Fatalf("SetFeatures(2 nodes, dim 2): %v", err)
	}
}

// fuzzReplyBudget is the fuzzed server's reply budget: a handful of
// requests whose replies the default budget admits (up to wire.MaxFrame)
// would exhaust the fuzzer's memory, and past this budget they are shed
// before their replies are built.
const fuzzReplyBudget = 8 << 20

// FuzzHandleWireFrame feeds arbitrary request frames to handleWireFrame on
// a fresh small service. Every frame must come back as a response or an
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
			f.Add(a.appendWire(wire.AppendUvarint([]byte{wire.KindRequest}, uint64(id))))
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
		id := wireMethodID[c.method]
		f.Add(c.args.appendWire(wire.AppendUvarint([]byte{wire.KindRequest}, uint64(id))))
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		store := storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 16}})
		s := NewServer(NewService(store, kvstore.New()))
		s.replies = newReplyBudget(fuzzReplyBudget)
		resp, _, _ := s.handleWireFrame(frame)
		defer wire.PutBuf(resp)
		if _, err := replyKind(t, resp); err != nil && strings.Contains(err.Error(), ": recovered panic: ") {
			t.Fatalf("handler panicked: %v", err)
		}
	})
}

// TestOperationsMethodTable holds the operations guide's per-method table
// (docs/OPERATIONS.md, "Priority classes") to wireMethods: every method is
// listed once, in frame-id order, with its class, admission and read gate.
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
		want := []string{wm.name, wm.pri.String(), admission[wm.flags&exempt != 0], yesNo[wm.flags&readGated != 0]}
		if !reflect.DeepEqual(rows[id], want) {
			t.Errorf("docs/OPERATIONS.md row %d = %q, want %q", id, rows[id], want)
		}
	}
}
