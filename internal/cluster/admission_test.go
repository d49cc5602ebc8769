package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"platod2gl/internal/graph"
	"platod2gl/internal/wire"
)

func TestPriorityStringAndContext(t *testing.T) {
	for pri, want := range map[Priority]string{
		PriorityInteractive: "interactive",
		PriorityPrefetch:    "prefetch",
		PriorityBackground:  "background",
		Priority(9):         "unknown",
	} {
		if got := pri.String(); got != want {
			t.Errorf("Priority(%d).String() = %q, want %q", pri, got, want)
		}
	}
	if _, ok := PriorityFromContext(context.Background()); ok {
		t.Error("PriorityFromContext reported a priority on a bare context")
	}
	ctx := WithPriority(context.Background(), PriorityBackground)
	if p, ok := PriorityFromContext(ctx); !ok || p != PriorityBackground {
		t.Errorf("PriorityFromContext = (%v, %v), want (background, true)", p, ok)
	}
}

// TestOverloadedErrorRoundTrip: a shed response keeps its kind and its
// retry-after hint across the wire, bare and wrapped, and the client-side
// helpers read both from what the call returned.
func TestOverloadedErrorRoundTrip(t *testing.T) {
	oe := overloaded("SampleNeighbors", PriorityPrefetch, 42*time.Millisecond)
	if !IsOverloaded(oe) || !IsOverloaded(fmt.Errorf("fan-out: %w", oe)) {
		t.Error("IsOverloaded(typed, bare or wrapped) = false")
	}
	for _, err := range roundTripErrors(t, []error{oe}) {
		if !IsOverloaded(err) {
			t.Errorf("IsOverloaded(%v) = false after the wire", err)
		}
		if got := OverloadRetryAfter(err); got != 42*time.Millisecond {
			t.Errorf("OverloadRetryAfter(%v) = %v after the wire, want 42ms", err, got)
		}
	}
	if IsOverloaded(errors.New("cluster: overloaded: quoted in an application error")) {
		t.Error("IsOverloaded matched an untyped error by its text")
	}
	if got := OverloadRetryAfter(&ServerError{Kind: KindApplication, RetryAfter: time.Second, Msg: "x"}); got != 0 {
		t.Errorf("OverloadRetryAfter(application error) = %v, want 0", got)
	}
}

// TestBudgetExpiredErrorRoundTrip: a budget fast-reject keeps its own kind
// across the wire, bare and wrapped, and is never read as a shed.
func TestBudgetExpiredErrorRoundTrip(t *testing.T) {
	be := &ServerError{Kind: KindBudgetExpired, Msg: "cluster: deadline: Features budget 3ms below observed service time 20ms"}
	for _, err := range roundTripErrors(t, []error{be}) {
		if !isKind(err, KindBudgetExpired) {
			t.Errorf("%v lost its budget-expired kind after the wire", err)
		}
		if IsOverloaded(err) {
			t.Errorf("IsOverloaded(%v) matched a budget-expired error", err)
		}
	}
	if isKind(overloaded("X", PriorityInteractive, time.Millisecond), KindBudgetExpired) {
		t.Error("an overload error read as budget-expired")
	}
}

// TestAdmissionGateDisabled: a nil gate (MaxConcurrent <= 0) admits
// everything and all methods are nil-safe.
func TestAdmissionGateDisabled(t *testing.T) {
	g := newAdmissionGate(AdmissionConfig{MaxConcurrent: 0}, &Metrics{})
	if g != nil {
		t.Fatal("MaxConcurrent 0 built a live gate")
	}
	if err := g.acquire("X", PriorityInteractive, 0); err != nil {
		t.Fatalf("nil gate acquire: %v", err)
	}
	g.release("X", time.Now()) // must not panic
}

func TestAdmissionImmediateAdmit(t *testing.T) {
	g := newAdmissionGate(AdmissionConfig{MaxConcurrent: 2}, &Metrics{})
	for i := 0; i < 2; i++ {
		if err := g.acquire("X", PriorityInteractive, 0); err != nil {
			t.Fatalf("acquire %d under capacity: %v", i, err)
		}
	}
	g.release("X", time.Now())
	g.release("X", time.Now())
}

// TestAdmissionQueueFullShed: with one slot held and the queue full, the
// next arrival is shed immediately with a retry-after hint.
func TestAdmissionQueueFullShed(t *testing.T) {
	g := newAdmissionGate(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1, MaxQueueWait: 30 * time.Second}, &Metrics{})
	if err := g.acquire("X", PriorityInteractive, 0); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	queued := make(chan error, 1)
	go func() { queued <- g.acquire("X", PriorityInteractive, 0) }()
	// Wait for the second request to actually enter the queue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		n := len(g.queues[PriorityInteractive])
		g.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	err := g.acquire("X", PriorityInteractive, 0)
	if !IsOverloaded(err) {
		t.Fatalf("queue-full acquire = %v, want an overload error", err)
	}
	if ra := OverloadRetryAfter(err); ra < minRetryAfter {
		t.Errorf("RetryAfter = %v, want >= %v", ra, minRetryAfter)
	}
	// Releasing the held slot must admit the queued waiter.
	g.release("X", time.Now())
	select {
	case werr := <-queued:
		if werr != nil {
			t.Fatalf("queued waiter got %v, want admission", werr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued waiter never admitted after release")
	}
	g.release("X", time.Now())
}

// TestAdmissionQueueWaitShed: a waiter that outlives MaxQueueWait is shed
// as overloaded rather than parked forever.
func TestAdmissionQueueWaitShed(t *testing.T) {
	g := newAdmissionGate(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 4, MaxQueueWait: 20 * time.Millisecond}, &Metrics{})
	if err := g.acquire("X", PriorityInteractive, 0); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	start := time.Now()
	err := g.acquire("X", PriorityInteractive, 0)
	if !IsOverloaded(err) {
		t.Fatalf("queued acquire = %v, want overloaded after wait cap", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("queue-wait shed took %v", time.Since(start))
	}
	// The timed-out waiter must have left the queue.
	g.mu.Lock()
	n := len(g.queues[PriorityInteractive])
	g.mu.Unlock()
	if n != 0 {
		t.Fatalf("queue holds %d waiters after timeout shed, want 0", n)
	}
	g.release("X", time.Now())
}

// TestAdmissionBackgroundYieldsFirst: with MaxConcurrent 4 the background
// cap is 1, so a single busy slot already starves further background work
// while interactive requests still sail through — the brownout ordering.
func TestAdmissionBackgroundYieldsFirst(t *testing.T) {
	g := newAdmissionGate(AdmissionConfig{MaxConcurrent: 4, MaxQueue: 4, MaxQueueWait: 15 * time.Millisecond}, &Metrics{})
	if err := g.acquire("Scrub", PriorityBackground, 0); err != nil {
		t.Fatalf("first background acquire: %v", err)
	}
	if err := g.acquire("Scrub", PriorityBackground, 0); !IsOverloaded(err) {
		t.Fatalf("second background acquire = %v, want shed at background cap", err)
	}
	if err := g.acquire("SampleNeighbors", PriorityInteractive, 0); err != nil {
		t.Fatalf("interactive acquire while background capped: %v", err)
	}
	g.release("SampleNeighbors", time.Now())
	g.release("Scrub", time.Now())
}

// TestAdmissionFastReject: once a method's observed service time exceeds a
// request's remaining budget, the gate sheds it before it burns a slot.
func TestAdmissionFastReject(t *testing.T) {
	g := newAdmissionGate(AdmissionConfig{MaxConcurrent: 4}, &Metrics{})
	// Seed the EWMA: one release observing ~50ms of service time.
	if err := g.acquire("Slow", PriorityInteractive, 0); err != nil {
		t.Fatalf("seed acquire: %v", err)
	}
	g.release("Slow", time.Now().Add(-50*time.Millisecond))
	err := g.acquire("Slow", PriorityInteractive, 5*time.Millisecond)
	if !isKind(err, KindBudgetExpired) {
		t.Fatalf("acquire with 5ms budget against 50ms service time = %v, want a budget-expired error", err)
	}
	// No budget means no fast-reject, regardless of service time.
	if err := g.acquire("Slow", PriorityInteractive, 0); err != nil {
		t.Fatalf("acquire without budget: %v", err)
	}
	g.release("Slow", time.Now())
	// A generous budget admits too.
	if err := g.acquire("Slow", PriorityInteractive, time.Second); err != nil {
		t.Fatalf("acquire with ample budget: %v", err)
	}
	g.release("Slow", time.Now())
}

// TestAdmissionControlPlaneExempt: with the gate fully saturated, the
// control-plane RPCs must still serve and every other method must shed.
// Shedding them turns overload into an unrecoverable state — the priority
// inversion the brownout drill caught, where shedding ReleaseShard left
// writers parked and slots pinned.
func TestAdmissionControlPlaneExempt(t *testing.T) {
	exempt := map[string]bool{
		"Routing": true, "UpdateRouting": true, "ParkShard": true, "ReleaseShard": true, "SyncState": true,
	}
	s := NewServer(newTestService(t))
	s.SetAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1, MaxQueueWait: time.Millisecond})
	if err := s.admit.acquire("Stats", PriorityInteractive, 0); err != nil {
		t.Fatalf("hold slot: %v", err)
	}
	defer s.admit.release("Stats", time.Now())
	for id, wm := range wireMethods {
		err := callFrame(t, s, id, nil, nil)
		if shed := IsOverloaded(err); shed == exempt[wm.name] {
			t.Errorf("%s under a saturated gate: shed = %v, want %v (reply %v)", wm.name, shed, !exempt[wm.name], err)
		}
	}
}

// TestHandleWireFrameUnknownPriority: a priority byte past the known classes
// is a protocol error, not a silent default.
func TestHandleWireFrameUnknownPriority(t *testing.T) {
	s := NewServer(newTestService(t))
	frame := []byte{wire.KindRequestEnv, numPriorities + 1, 0x00, 0x00}
	resp, _, _ := s.handleWireFrame(frame)
	if len(resp) <= wire.HeaderSize || resp[wire.HeaderSize] != wire.KindError {
		t.Fatalf("response kind = %v, want KindError", resp)
	}
	if !strings.Contains(string(resp), "unknown priority class") {
		t.Errorf("error frame %q does not name the unknown priority", resp)
	}
}

// TestHandleWireFrameShedCrossesAsError: with a zero-capacity-equivalent
// gate (one slot held), a wire request frame comes back as an overload
// error frame with a retry-after hint.
func TestHandleWireFrameShedCrossesAsError(t *testing.T) {
	s := NewServer(newTestService(t))
	s.SetAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1, MaxQueueWait: 10 * time.Millisecond})
	// Hold the only slot: the frame's request queues, outlives the 10ms wait
	// cap, and sheds.
	if err := s.admit.acquire("Stats", PriorityInteractive, 0); err != nil {
		t.Fatalf("hold slot: %v", err)
	}
	frame := []byte{wire.KindRequest, 0x00} // method id 0 — sheds before arg decode
	resp, _, _ := s.handleWireFrame(frame)
	if _, err := replyKind(t, resp); !IsOverloaded(err) || OverloadRetryAfter(err) < minRetryAfter {
		t.Errorf("shed frame decodes to %v, want an overload error with a retry-after hint", err)
	}
	s.admit.release("Stats", time.Now())
}

// TestReplyBudgetShedsWhatDoesNotFit runs a server with a 4 KiB reply
// budget. A Features or SampleNeighbors reply that does not fit what the
// replies in flight leave is shed with the overload error clients back off
// on, and counted; one that fits is served, and its reservation is
// returned once its frame is written.
func TestReplyBudgetShedsWhatDoesNotFit(t *testing.T) {
	const budget = 4096
	var srv *Server
	addr, m, svc := startConfiguredWireServer(t, func(s *Server) {
		s.replies = newReplyBudget(budget)
		srv = s
	})
	id := graph.MakeVertexID(0, 3)
	svc.attrs.SetFeatures(id, []float32{1, 2})
	tr := &wireTransport{dial: func() (net.Conn, error) { return net.Dial("tcp", addr) }, hsTO: 5 * time.Second}
	defer tr.Close()
	nodes := make([]graph.VertexID, 100)
	for i := range nodes {
		nodes[i] = id
	}
	// 100 rows of dim 8 and 2 seeds × fanout 200: about 3.2 KB each.
	features := func() error {
		reply := FeatureReply{dim: 8, out: make([]float32, len(nodes)*8), occ: runsOf(identityOcc(len(nodes)))}
		return tr.Call("Features", &FeatureArgs{Nodes: nodes, Dim: 8}, &reply, 5*time.Second, callEnv{})
	}
	sample := func() error {
		return tr.Call("SampleNeighbors", &SampleArgs{Seeds: nodes[:2], Fanout: 200}, &SampleReply{}, 5*time.Second, callEnv{})
	}
	// A reply's reservation is returned once its frame is written, which
	// the server does just after the client has read it.
	settle := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for srv.replies.free.Load() != budget {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d budget bytes free after every reply was written", srv.replies.free.Load(), budget)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, call := range []func() error{features, sample} {
		if err := call(); err != nil {
			t.Fatalf("a reply that fits the budget: %v", err)
		}
		settle()
	}
	// Another 2 KiB reply in flight: neither fits until it is written.
	if !srv.replies.reserve(2048) {
		t.Fatal("reserve 2 KiB of an idle budget failed")
	}
	for name, call := range map[string]func() error{"Features": features, "SampleNeighbors": sample} {
		if err := call(); !IsOverloaded(err) || OverloadRetryAfter(err) <= 0 {
			t.Fatalf("%s past the budget: err %v, want an overload error with a retry-after hint", name, err)
		}
		if n := m.RequestsShed.With(name + "|interactive").Load(); n != 1 {
			t.Fatalf("%s sheds counted %d, want 1", name, n)
		}
	}
	srv.replies.release(2048)
	if err := features(); err != nil {
		t.Fatalf("Features after the reply in flight was written: %v", err)
	}
	settle()
}
