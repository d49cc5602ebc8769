package platod2gl_test

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"platod2gl"
	"platod2gl/internal/cluster"
	"platod2gl/internal/graph"
)

// TestEndToEndLocal drives the full pipeline through the public API: stream
// a synthetic dynamic dataset, sample mini-batches, train a GNN, keep
// updating, and verify the store stays consistent throughout.
func TestEndToEndLocal(t *testing.T) {
	g := platod2gl.New(platod2gl.WithCapacity(64), platod2gl.WithSeed(5))
	spec := platod2gl.WeChatSpec().Scale(2e-7)
	gen := platod2gl.NewEventGenerator(spec, platod2gl.DynamicMix, 1)
	for i := 0; i < 20; i++ {
		g.Apply(gen.Next(2000))
	}
	if g.NumEdges() == 0 {
		t.Fatal("no edges after streaming")
	}
	srcs := g.Sources(0)
	if len(srcs) == 0 {
		t.Fatal("no sources in relation 0")
	}
	seeds := srcs
	if len(seeds) > 64 {
		seeds = seeds[:64]
	}
	nb := g.SampleNeighbors(seeds, 0, 10)
	if len(nb.Neighbors) != len(seeds)*10 {
		t.Fatalf("sampled %d", len(nb.Neighbors))
	}
	sg := g.SampleSubgraph(seeds, platod2gl.MetaPath{0, 128}, []int{5, 3})
	if sg.NumNodes() != len(seeds)*(1+5+15) {
		t.Fatalf("subgraph nodes = %d", sg.NumNodes())
	}
	walks := g.RandomWalk(seeds[:4], 0, 3)
	if len(walks) != 4 || len(walks[0]) != 4 {
		t.Fatalf("walks shape: %d x %d", len(walks), len(walks[0]))
	}
	// Snapshot round-trip through the public API.
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g2 := platod2gl.New()
	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Load(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("snapshot edges: %d vs %d", g2.NumEdges(), g.NumEdges())
	}
}

// buildBinary compiles one of the cmd tools into dir.
func buildBinary(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

// startServer launches platod2gl-server on an ephemeral port and returns
// its address and a stop function.
func startServer(t *testing.T, bin string, extraArgs ...string) (string, *exec.Cmd) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start server: %v", err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				rest := line[i+len("listening on "):]
				addrCh <- strings.Fields(rest)[0]
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return addr, cmd
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatal("server did not report its address")
		return "", nil
	}
}

// dialServer connects a fault-tolerant client to one running server.
func dialServer(t *testing.T, addr string) *cluster.Client {
	t.Helper()
	c, err := cluster.Dial([]string{addr}, cluster.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEndToEndProcesses runs the real binaries: a graph server with
// snapshotting, the load generator pushing a dataset over TCP, a direct RPC
// sanity check, then a SIGTERM + restart to verify the snapshot restores
// the graph.
func TestEndToEndProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level test")
	}
	dir := t.TempDir()
	serverBin := buildBinary(t, dir, "platod2gl-server")
	loadgenBin := buildBinary(t, dir, "platod2gl-loadgen")
	snap := filepath.Join(dir, "graph.snap")

	addr, srv := startServer(t, serverBin, "-snapshot", snap)
	defer srv.Process.Kill()

	// Push a small dataset through the real loadgen binary.
	lg := exec.Command(loadgenBin, "-dataset", "ogbn", "-edges", "5000", "-servers", addr)
	out, err := lg.CombinedOutput()
	if err != nil {
		t.Fatalf("loadgen: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "cluster:") {
		t.Fatalf("loadgen output missing cluster stats:\n%s", out)
	}

	// Direct RPC: confirm the server holds edges.
	client := dialServer(t, addr)
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.NumEdges == 0 {
		t.Fatal("server reports zero edges after load")
	}
	client.Close()

	// SIGTERM triggers the snapshot; wait for the file then for exit.
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- srv.Wait() }()
	select {
	case <-waitErr:
	case <-time.After(15 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
	if fi, err := os.Stat(snap); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot not written: %v", err)
	}

	// Restart from the snapshot and verify the edge count survived.
	addr2, srv2 := startServer(t, serverBin, "-snapshot", snap)
	defer srv2.Process.Kill()
	client2 := dialServer(t, addr2)
	defer client2.Close()
	stats2, err := client2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats2.NumEdges != stats.NumEdges {
		t.Fatalf("restored %d edges, want %d", stats2.NumEdges, stats.NumEdges)
	}
	// The restored graph serves sampling queries.
	var events []graph.Event
	events = append(events, graph.Event{Kind: graph.AddEdge, Edge: graph.Edge{
		Src: platod2gl.MakeVertexID(0, 1), Dst: platod2gl.MakeVertexID(0, 2), Weight: 1}})
	if err := client2.ApplyBatch(events); err != nil {
		t.Fatal(err)
	}
	got, err := client2.SampleNeighbors([]graph.VertexID{platod2gl.MakeVertexID(0, 1)}, 0, 3, 1)
	if err != nil || len(got) != 3 {
		t.Fatalf("sampling after restore: %v, %v", got, err)
	}
}

// TestBenchBinarySmoke runs one tiny experiment through the real bench
// binary.
func TestBenchBinarySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level test")
	}
	dir := t.TempDir()
	bin := buildBinary(t, dir, "platod2gl-bench")
	cmd := exec.Command(bin, "-experiment", "table2", "-edges", "2000")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("bench: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Table II") {
		t.Fatalf("unexpected bench output:\n%s", out)
	}
	// Unknown experiment exits non-zero.
	cmd = exec.Command(bin, "-experiment", "nope")
	if err := cmd.Run(); err == nil {
		t.Fatal("expected failure for unknown experiment")
	}
}

// TestWALCrashRecovery kills the server hard (SIGKILL — no snapshot
// handler runs) and verifies the write-ahead log rebuilds the graph.
func TestWALCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level test")
	}
	dir := t.TempDir()
	serverBin := buildBinary(t, dir, "platod2gl-server")
	loadgenBin := buildBinary(t, dir, "platod2gl-loadgen")
	wal := filepath.Join(dir, "graph.wal")

	addr, srv := startServer(t, serverBin, "-wal", wal)
	lg := exec.Command(loadgenBin, "-dataset", "reddit", "-edges", "4000", "-servers", addr)
	if out, err := lg.CombinedOutput(); err != nil {
		t.Fatalf("loadgen: %v\n%s", err, out)
	}
	client := dialServer(t, addr)
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	if stats.NumEdges == 0 {
		t.Fatal("no edges before crash")
	}

	// Hard kill: no snapshot, only the WAL survives.
	srv.Process.Kill()
	srv.Wait()

	addr2, srv2 := startServer(t, serverBin, "-wal", wal)
	defer srv2.Process.Kill()
	client2 := dialServer(t, addr2)
	defer client2.Close()
	stats2, err := client2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats2.NumEdges != stats.NumEdges {
		t.Fatalf("WAL recovery restored %d edges, want %d", stats2.NumEdges, stats.NumEdges)
	}
}

// TestExamplesRun keeps every example compiling and exiting cleanly.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level test")
	}
	examples, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(examples) < 5 {
		t.Fatalf("found %d examples (err %v), want >= 5", len(examples), err)
	}
	for _, main := range examples {
		dir := filepath.Dir(main)
		t.Run(filepath.Base(dir), func(t *testing.T) {
			cmd := exec.Command("go", "run", "./"+dir)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%s failed: %v\n%s", dir, err, out)
			}
			if len(out) == 0 {
				t.Fatalf("%s produced no output", dir)
			}
		})
	}
}

// TestSnapshotTruncatesWALOnShutdown verifies the snapshot/WAL double-replay
// fix end to end: a SIGTERM shutdown writes the snapshot AND atomically
// truncates the WAL, so a restart recovers from snapshot + (empty) WAL tail
// without re-applying batches the snapshot already contains. The dynamic mix
// includes deletes, for which double replay is not idempotent.
func TestSnapshotTruncatesWALOnShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level test")
	}
	dir := t.TempDir()
	serverBin := buildBinary(t, dir, "platod2gl-server")
	loadgenBin := buildBinary(t, dir, "platod2gl-loadgen")
	snap := filepath.Join(dir, "graph.snap")
	wal := filepath.Join(dir, "graph.wal")

	addr, srv := startServer(t, serverBin, "-snapshot", snap, "-wal", wal)
	defer srv.Process.Kill()
	lg := exec.Command(loadgenBin, "-dataset", "ogbn", "-edges", "6000", "-mix", "dynamic", "-servers", addr)
	if out, err := lg.CombinedOutput(); err != nil {
		t.Fatalf("loadgen: %v\n%s", err, out)
	}
	client, err := cluster.Dial([]string{addr}, cluster.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	if stats.NumEdges == 0 {
		t.Fatal("no edges before shutdown")
	}
	walBefore, err := os.Stat(wal)
	if err != nil || walBefore.Size() == 0 {
		t.Fatalf("wal missing before shutdown: %v", err)
	}

	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- srv.Wait() }()
	select {
	case <-waitErr:
	case <-time.After(15 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
	if fi, err := os.Stat(snap); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot not written: %v", err)
	}
	// The WAL must have been truncated to its bare header (< its loaded
	// size by orders of magnitude), not left holding the full stream.
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatalf("wal gone after shutdown: %v", err)
	}
	if fi.Size() >= walBefore.Size() || fi.Size() > 64 {
		t.Fatalf("wal not truncated: %d bytes (was %d)", fi.Size(), walBefore.Size())
	}

	// Restart with both flags: snapshot restores everything, the empty WAL
	// replays nothing, and the edge count matches exactly.
	addr2, srv2 := startServer(t, serverBin, "-snapshot", snap, "-wal", wal)
	defer srv2.Process.Kill()
	client2, err := cluster.Dial([]string{addr2}, cluster.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	walRestart, err := os.Stat(wal)
	if err != nil {
		t.Fatalf("wal gone after restart: %v", err)
	}
	stats2, err := client2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats2.NumEdges != stats.NumEdges {
		t.Fatalf("restart after snapshot+truncate: %d edges, want %d (double replay?)",
			stats2.NumEdges, stats.NumEdges)
	}
	// New batches after restart land in the fresh WAL tail.
	if err := client2.ApplyBatch([]graph.Event{{Kind: graph.AddEdge, Edge: graph.Edge{
		Src: platod2gl.MakeVertexID(0, 42), Dst: platod2gl.MakeVertexID(0, 43), Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(wal); err != nil || fi.Size() <= walRestart.Size() {
		t.Fatalf("post-restart wal not growing: %v, %v (%d bytes at restart)", fi, err, walRestart.Size())
	}
}
