package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// getVars fetches and decodes one endpoint's /debug/vars.
func getVars(t *testing.T, hc *http.Client, addr string) map[string]json.RawMessage {
	t.Helper()
	resp, err := hc.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars on %s is not JSON: %v", addr, err)
	}
	return vars
}

// TestServeEndpointsAreIndependent: two endpoints alive in one process, each
// over its own registry, each serve their own values. A global expvar
// publication would make the second endpoint show the first one's counters.
func TestServeEndpointsAreIndependent(t *testing.T) {
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	addrs := make([]string, 2)
	for i := range addrs {
		r := NewRegistry()
		r.Counter("platod2gl_test_runs_total", "Runs.", nil).Add(int64(10 * (i + 1)))
		addr, shutdown, err := Serve("127.0.0.1:0", r)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { shutdown(context.Background()) })
		addrs[i] = addr
	}
	for i, addr := range addrs {
		vars := getVars(t, hc, addr)
		for _, k := range []string{"cmdline", "memstats"} {
			if _, ok := vars[k]; !ok {
				t.Errorf("%s: /debug/vars lacks expvar's %q", addr, k)
			}
		}
		var reg map[string]any
		if err := json.Unmarshal(vars["platod2gl"], &reg); err != nil {
			t.Fatalf("%s: platod2gl object: %v", addr, err)
		}
		if got, want := reg["platod2gl_test_runs_total"], float64(10*(i+1)); got != want {
			t.Errorf("endpoint %d serves platod2gl_test_runs_total = %v, want %v", i, got, want)
		}
		resp, err := hc.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if want := fmt.Sprintf("platod2gl_test_runs_total %d\n", 10*(i+1)); !strings.Contains(string(body), want) {
			t.Errorf("endpoint %d /metrics lacks the counter:\n%s", i, body)
		}
	}
}

// TestServeShutdownReleasesEverything: after shutdown the port can be bound
// again and the endpoint leaves no goroutine behind.
func TestServeShutdownReleasesEverything(t *testing.T) {
	before := runtime.NumGoroutine()
	addr, shutdown, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	getVars(t, hc, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port %s still held after shutdown: %v", addr, err)
	}
	lis.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after shutdown, %d before:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
