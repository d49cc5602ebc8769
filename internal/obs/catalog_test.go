package obs_test

import (
	"bufio"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"platod2gl/internal/checkpoint"
	"platod2gl/internal/cluster"
	"platod2gl/internal/obs"
	"platod2gl/internal/pipeline"
	"platod2gl/internal/serve"
	"platod2gl/internal/storage"
	"platod2gl/internal/view"
)

// binaryGauges are the computed gauges the binaries register over state
// they own (the store, the replica, the serving index), not through a
// package Metrics type.
var binaryGauges = []string{
	"platod2gl_store_edges",
	"platod2gl_store_memory_bytes",
	"platod2gl_sync_ready",
	"platod2gl_serve_index_size",
	"platod2gl_serve_index_tombstones",
}

// registeredNames registers every product Metrics type into one registry and
// returns the metric names its exposition declares.
func registeredNames(t *testing.T) map[string]bool {
	t.Helper()
	r := obs.NewRegistry()
	(&cluster.Metrics{}).Register(r)
	(&storage.Metrics{}).Register(r)
	(&pipeline.Metrics{}).Register(r)
	(&checkpoint.Metrics{}).Register(r)
	(&serve.Metrics{}).Register(r) // includes the embedded ann.Metrics
	(&view.CallMetrics{}).Register(r)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, line := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			names[f[2]] = true
		}
	}
	for _, n := range binaryGauges {
		names[n] = true
	}
	return names
}

var (
	backticked  = regexp.MustCompile("`([^`]*)`")
	catalogName = regexp.MustCompile(`^(platod2gl_[a-z0-9_]+)(\{[a-z_,]+\})?$`)
)

// documentedNames reads the first column of the "Metric catalog" table in
// docs/OPERATIONS.md. Every backticked entry there must be one exact name,
// optionally followed by its label keys.
func documentedNames(t *testing.T) map[string]bool {
	t.Helper()
	f, err := os.Open("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := make(map[string]bool)
	inCatalog := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			inCatalog = line == "### Metric catalog"
			continue
		}
		if !inCatalog || !strings.HasPrefix(line, "| `") {
			continue
		}
		first := strings.Split(line, "|")[1]
		for _, m := range backticked.FindAllStringSubmatch(first, -1) {
			nm := catalogName.FindStringSubmatch(m[1])
			if nm == nil {
				t.Errorf("catalog row %q: %q is not one exact metric name", line, m[1])
				continue
			}
			if names[nm[1]] {
				t.Errorf("catalog lists %s twice", nm[1])
			}
			names[nm[1]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no metric catalog table found in docs/OPERATIONS.md")
	}
	return names
}

// TestMetricCatalog holds the exported metric names and the operations
// guide's catalog to one set: a metric cannot be added, renamed or removed
// without the table following.
func TestMetricCatalog(t *testing.T) {
	registered, documented := registeredNames(t), documentedNames(t)
	var undocumented, unregistered []string
	for n := range registered {
		if !documented[n] {
			undocumented = append(undocumented, n)
		}
	}
	for n := range documented {
		if !registered[n] {
			unregistered = append(unregistered, n)
		}
	}
	sort.Strings(undocumented)
	sort.Strings(unregistered)
	for _, n := range undocumented {
		t.Errorf("%s is registered but missing from the docs/OPERATIONS.md metric catalog", n)
	}
	for _, n := range unregistered {
		t.Errorf("%s is in the docs/OPERATIONS.md metric catalog but nothing registers it", n)
	}
}
