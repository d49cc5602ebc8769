package main

import (
	"strings"
	"testing"
	"time"
)

func testConfig() config {
	return config{
		nodes: 300, classes: 3, dim: 8, hidden: 16, degree: 6,
		epochs: 2, batch: 32, f1: 4, f2: 3, lr: 0.02, seed: 1,
		depth: 4, workers: 2,
	}
}

func TestRunLocalEpochs(t *testing.T) {
	cfg := testConfig()
	cfg.local = true
	var out strings.Builder
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"training on local", "epoch 0:", "epoch 1:", "pipeline: built="} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunInProcessCluster(t *testing.T) {
	cfg := testConfig()
	cfg.shards = 2
	cfg.workers = 4
	cfg.depth = 8
	var out strings.Builder
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"training on cluster(2 shards)", "epoch 1:",
		"pipeline: built=", "coalescing saved",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	// The layer-wise block sends each hop's frontier and the block's
	// feature rows once per distinct vertex, so there is nothing left for
	// the client to coalesce.
	if !strings.Contains(got, "coalescing saved 0 duplicate seeds / 0 wire bytes, 0 duplicate feature and label rows") {
		t.Fatalf("a batch sent a vertex twice:\n%s", got)
	}
}

func TestRunWithInjectedLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-flavored test")
	}
	cfg := testConfig()
	cfg.local = true
	cfg.nodes = 150
	cfg.epochs = 1
	cfg.sampleDelay = time.Millisecond
	cfg.workers = 4
	var out strings.Builder
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "epoch 0:") {
		t.Fatalf("no epoch output:\n%s", out.String())
	}
}

func TestRunRejectsMissingBackend(t *testing.T) {
	cfg := testConfig()
	var out strings.Builder
	if err := run(cfg, &out); err == nil {
		t.Fatal("expected error without a backend flag")
	}
	cfg.local = true
	cfg.epochs = 0
	if err := run(cfg, &out); err == nil {
		t.Fatal("expected error for zero epochs")
	}
}
