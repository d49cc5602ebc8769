package main

import (
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"platod2gl/internal/checkpoint"
	"platod2gl/internal/cluster"
)

// TestResumeBitIdentical is the headline determinism proof: a single-worker
// run interrupted at an epoch boundary and resumed must land on bit-identical
// final parameters and optimizer state versus the uninterrupted run, for both
// the local and the sharded backend.
func TestResumeBitIdentical(t *testing.T) {
	for _, backend := range []string{"local", "shards"} {
		t.Run(backend, func(t *testing.T) {
			base := testConfig()
			base.workers = 1 // deterministic mode
			base.depth = 2
			if backend == "local" {
				base.local = true
			} else {
				base.shards = 2
			}

			// Run A: 4 epochs straight through.
			dirA := t.TempDir()
			cfgA := base
			cfgA.epochs = 4
			cfgA.checkpointDir = dirA
			var outA strings.Builder
			if err := run(cfgA, &outA); err != nil {
				t.Fatal(err)
			}

			// Run B: 2 epochs, then resume to 4 from the checkpoint.
			dirB := t.TempDir()
			cfgB := base
			cfgB.epochs = 2
			cfgB.checkpointDir = dirB
			var outB1 strings.Builder
			if err := run(cfgB, &outB1); err != nil {
				t.Fatal(err)
			}
			cfgB.epochs = 4
			cfgB.resume = true
			var outB2 strings.Builder
			if err := run(cfgB, &outB2); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(outB2.String(), "resumed from") {
				t.Fatalf("second leg did not resume:\n%s", outB2.String())
			}

			stA, _, err := checkpoint.LoadLatest(dirA, nil)
			if err != nil {
				t.Fatal(err)
			}
			stB, _, err := checkpoint.LoadLatest(dirB, nil)
			if err != nil {
				t.Fatal(err)
			}
			if stA.Manifest.Epoch != 4 || stB.Manifest.Epoch != 4 {
				t.Fatalf("final manifests: A epoch %d, B epoch %d, want 4",
					stA.Manifest.Epoch, stB.Manifest.Epoch)
			}
			if !reflect.DeepEqual(stA.Params, stB.Params) {
				t.Fatalf("resumed run diverged: final parameters differ\nA:\n%s\nB:\n%s",
					outA.String(), outB2.String())
			}
			if !reflect.DeepEqual(stA.Opt, stB.Opt) {
				t.Fatal("resumed run diverged: optimizer state differs")
			}
			if stA.Manifest.SamplePos != stB.Manifest.SamplePos {
				t.Fatalf("sampling cursors diverged: %d vs %d",
					stA.Manifest.SamplePos, stB.Manifest.SamplePos)
			}
		})
	}
}

// TestGracefulSigterm: SIGTERM mid-epoch drains the batch being trained,
// writes a final checkpoint naming the exact resume position, and run returns
// cleanly; a -resume run then skips the already-trained batches and finishes.
func TestGracefulSigterm(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.local = true
	cfg.workers = 1
	cfg.checkpointDir = dir

	var once sync.Once
	cfg.onStep = func(epoch, step int) {
		if epoch == 0 && step == 2 {
			once.Do(func() {
				if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
					t.Errorf("kill: %v", err)
				}
				// Give the runtime a moment to route the signal onto sigCh so
				// the loop notices before building up more steps.
				time.Sleep(50 * time.Millisecond)
			})
		}
	}
	var out strings.Builder
	if err := run(cfg, &out); err != nil {
		t.Fatalf("SIGTERM should exit cleanly, got: %v\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "interrupted: drained batch, wrote final checkpoint") {
		t.Fatalf("no graceful-shutdown message:\n%s", got)
	}
	if !strings.Contains(got, "checkpoint: wrote") {
		t.Fatalf("no checkpoint written on SIGTERM:\n%s", got)
	}

	st, _, err := checkpoint.LoadLatest(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Manifest.Epoch != 0 || st.Manifest.Step < 2 {
		t.Fatalf("manifest = epoch %d step %d, want epoch 0 step >= 2",
			st.Manifest.Epoch, st.Manifest.Step)
	}

	// Resume finishes the interrupted epoch (skipping trained batches) and
	// the rest of the schedule.
	cfg.onStep = nil
	cfg.resume = true
	var out2 strings.Builder
	if err := run(cfg, &out2); err != nil {
		t.Fatal(err)
	}
	got2 := out2.String()
	for _, want := range []string{"resumed from", "skipping", "epoch 1:", "trained"} {
		if !strings.Contains(got2, want) {
			t.Fatalf("resume output missing %q:\n%s", want, got2)
		}
	}
}

// TestTrainChaosKillShardAndResume is the training chaos proof: a shard dies
// mid-epoch and training rides it out through the cluster client's retries
// and sampling degradation; a SIGTERM then checkpoints the session and a resumed run
// completes the schedule.
func TestTrainChaosKillShardAndResume(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.shards = 2
	cfg.workers = 2
	cfg.depth = 4
	cfg.epochs = 2
	cfg.checkpointDir = dir
	cfg.degradeSampling = true

	var lc *cluster.LocalCluster
	cfg.onCluster = func(c *cluster.LocalCluster) { lc = c }
	var killOnce, termOnce sync.Once
	cfg.onStep = func(epoch, step int) {
		if epoch == 0 && step == 2 {
			killOnce.Do(func() {
				lc.StopShard(1)
				time.AfterFunc(80*time.Millisecond, func() { lc.RestartShard(1) })
			})
		}
		if epoch == 1 && step == 1 {
			termOnce.Do(func() {
				syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
				time.Sleep(50 * time.Millisecond)
			})
		}
	}
	var out strings.Builder
	if err := run(cfg, &out); err != nil {
		t.Fatalf("chaos run failed: %v\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "epoch 0:") {
		t.Fatalf("epoch 0 did not complete through the shard outage:\n%s", got)
	}
	if !strings.Contains(got, "interrupted: drained batch, wrote final checkpoint") {
		t.Fatalf("no graceful shutdown after chaos:\n%s", got)
	}

	st, _, err := checkpoint.LoadLatest(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Manifest.Epoch != 1 || st.Manifest.Step < 1 {
		t.Fatalf("manifest = epoch %d step %d, want epoch 1 step >= 1",
			st.Manifest.Epoch, st.Manifest.Step)
	}

	// Resume against a fresh (healthy) cluster and finish the schedule.
	cfg.onCluster = nil
	cfg.onStep = nil
	cfg.resume = true
	var out2 strings.Builder
	if err := run(cfg, &out2); err != nil {
		t.Fatalf("resume after chaos failed: %v\n%s", err, out2.String())
	}
	got2 := out2.String()
	for _, want := range []string{"resumed from", "epoch 1:", "trained", "cluster:", "checkpoint: saves="} {
		if !strings.Contains(got2, want) {
			t.Fatalf("post-chaos output missing %q:\n%s", want, got2)
		}
	}
}
