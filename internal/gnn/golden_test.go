package gnn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// hashMatrices is the FNV-64a hash of the float32 bits of every element of
// ms, in order.
func hashMatrices(ms ...*Matrix) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, m := range ms {
		for _, v := range m.Data {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestTrainStepGolden pins the bits of the whole step: five TrainSteps on
// seeded batches at BenchmarkGNNTrainStep's shape (64 features → 32 hidden
// → 8 classes, fan-outs 10×5), on a smaller graph with 64 seeds per batch,
// then a forward pass. The hashes of the logits and of every parameter
// were recorded from the pure-Go scalar kernels; any change to a kernel,
// a summation order or a fused multiply-add changes them. So does a change
// to the order in which the sampler draws: they were re-recorded when each
// hop began drawing every distinct frontier vertex once, and when the
// second hop stopped reusing the first hop's random numbers.
func TestTrainStepGolden(t *testing.T) { checkTrainStepGolden(t) }

func checkTrainStepGolden(t *testing.T) {
	t.Helper()
	const wantLogits, wantParams = 0x4768fdaec9d66360, 0x4d85cc90ed5d4510
	v, ids := ogbnView(t, 20_000, 64, 8)
	rng := rand.New(rand.NewSource(61))
	tr := NewTrainer(NewModel(64, 32, 8, rng), v, 0, 10, 5, 0.01)
	batches := make([]*Batch, 6)
	for i := range batches {
		batches[i] = mustBatch(t, tr.SampleBatch, seedBatch(rng, ids, 64))
	}
	for _, b := range batches[:5] {
		tr.TrainStep(b)
	}
	logits := hashMatrices(tr.Forward(batches[5]))
	params := hashMatrices(tr.Model.Params()...)
	if logits != wantLogits || params != wantParams {
		t.Fatalf("logits hash %#x, params hash %#x; want %#x, %#x", logits, params, uint64(wantLogits), uint64(wantParams))
	}
}
