// Package pipeline overlaps mini-batch preparation with training compute:
// a bounded, double-buffered prefetcher that runs seed batching → multi-hop
// sampling → feature/label fetch → tensor assembly ahead of the consumer,
// so remote sampling and feature-pull latency (the dominant cost against a
// sharded cluster) hides behind the previous batch's forward/backward pass.
//
// Batches are delivered strictly in submission order regardless of worker
// count: worker w builds batches w, w+W, w+2W, ... and the deliverer pops
// the per-worker queues round-robin. Batch i is therefore always built by
// the same worker with the same inputs — with a single worker the pipeline
// is fully deterministic and produces exactly the synchronous loop's
// output. Errors propagate in order: the failing batch's Result carries the
// error, after which the pipeline shuts down.
package pipeline

import (
	"math/rand"
	"sync"
	"time"

	"platod2gl/internal/gnn"
	"platod2gl/internal/graph"
)

// Loader builds one training batch from its seed set —
// (*gnn.Trainer).SampleBatch and (*gnn.GATTrainer).SampleBatch satisfy it.
type Loader func(seeds []graph.VertexID) (*gnn.Batch, error)

// Config tunes a pipeline run. The zero value means depth 2 (double
// buffering), one worker (deterministic mode), no metrics.
type Config struct {
	// Depth bounds how many batches may be in flight (being built or
	// buffered) beyond the one the consumer holds; it is split evenly across
	// workers, rounding up to ceil(Depth/Workers) per worker. Default 2.
	Depth int
	// Workers is the number of concurrent batch builders. Default 1, which
	// guarantees batches are built in exactly the synchronous loop's order.
	// Depth is raised to Workers when smaller, so every worker can make
	// progress.
	Workers int
	// Metrics receives prefetch-hit/stall counters (may be shared across
	// epochs and registered in an obs.Registry). nil: a private instance.
	Metrics *Metrics
}

func (c Config) withDefaults() Config {
	if c.Depth <= 0 {
		c.Depth = 2
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Depth < c.Workers {
		c.Depth = c.Workers
	}
	if c.Metrics == nil {
		c.Metrics = &Metrics{}
	}
	return c
}

// Result is one prefetched batch, or the error that ended the run.
type Result struct {
	Index int
	Seeds []graph.VertexID
	Batch *gnn.Batch
	Err   error

	builtAt time.Time // when the worker finished building, for queue-wait timing
}

// Pipeline is one bounded prefetch run over a fixed list of seed batches.
type Pipeline struct {
	out      chan Result
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	metrics  *Metrics
}

// Run starts prefetching batches for every seed set in seedBatches.
// Consume with Next (or C) until exhaustion, and always call Stop when done
// — it is the idempotent cleanup that releases workers after early exits.
func Run(seedBatches [][]graph.VertexID, load Loader, cfg Config) *Pipeline {
	cfg = cfg.withDefaults()
	p := &Pipeline{
		out:     make(chan Result),
		stop:    make(chan struct{}),
		metrics: cfg.Metrics,
	}
	n := len(seedBatches)
	// Each worker gets a private token budget, refilled when the consumer
	// takes one of ITS batches: worker w may run ceil(Depth/W) batches ahead
	// of its last delivered one, bounding total in-flight work at ~Depth. The
	// budget must be per-worker — with a shared pool a fast worker can drain
	// every token while the worker owning the round-robin's next index
	// starves, deadlocking the in-order deliverer.
	budget := (cfg.Depth + cfg.Workers - 1) / cfg.Workers
	// Per-worker result queues; index i lives at queue i%W position i/W, so
	// round-robin popping restores global order. Queue capacity matches the
	// token budget, so a worker holding a token never blocks on the enqueue.
	queues := make([]chan Result, cfg.Workers)
	tokens := make([]chan struct{}, cfg.Workers)
	for w := range queues {
		queues[w] = make(chan Result, budget)
		tokens[w] = make(chan struct{}, budget)
		for i := 0; i < budget; i++ {
			tokens[w] <- struct{}{}
		}
	}
	for w := 0; w < cfg.Workers; w++ {
		p.wg.Add(1)
		go func(w int) {
			defer p.wg.Done()
			defer close(queues[w])
			for i := w; i < n; i += cfg.Workers {
				select {
				case <-p.stop:
					return
				case <-tokens[w]:
				}
				start := time.Now()
				b, err := load(seedBatches[i])
				p.metrics.addBuild(time.Since(start))
				select {
				case <-p.stop:
					return
				case queues[w] <- Result{Index: i, Seeds: seedBatches[i], Batch: b, Err: err, builtAt: time.Now()}:
				}
			}
		}(w)
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer close(p.out)
		for i := 0; i < n; i++ {
			var r Result
			var ok bool
			select {
			case <-p.stop:
				return
			case r, ok = <-queues[i%cfg.Workers]:
				if !ok {
					return
				}
			}
			select {
			case <-p.stop:
				return
			case p.out <- r:
				p.metrics.observeWait(r.builtAt)
				// Return the token to the worker that built this batch; its
				// budget is bounded relative to its own delivered batches.
				tokens[i%cfg.Workers] <- struct{}{}
			}
			if r.Err != nil {
				// Deliver the failure in order, then halt the workers: the
				// consumer sees exactly the batches before the error, the
				// error, and a closed channel.
				p.halt()
				return
			}
		}
	}()
	return p
}

// C exposes the in-order result stream; it closes after the last batch or
// the first delivered error.
func (p *Pipeline) C() <-chan Result { return p.out }

// Next returns the next batch in order, recording whether it was already
// prefetched (hit) or the consumer had to stall waiting for it.
func (p *Pipeline) Next() (Result, bool) {
	select {
	case r, ok := <-p.out:
		if ok {
			p.metrics.PrefetchHits.Inc()
		}
		return r, ok
	default:
	}
	start := time.Now()
	r, ok := <-p.out
	if ok {
		p.metrics.addStall(time.Since(start))
	}
	return r, ok
}

// halt signals all goroutines to exit without waiting for them.
func (p *Pipeline) halt() {
	p.stopOnce.Do(func() { close(p.stop) })
}

// Close abandons the run without blocking: every worker and the deliverer is
// signalled to exit as soon as its current batch build returns. Use it when
// the consumer stops reading mid-stream (an interrupted epoch, an early
// return) and must not wait out an in-flight build the way Stop does; a
// later Stop still provides the happens-after barrier. Idempotent.
func (p *Pipeline) Close() { p.halt() }

// Stop cancels any remaining prefetch work and waits for the pipeline's
// goroutines to exit. Idempotent; safe after full consumption, early exit,
// or a delivered error. Must not be called from the same goroutine that is
// still consuming results only if that goroutine abandoned the channel —
// i.e. just call it (or defer it) once consumption is over.
func (p *Pipeline) Stop() {
	p.halt()
	p.wg.Wait()
}

// SeedBatches shuffles seeds with rng and cuts them into consecutive
// batchSize chunks, dropping the remainder — exactly the order
// (*gnn.Trainer).TrainEpoch visits, so a pipelined epoch over the same rng
// state trains on identical mini-batches.
func SeedBatches(seeds []graph.VertexID, batchSize int, rng *rand.Rand) [][]graph.VertexID {
	if batchSize <= 0 {
		return nil
	}
	perm := rng.Perm(len(seeds))
	var out [][]graph.VertexID
	for lo := 0; lo+batchSize <= len(perm); lo += batchSize {
		batch := make([]graph.VertexID, batchSize)
		for i := 0; i < batchSize; i++ {
			batch[i] = seeds[perm[lo+i]]
		}
		out = append(out, batch)
	}
	return out
}

// Stepper consumes prepared batches — gnn.Trainer and gnn.GATTrainer both
// satisfy it.
type Stepper interface {
	TrainStep(*gnn.Batch) float64
}

// TrainEpoch runs one pipelined training epoch: seed batches are prefetched
// (sampled + features fetched + tensors assembled) cfg.Depth ahead by
// cfg.Workers concurrent builders while t.TrainStep consumes them in order.
// It mirrors (*gnn.Trainer).TrainEpoch's semantics — same shuffle, same
// batch composition, mean loss over full batches — and with Workers=1 its
// result is bit-identical to the synchronous loop's.
func TrainEpoch(t Stepper, load Loader, epoch int, seeds []graph.VertexID, batchSize int, rng *rand.Rand, cfg Config) (gnn.EpochResult, error) {
	p := Run(SeedBatches(seeds, batchSize, rng), load, cfg)
	defer p.Stop()
	totalLoss := 0.0
	batches := 0
	for {
		r, ok := p.Next()
		if !ok {
			break
		}
		if r.Err != nil {
			return gnn.EpochResult{Epoch: epoch}, r.Err
		}
		totalLoss += t.TrainStep(r.Batch)
		batches++
	}
	if batches == 0 {
		return gnn.EpochResult{Epoch: epoch}, nil
	}
	return gnn.EpochResult{Epoch: epoch, MeanLoss: totalLoss / float64(batches), Batches: batches}, nil
}
