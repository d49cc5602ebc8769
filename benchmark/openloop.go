package main

import (
	"math/rand"
	"sync"
	"time"
)

// arrival is one open-loop request. Every offset is measured from the moment
// the schedule started.
type arrival struct {
	due  time.Duration // when the schedule said to send it
	sent time.Duration // when the generator actually did
	done time.Duration // when the call returned
	err  error
}

// latency is what the user waited: from the due time, not the send time, so
// a stall that delays later requests is charged to them.
func (a arrival) latency() time.Duration { return a.done - a.due }

// lateness is how far behind its schedule the generator ran.
func (a arrival) lateness() time.Duration { return a.sent - a.due }

// uniformSchedule spaces rate arrivals per second evenly over d.
func uniformSchedule(rate float64, d time.Duration) []time.Duration {
	n := int(rate * d.Seconds())
	due := make([]time.Duration, n)
	gap := float64(time.Second) / rate
	for i := range due {
		due[i] = time.Duration(float64(i) * gap)
	}
	return due
}

// poissonSchedule draws exponential gaps at the given mean rate until d is
// used up: independent users. The same rng state gives the same schedule.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return due
		}
		due = append(due, at)
	}
}

// runOpenLoop sends call(i) at each due offset from start regardless of whether earlier
// calls have returned, each in its own goroutine, and waits for all of them.
// maxInFlight bounds the goroutines: when that many calls are outstanding the
// generator blocks, the arrivals behind it go out late, and their lateness
// and due-time latency say so. No arrival is skipped.
func runOpenLoop(start time.Time, due []time.Duration, maxInFlight int, call func(i int) error) []arrival {
	out := make([]arrival, len(due))
	slots := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	for i, at := range due {
		if wait := at - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		slots <- struct{}{}
		out[i].due = at
		out[i].sent = time.Since(start)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i].err = call(i)
			out[i].done = time.Since(start)
			<-slots
		}(i)
	}
	wg.Wait()
	return out
}
