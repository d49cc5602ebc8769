package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs, which
// must already be sorted ascending. It reads the exact sample at the rank:
// no bucket edges, no interpolation, so a gate on it is never quantised.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of xs (mean of the two middle values for
// an even count) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// timed is one completed operation: when it finished (ns since the window
// opened) and how long its caller waited for it, in milliseconds.
type timed struct {
	end int64
	ms  float64
}

func latencies(obs []timed) []float64 {
	out := make([]float64, len(obs))
	for i, o := range obs {
		out[i] = o.ms
	}
	sort.Float64s(out)
	return out
}

// slices is how many equal spans of time a window is cut into. Every
// end-to-end number is the median of the spans' values: one stall (a GC
// cycle, a neighbour on the host) then spoils one span, not the run, which is
// what keeps a p95 or a rate from a 20 s window within a bound that a later
// change can be held to.
const slices = 5

// sliceOf is the span of a window of the given length that offset t falls in.
func sliceOf(t, window int64) int {
	i := int(t * slices / window)
	return max(0, min(i, slices-1))
}

// slicedPercentile takes the exact q-quantile of the operations that
// completed in each span of the window and returns the median of those.
func slicedPercentile(obs []timed, window int64, q float64) float64 {
	if len(obs) == 0 || window <= 0 {
		return 0
	}
	buckets := make([][]float64, slices)
	for _, o := range obs {
		i := sliceOf(o.end, window)
		buckets[i] = append(buckets[i], o.ms)
	}
	var qs []float64
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sort.Float64s(b)
		qs = append(qs, percentile(b, q))
	}
	return median(qs)
}

// finished is work completed at an offset into the window: units is seeds,
// events or queries, whatever the workload's throughput counts.
type finished struct {
	end   int64
	units int64
}

// completions is the throughput series of operations that each complete the
// same number of units.
func completions(obs []timed, units int64) []finished {
	done := make([]finished, len(obs))
	for i, o := range obs {
		done[i] = finished{o.end, units}
	}
	return done
}

// slicedRate is the median over the window's spans of units completed per
// second.
func slicedRate(done []finished, window int64) float64 {
	if window <= 0 {
		return 0
	}
	var units [slices]float64
	for _, d := range done {
		units[sliceOf(d.end, window)] += float64(d.units)
	}
	return median(units[:]) / (float64(window) / slices / 1e9)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, and 0 when there is nothing to divide by: a layer a workload
// never enters reports 0 for its per-layer metrics.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
