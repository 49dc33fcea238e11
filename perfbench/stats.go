package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of the samples,
// interpolating linearly between the two nearest order statistics (0 for
// none). It sorts a copy.
func quantile(samples []float64, q float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return s[n-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// roundStats summarizes a closed loop round by round. A round is the
// workload's unit mix; the run reports, for each figure, the median over
// its rounds. That keeps a stall of the host in a few rounds (the machine
// is shared, and its stolen time comes in bursts) from moving the figure,
// and it keeps the median off the gap between the latency bands of two
// different queries, where a pooled median of an even-sized mix jumps
// from one band's edge to the other's from run to run.
type roundStats struct {
	p50, p95   float64 // ms: medians over rounds of each round's quantile
	throughput float64 // operations per second of the median round
	rounds     int
}

// summarize groups the loop's operations into rounds of roundLen
// consecutive indices. A round's duration runs from the previous round's
// completion (or the loop's start) to the completion of its last operation.
func summarize(l loopResult, roundLen int) roundStats {
	lat := map[int][]float64{}
	done := map[int]time.Duration{}
	last := 0
	for k, i := range l.ops {
		r := i / roundLen
		lat[r] = append(lat[r], l.latencies[k])
		done[r] = max(done[r], l.ends[k])
		last = max(last, r)
	}
	var p50s, p95s, durs []float64
	var prev time.Duration
	for r := 0; r <= last; r++ {
		if len(lat[r]) == 0 {
			continue
		}
		p50s = append(p50s, quantile(lat[r], 0.50))
		p95s = append(p95s, quantile(lat[r], 0.95))
		end := max(done[r], prev)
		durs = append(durs, (end - prev).Seconds())
		prev = end
	}
	return roundStats{
		p50:        quantile(p50s, 0.5),
		p95:        quantile(p95s, 0.5),
		throughput: ratio(float64(roundLen), quantile(durs, 0.5)),
		rounds:     len(p50s),
	}
}

// mean returns the arithmetic mean of the samples (0 for none).
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var t float64
	for _, v := range samples {
		t += v
	}
	return t / float64(len(samples))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
