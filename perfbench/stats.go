package main

import (
	"sort"
	"time"
)

// quantile interpolates linearly between the closest ranks of sorted
// values (the "type 7" definition).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(i)
	return sorted[i] + f*(sorted[i+1]-sorted[i])
}

// durQuantile returns the q-quantile of unsorted durations.
func durQuantile(d []time.Duration, q float64) time.Duration {
	f := make([]float64, len(d))
	for i, x := range d {
		f[i] = float64(x)
	}
	sort.Float64s(f)
	return time.Duration(quantile(f, q))
}

// latencyMS returns the q-quantile of unsorted latencies in milliseconds.
func latencyMS(lat []time.Duration, q float64) float64 {
	return float64(durQuantile(lat, q)) / 1e6
}

func medianSeconds(d []time.Duration) float64 { return durQuantile(d, 0.5).Seconds() }
