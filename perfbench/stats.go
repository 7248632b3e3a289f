package main

import (
	"math"
	"sort"
	"time"
)

// samples holds raw timings. Percentiles are exact order statistics of
// these values: the benchmark never buckets, so p50 and p99 come from
// the measured durations themselves.
type samples []time.Duration

// quantile returns the nearest-rank q-quantile (0 < q <= 1): the
// smallest sample with at least q·n samples at or below it. It returns
// 0 for an empty set.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted.sortedQuantile(q)
}

func (s samples) sortedQuantile(q float64) time.Duration {
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// summary is what the result metadata records for one timing: its
// sample count, p50, p99, and the highest percentile the sample
// supports, i.e. the one with at least ten samples beyond it.
type summary struct {
	N        int     `json:"n"`
	P50US    float64 `json:"p50_us"`
	P90US    float64 `json:"p90_us"`
	P99US    float64 `json:"p99_us"`
	MaxPct   float64 `json:"max_supported_pct"`
	MaxPctUS float64 `json:"at_max_supported_pct_us"`
	MaxUS    float64 `json:"max_us"`
}

// maxSupportedPct is the highest percentile with at least ten samples
// beyond it, or 0 when there are fewer than eleven samples.
func maxSupportedPct(n int) float64 {
	if n <= 10 {
		return 0
	}
	return 100 * (1 - 10/float64(n))
}

func (s samples) summary() summary {
	if len(s) == 0 {
		return summary{}
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	top := maxSupportedPct(len(s))
	out := summary{
		N:      len(s),
		P50US:  us(sorted.sortedQuantile(0.50)),
		P90US:  us(sorted.sortedQuantile(0.90)),
		P99US:  us(sorted.sortedQuantile(0.99)),
		MaxPct: top,
		MaxUS:  us(sorted[len(sorted)-1]),
	}
	if top > 0 {
		out.MaxPctUS = us(sorted.sortedQuantile(top / 100))
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
