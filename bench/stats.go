package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile: the smallest sample with at
// least q percent of the samples at or below it. With fewer than 100/(100-q)
// samples that is the slowest one.
func percentile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// samplesBeyond counts how many samples lie strictly above the nearest-rank
// q-th percentile position: the guide asks for at least ten.
func samplesBeyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q/100*float64(n)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns Q1 and Q3 by the exclusive method, the one Python's
// statistics.quantiles(values, n=4) uses, so the spread this benchmark
// prints is the spread the driver computes. It needs two samples.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th quartile cut, 1..3
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3), true
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) (float64, bool) {
	q1, q3, ok := quartiles(xs)
	m := median(xs)
	if !ok || m == 0 {
		return 0, false
	}
	return (q3 - q1) / math.Abs(m), true
}
