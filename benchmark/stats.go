package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; 0 for an empty sample. xs is
// not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// fastest and highest pick a run's best round: the end-to-end timings
// are the smallest per-round time (or per-round latency quantile) and
// the largest per-round rate. The box runs at one of two speeds about
// 1.5× apart and stays at one for longer than a run, so a median over
// rounds follows whichever the run met, while some round of nearly
// every run reaches the fast one (README, Steadiness).
func fastest(xs []float64) float64 { return quantile(xs, 0) }
func highest(xs []float64) float64 { return quantile(xs, 1) }

// tailPermille are the candidates highestSupported chooses from, in
// thousandths so that the "ten beyond" test is exact.
var tailPermille = []int{999, 990, 950, 900, 750}

// highestSupported returns the highest of p99.9, p99, p95, p90 and p75
// that has at least ten of n samples beyond it (the choosing-metrics
// rule for reporting a tail), or 0.5 when even p75 has fewer.
func highestSupported(n int) float64 {
	for _, p := range tailPermille {
		if n*(1000-p) >= 10*1000 {
			return float64(p) / 1000
		}
	}
	return 0.5
}

// quartiles returns Q1, Q2, Q3 the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the driver uses for its spread check. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	return at(1), at(2), at(3)
}

// relSpread is the interquartile range as a share of the median — the
// driver's steadiness measure.
func relSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
