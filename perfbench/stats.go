package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, with the percentile it chose. With fewer than 20
// samples it falls back to the median (p50).
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n < 20 {
		return median(xs), 50
	}
	s := sortedCopy(xs)
	// Candidate percentiles, highest first; take the first one whose
	// nearest-rank index leaves ≥10 samples above it.
	for _, p := range []float64{99.9, 99.5, 99, 98, 95, 90, 80, 75, 50} {
		idx := int(math.Ceil(p/100*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		if n-1-idx >= 10 {
			return s[idx], p
		}
	}
	return median(xs), 50
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio[T int | int64 | uint64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// geomean is the geometric mean of the positive values of xs.
func geomean(xs []float64) float64 {
	var s float64
	var n int
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// failures counts failed operations and keeps the first few messages.
type failures struct {
	n     int
	first []string
}

const keepFailures = 5

func (f *failures) add(msg string) { f.addN(1, msg) }

func (f *failures) addN(n int, msg string) {
	f.n += n
	if len(f.first) < keepFailures {
		f.first = append(f.first, msg)
	}
}

func (f *failures) merge(o failures) {
	f.n += o.n
	for _, m := range o.first {
		if len(f.first) < keepFailures {
			f.first = append(f.first, m)
		}
	}
}
