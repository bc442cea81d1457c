package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// dist is a sorted sample of latencies in milliseconds. Percentiles use
// the nearest-rank rule, computed in integers so that "p99 of 1000
// samples" is exactly the 990th value, with exactly 10 samples beyond.
type dist struct{ v []float64 }

func newDist(ms []float64) dist {
	v := append([]float64(nil), ms...)
	sort.Float64s(v)
	return dist{v}
}

func durDist(ds []time.Duration) dist {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	return newDist(ms)
}

func (d dist) n() int { return len(d.v) }

// rank returns the nearest-rank percentile num/den of the sample: the
// ceil(n·num/den)-th smallest value (1-based), or NaN when empty.
func (d dist) rank(num, den int) float64 {
	n := len(d.v)
	if n == 0 {
		return math.NaN()
	}
	r := (n*num + den - 1) / den
	if r < 1 {
		r = 1
	}
	return d.v[r-1]
}

func (d dist) p50() float64 { return d.rank(1, 2) }
func (d dist) p99() float64 { return d.rank(99, 100) }

// tail returns the highest percentile of the ladder p90, p99, p99.9, …
// that keeps at least ten samples beyond it: p(1-10^-j) needs
// n ≥ 10^(j+1). ok is false below 100 samples, where no tail percentile
// is trustworthy.
func (d dist) tail() (label string, v float64, ok bool) {
	n := len(d.v)
	best := 0
	for j, den := 1, 10; n >= den*10; j, den = j+1, den*10 {
		best = j
	}
	if best == 0 {
		return "", 0, false
	}
	den := 1
	for i := 0; i < best; i++ {
		den *= 10
	}
	return tailLabel(best), d.rank(den-1, den), true
}

// tailLabel names p(1-10^-j): p90, p99, p99.9, p99.99, …
func tailLabel(j int) string {
	if j == 1 {
		return "p90"
	}
	s := "p99"
	if j > 2 {
		s += "."
		for i := 2; i < j; i++ {
			s += "9"
		}
	}
	return s
}

// String renders the sample as the report prints every timing: p50,
// the tail percentile (when n allows one) and n.
func (d dist) String() string {
	if d.n() == 0 {
		return "n=0"
	}
	if label, v, ok := d.tail(); ok {
		return fmt.Sprintf("p50=%.4f ms %s=%.4f ms n=%d", d.p50(), label, v, d.n())
	}
	return fmt.Sprintf("p50=%.4f ms n=%d", d.p50(), d.n())
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return newDist(xs).p50() }
