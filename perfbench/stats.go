package main

import (
	"fmt"
	"slices"
)

// Percentiles are integers in basis points (1/100 of a percent), so
// rank arithmetic is exact: p99 is 9900, the median 5000.
const (
	p50 = 5000
	p99 = 9900
)

// tailLadder is the set of percentiles a summary may name as its tail,
// lowest first.
var tailLadder = []int{p50, 9000, p99, 9990, 9999}

// quantile returns the exact p-quantile of sorted by the nearest-rank
// rule: the smallest sample with at least p/10000 of all samples at or
// below it. It returns 0 for no samples.
func quantile(sorted []int64, p int) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := (p*n + 9999) / 10000 // ceil(p·n / 10000), the 1-based rank
	if k < 1 {
		k = 1
	}
	return sorted[k-1]
}

// beyond returns how many of n samples lie strictly above the
// p-quantile's rank.
func beyond(n, p int) int {
	k := (p*n + 9999) / 10000
	if k < 1 {
		k = 1
	}
	return n - k
}

// summary is a sample set reduced to what the benchmark reports: the
// count, the median, p99, and the highest percentile on tailLadder that
// still has at least ten samples beyond it (TailP is 0 when even the
// median has fewer).
type summary struct {
	N     int
	P50   int64
	P99   int64
	TailP int
	Tail  int64
}

// summarize sorts samples in place and summarizes them.
func summarize(samples []int64) summary {
	slices.Sort(samples)
	s := summary{N: len(samples), P50: quantile(samples, p50), P99: quantile(samples, p99)}
	for _, p := range tailLadder {
		if beyond(len(samples), p) >= 10 {
			s.TailP, s.Tail = p, quantile(samples, p)
		}
	}
	return s
}

// String renders the summary in microseconds with every sample count,
// e.g. "n=2000 p50=1.50us p99=9.90us (20 beyond) tail p99=9.90us".
func (s summary) String() string {
	us := func(v int64) string { return fmt.Sprintf("%.2fus", float64(v)/1e3) }
	out := fmt.Sprintf("n=%d p50=%s p99=%s (%d beyond)", s.N, us(s.P50), us(s.P99), beyond(s.N, p99))
	if s.TailP == 0 {
		return out + " tail: fewer than 10 samples beyond the median"
	}
	return out + fmt.Sprintf(" tail p%s=%s", pctName(s.TailP), us(s.Tail))
}

// pctName renders basis points as a percentile label: 9900 → "99",
// 9990 → "99.9".
func pctName(p int) string {
	switch {
	case p%100 == 0:
		return fmt.Sprint(p / 100)
	case p%10 == 0:
		return fmt.Sprintf("%d.%d", p/100, p/10%10)
	default:
		return fmt.Sprintf("%d.%02d", p/100, p%100)
	}
}

// sampler keeps a bounded, evenly spaced subsample of a stream without
// allocating after construction: it keeps every k-th value, and when
// its buffer fills it drops every other kept value and doubles k. The
// kept values are always exactly the stream positions divisible by k,
// so the subsample is systematic, never biased toward the start or end
// of the run. Not safe for concurrent use.
type sampler struct {
	k, seen uint64
	buf     []int64
}

func newSampler(capacity int) *sampler {
	return &sampler{k: 1, buf: make([]int64, 0, capacity)}
}

func (s *sampler) add(v int64) {
	s.seen++
	if s.seen%s.k != 0 {
		return
	}
	if len(s.buf) == cap(s.buf) {
		j := 0
		for i := 1; i < len(s.buf); i += 2 {
			s.buf[j] = s.buf[i]
			j++
		}
		s.buf = s.buf[:j]
		s.k *= 2
		if s.seen%s.k != 0 {
			return
		}
	}
	s.buf = append(s.buf, v)
}
