package main

import (
	"strings"
	"testing"
)

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

func TestQuantileKnownVectors(t *testing.T) {
	for _, tc := range []struct {
		samples []int64
		p       int
		want    int64
	}{
		{nil, p50, 0},
		{[]int64{7}, p50, 7},
		{[]int64{7}, p99, 7},
		{seq(10), p50, 5},
		{seq(10), p99, 10},
		{seq(10), 1000, 1}, // p10: rank ceil(1.0) = 1
		{seq(100), p50, 50},
		{seq(100), p99, 99},
		{seq(100), 10000, 100},
		{seq(101), p50, 51},
		{seq(1000), p99, 990},
		{seq(1000), 9990, 999},
		{[]int64{1, 1, 2, 2, 9}, p50, 2},
	} {
		if got := quantile(tc.samples, tc.p); got != tc.want {
			t.Errorf("quantile(n=%d, p%s) = %d, want %d", len(tc.samples), pctName(tc.p), got, tc.want)
		}
	}
}

func TestSummarizeSortsAndReportsCounts(t *testing.T) {
	s := summarize([]int64{5000, 1000, 3000, 2000, 4000})
	if s.N != 5 || s.P50 != 3000 || s.P99 != 5000 {
		t.Fatalf("summary = %+v", s)
	}
	out := summarize(seq(1000)).String()
	for _, want := range []string{"n=1000", "p50=0.50us", "p99=0.99us (10 beyond)", "tail p99=0.99us"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() = %q, missing %q", out, want)
		}
	}
}

// TestTailRule checks "the highest percentile with at least ten
// samples beyond it".
func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n     int
		tailP int
	}{
		{19, 0},       // median rank 10, only 9 beyond
		{20, p50},     // 10 beyond the median
		{999, 9000},   // p99 rank 990: 9 beyond
		{1000, p99},   // p99 rank 990: 10 beyond
		{9999, p99},   // p99.9 rank 9990: 9 beyond
		{10000, 9990}, // p99.9 rank 9990: 10 beyond
		{100000, 9999},
	} {
		s := summarize(seq(tc.n))
		if s.TailP != tc.tailP {
			t.Errorf("n=%d: tail p%s, want p%s", tc.n, pctName(s.TailP), pctName(tc.tailP))
		}
		if s.TailP != 0 && beyond(tc.n, s.TailP) < 10 {
			t.Errorf("n=%d: tail p%s has %d beyond", tc.n, pctName(s.TailP), beyond(tc.n, s.TailP))
		}
	}
}

func TestPctName(t *testing.T) {
	for p, want := range map[int]string{5000: "50", 9900: "99", 9990: "99.9", 9999: "99.99"} {
		if got := pctName(p); got != want {
			t.Errorf("pctName(%d) = %q, want %q", p, got, want)
		}
	}
}

// TestSamplerSystematic checks the decimating sampler keeps exactly the
// stream positions divisible by its stride, within its capacity.
func TestSamplerSystematic(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 100, 1000, 4097} {
		s := newSampler(8)
		for _, v := range seq(n) {
			s.add(v)
		}
		if len(s.buf) > 8 || cap(s.buf) != 8 {
			t.Fatalf("n=%d: len %d cap %d", n, len(s.buf), cap(s.buf))
		}
		want := int64(s.k)
		for _, v := range s.buf {
			if v != want {
				t.Fatalf("n=%d k=%d: kept %v", n, s.k, s.buf)
			}
			want += int64(s.k)
		}
		if len(s.buf) != n/int(s.k) {
			t.Fatalf("n=%d k=%d: kept %v, want every multiple of k", n, s.k, s.buf)
		}
	}
}
