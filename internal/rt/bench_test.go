package rt

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/lottery"
	"repro/internal/metrics"
	"repro/internal/random"
	"repro/internal/rt/audit"
	"repro/internal/rt/resource"
	"repro/internal/ticket"
)

// benchDispatch measures end-to-end dispatch throughput: tasks/sec
// from Submit through worker pickup to completion, with nclients
// competing for the pool. Shards is pinned to 1 so these numbers
// measure the single-shard serial path.
func benchDispatch(b *testing.B, nclients int) {
	benchDispatchCfg(b, nclients, Config{Workers: 2, Shards: 1, QueueCap: 4096, Seed: 42})
}

func benchDispatchCfg(b *testing.B, nclients int, cfg Config) {
	d := New(cfg)
	defer d.Close()
	clients := make([]*Client, nclients)
	for i := range clients {
		c, err := d.NewClient(fmt.Sprintf("c%d", i), ticket.Amount(100*(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		clients[i] = c
	}
	b.ReportAllocs()
	b.ResetTimer()
	tasks := make([]*Task, 0, b.N)
	for i := 0; i < b.N; i++ {
		t, err := clients[i%nclients].Submit(func() {})
		if err != nil {
			b.Fatal(err)
		}
		tasks = append(tasks, t)
	}
	for _, t := range tasks {
		<-t.Done()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
	reportWaitTails(b, clients)
}

// reportWaitTails merges the clients' enqueue-to-dispatch wait
// histograms into one count vector and reports its p99/p99.9 in
// nanoseconds, so a throughput win bought with tail latency shows up
// beside it. The histogram's buckets are factor-2 wide; perfbench's
// exact-timestamp percentiles are the measurement of record.
func reportWaitTails(b *testing.B, clients []*Client) {
	var agg []uint64
	for _, c := range clients {
		counts := c.waitHist.BucketCounts()
		if agg == nil {
			agg = make([]uint64, len(counts))
		}
		for i, n := range counts {
			agg[i] += n
		}
	}
	h := clients[0].waitHist
	b.ReportMetric(h.QuantileFromCounts(agg, 99)*1e9, "wait-p99-ns")
	b.ReportMetric(h.QuantileFromCounts(agg, 99.9)*1e9, "wait-p999-ns")
}

// BenchmarkDispatchThroughput exercises the dispatcher uncontended
// (one client: every draw is trivial) and contended (eight clients
// competing by lottery for every slot).
func BenchmarkDispatchThroughput(b *testing.B) {
	b.Run("uncontended", func(b *testing.B) { benchDispatch(b, 1) })
	b.Run("contended", func(b *testing.B) { benchDispatch(b, 8) })
	b.Run("parallel/shards=1", func(b *testing.B) { benchDispatchParallel(b, 1) })
	b.Run("parallel/shards=max", func(b *testing.B) { benchDispatchParallel(b, runtime.GOMAXPROCS(0)) })
}

// benchDispatchParallel is the contended-submit throughput probe: as
// many submitter goroutines as GOMAXPROCS (b.RunParallel, so -cpu
// sets the level) firing detached tasks at 8 clients, against either
// a single shard (the pre-sharding dispatcher, one lock) or one shard
// per proc. SubmitDetached keeps the steady-state path allocation-free
// — ReportAllocs is the regression gate for the pooled task path.
func benchDispatchParallel(b *testing.B, shards int) {
	const nclients = 8
	d := New(Config{
		Workers:  runtime.GOMAXPROCS(0),
		Shards:   shards,
		QueueCap: 4096,
		Seed:     42,
	})
	defer d.Close()
	clients := make([]*Client, nclients)
	for i := range clients {
		c, err := d.NewClient(fmt.Sprintf("c%d", i), ticket.Amount(100*(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		clients[i] = c
	}
	var wg sync.WaitGroup
	var nextClient atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// One completion closure per submitter goroutine, hoisted out
		// of the loop: the steady-state iteration must not allocate.
		fn := func() { wg.Done() }
		c := clients[int(nextClient.Add(1))%nclients]
		for pb.Next() {
			wg.Add(1)
			if err := c.SubmitDetached(fn); err != nil {
				wg.Done()
				b.Error(err)
				return
			}
		}
	})
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
	reportWaitTails(b, clients)
}

// BenchmarkObserverOverhead prices the observability hooks on the
// dispatch path, against the same workload as DispatchThroughput
// contended. "nil" is the default fast path (no observer: one
// predictable branch per event site, the bar the <5% regression
// budget is measured against); "counting" is the cheapest possible
// live observer; "recorder" is the bounded EventRecorder ring;
// "metrics" adds a registry exporting every per-client family.
func BenchmarkObserverOverhead(b *testing.B) {
	base := Config{Workers: 2, Shards: 1, QueueCap: 4096, Seed: 42}
	b.Run("nil", func(b *testing.B) { benchDispatchCfg(b, 8, base) })
	b.Run("counting", func(b *testing.B) {
		var n atomic.Uint64
		cfg := base
		cfg.Observer = ObserverFunc(func(Event) { n.Add(1) })
		benchDispatchCfg(b, 8, cfg)
	})
	b.Run("recorder", func(b *testing.B) {
		cfg := base
		cfg.Observer = NewEventRecorder(4096)
		benchDispatchCfg(b, 8, cfg)
	})
	b.Run("metrics", func(b *testing.B) {
		cfg := base
		cfg.Metrics = metrics.NewRegistry()
		benchDispatchCfg(b, 8, cfg)
	})
}

// BenchmarkTraceOverhead prices the task-span tracer on the dispatch
// path, against the same workload as ObserverOverhead. "off" is the
// default fast path with no tracer configured — a nil check per stamp
// site, which must stay within noise of ObserverOverhead/nil;
// "sample=0.01" adds one seeded PRNG draw per submit and a pooled
// span for ~1% of tasks; "sample=1" stamps, emits, and ring-appends a
// span for every task, the worst case the flight recorder is priced
// at. The fairness auditor rides along in every traced variant (two
// atomic adds per dispatch plus a window close per 4096 draws), so
// the traced bars price the whole observability II stack.
func BenchmarkTraceOverhead(b *testing.B) {
	base := Config{Workers: 2, Shards: 1, QueueCap: 4096, Seed: 42}
	b.Run("off", func(b *testing.B) { benchDispatchCfg(b, 8, base) })
	b.Run("sample=0.01", func(b *testing.B) {
		cfg := base
		cfg.Tracer = audit.NewTracer(audit.TracerConfig{Rate: 0.01, Seed: 42})
		cfg.Audit = audit.New(audit.Config{})
		benchDispatchCfg(b, 8, cfg)
	})
	b.Run("sample=1", func(b *testing.B) {
		cfg := base
		cfg.Tracer = audit.NewTracer(audit.TracerConfig{Rate: 1, Seed: 42})
		cfg.Audit = audit.New(audit.Config{})
		benchDispatchCfg(b, 8, cfg)
	})
}

// BenchmarkReserveRelease prices the multi-resource task path: a
// detached submit that acquires memory and I/O tokens at admission
// and releases both in finish. Capacity and refill rate are set far
// above demand so every acquire takes the uncontended fast path —
// this is the steady-state overhead of carrying a reserve, not the
// cost of reclamation (BenchmarkMemPressureReclaim prices that).
// ReportAllocs is the gate: the acceptance budget is ≤1 alloc/op on
// top of the pooled zero-alloc detached path.
func BenchmarkReserveRelease(b *testing.B) {
	ledger := resource.NewLedger(resource.Config{
		MemCapacity: 1 << 30,
		IORate:      1e12,
		IOBurst:     1 << 40,
		Seed:        42,
	})
	d := New(Config{
		Workers:   runtime.GOMAXPROCS(0),
		QueueCap:  4096,
		Seed:      42,
		Resources: ledger,
	})
	defer d.Close()
	const nclients = 8
	clients := make([]*Client, nclients)
	for i := range clients {
		c, err := d.NewClient(fmt.Sprintf("c%d", i), ticket.Amount(100*(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		clients[i] = c
	}
	res := Reserve{MemBytes: 4096, IOTokens: 16}
	ctx := context.Background()
	var wg sync.WaitGroup
	var nextClient atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		fn := func() { wg.Done() }
		c := clients[int(nextClient.Add(1))%nclients]
		for pb.Next() {
			wg.Add(1)
			if err := c.SubmitDetachedReserve(ctx, fn, res); err != nil {
				wg.Done()
				b.Error(err)
				return
			}
		}
	})
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
}

// BenchmarkMemPressureReclaim prices an acquisition under memory
// pressure, ledger-only: a hog tenant holds the whole pool, so every
// acquire by the light tenant must run a §6.2 inverse-lottery reclaim
// (snapshot victims under the lock, draw outside, revoke under the
// lock). Each iteration is one reclaiming acquire plus the releases
// and the hog re-fill that restore full pressure for the next one.
func BenchmarkMemPressureReclaim(b *testing.B) {
	const (
		capacity = 1 << 20
		chunk    = 4096
	)
	ledger := resource.NewLedger(resource.Config{
		MemCapacity: capacity,
		Seed:        42,
	})
	// The hog is poorly funded and over-dominant (it holds everything),
	// so the inverse lottery picks it every time — the bench measures
	// the reclaim machinery, not victim ambiguity.
	hog := ledger.Tenant("hog", 10)
	light := ledger.Tenant("light", 1000)
	ctx := context.Background()
	fill := Reserve{MemBytes: capacity}
	one := Reserve{MemBytes: chunk}
	if err := ledger.Acquire(ctx, hog, fill); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ledger.Acquire(ctx, light, one); err != nil {
			b.Fatal(err)
		}
		ledger.Release(light, one)
		if err := ledger.Acquire(ctx, hog, one); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := resource.CheckLedger(ledger); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDrawLatency isolates the per-dispatch lottery cost: one
// draw from a populated tree, no queueing or goroutine handoff.
func BenchmarkDrawLatency(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("clients=%d", n), func(b *testing.B) {
			tree := lottery.NewTree[int](n)
			for i := 0; i < n; i++ {
				tree.Add(i, float64(100*(i+1)))
			}
			rng := random.NewPM(42)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := tree.Draw(rng); !ok {
					b.Fatal("empty draw")
				}
			}
		})
	}
}
