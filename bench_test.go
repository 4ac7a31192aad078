package repro

// Benchmarks regenerating every table and figure in the paper's
// evaluation, plus the ablations DESIGN.md calls out. Figure benches
// run an abbreviated (scale 0.05-0.2) experiment per iteration and
// additionally report the headline experiment metric via
// b.ReportMetric, so `go test -bench=.` doubles as a results table.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/kernel"
	"repro/internal/lottery"
	"repro/internal/random"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/ticket"
	"repro/internal/workload"
)

// --- Figure/table benches -------------------------------------------------

func BenchmarkFig4RateAccuracy(b *testing.B) {
	var slope float64
	for i := 0; i < b.N; i++ {
		cfg := experiments.Fig4Config{
			Seed: uint32(i + 1), MinRatio: 1, MaxRatio: 10, Runs: 1,
			Duration: 60 * sim.Second, Scale: 0.2,
		}
		slope = experiments.RunFig4(cfg).Slope
	}
	b.ReportMetric(slope, "fit-slope")
}

func BenchmarkFig5FairnessOverTime(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFig5Config()
		cfg.Seed = uint32(i + 1)
		cfg.Scale = 0.2
		r := experiments.RunFig5(cfg)
		ratio = float64(r.TotalA) / float64(r.TotalB)
	}
	b.ReportMetric(ratio, "A:B-ratio")
}

func BenchmarkFig6MonteCarlo(b *testing.B) {
	var catchup float64
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFig6Config()
		cfg.Seed = uint32(i + 1)
		cfg.Scale = 0.2
		r := experiments.RunFig6(cfg)
		catchup = float64(r.FinalTrials[2]) / float64(r.FinalTrials[0])
	}
	b.ReportMetric(catchup, "task3/task1-trials")
}

func BenchmarkFig7ClientServer(b *testing.B) {
	var respRatio float64
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFig7Config()
		cfg.Seed = uint32(i + 1)
		cfg.Duration = 200 * sim.Second
		cfg.CorpusBytes = 200_000
		r := experiments.RunFig7(cfg)
		respRatio = stats.Ratio(r.Clients[2].MeanRespWhileASec, r.Clients[0].MeanRespWhileASec)
	}
	b.ReportMetric(respRatio, "C:A-resp-ratio")
}

func BenchmarkFig8Video(b *testing.B) {
	var abRatio float64
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFig8Config()
		cfg.Seed = uint32(i + 1)
		cfg.Scale = 0.2
		r := experiments.RunFig8(cfg)
		abRatio = r.Phase1[0] / r.Phase1[2]
	}
	b.ReportMetric(abRatio, "A:C-phase1")
}

func BenchmarkFig9Currencies(b *testing.B) {
	var insulation float64
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFig9Config()
		cfg.Seed = uint32(i + 1)
		cfg.Scale = 0.2
		r := experiments.RunFig9(cfg)
		insulation = r.A1RateAfter / r.A1RateBefore
	}
	b.ReportMetric(insulation, "A1-after/before")
}

func BenchmarkFig11Mutex(b *testing.B) {
	var acqRatio float64
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFig11Config()
		cfg.Seed = uint32(i + 1)
		cfg.Scale = 0.5
		acqRatio = experiments.RunFig11(cfg).AcqRatio
	}
	b.ReportMetric(acqRatio, "acq-ratio")
}

func BenchmarkOverheadSec56(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultOverheadConfig()
		cfg.Seed = uint32(i + 1)
		cfg.Scale = 0.1
		cfg.DBClients, cfg.DBQueries, cfg.CorpusBytes = 3, 5, 100_000
		r := experiments.RunOverhead(cfg)
		delta = float64(r.Rows[0].TotalIterations) / float64(r.Rows[1].TotalIterations)
	}
	b.ReportMetric(delta, "lottery/timesharing-work")
}

func BenchmarkInverseLottery(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultInverseConfig()
		cfg.Seed = uint32(i + 1)
		cfg.Scale = 0.3
		share = experiments.RunInverse(cfg).Rows[0].ResidencyShare
	}
	b.ReportMetric(share, "top-client-share")
}

func BenchmarkSec2Analytics(b *testing.B) {
	var cov float64
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultAnalyticsConfig()
		cfg.Seed = uint32(i + 1)
		cfg.Scale = 0.2
		cov = experiments.RunAnalytics(cfg).Rows[1].ObservedCoV
	}
	b.ReportMetric(cov, "CoV(p=0.25)")
}

// --- Core-mechanism micro-benches -----------------------------------------

// BenchmarkDrawList/Tree measure a single lottery draw at several
// client counts: the list is O(n), the tree O(log n) — the §4.2/§5.6
// scaling claim.
func BenchmarkDraw(b *testing.B) {
	for _, n := range []int{8, 64, 512, 4096} {
		weights := make([]float64, n)
		rng := random.NewPM(7)
		for i := range weights {
			weights[i] = float64(1 + rng.Intn(100))
		}
		b.Run(fmt.Sprintf("list/n=%d", n), func(b *testing.B) {
			l := lottery.NewList[int](false)
			for i, w := range weights {
				l.Add(i, w)
			}
			src := random.NewPM(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Draw(src)
			}
		})
		b.Run(fmt.Sprintf("tree/n=%d", n), func(b *testing.B) {
			tr := lottery.NewTree[int](n)
			for i, w := range weights {
				tr.Add(i, w)
			}
			src := random.NewPM(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Draw(src)
			}
		})
	}
}

// BenchmarkAblationMoveToFront shows the §4.2 heuristic: with a
// skewed ticket distribution, move-to-front shortens the average
// search dramatically.
func BenchmarkAblationMoveToFront(b *testing.B) {
	run := func(b *testing.B, mtf bool) {
		l := lottery.NewList[int](mtf)
		// 1 dominant client at the tail of 256.
		for i := 0; i < 255; i++ {
			l.Add(i, 1)
		}
		l.Add(255, 255*9)
		src := random.NewPM(3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.Draw(src)
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkCurrencyValuation measures base-unit conversion through a
// funding chain of the given depth, cached vs invalidated.
func BenchmarkCurrencyValuation(b *testing.B) {
	for _, depth := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("depth=%d/cached", depth), func(b *testing.B) {
			s, h := currencyChain(depth)
			h.SetActive(true)
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink = h.Value()
			}
			_ = sink
			_ = s
		})
		b.Run(fmt.Sprintf("depth=%d/invalidated", depth), func(b *testing.B) {
			s, h := currencyChain(depth)
			h.SetActive(true)
			tk := h.Backing()[0]
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				// Touch the graph so every valuation recomputes.
				if err := tk.SetAmount(ticket.Amount(1 + i%7)); err != nil {
					b.Fatal(err)
				}
				sink = h.Value()
			}
			_ = sink
			_ = s
		})
	}
}

func currencyChain(depth int) (*ticket.System, *ticket.Holder) {
	s := ticket.NewSystem()
	cur := s.Base()
	for d := 0; d < depth; d++ {
		next := s.MustCurrency(fmt.Sprintf("c%d", d), "u")
		cur.MustIssue(100, next)
		cur = next
	}
	h := s.NewHolder("h")
	cur.MustIssue(10, h)
	return s, h
}

// BenchmarkSchedulingDecision measures one policy decision (the §5.6
// "core lottery scheduling mechanism is extremely lightweight" claim)
// across policies and run-queue sizes.
func BenchmarkSchedulingDecision(b *testing.B) {
	for _, n := range []int{2, 8, 64} {
		mk := map[string]func() sched.Policy{
			"lottery":     func() sched.Policy { return sched.NewLottery(random.NewPM(1), true) },
			"stride":      func() sched.Policy { return sched.NewStride() },
			"timesharing": func() sched.Policy { return sched.NewTimeSharing() },
			"round-robin": func() sched.Policy { return sched.NewRoundRobin() },
		}
		for _, name := range []string{"lottery", "stride", "timesharing", "round-robin"} {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				p := mk[name]()
				for i := 0; i < n; i++ {
					w := float64(100 + i)
					p.Add(&sched.Client{ID: i, Name: fmt.Sprint(i), Weight: func() float64 { return w }}, 0)
				}
				const q = 100 * sim.Millisecond
				now := sim.Time(0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c := p.Pick(now)
					p.Used(c, q, q, false, now)
					now = now.Add(q)
				}
			})
		}
	}
}

// BenchmarkAblationCompensation quantifies §4.5: the CPU-share error
// of an I/O-bound thread (20 ms bursts, equal funding vs a hog) with
// compensation tickets on (real behaviour) and off (yields reported
// as involuntary). The reported metric is the I/O thread's share of
// the CPU; 0.5 is perfect.
func BenchmarkAblationCompensation(b *testing.B) {
	run := func(b *testing.B, voluntary bool) {
		var share float64
		for i := 0; i < b.N; i++ {
			p := sched.NewLottery(random.NewPM(uint32(i+1)), false)
			wA, wB := 400.0, 400.0
			a := &sched.Client{ID: 0, Name: "hog", Weight: func() float64 { return wA }}
			io := &sched.Client{ID: 1, Name: "io", Weight: func() float64 { return wB }}
			const q = 100 * sim.Millisecond
			now := sim.Time(0)
			p.Add(a, now)
			p.Add(io, now)
			var cpuA, cpuIO sim.Duration
			for j := 0; j < 20000; j++ {
				c := p.Pick(now)
				if c == a {
					cpuA += q
					now = now.Add(q)
					p.Used(a, q, q, false, now)
				} else {
					used := 20 * sim.Millisecond
					cpuIO += used
					now = now.Add(used)
					p.Used(io, used, q, voluntary, now)
				}
			}
			share = float64(cpuIO) / float64(cpuA+cpuIO)
		}
		b.ReportMetric(share, "io-share")
	}
	b.Run("on", func(b *testing.B) { run(b, true) })
	b.Run("off", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationQuantum shows the §5.1 claim that shorter quanta
// tighten short-horizon fairness: the reported metric is the CoV of
// the A:B CPU ratio over 1-second windows at each quantum.
func BenchmarkAblationQuantum(b *testing.B) {
	for _, q := range []sim.Duration{10 * sim.Millisecond, 50 * sim.Millisecond, 100 * sim.Millisecond} {
		b.Run(fmt.Sprint(q), func(b *testing.B) {
			var cov float64
			for i := 0; i < b.N; i++ {
				cov = windowRatioCoV(uint32(i+1), q)
			}
			b.ReportMetric(cov, "ratio-CoV")
		})
	}
}

func windowRatioCoV(seed uint32, quantum sim.Duration) float64 {
	sys := core.NewSystem(core.WithSeed(seed), core.WithQuantum(quantum))
	defer sys.Shutdown()
	spin := func(ctx *kernel.Ctx) {
		for {
			ctx.Compute(5 * sim.Millisecond)
		}
	}
	a := sys.Spawn("A", spin)
	bb := sys.Spawn("B", spin)
	a.Fund(200)
	bb.Fund(100)
	var ratios []float64
	lastA, lastB := sim.Duration(0), sim.Duration(0)
	for w := 0; w < 30; w++ {
		sys.RunFor(1 * sim.Second)
		dA := a.CPUTime() - lastA
		dB := bb.CPUTime() - lastB
		lastA, lastB = a.CPUTime(), bb.CPUTime()
		if dB > 0 {
			ratios = append(ratios, float64(dA)/float64(dB))
		}
	}
	return stats.CoV(ratios)
}

// BenchmarkAblationStrideVsLottery compares long-run allocation error
// of the randomized lottery against deterministic stride scheduling
// (metric: |observed/allocated - 1| over a 3:1 split).
func BenchmarkAblationStrideVsLottery(b *testing.B) {
	run := func(b *testing.B, usePolicy func() sched.Policy) {
		var absErr float64
		for i := 0; i < b.N; i++ {
			opts := []core.Option{core.WithSeed(uint32(i + 1))}
			if p := usePolicy(); p != nil {
				opts = append(opts, core.WithPolicy(p))
			}
			sys := core.NewSystem(opts...)
			spin := func(ctx *kernel.Ctx) {
				for {
					ctx.Compute(10 * sim.Millisecond)
				}
			}
			x := sys.Spawn("x", spin)
			y := sys.Spawn("y", spin)
			x.Fund(300)
			y.Fund(100)
			sys.RunFor(60 * sim.Second)
			ratio := float64(x.CPUTime()) / float64(y.CPUTime())
			if ratio > 3 {
				absErr = ratio/3 - 1
			} else {
				absErr = 3/ratio - 1
			}
			sys.Shutdown()
		}
		b.ReportMetric(absErr, "abs-rel-err")
	}
	b.Run("lottery", func(b *testing.B) { run(b, func() sched.Policy { return nil }) })
	b.Run("stride", func(b *testing.B) { run(b, func() sched.Policy { return sched.NewStride() }) })
}

// BenchmarkIOBandwidth regenerates the §6 bandwidth-sharing result
// and reports the top stream's byte share (allocated 0.5).
func BenchmarkIOBandwidth(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultIOBWConfig()
		cfg.Seed = uint32(i + 1)
		cfg.Scale = 0.2
		share = experiments.RunIOBW(cfg).Rows[0].ByteShare
	}
	b.ReportMetric(share, "top-stream-share")
}

// BenchmarkInversion regenerates the priority-inversion comparison and
// reports the lottery regime's lock-wait (the fixed regime never
// completes).
func BenchmarkInversion(b *testing.B) {
	var wait float64
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultInversionConfig()
		cfg.Seed = uint32(i + 1)
		cfg.Scale = 0.5
		wait = experiments.RunInversion(cfg).LotteryWaitSec
	}
	b.ReportMetric(wait, "lottery-wait-sec")
}

// BenchmarkMultiCall measures a 4-way split-transfer RPC round trip
// end to end.
func BenchmarkMultiCall(b *testing.B) {
	sys := core.NewSystem(core.WithSeed(1))
	defer sys.Shutdown()
	ports := make([]*kernel.Port, 4)
	for i := range ports {
		i := i
		ports[i] = sys.NewPort("svc")
		s := sys.Spawn("server", func(ctx *kernel.Ctx) {
			for {
				m := ports[i].Receive(ctx)
				ctx.Compute(sim.Millisecond)
				ports[i].Reply(ctx, m, nil)
			}
		})
		s.Fund(1)
	}
	calls := 0
	client := sys.Spawn("client", func(ctx *kernel.Ctx) {
		for {
			kernel.MultiCall(ctx, ports, make([]any, 4))
			calls++
		}
	})
	client.Fund(400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := calls + 1
		for calls < target {
			sys.RunFor(10 * sim.Millisecond)
		}
	}
}

// BenchmarkDhrystoneKernel pins the host-side cost of the real
// benchmark kernel used for absolute calibration.
func BenchmarkDhrystoneKernel(b *testing.B) {
	var sink int
	for i := 0; i < b.N; i++ {
		sink = workload.DhrystoneKernel(100)
	}
	_ = sink
}

// BenchmarkSimulatedSecond measures simulator throughput: how much
// host time one second of a busy two-task virtual machine costs.
func BenchmarkSimulatedSecond(b *testing.B) {
	sys := core.NewSystem(core.WithSeed(1))
	defer sys.Shutdown()
	spin := func(ctx *kernel.Ctx) {
		for {
			ctx.Compute(1 * sim.Millisecond)
		}
	}
	sys.Spawn("a", spin).Fund(100)
	sys.Spawn("b", spin).Fund(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.RunFor(1 * sim.Second)
	}
}
