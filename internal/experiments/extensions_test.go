package experiments

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestIOBWSharesTrackTickets(t *testing.T) {
	cfg := DefaultIOBWConfig()
	cfg.Scale = 0.25
	r := RunIOBW(cfg)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if math.Abs(row.ByteShare-row.TicketShare) > 0.02 {
			t.Errorf("%s: byte share %.3f vs ticket share %.3f",
				row.Name, row.ByteShare, row.TicketShare)
		}
	}
	if r.Utilization < 0.99 {
		t.Errorf("utilization = %v, want saturated", r.Utilization)
	}
	if !strings.Contains(r.Format(), "byte shares track ticket shares") {
		t.Error("format missing summary")
	}
}

func TestInversionDemonstration(t *testing.T) {
	cfg := DefaultInversionConfig()
	cfg.Horizon = 30 * 1e9 // 30 s is ample for the lottery regime
	r := RunInversion(cfg)
	if r.FixedAcquired {
		t.Errorf("fixed-priority regime acquired the lock after %.2fs: no inversion reproduced",
			r.FixedWaitSec)
	}
	if !r.LotteryAcquired {
		t.Fatal("lottery regime never acquired the lock")
	}
	// With inherited funding the holder needs ~0.5s of CPU against a
	// 100-ticket hog while holding 1010: done within a few seconds.
	if r.LotteryWaitSec > 3 {
		t.Errorf("lottery wait = %.2fs, want prompt resolution", r.LotteryWaitSec)
	}
	out := r.Format()
	if !strings.Contains(out, "NEVER") || !strings.Contains(out, "acquired after") {
		t.Errorf("format:\n%s", out)
	}
}

func TestExtensionRunnersRegistered(t *testing.T) {
	for _, id := range []string{"iobw", "inversion"} {
		r := Find(id)
		if r == nil {
			t.Fatalf("%s not registered", id)
		}
		if out := r.Run(0.1, 1); out == "" {
			t.Errorf("%s produced no output", id)
		}
	}
}

func TestAccuracySweepMatchesSqrtN(t *testing.T) {
	cfg := DefaultAccuracyConfig()
	cfg.Trials = 200
	r := RunAccuracy(cfg)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		rel := math.Abs(row.ObservedCoV-row.ExpectedCoV) / row.ExpectedCoV
		if rel > 0.25 {
			t.Errorf("n=%d: CoV %v vs expected %v (%.0f%% off)",
				row.N, row.ObservedCoV, row.ExpectedCoV, rel*100)
		}
	}
	// Monotone improvement with n.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].ObservedCoV >= r.Rows[i-1].ObservedCoV {
			t.Errorf("CoV did not shrink from n=%d to n=%d", r.Rows[i-1].N, r.Rows[i].N)
		}
	}
	if !strings.Contains(r.Format(), "sqrt") {
		t.Error("format missing explanation")
	}
}

func TestAccuracyValidation(t *testing.T) {
	for name, cfg := range map[string]AccuracyConfig{
		"bad p":     {P: 0, Blocks: []int{10}, Trials: 10},
		"no blocks": {P: 0.5, Trials: 10},
		"trials":    {P: 0.5, Blocks: []int{10}, Trials: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			RunAccuracy(cfg)
		}()
	}
}

func TestQuantumSweepMonotone(t *testing.T) {
	cfg := DefaultQuantumConfig()
	cfg.Scale = 0.5
	r := RunQuantum(cfg)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Short-horizon fairness degrades (CoV grows) as quanta lengthen;
	// allow one adjacent inversion for sampling noise but require the
	// endpoints to be well separated.
	if r.Rows[0].RatioCoV*1.5 > r.Rows[len(r.Rows)-1].RatioCoV {
		t.Errorf("10ms CoV %v not clearly tighter than 100ms CoV %v",
			r.Rows[0].RatioCoV, r.Rows[len(r.Rows)-1].RatioCoV)
	}
	for _, row := range r.Rows {
		if row.RatioCoV <= 0 {
			t.Errorf("quantum %v: non-positive CoV", row.Quantum)
		}
	}
	_ = r.Format()
}

func TestMTFAblation(t *testing.T) {
	cfg := DefaultMTFConfig()
	cfg.Scale = 0.25
	r := RunMTF(cfg)
	// MTF must cut the average search dramatically on a skewed
	// population (the heavy client migrates to the front).
	if r.AvgSearchMTF*2 > r.AvgSearchPlain {
		t.Errorf("MTF search %v not well below plain %v", r.AvgSearchMTF, r.AvgSearchPlain)
	}
	// And it must not change the odds.
	if math.Abs(r.HeavyWinsPlain-r.HeavyShareWanted) > 0.01 ||
		math.Abs(r.HeavyWinsMTF-r.HeavyShareWanted) > 0.01 {
		t.Errorf("win rates %v/%v drifted from %v",
			r.HeavyWinsPlain, r.HeavyWinsMTF, r.HeavyShareWanted)
	}
	_ = r.Format()
}

func TestConvergenceOrderedByExponent(t *testing.T) {
	cfg := DefaultConvergenceConfig()
	cfg.Scale = 0.5
	r := RunConvergence(cfg)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Every exponent eventually converges (monotone function claim).
	for _, row := range r.Rows {
		if row.CatchUpSec < 0 {
			t.Errorf("exponent %v never caught up (final ratio %v)", row.Exponent, row.FinalRatio)
		}
	}
	// Higher exponents converge at least as fast: allow small noise
	// between adjacent exponents but require cubic to clearly beat
	// linear.
	if r.Rows[0].CatchUpSec >= 0 && r.Rows[2].CatchUpSec >= 0 {
		if r.Rows[2].CatchUpSec > r.Rows[0].CatchUpSec {
			t.Errorf("cubic (%vs) slower than linear (%vs)",
				r.Rows[2].CatchUpSec, r.Rows[0].CatchUpSec)
		}
	}
	_ = r.Format()
}

func TestStrideCompare(t *testing.T) {
	cfg := DefaultStrideCompareConfig()
	cfg.Scale = 0.5
	r := RunStrideCompare(cfg)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	last := r.Rows[len(r.Rows)-1]
	// At the longest horizon both are accurate, stride at least as
	// accurate as the lottery.
	if last.LotteryErr > 0.05 {
		t.Errorf("lottery error at %v = %v", last.Horizon, last.LotteryErr)
	}
	if last.StrideErr > last.LotteryErr+1e-9 {
		t.Errorf("stride (%v) less accurate than lottery (%v)", last.StrideErr, last.LotteryErr)
	}
	// Lottery error shrinks with horizon (allow noise on adjacent
	// pairs; compare endpoints).
	if r.Rows[0].LotteryErr <= last.LotteryErr {
		t.Errorf("lottery error did not shrink: %v -> %v", r.Rows[0].LotteryErr, last.LotteryErr)
	}
	_ = r.Format()
}

// TestStrideCompareJSONShortHorizon: at a short scaled horizon thread
// b can get no CPU, leaving an infinite error that the JSON encoder
// rejects. Such a row must encode with null errors so lotterysim -json
// still emits the whole result.
func TestStrideCompareJSONShortHorizon(t *testing.T) {
	cfg := DefaultStrideCompareConfig()
	cfg.Scale = 0.05
	r := RunStrideCompare(cfg)
	undefined := 0
	for _, row := range r.Rows {
		if math.IsInf(row.LotteryErr, 1) || math.IsInf(row.StrideErr, 1) {
			undefined++
		}
	}
	if undefined == 0 {
		t.Fatal("no row with an undefined error at scale 0.05; the test no longer covers the +Inf case")
	}
	out, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	var back struct {
		Rows []struct {
			Horizon               sim.Duration
			LotteryErr, StrideErr *float64
		}
	}
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	for i, row := range r.Rows {
		for _, c := range []struct {
			want float64
			got  *float64
		}{{row.LotteryErr, back.Rows[i].LotteryErr}, {row.StrideErr, back.Rows[i].StrideErr}} {
			switch {
			case math.IsInf(c.want, 1):
				if c.got != nil {
					t.Errorf("row %d: undefined error encoded as %v, want null", i, *c.got)
				}
			case c.got == nil || *c.got != c.want:
				t.Errorf("row %d: finite error %v did not round-trip (%v)", i, c.want, c.got)
			}
		}
		if back.Rows[i].Horizon != row.Horizon {
			t.Errorf("row %d: horizon %v, want %v", i, back.Rows[i].Horizon, row.Horizon)
		}
	}
	if !strings.Contains(r.Format(), "+Inf") {
		t.Error("text report no longer prints +Inf for an undefined error")
	}
}

func TestSMPShareCompression(t *testing.T) {
	cfg := DefaultSMPConfig()
	cfg.Scale = 0.5
	r := RunSMP(cfg)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Uniprocessor: the ticket ratio.
	if math.Abs(r.Rows[0].Ratio-3) > 0.4 {
		t.Errorf("1-CPU ratio = %v, want ~3", r.Rows[0].Ratio)
	}
	// 2 CPUs: the sampling-without-replacement closed form 2.41.
	if math.Abs(r.Rows[1].Ratio-2.41) > 0.35 {
		t.Errorf("2-CPU ratio = %v, want ~2.41", r.Rows[1].Ratio)
	}
	// Ratios compress monotonically with CPU count.
	if !(r.Rows[0].Ratio > r.Rows[1].Ratio && r.Rows[1].Ratio > r.Rows[2].Ratio) {
		t.Errorf("ratios not compressing: %v %v %v",
			r.Rows[0].Ratio, r.Rows[1].Ratio, r.Rows[2].Ratio)
	}
	// Work conservation at every size.
	for _, row := range r.Rows {
		want := float64(row.CPUs) * r.DurationSec
		if math.Abs(row.TotalCPU-want) > 0.01 {
			t.Errorf("%d CPUs: total %v, want %v", row.CPUs, row.TotalCPU, want)
		}
	}
	_ = r.Format()
}
