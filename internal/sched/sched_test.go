package sched

import (
	"math"
	"testing"

	"repro/internal/random"
	"repro/internal/sim"
)

const quantum = 100 * sim.Millisecond

func staticClient(id int, w float64) *Client {
	return &Client{ID: id, Name: string(rune('A' + id)), Weight: func() float64 { return w }}
}

// runCompute simulates n quanta of compute-bound clients under p and
// returns CPU time received per client index.
func runCompute(p Policy, clients []*Client, n int) []sim.Duration {
	now := sim.Time(0)
	for _, c := range clients {
		p.Add(c, now)
	}
	got := make([]sim.Duration, len(clients))
	for i := 0; i < n; i++ {
		c := p.Pick(now)
		if c == nil {
			break
		}
		got[c.ID] += quantum
		now = now.Add(quantum)
		p.Used(c, quantum, quantum, false, now)
	}
	return got
}

func TestLotteryProportions(t *testing.T) {
	weights := []float64{3, 2, 1}
	var clients []*Client
	for i, w := range weights {
		clients = append(clients, staticClient(i, w))
	}
	p := NewLottery(random.NewPM(12345), false)
	const n = 30000
	got := runCompute(p, clients, n)
	for i, w := range weights {
		want := float64(n) * w / 6
		gotQ := float64(got[i] / quantum)
		if math.Abs(gotQ-want)/want > 0.05 {
			t.Errorf("client %d got %v quanta, want ~%v", i, gotQ, want)
		}
	}
}

func TestLotteryMoveToFrontSameProportions(t *testing.T) {
	weights := []float64{1, 1, 8}
	var clients []*Client
	for i, w := range weights {
		clients = append(clients, staticClient(i, w))
	}
	p := NewLottery(random.NewPM(777), true)
	const n = 20000
	got := runCompute(p, clients, n)
	for i, w := range weights {
		want := float64(n) * w / 10
		gotQ := float64(got[i] / quantum)
		if math.Abs(gotQ-want)/want > 0.08 {
			t.Errorf("client %d got %v quanta, want ~%v", i, gotQ, want)
		}
	}
	if asl := p.AverageSearchLength(); asl >= 2 {
		t.Errorf("MTF average search length = %v, want < 2 with a dominant client", asl)
	}
}

// TestLotteryCompensation reproduces the paper's §4.5 example: threads
// A and B have equal funding; A always consumes its full 100 ms
// quantum, B consumes only 20 ms before yielding. With compensation
// tickets B competes with 5x value when runnable, so both receive
// equal CPU time over the run.
func TestLotteryCompensation(t *testing.T) {
	a := staticClient(0, 400)
	b := staticClient(1, 400)
	p := NewLottery(random.NewPM(9), false)
	now := sim.Time(0)
	p.Add(a, now)
	p.Add(b, now)
	cpu := []sim.Duration{0, 0}
	const rounds = 50000
	for i := 0; i < rounds; i++ {
		c := p.Pick(now)
		if c == a {
			cpu[0] += quantum
			now = now.Add(quantum)
			p.Used(a, quantum, quantum, false, now)
		} else {
			used := 20 * sim.Millisecond
			cpu[1] += used
			now = now.Add(used)
			p.Used(b, used, quantum, true, now)
			if got := p.Compensation(b); math.Abs(got-5) > 1e-9 {
				t.Fatalf("compensation for B = %v, want 5", got)
			}
		}
	}
	ratio := float64(cpu[0]) / float64(cpu[1])
	if math.Abs(ratio-1) > 0.05 {
		t.Errorf("CPU ratio A:B = %v, want ~1 (compensation tickets)", ratio)
	}
}

// TestLotteryWithoutCompensationSkews shows the §4.5 failure mode the
// compensation ticket fixes: if B's early yields earn no boost, B
// receives roughly a fifth of A's CPU. We emulate "no compensation"
// by reporting B's yields as involuntary.
func TestLotteryWithoutCompensationSkews(t *testing.T) {
	a := staticClient(0, 400)
	b := staticClient(1, 400)
	p := NewLottery(random.NewPM(10), false)
	now := sim.Time(0)
	p.Add(a, now)
	p.Add(b, now)
	cpu := []sim.Duration{0, 0}
	for i := 0; i < 30000; i++ {
		c := p.Pick(now)
		if c == a {
			cpu[0] += quantum
			now = now.Add(quantum)
			p.Used(a, quantum, quantum, false, now)
		} else {
			used := 20 * sim.Millisecond
			cpu[1] += used
			now = now.Add(used)
			p.Used(b, used, quantum, false, now) // involuntary: no boost
		}
	}
	ratio := float64(cpu[0]) / float64(cpu[1])
	if math.Abs(ratio-5) > 0.5 {
		t.Errorf("CPU ratio A:B = %v, want ~5 without compensation", ratio)
	}
}

func TestLotteryCompensationSurvivesBlocking(t *testing.T) {
	a := staticClient(0, 100)
	b := staticClient(1, 100)
	p := NewLottery(random.NewPM(4), false)
	now := sim.Time(0)
	p.Add(a, now)
	p.Add(b, now)
	// B runs 25 ms of its quantum then blocks.
	p.Used(b, 25*sim.Millisecond, quantum, true, now)
	p.Remove(b, now)
	if got := p.Compensation(b); math.Abs(got-4) > 1e-9 {
		t.Fatalf("compensation after blocking = %v, want 4", got)
	}
	// B wakes: the boost must still be there.
	p.Add(b, now)
	if got := p.Compensation(b); math.Abs(got-4) > 1e-9 {
		t.Fatalf("compensation after wake = %v, want 4", got)
	}
	// Winning a lottery destroys the compensation ticket. Force B to
	// win with a scripted draw: total = 100 + 400, B's interval is
	// [100, 500).
	winningRaw := float64(300) / 500 * float64(1<<31-1)
	forced := NewLottery(&random.Scripted{Values: []uint32{uint32(winningRaw)}}, false)
	forced.Add(a, now)
	forced.Add(b, now)
	forced.Used(b, 25*sim.Millisecond, quantum, true, now)
	if w := forced.Pick(now); w != b {
		t.Fatalf("scripted pick chose %v", w.Name)
	}
	if got := forced.Compensation(b); got != 1 {
		t.Errorf("compensation after winning = %v, want 1 (ticket destroyed)", got)
	}
}

func TestLotteryCompensationClamp(t *testing.T) {
	a := staticClient(0, 100)
	p := NewLottery(random.NewPM(2), false)
	now := sim.Time(0)
	p.Add(a, now)
	p.Used(a, 1*sim.Nanosecond, quantum, true, now)
	if got := p.Compensation(a); got != maxCompensation {
		t.Errorf("compensation = %v, want clamp %v", got, maxCompensation)
	}
}

func TestLotteryZeroTotalDegradesGracefully(t *testing.T) {
	a := staticClient(0, 0)
	b := staticClient(1, 0)
	p := NewLottery(random.NewPM(2), false)
	now := sim.Time(0)
	p.Add(a, now)
	p.Add(b, now)
	first := p.Pick(now)
	if first == nil {
		t.Fatal("Pick returned nil with runnable but unfunded clients")
	}
	// The fallback rotates, so no unfunded client is starved.
	if second := p.Pick(now); second == first {
		t.Error("zero-funding fallback did not rotate")
	}
	if p.Pick(now) != first {
		t.Error("rotation not cyclic")
	}
}

func TestLotteryEmptyPick(t *testing.T) {
	p := NewLottery(random.NewPM(1), false)
	if p.Pick(0) != nil {
		t.Error("Pick on empty queue != nil")
	}
}

func TestPolicyMembershipPanics(t *testing.T) {
	policies := []Policy{
		NewLottery(random.NewPM(1), false),
		NewStride(),
		NewTimeSharing(),
		NewRoundRobin(),
		NewFixedPriority(),
	}
	for _, p := range policies {
		c := staticClient(0, 1)
		p.Add(c, 0)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: double add did not panic", p.Name())
				}
			}()
			p.Add(c, 0)
		}()
		p.Remove(c, 0)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: absent remove did not panic", p.Name())
				}
			}()
			p.Remove(c, 0)
		}()
	}
}

func TestStrideExactProportions(t *testing.T) {
	weights := []float64{3, 2, 1}
	var clients []*Client
	for i, w := range weights {
		clients = append(clients, staticClient(i, w))
	}
	p := NewStride()
	const n = 600
	got := runCompute(p, clients, n)
	for i, w := range weights {
		want := float64(n) * w / 6
		gotQ := float64(got[i] / quantum)
		// Stride scheduling is deterministic: error is O(1) quanta.
		if math.Abs(gotQ-want) > 2 {
			t.Errorf("client %d got %v quanta, want %v +- 2 (stride is deterministic)", i, gotQ, want)
		}
	}
}

func TestStrideRejoinDoesNotMonopolize(t *testing.T) {
	a := staticClient(0, 1)
	b := staticClient(1, 1)
	p := NewStride()
	now := sim.Time(0)
	p.Add(a, now)
	p.Add(b, now)
	// Let both run a while.
	for i := 0; i < 100; i++ {
		c := p.Pick(now)
		now = now.Add(quantum)
		p.Used(c, quantum, quantum, false, now)
	}
	// b blocks for a long time while a keeps running.
	p.Remove(b, now)
	for i := 0; i < 1000; i++ {
		c := p.Pick(now)
		now = now.Add(quantum)
		p.Used(c, quantum, quantum, false, now)
	}
	// b returns; it must not get 1000 quanta of "catch-up".
	p.Add(b, now)
	bQuanta := 0
	for i := 0; i < 100; i++ {
		c := p.Pick(now)
		if c == b {
			bQuanta++
		}
		now = now.Add(quantum)
		p.Used(c, quantum, quantum, false, now)
	}
	if bQuanta < 40 || bQuanta > 60 {
		t.Errorf("b got %d of 100 quanta after rejoin, want ~50", bQuanta)
	}
}

func TestRoundRobinRotation(t *testing.T) {
	var clients []*Client
	for i := 0; i < 3; i++ {
		clients = append(clients, staticClient(i, 1))
	}
	p := NewRoundRobin()
	got := runCompute(p, clients, 300)
	for i := range clients {
		if got[i] != 100*quantum {
			t.Errorf("client %d got %v, want exactly %v", i, got[i], 100*quantum)
		}
	}
	// Weights are ignored by design.
	heavy := []*Client{staticClient(0, 100), staticClient(1, 1)}
	p2 := NewRoundRobin()
	got2 := runCompute(p2, heavy, 200)
	if got2[0] != got2[1] {
		t.Errorf("round-robin honored weights: %v", got2)
	}
}

func TestFixedPriorityStarvation(t *testing.T) {
	hi := staticClient(0, 1)
	hi.Priority = 10
	lo := staticClient(1, 1)
	lo.Priority = 1
	p := NewFixedPriority()
	got := runCompute(p, []*Client{hi, lo}, 100)
	if got[0] != 100*quantum || got[1] != 0 {
		t.Errorf("fixed priority did not starve low client: %v", got)
	}
	// Same priority: round-robin within the level.
	a := staticClient(0, 1)
	b := staticClient(1, 1)
	p2 := NewFixedPriority()
	got2 := runCompute(p2, []*Client{a, b}, 100)
	if got2[0] != got2[1] {
		t.Errorf("equal priority not round-robin: %v", got2)
	}
}

func TestTimeSharingEqualComputeBound(t *testing.T) {
	// Two identical compute-bound clients get roughly equal CPU under
	// decay-usage, with periodic decay ticks.
	a := staticClient(0, 1)
	b := staticClient(1, 1)
	p := NewTimeSharing()
	now := sim.Time(0)
	p.Add(a, now)
	p.Add(b, now)
	cpu := []sim.Duration{0, 0}
	for i := 0; i < 2000; i++ {
		c := p.Pick(now)
		cpu[c.ID] += quantum
		now = now.Add(quantum)
		p.Used(c, quantum, quantum, false, now)
		if i%10 == 9 {
			p.Tick(now)
		}
	}
	ratio := float64(cpu[0]) / float64(cpu[1])
	if math.Abs(ratio-1) > 0.02 {
		t.Errorf("timesharing compute-bound ratio = %v, want ~1", ratio)
	}
}

func TestTimeSharingFavorsInteractive(t *testing.T) {
	// An interactive client that consumes 5 ms bursts must be chosen
	// over a compute-bound one whenever runnable.
	cpuHog := staticClient(0, 1)
	inter := staticClient(1, 1)
	p := NewTimeSharing()
	now := sim.Time(0)
	p.Add(cpuHog, now)
	// Build up the hog's usage.
	for i := 0; i < 50; i++ {
		c := p.Pick(now)
		now = now.Add(quantum)
		p.Used(c, quantum, quantum, false, now)
	}
	p.Add(inter, now)
	if c := p.Pick(now); c != inter {
		t.Errorf("interactive client not preferred: picked %s", c.Name)
	}
	// Decay eventually forgives the hog.
	p.Remove(inter, now)
	for i := 0; i < 40; i++ {
		p.Tick(now)
	}
	if u := p.Usage(cpuHog); u > 0.01 {
		t.Errorf("usage did not decay: %v", u)
	}
}

func TestTimeSharingNice(t *testing.T) {
	a := staticClient(0, 1)
	b := staticClient(1, 1)
	p := NewTimeSharing()
	p.SetNice(a, 100) // heavily deprioritized
	now := sim.Time(0)
	p.Add(a, now)
	p.Add(b, now)
	picks := [2]int{}
	for i := 0; i < 100; i++ {
		c := p.Pick(now)
		picks[c.ID]++
		now = now.Add(quantum)
		p.Used(c, quantum, quantum, false, now)
	}
	if picks[0] >= picks[1] {
		t.Errorf("nice had no effect: %v", picks)
	}
}

// TestLotteryDynamicWeights: weights read through the closure are
// re-evaluated every draw, so a funding change shows up immediately
// (§2: "Since any changes to relative ticket allocations are
// immediately reflected in the next allocation decision").
func TestLotteryDynamicWeights(t *testing.T) {
	wA := 100.0
	a := &Client{ID: 0, Name: "A", Weight: func() float64 { return wA }}
	b := staticClient(1, 100)
	p := NewLottery(random.NewPM(31), false)
	now := sim.Time(0)
	p.Add(a, now)
	p.Add(b, now)

	countA := 0
	for i := 0; i < 4000; i++ {
		if p.Pick(now) == a {
			countA++
		}
		now = now.Add(quantum)
	}
	if frac := float64(countA) / 4000; math.Abs(frac-0.5) > 0.05 {
		t.Fatalf("phase 1 share = %v, want ~0.5", frac)
	}
	wA = 300 // inflate A 3x: expect 75%
	countA = 0
	for i := 0; i < 4000; i++ {
		if p.Pick(now) == a {
			countA++
		}
		now = now.Add(quantum)
	}
	if frac := float64(countA) / 4000; math.Abs(frac-0.75) > 0.05 {
		t.Errorf("phase 2 share = %v, want ~0.75", frac)
	}
}
