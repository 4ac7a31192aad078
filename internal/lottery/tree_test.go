package lottery

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/random"
	"repro/internal/stats"
)

func TestTreeBasics(t *testing.T) {
	tr := NewTree[string](4)
	a := tr.Add("a", 10)
	b := tr.Add("b", 2)
	c := tr.Add("c", 5)
	if tr.Len() != 3 || tr.Total() != 17 {
		t.Fatalf("len=%d total=%v", tr.Len(), tr.Total())
	}
	if tr.Value(a) != "a" || tr.Weight(b) != 2 {
		t.Fatal("handle accessors wrong")
	}
	tr.Update(c, 8)
	if tr.Total() != 20 {
		t.Fatalf("total after update = %v", tr.Total())
	}
	tr.Remove(b)
	if tr.Len() != 2 || tr.Total() != 18 {
		t.Fatalf("after remove len=%d total=%v", tr.Len(), tr.Total())
	}
}

func TestTreePaperExample(t *testing.T) {
	// Same Figure 1 draw as the list test: winning value 15 over
	// weights 10,2,5,1,2 picks the third client.
	tr := NewTree[string](8)
	for i, w := range []float64{10, 2, 5, 1, 2} {
		tr.Add([]string{"c1", "c2", "c3", "c4", "c5"}[i], w)
	}
	src := &random.Scripted{Values: []uint32{valueFor(15, 20)}}
	winner, ok := tr.Draw(src)
	if !ok || winner != "c3" {
		t.Fatalf("winner = %q ok=%v, want c3", winner, ok)
	}
}

func TestTreeDrawEmpty(t *testing.T) {
	tr := NewTree[int](2)
	if _, ok := tr.Draw(random.NewPM(1)); ok {
		t.Error("draw on empty tree succeeded")
	}
	it := tr.Add(1, 0)
	if _, ok := tr.Draw(random.NewPM(1)); ok {
		t.Error("draw with zero total succeeded")
	}
	tr.Remove(it)
	if _, ok := tr.Draw(random.NewPM(1)); ok {
		t.Error("draw after removing all succeeded")
	}
}

func TestTreeGrowth(t *testing.T) {
	tr := NewTree[int](2)
	items := make([]TreeItem, 0, 100)
	want := 0.0
	for i := 0; i < 100; i++ {
		items = append(items, tr.Add(i, float64(i+1)))
		want += float64(i + 1)
	}
	if tr.Len() != 100 || math.Abs(tr.Total()-want) > 1e-9 {
		t.Fatalf("after growth len=%d total=%v want %v", tr.Len(), tr.Total(), want)
	}
	for i, it := range items {
		if tr.Value(it) != i || tr.Weight(it) != float64(i+1) {
			t.Fatalf("item %d corrupted by growth: value=%v weight=%v", i, tr.Value(it), tr.Weight(it))
		}
	}
	if err := CheckTree(tr); err != nil {
		t.Fatalf("invariants after growth: %v", err)
	}
}

func TestTreeSlotRecycling(t *testing.T) {
	tr := NewTree[int](4)
	a := tr.Add(1, 1)
	b := tr.Add(2, 2)
	tr.Remove(a)
	c := tr.Add(3, 3) // should reuse a's slot
	if tr.Len() != 2 || tr.Total() != 5 {
		t.Fatalf("len=%d total=%v", tr.Len(), tr.Total())
	}
	if tr.Value(b) != 2 || tr.Value(c) != 3 {
		t.Fatal("values corrupted by recycling")
	}
	// Interleave removal and growth.
	tr.Remove(b)
	for i := 0; i < 20; i++ {
		tr.Add(100+i, 1)
	}
	if tr.Len() != 21 {
		t.Fatalf("len = %d, want 21", tr.Len())
	}
	if err := CheckTree(tr); err != nil {
		t.Fatalf("invariants after recycling: %v", err)
	}
}

func TestTreeHandleMisusePanics(t *testing.T) {
	tr := NewTree[int](2)
	it := tr.Add(1, 1)
	tr.Remove(it)
	for name, f := range map[string]func(){
		"double remove":  func() { tr.Remove(it) },
		"update removed": func() { tr.Update(it, 2) },
		"negative add":   func() { tr.Add(2, -3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestTreeDistribution(t *testing.T) {
	weights := []float64{10, 2, 5, 1, 2, 0, 30}
	tr := NewTree[int](8)
	for i, w := range weights {
		tr.Add(i, w)
	}
	distributionCheck(t, tr.Draw, weights, 50000)
}

// TestTreeMatchesListDraws: with identical entry order and the same
// random stream, the tree, the list and the slice Draw pick the same
// winners (they partition [0, total) into the same intervals).
func TestTreeMatchesListDraws(t *testing.T) {
	weights := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	l := NewList[int](false)
	tr := NewTree[int](16)
	for i, w := range weights {
		l.Add(i, w)
		tr.Add(i, w)
	}
	srcA := random.NewPM(31415)
	srcB := random.NewPM(31415)
	srcC := random.NewPM(31415)
	for i := 0; i < 20000; i++ {
		wa, oka := l.Draw(srcA)
		wb, okb := tr.Draw(srcB)
		wc, okc := Draw(srcC, weights)
		if !oka || !okb || !okc || wa != wb || wa != wc {
			t.Fatalf("draw %d: list %v/%v tree %v/%v slice %v/%v", i, wa, oka, wb, okb, wc, okc)
		}
	}
}

// TestTreeTotalInvariant is a property test: after arbitrary add,
// update, and remove sequences, the root sum equals the sum of live
// leaf weights.
func TestTreeTotalInvariant(t *testing.T) {
	f := func(seed uint32, opsRaw []byte) bool {
		rng := random.NewPM(seed)
		tr := NewTree[int](2)
		var live []TreeItem
		var want float64
		for _, op := range opsRaw {
			switch op % 3 {
			case 0: // add
				w := float64(rng.Intn(100))
				live = append(live, tr.Add(int(op), w))
				want += w
			case 1: // update
				if len(live) > 0 {
					it := live[rng.Intn(len(live))]
					w := float64(rng.Intn(100))
					want += w - tr.Weight(it)
					tr.Update(it, w)
				}
			case 2: // remove
				if len(live) > 0 {
					i := rng.Intn(len(live))
					want -= tr.Weight(live[i])
					tr.Remove(live[i])
					live = append(live[:i], live[i+1:]...)
				}
			}
			if math.Abs(tr.Total()-want) > 1e-6 {
				return false
			}
			if tr.Len() != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestInverseLottery: DrawVictim picks victims in proportion to the
// caller's inverse weights (χ² at the 99.9th percentile), and a zero
// weight never loses while another weight is positive.
func TestInverseLottery(t *testing.T) {
	weights := []float64{0.45, 0.225, 0.05, 0} // (1 - t_i/T) · m_i/M
	held := []int64{60, 30, 10, 5}
	src := random.NewPM(2718)
	const draws = 60000
	counts := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		counts[DrawVictim(src, weights, held)]++
	}
	if counts[3] != 0 {
		t.Fatalf("zero-weight holder lost %d times", counts[3])
	}
	total := weights[0] + weights[1] + weights[2]
	expected := make([]float64, 3)
	for i := range expected {
		expected[i] = draws * weights[i] / total
	}
	chi2, err := stats.ChiSquare(counts[:3], expected)
	if err != nil {
		t.Fatal(err)
	}
	if crit := stats.ChiSquareCritical999(2); chi2 > crit {
		t.Errorf("victim counts %v vs expected %v: χ² = %.2f > %.2f", counts, expected, chi2, crit)
	}
}

// TestInverseLotteryAllZero: with every inverse weight 0 the largest
// holder is the victim (the first on a tie), and no random number is
// drawn — the scripted source is empty and panics if read.
func TestInverseLotteryAllZero(t *testing.T) {
	src := &random.Scripted{}
	if v := DrawVictim(src, []float64{0, 0, 0}, []int64{10, 40, 40}); v != 1 {
		t.Errorf("all-zero victim = %d, want 1 (first largest holder)", v)
	}
	if v := DrawVictim(src, []float64{0}, []int64{100}); v != 0 {
		t.Errorf("lone fully funded holder: victim = %d, want 0", v)
	}
}

// TestDrawNoWeightDrawsNothing: Draw reports false without consuming
// a random number when there is nothing to allocate, so a caller's
// fallback leaves a seeded stream where List.Draw would.
func TestDrawNoWeightDrawsNothing(t *testing.T) {
	src := &random.Scripted{}
	for _, w := range [][]float64{nil, {}, {0}, {0, 0, 0}} {
		if i, ok := Draw(src, w); ok {
			t.Errorf("Draw(%v) = %d, true; want false", w, i)
		}
	}
}

func TestDrawNegativeWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative weight accepted")
		}
	}()
	Draw(random.NewPM(1), []float64{1, -2})
}
