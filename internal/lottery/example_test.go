package lottery_test

import (
	"fmt"

	"repro/internal/lottery"
	"repro/internal/random"
)

// ExampleList_Draw reproduces the paper's Figure 1: five clients with
// 10, 2, 5, 1, 2 tickets; the winning value 15 selects the third
// client.
func ExampleList_Draw() {
	l := lottery.NewList[string](false)
	for i, w := range []float64{10, 2, 5, 1, 2} {
		l.Add(fmt.Sprintf("client-%d", i+1), w)
	}
	// A scripted source that makes the uniform draw land on 15 of 20.
	src := &random.Scripted{Values: []uint32{uint32(15.0/20*(1<<31)) + 2}}
	winner, _ := l.Draw(src)
	fmt.Println("total tickets:", l.Total())
	fmt.Println("winner:", winner)
	// Output:
	// total tickets: 20
	// winner: client-3
}

// ExampleTree shows the O(log n) partial-sum tree: same interface,
// same probabilities, logarithmic draws.
func ExampleTree() {
	tr := lottery.NewTree[string](4)
	gold := tr.Add("gold", 75)
	tr.Add("silver", 25)
	fmt.Println("total:", tr.Total())
	tr.Update(gold, 50)
	fmt.Println("after update:", tr.Total())

	src := random.NewPM(7)
	wins := map[string]int{}
	for i := 0; i < 10000; i++ {
		w, _ := tr.Draw(src)
		wins[w]++
	}
	fmt.Println("gold won more than silver:", wins["gold"] > wins["silver"])
	// Output:
	// total: 100
	// after update: 75
	// gold won more than silver: true
}

// ExampleDrawVictim shows the §6.2 inverse lottery: three clients
// hold 60, 30 and 10 pages of a 100-page pool with 1, 1 and 2 tickets,
// and the victim weights (1 - t_i/T) · m_i/M make the large,
// poorly funded holder lose most often.
func ExampleDrawVictim() {
	weights := []float64{0.75 * 0.6, 0.75 * 0.3, 0.5 * 0.1}
	held := []int64{60, 30, 10}
	src := random.NewPM(7)
	losses := make([]int, len(weights))
	for i := 0; i < 10000; i++ {
		losses[lottery.DrawVictim(src, weights, held)]++
	}
	fmt.Println("largest holder lost most:", losses[0] > losses[1] && losses[1] > losses[2])
	// A lone holder is fully funded (weight 0) but still gives up a page.
	fmt.Println("lone holder victim:", lottery.DrawVictim(src, []float64{0}, []int64{100}))
	// Output:
	// largest holder lost most: true
	// lone holder victim: 0
}
