package main

import (
	"repro/internal/lottery"
	"repro/internal/random"
)

const (
	calibBatch   = 1 << 16
	calibBatches = 9
)

// calibSink keeps calibration results alive past the compiler.
var calibSink int

// calibrate times the three draw primitives on the workload's own
// ticket vector — lottery.Tree.Draw, lottery.List.Draw (move-to-front,
// the paper's §4.2 list) and random.PM.Uint31 — recording one span per
// batch of calibBatch calls. Traced runs only.
func calibrate(tr *tracer, seed uint64, weights []float64) {
	tree := lottery.NewTree[int](len(weights))
	list := lottery.NewList[int](true)
	for i, w := range weights {
		tree.Add(i, w)
		list.Add(i, w)
	}
	src := random.NewPM(uint32(seed))
	sink := 0
	for b := 0; b < calibBatches; b++ {
		t := clock()
		for i := 0; i < calibBatch; i++ {
			v, _ := tree.Draw(src)
			sink += v
		}
		tr.add(0, 0, "lottery.tree_draw", t, clock(), calibBatch)
		t = clock()
		for i := 0; i < calibBatch; i++ {
			v, _ := list.Draw(src)
			sink += v
		}
		tr.add(0, 0, "lottery.list_draw", t, clock(), calibBatch)
		t = clock()
		for i := 0; i < calibBatch; i++ {
			sink += int(src.Uint31())
		}
		tr.add(0, 0, "random.pm", t, clock(), calibBatch)
	}
	calibSink += sink
}
