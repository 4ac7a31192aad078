package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

func classes(seed uint64, conn, n int) []int {
	next := classStream(seed, conn)
	out := make([]int, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

// TestSeedDeterminesInputs: the same seed gives an identical schedule
// and a different seed a different one.
func TestSeedDeterminesInputs(t *testing.T) {
	a, b, c := newChurnPlan(7), newChurnPlan(7), newChurnPlan(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("churn plan differs between two builds from seed 7")
	}
	if reflect.DeepEqual(a.ops, c.ops) || a.tickets == c.tickets {
		t.Error("seeds 7 and 8 give the same churn plan")
	}
	if !reflect.DeepEqual(classes(7, 0, 1000), classes(7, 0, 1000)) {
		t.Error("class stream differs between two builds from seed 7")
	}
	if reflect.DeepEqual(classes(7, 0, 1000), classes(8, 0, 1000)) {
		t.Error("seeds 7 and 8 give the same class stream")
	}
	if reflect.DeepEqual(classes(7, 0, 1000), classes(7, 1, 1000)) {
		t.Error("connections 0 and 1 share a class stream")
	}
}

// TestChurnPlanShape checks the properties the workload relies on:
// operations split across tenants in proportion to tenant funding over
// every audit-window-sized stretch, and churn actions arrive at their
// planned mean rates.
func TestChurnPlanShape(t *testing.T) {
	p := newChurnPlan(1)
	var total uint64
	for _, f := range p.tenantFunding {
		total += f
	}
	const stretch = 4096
	for start := 0; start+stretch <= len(p.ops); start += 7 * stretch {
		var counts [churnTenants]int
		for _, op := range p.ops[start : start+stretch] {
			counts[int(op.slot)/churnClientsPerTenant]++
		}
		for j, n := range counts {
			want := float64(stretch) * float64(p.tenantFunding[j]) / float64(total)
			if d := float64(n) - want; d > 2 || d < -2 {
				t.Fatalf("ops %d+%d: tenant %d got %d, want %.1f", start, stretch, j, n, want)
			}
		}
	}
	var acts [3]int
	for _, op := range p.ops {
		acts[op.act]++
	}
	for act, every := range map[uint8]int{actSetTickets: setTicketsEvery, actReplace: replaceEvery} {
		want := float64(len(p.ops)) / float64(every)
		if got := float64(acts[act]); got < 0.85*want || got > 1.1*want {
			t.Errorf("action %d: %v planned, want about %.0f", act, got, want)
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric names and units
// the program prints in step with BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program runs %d", len(b.Workloads), len(workloads))
	}
}
