// Command perfbench is the repository's benchmark. It runs one workload
// against the lottery dispatcher (in process) or the lotteryd daemon
// (as a subprocess), checks that the program's outputs are correct,
// and prints every metric by name with its unit; the last line of
// standard output is the JSON result. See README.md for the workloads,
// the metrics and what each per-layer metric is predicted to move.
//
//	perfbench -daemon <lotteryd binary> --workload churn512 --seed 1 --seconds 30 --trace 0
//
// run.sh builds both binaries from the checkout and runs this.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// outDir holds run records and trace files, relative to the checkout.
const outDir = ".bench_out"

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports; BENCHMARK.json
// lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tasks_per_s", "1/s"},
	{"wait_p50_us", "us"},
	{"wait_p99_us", "us"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"cpu_us_per_task", "us/task"},
	{"alloc_bytes_per_task", "B/task"},
}

// perLayer are the metrics a traced run reports. A metric whose layer a
// workload does not exercise reads 0 there (README.md lists which
// workloads measure which).
var perLayer = []metricDef{
	{"rt.submit_ns_p50", "ns"},
	{"rt.submit_ns_p99", "ns"},
	{"rt.queue_us_p50", "us"},
	{"rt.queue_us_p99", "us"},
	{"rt.finish_us_p50", "us"},
	{"rt.finish_us_p99", "us"},
	{"rt.snapshot_rebuilds_per_ktask", "count/ktask"},
	{"rt.ring_full_per_ktask", "count/ktask"},
	{"rt.snapshot_call_us_p50", "us"},
	{"metrics.writeto_us_p50", "us"},
	{"ticket.set_tickets_us_p50", "us"},
	{"rt.join_us_p50", "us"},
	{"rt.leave_us_p50", "us"},
	{"lottery.tree_draw_ns", "ns"},
	{"lottery.list_draw_ns", "ns"},
	{"random.pm_ns", "ns"},
	{"audit.windows_per_ktask", "count/ktask"},
	{"audit.drifted_windows", "count"},
	{"resource.reclaims", "count"},
	{"resource.throttles", "count"},
	{"http.server_us_p50", "us"},
	{"http.server_us_p99", "us"},
	{"http.overhead_us_p50", "us"},
	{"http.scrape_us_p50", "us"},
	{"gen.cpu_us_per_req", "us/req"},
	{"gc.cycles_per_mtask", "count/Mtask"},
	{"gc.pause_us_total", "us"},
}

// spanMetrics derives per-layer percentiles from span durations.
var spanMetrics = []struct {
	metric, span string
	p            int
	div          float64 // ns per reported unit
}{
	{"rt.submit_ns_p50", "submit", p50, 1},
	{"rt.submit_ns_p99", "submit", p99, 1},
	{"rt.queue_us_p50", "queue", p50, 1e3},
	{"rt.queue_us_p99", "queue", p99, 1e3},
	{"rt.finish_us_p50", "finish", p50, 1e3},
	{"rt.finish_us_p99", "finish", p99, 1e3},
	{"rt.snapshot_call_us_p50", "rt.snapshot", p50, 1e3},
	{"metrics.writeto_us_p50", "metrics.writeto", p50, 1e3},
	{"ticket.set_tickets_us_p50", "ticket.set_tickets", p50, 1e3},
	{"rt.join_us_p50", "rt.join", p50, 1e3},
	{"rt.leave_us_p50", "rt.leave", p50, 1e3},
	{"http.server_us_p50", "http.server", p50, 1e3},
	{"http.server_us_p99", "http.server", p99, 1e3},
	{"http.scrape_us_p50", "http.scrape", p50, 1e3},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	daemon   string // lotteryd binary, for http_closed
	tr       *tracer
}

// sessionTime is one session's share of the measured time.
func (c config) sessionTime() time.Duration {
	return time.Duration(c.seconds) * time.Second / sessions
}

// result is what a workload hands back.
type result struct {
	attempted, failed int64
	problems          []string
	e2e               map[string]float64
	layer             map[string]float64
	lines             []string // human-readable report, printed before the JSON
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail counts one failed operation or correctness check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// sessions is how many times a run sets its workload up from scratch.
// Each set-up is timed, warmed up, and measured for an equal share of
// --seconds, and the end-to-end figures are medians over the sessions:
// one session's speed depends on its process and on the shared host (two
// lotteryd sessions of one run were measured ~20% apart), and a median
// of five ignores the odd one out.
const sessions = 5

// figures are one session's end-to-end figures.
type figures map[string]float64

// timing puts a session's p50 and p99 (in microseconds) into f as
// <prefix>_p50_us and <prefix>_p99_us and reports them with their
// sample counts.
func (r *result) timing(f figures, session int, prefix string, samples []int64) {
	s := summarize(samples)
	f[prefix+"_p50_us"] = float64(s.P50) / 1e3
	f[prefix+"_p99_us"] = float64(s.P99) / 1e3
	r.printf("session %d %s: %s", session, prefix, s)
}

// sessionMedians sets every end-to-end metric to its median over the
// sessions; setup_s is the median set-up time.
func (r *result) sessionMedians(setups []time.Duration, figs []figures) {
	slices.Sort(setups)
	r.e2e["setup_s"] = setups[len(setups)/2].Seconds()
	r.printf("setup: %d set-ups %v", len(setups), setups)
	for _, d := range endToEnd {
		if d.name == "setup_s" {
			continue
		}
		v := make([]float64, len(figs))
		for i, f := range figs {
			v[i] = f[d.name]
		}
		slices.Sort(v)
		r.e2e[d.name] = v[len(v)/2]
		r.printf("%s: median %.6g of sessions %.6g", d.name, r.e2e[d.name], v)
	}
}

// counters are the per-layer counts summed over a run's sessions.
type counters struct {
	tasks, dispatched, rebuilds, ringFull uint64
	gcCycles                              uint64
	gcPause                               time.Duration
	windows, drifted                      float64 // audit windows closed / flagged
	reclaims, throttles                   uint64
}

// addWindow adds a measured window's GC counts.
func (c *counters) addWindow(w window) {
	c.tasks += uint64(w.tasks)
	c.gcCycles += w.end.gcCycles - w.start.gcCycles
	c.gcPause += w.end.gcPause - w.start.gcPause
}

// fill sets the counter-derived per-layer metrics.
func (c *counters) fill(layer map[string]float64) {
	disp := float64(c.dispatched)
	layer["rt.snapshot_rebuilds_per_ktask"] = float64(c.rebuilds) * 1e3 / disp
	layer["rt.ring_full_per_ktask"] = float64(c.ringFull) * 1e3 / disp
	layer["audit.windows_per_ktask"] = c.windows * 1e3 / disp
	layer["audit.drifted_windows"] = c.drifted
	layer["resource.reclaims"] = float64(c.reclaims)
	layer["resource.throttles"] = float64(c.throttles)
	layer["gc.cycles_per_mtask"] = float64(c.gcCycles) * 1e6 / float64(c.tasks)
	layer["gc.pause_us_total"] = float64(c.gcPause) / 1e3
}

var workloads = map[string]func(config) (*result, error){
	"saturate8":   runSaturate,
	"churn512":    runChurn,
	"http_closed": runHTTP,
}

func main() {
	workload := flag.String("workload", "", "workload to run: saturate8, churn512 or http_closed")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measured window length in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	daemon := flag.String("daemon", "", "lotteryd binary (http_closed)")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload saturate8|churn512|http_closed, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, daemon: *daemon}
	if *trace == 1 {
		cfg.tr = newTracer()
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	env := readEnvironment()
	if cfg.tr != nil {
		layerFromSpans(cfg.tr, res)
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := cfg.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		res.printf("spans: %d written to %s", len(cfg.tr.spans), path)
	}

	envJSON, _ := json.Marshal(env) // plain struct; cannot fail
	fmt.Printf("env: %s\n", envJSON)
	for _, l := range res.lines {
		fmt.Println(l)
	}
	for _, p := range res.problems {
		fmt.Println("FAILED:", p)
	}
	rec := runRecord{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: *trace,
		Env: env, Attempted: res.attempted, Failed: res.failed, EndToEnd: res.e2e}
	if cfg.tr != nil {
		printOverhead(rec)
	}
	if err := appendRecord(rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: recording run:", err)
	}

	defs, vals := endToEnd, res.e2e
	if cfg.tr != nil {
		defs, vals = perLayer, res.layer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]metric{}}
	for _, d := range defs {
		out.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// calibMetrics are per-call costs from calibration batch spans.
var calibMetrics = []struct{ metric, span string }{
	{"lottery.tree_draw_ns", "lottery.tree_draw"},
	{"lottery.list_draw_ns", "lottery.list_draw"},
	{"random.pm_ns", "random.pm"},
}

// layerFromSpans fills the span-derived per-layer metrics and reports
// each span population with its sample count.
func layerFromSpans(tr *tracer, res *result) {
	for _, m := range calibMetrics {
		var per []float64
		for _, s := range tr.spans {
			if s.Name == m.span {
				per = append(per, float64(s.End-s.Start)/float64(s.N))
			}
		}
		if len(per) > 0 {
			slices.Sort(per)
			res.layer[m.metric] = per[len(per)/2]
			res.printf("span %s: median of %d batches %.3fns per call", m.span, len(per), res.layer[m.metric])
		}
	}
	reported := map[string]bool{}
	for _, m := range spanMetrics {
		d := tr.durations(m.span)
		if len(d) == 0 {
			continue
		}
		s := summarize(d)
		v := s.P50
		if m.p == p99 {
			v = s.P99
		}
		res.layer[m.metric] = float64(v) / m.div
		if !reported[m.span] {
			reported[m.span] = true
			res.printf("span %s: %s", m.span, s)
		}
	}
}

// runRecord is one line of .bench_out/runs.jsonl.
type runRecord struct {
	Time      string             `json:"time"`
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     int                `json:"trace"`
	Env       environment        `json:"env"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
}

func appendRecord(rec runRecord) error {
	rec.Time = time.Now().UTC().Format(time.RFC3339)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(outDir, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printOverhead reports a traced run's end-to-end figures against the
// most recent untraced run of the same workload and length on the same
// commit, from .bench_out/runs.jsonl: the tracing overhead.
func printOverhead(traced runRecord) {
	var base *runRecord
	if f, err := os.Open(filepath.Join(outDir, "runs.jsonl")); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var r runRecord
			if json.Unmarshal(sc.Bytes(), &r) == nil && r.Trace == 0 && r.Workload == traced.Workload &&
				r.Seconds == traced.Seconds && r.Env.Commit == traced.Env.Commit {
				base = &r
			}
		}
		f.Close()
	}
	if base == nil {
		fmt.Printf("tracing overhead: no untraced %s run of %ds on this commit recorded yet\n", traced.Workload, traced.Seconds)
		return
	}
	names := make([]string, 0, len(endToEnd))
	for _, d := range endToEnd {
		names = append(names, d.name)
	}
	sort.Strings(names)
	for _, n := range names {
		t, u := traced.EndToEnd[n], base.EndToEnd[n]
		rel := 0.0
		if u != 0 {
			rel = (t - u) / u * 100
		}
		fmt.Printf("tracing overhead %s: traced %.4g - untraced %.4g (seed %d) = %+.4g (%+.1f%%)\n",
			n, t, u, base.Seed, t-u, rel)
	}
}
