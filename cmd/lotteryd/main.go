// Command lotteryd demonstrates the real-time dispatcher as a tiny
// HTTP service: each request class is a currency-funded client of an
// rt.Dispatcher, so classes receive worker time in proportion to
// their ticket funding no matter how unbalanced the offered load.
//
//	lotteryd -addr :8080 -workers 2 -classes gold=500,silver=300,bronze=200
//
//	curl 'http://localhost:8080/work?class=gold&busy=5ms'   # do one job
//	curl 'http://localhost:8080/snapshot'                   # achieved vs entitled
//	curl 'http://localhost:8080/metrics'                    # Prometheus text format
//	curl 'http://localhost:8080/debug/events?n=20'          # recent dispatcher events
//	curl 'http://localhost:8080/debug/trace?n=20'           # sampled task spans (-trace-sample)
//	curl 'http://localhost:8080/debug/fairness'             # last fairness-audit window
//	curl 'http://localhost:8080/resources'                  # multi-resource ledger view
//
// /work enqueues a job for its class and blocks until a worker has
// run it; a class whose queue is full answers 503 (the dispatcher's
// Reject backpressure policy). The job is bound to the request
// context: a caller that disconnects while its job is still queued
// cancels it, reclaiming the queue slot without a worker ever
// touching it. /snapshot returns the dispatcher's atomic rt.Snapshot
// as JSON: per-class dispatch counts, achieved vs entitled share,
// cancellations, queue depth, and wait-latency percentiles.
//
// Multi-resource mode: -mem (memory pool bytes) and -iorate/-ioburst
// (I/O token bucket) attach a resource ledger to the dispatcher, so
// one class currency jointly funds CPU time, memory, and I/O
// bandwidth. -reserves gives each class a default per-job reserve
// ("gold=4096:128" holds 4096 bytes and spends 128 I/O tokens per
// job), which ?mem= and ?io= on /work override per request; reserves
// are acquired before the job is admitted (memory reclamation and
// token waits happen there, never on a worker) and released when it
// finishes. /resources returns the ledger's resource.Snapshot as
// JSON — per-tenant residency, tokens consumed, dominant shares,
// reclamations, and throttles — and answers 404 when no pool is
// configured.
//
// Overload control: -slo gives classes p99 wait-latency targets
// ("gold=50ms") that a feedback controller holds by inflating the
// class's ticket funding (bounded by -inflate) while the target is
// missed and burning the boost back once met; -shed sets the queued-
// backlog high watermark past which the controller evicts queued jobs
// by inverse lottery over the classes queued beyond their entitled
// share, draining to -shedlow. Shed jobs answer 503; while the
// backlog is past the watermark every 503 carries a Retry-After hint
// derived from the measured drain rate. /overload returns the
// controller's state as JSON (per-class inflation factors, windowed
// p99s, shed counts, over-share ratios) and answers 404 when neither
// -slo nor -shed is set.
//
// Observability: /metrics exposes the dispatcher's rt_* families
// (per-class dispatch/reject/cancel counters, queue depths,
// wait-latency histograms) plus per-endpoint http_requests_total and
// http_request_seconds, all from one metrics.Registry. /debug/events
// streams the most recent dispatcher lifecycle events as JSON lines
// (ring capacity set by -events; ?n= limits the tail, ?after= resumes
// from an event id; X-Events-Last-ID and X-Events-Dropped headers
// carry the polling cursor and the evicted-gap count). -pprof
// additionally mounts net/http/pprof under /debug/pprof/ — opt-in,
// since profiling endpoints should not be exposed by default.
//
// Tracing and the fairness audit: -trace-sample p samples a fraction
// p of jobs into per-task lifecycle spans — submit, reserve, queue,
// dispatch (shard, worker), run — retained in a bounded flight
// recorder (-trace-buf) and served as JSON lines at /debug/trace
// (?n= / ?after= as for events; X-Trace-Last-ID / X-Trace-Missed
// carry the cursor), with per-stage latency histograms in /metrics
// (trace_stage_seconds). -audit-window n closes a fairness-audit
// window every n dispatches, comparing each class's observed dispatch
// share against its ticket share; /debug/fairness returns the last
// closed window (expected vs observed shares, chi-square, drift
// streak) and audit_* gauges track it in /metrics. Classes the
// controller sheds or inflates are renormalized out of their windows,
// so overload control does not read as unfairness.
//
// On SIGINT/SIGTERM the daemon shuts down gracefully: the listener
// closes, in-flight requests finish, and the dispatcher drains its
// backlog, all bounded by -grace; a second deadline overrun discards
// still-queued jobs rather than hanging forever.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/rt"
	"repro/internal/rt/audit"
	"repro/internal/rt/overload"
	"repro/internal/rt/resource"
	"repro/internal/ticket"
)

// errConfig marks flag/configuration errors, which exit 2 (usage)
// rather than 1 (runtime failure).
var errConfig = errors.New("lotteryd: bad configuration")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, errConfig) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run is the daemon body, factored out of main so tests can drive the
// full lifecycle: it serves until ctx is done (the signal path), then
// shuts the HTTP server and dispatcher down gracefully. If ready is
// non-nil the bound listen address is sent on it once serving.
func run(ctx context.Context, args []string, ready chan<- net.Addr) error {
	fs := flag.NewFlagSet("lotteryd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	shards := fs.Int("shards", 0, "run-queue shards (0 = GOMAXPROCS)")
	queueCap := fs.Int("queue", 256, "per-class queue capacity")
	seed := fs.Uint("seed", 1, "lottery PRNG seed")
	slice := fs.Duration("slice", 0, "expected slice for compensation tickets (0 = off)")
	grace := fs.Duration("grace", 5*time.Second, "graceful shutdown deadline for in-flight requests and queued jobs")
	classes := fs.String("classes", "gold=500,silver=300,bronze=200",
		"comma-separated class=tickets funding map")
	events := fs.Int("events", 2048, "dispatcher event ring capacity for /debug/events (0 disables)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	memCap := fs.Int64("mem", 0, "memory pool capacity in bytes (0 disables the memory pool)")
	ioRate := fs.Float64("iorate", 0, "I/O token-bucket refill rate in tokens/sec (0 disables the I/O pool)")
	ioBurst := fs.Int64("ioburst", 0, "I/O token-bucket burst capacity (0 = rate)")
	reserves := fs.String("reserves", "",
		"comma-separated class=mem:io default per-job reserves (bytes held, tokens spent)")
	slo := fs.String("slo", "",
		"comma-separated class=duration p99 wait targets driving ticket inflation")
	shedHigh := fs.Int("shed", 0,
		"queued-backlog high watermark that starts inverse-lottery load shedding (0 disables)")
	shedLow := fs.Int("shedlow", 0,
		"backlog a shed drains down to (0 = half of -shed)")
	inflate := fs.Float64("inflate", 8, "cap on the SLO controller's funding inflation factor")
	traceSample := fs.Float64("trace-sample", 0,
		"task span sampling probability in [0, 1] for /debug/trace (0 disables tracing)")
	traceBuf := fs.Int("trace-buf", 4096, "span flight-recorder capacity")
	auditWindow := fs.Uint64("audit-window", 4096,
		"dispatches per fairness-audit window for /debug/fairness (0 disables the audit)")
	auditTol := fs.Float64("audit-tol", 0.10,
		"fairness-audit drift threshold (max relative share error per window)")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %v", errConfig, err)
	}
	if *events < 0 {
		return fmt.Errorf("%w: -events must be >= 0", errConfig)
	}
	if *traceSample < 0 || *traceSample > 1 {
		return fmt.Errorf("%w: -trace-sample must be in [0, 1]", errConfig)
	}
	if *traceBuf <= 0 {
		return fmt.Errorf("%w: -trace-buf must be positive", errConfig)
	}
	if *auditTol <= 0 {
		return fmt.Errorf("%w: -audit-tol must be positive", errConfig)
	}
	if *memCap < 0 || *ioRate < 0 || *ioBurst < 0 {
		return fmt.Errorf("%w: -mem, -iorate, and -ioburst must be >= 0", errConfig)
	}
	if *shedHigh < 0 || *shedLow < 0 {
		return fmt.Errorf("%w: -shed and -shedlow must be >= 0", errConfig)
	}
	if *shedLow > 0 && *shedLow >= *shedHigh {
		return fmt.Errorf("%w: -shedlow must be below -shed", errConfig)
	}
	if *inflate < 1 {
		return fmt.Errorf("%w: -inflate must be >= 1", errConfig)
	}

	funding, err := parseClasses(*classes)
	if err != nil {
		return fmt.Errorf("%w: %v", errConfig, err)
	}
	classRes, err := parseReserves(*reserves, funding)
	if err != nil {
		return fmt.Errorf("%w: %v", errConfig, err)
	}
	if len(classRes) > 0 && *memCap == 0 && *ioRate == 0 {
		return fmt.Errorf("%w: -reserves needs a resource pool (-mem or -iorate)", errConfig)
	}
	slos, err := parseSLOs(*slo, funding)
	if err != nil {
		return fmt.Errorf("%w: %v", errConfig, err)
	}

	reg := metrics.NewRegistry()
	var rec *rt.EventRecorder
	cfg := rt.Config{
		Workers:       *workers,
		Shards:        *shards,
		QueueCap:      *queueCap,
		Seed:          uint32(*seed),
		ExpectedSlice: *slice,
		Metrics:       reg,
	}
	var ledger *resource.Ledger
	if *memCap > 0 || *ioRate > 0 {
		// The ledger reports into the same registry as the dispatcher:
		// one /metrics scrape covers CPU scheduling, memory residency,
		// and I/O token flow.
		ledger = resource.NewLedger(resource.Config{
			MemCapacity: *memCap,
			IORate:      *ioRate,
			IOBurst:     *ioBurst,
			Seed:        uint32(*seed),
			Metrics:     reg,
		})
		cfg.Resources = ledger
	}
	if *events > 0 {
		rec = rt.NewEventRecorder(*events)
		cfg.Observer = rec
	}
	var tracer *audit.Tracer
	if *traceSample > 0 {
		tracer = audit.NewTracer(audit.TracerConfig{
			Rate:     *traceSample,
			Capacity: *traceBuf,
			Seed:     uint32(*seed),
			Metrics:  reg,
		})
		cfg.Tracer = tracer
	}
	var auditor *audit.Auditor
	if *auditWindow > 0 {
		auditor = audit.New(audit.Config{
			WindowDraws: *auditWindow,
			Tol:         *auditTol,
			Metrics:     reg,
		})
		cfg.Audit = auditor
	}
	d := rt.New(cfg)

	clients := make(map[string]*rt.Client, len(funding))
	names := make([]string, 0, len(funding))
	for name, amount := range funding {
		c, err := d.NewClient(name, amount, rt.WithOverflow(rt.Reject))
		if err != nil {
			_ = d.CloseTimeout(*grace)
			return err
		}
		clients[name] = c
		names = append(names, name)
	}
	sort.Strings(names)

	// The overload controller runs whenever a class has an SLO or a
	// shed watermark is set: every class registers (shedding needs the
	// full entitled-share picture), SLO-less classes with a zero
	// target.
	var ctrl *overload.Controller
	if len(slos) > 0 || *shedHigh > 0 {
		ctrl = overload.New(d, overload.Config{
			HighWatermark: *shedHigh,
			LowWatermark:  *shedLow,
			MaxInflation:  *inflate,
			Seed:          uint32(*seed),
		})
		for _, name := range names {
			c := clients[name]
			ctrl.Register(c.Tenant(), slos[name], c)
		}
		ctrl.Start()
	}
	// retryAfter derives the 503 backpressure hint: the controller's
	// drain-rate estimate while it reports one, else a flat second —
	// enough to desynchronize immediate re-tries without parking
	// well-behaved callers.
	retryAfter := func() string {
		if ctrl != nil {
			if hint := ctrl.RetryAfterHint(); hint > 0 {
				return strconv.Itoa(int((hint + time.Second - 1) / time.Second))
			}
		}
		return "1"
	}

	// Every endpoint below reports into the same registry the
	// dispatcher exports through, so one /metrics scrape covers both
	// scheduling behaviour and HTTP serving behaviour.
	httpReqs := reg.CounterVec("http_requests_total",
		"HTTP requests served, by endpoint and status code.", "path", "code")
	httpLat := reg.HistogramVec("http_request_seconds",
		"HTTP request latency in seconds, by endpoint.",
		metrics.ExpBuckets(1e-4, 4, 10), "path")

	mux := http.NewServeMux()
	handle := func(path string, h http.HandlerFunc) {
		lat := httpLat.With(path)
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			sw := &statusWriter{ResponseWriter: w}
			h(sw, r)
			code := sw.status
			if code == 0 {
				// Handler wrote no response (e.g. /work's caller-gone
				// paths); net/http sends an implicit 200.
				code = http.StatusOK
			}
			httpReqs.With(path, strconv.Itoa(code)).Inc()
			lat.Observe(time.Since(start).Seconds())
		})
	}
	handle("/work", func(w http.ResponseWriter, r *http.Request) {
		c, ok := clients[r.URL.Query().Get("class")]
		if !ok {
			http.Error(w, fmt.Sprintf("unknown class; have %s", strings.Join(names, ", ")),
				http.StatusBadRequest)
			return
		}
		busy := time.Millisecond
		if v := r.URL.Query().Get("busy"); v != "" {
			var err error
			if busy, err = time.ParseDuration(v); err != nil {
				http.Error(w, "bad busy duration: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		res := classRes[c.Name()]
		for _, q := range []struct {
			key string
			dst *int64
		}{{"mem", &res.MemBytes}, {"io", &res.IOTokens}} {
			if v := r.URL.Query().Get(q.key); v != "" {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil || n < 0 {
					http.Error(w, "bad "+q.key+": want a non-negative integer", http.StatusBadRequest)
					return
				}
				*q.dst = n
			}
		}
		enqueued := time.Now()
		// The job rides the request context: a disconnected caller
		// cancels its still-queued job (and rolls back a reserve
		// acquisition it is blocked in) and frees the slot.
		task, err := c.SubmitReserve(r.Context(), func() { spin(busy) }, res)
		switch {
		case errors.Is(err, rt.ErrQueueFull):
			w.Header().Set("Retry-After", retryAfter())
			http.Error(w, "class queue full", http.StatusServiceUnavailable)
			return
		case errors.Is(err, rt.ErrNoResources),
			errors.Is(err, resource.ErrBadReserve),
			errors.Is(err, resource.ErrMemCapacity),
			errors.Is(err, resource.ErrIOCapacity):
			// The reserve can never be satisfied as configured — caller
			// error, not transient overload.
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			return // caller went away before the job was admitted
		case err != nil:
			w.Header().Set("Retry-After", retryAfter())
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		switch err := task.WaitCtx(r.Context()); {
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			return // caller went away; a queued job was cancelled with it
		case errors.Is(err, rt.ErrShed):
			w.Header().Set("Retry-After", retryAfter())
			http.Error(w, "job shed under overload", http.StatusServiceUnavailable)
			return
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, map[string]any{
			"class":    c.Name(),
			"busy":     busy.String(),
			"total_ms": float64(time.Since(enqueued).Microseconds()) / 1000,
		})
	})
	handle("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, d.Snapshot())
	})
	handle("/resources", func(w http.ResponseWriter, r *http.Request) {
		if ledger == nil {
			http.Error(w, "no resource pools configured (-mem / -iorate)", http.StatusNotFound)
			return
		}
		writeJSON(w, ledger.Snapshot())
	})
	handle("/overload", func(w http.ResponseWriter, r *http.Request) {
		if ctrl == nil {
			http.Error(w, "overload control disabled (-slo / -shed)", http.StatusNotFound)
			return
		}
		writeJSON(w, ctrl.Status())
	})
	metricsHandler := reg.Handler()
	handle("/metrics", func(w http.ResponseWriter, r *http.Request) {
		metricsHandler.ServeHTTP(w, r)
	})
	handle("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		if rec == nil {
			http.Error(w, "event recording disabled (-events 0)", http.StatusNotFound)
			return
		}
		n, after, ok := tailParams(w, r)
		if !ok {
			return
		}
		evs, dropped := rec.EventsAfter(after)
		if n > 0 && len(evs) > n {
			evs = evs[len(evs)-n:]
		}
		last := after
		if len(evs) > 0 {
			last = evs[len(evs)-1].ID
		}
		// Headers before any body bytes: they carry the polling cursor.
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Events-Last-ID", strconv.FormatUint(last, 10))
		w.Header().Set("X-Events-Dropped", strconv.FormatUint(dropped, 10))
		enc := json.NewEncoder(w)
		for i := range evs {
			if err := enc.Encode(&evs[i]); err != nil {
				log.Printf("lotteryd: /debug/events write: %v", err)
				return
			}
		}
	})
	handle("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if tracer == nil {
			http.Error(w, "tracing disabled (-trace-sample 0)", http.StatusNotFound)
			return
		}
		n, after, ok := tailParams(w, r)
		if !ok {
			return
		}
		spans, missed := tracer.Spans(n, after)
		last := after
		if len(spans) > 0 {
			last = spans[len(spans)-1].ID
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Trace-Last-ID", strconv.FormatUint(last, 10))
		w.Header().Set("X-Trace-Missed", strconv.FormatUint(missed, 10))
		enc := json.NewEncoder(w)
		for i := range spans {
			if err := enc.Encode(&spans[i]); err != nil {
				log.Printf("lotteryd: /debug/trace write: %v", err)
				return
			}
		}
	})
	handle("/debug/fairness", func(w http.ResponseWriter, r *http.Request) {
		if auditor == nil {
			http.Error(w, "fairness audit disabled (-audit-window 0)", http.StatusNotFound)
			return
		}
		writeJSON(w, auditor.Report())
	})
	if *pprofOn {
		// Explicit routes rather than a blank import: pprof stays off
		// the default mux and off this one unless asked for.
		handle("/debug/pprof/", pprof.Index)
		handle("/debug/pprof/cmdline", pprof.Cmdline)
		handle("/debug/pprof/profile", pprof.Profile)
		handle("/debug/pprof/symbol", pprof.Symbol)
		handle("/debug/pprof/trace", pprof.Trace)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		_ = d.CloseTimeout(*grace)
		return fmt.Errorf("lotteryd: listen: %w", err)
	}
	srv := &http.Server{
		Handler: mux,
		// No Read/WriteTimeout: /work legitimately blocks while its
		// job waits out the backlog. Header and idle timeouts still
		// bound dead connections.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	if ready != nil {
		ready <- ln.Addr()
	}
	log.Printf("lotteryd: %d workers, classes %s, listening on %s",
		d.Workers(), *classes, ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		// The server died under us; still drain bounded by the grace
		// deadline rather than hanging on a stuck backlog.
		if ctrl != nil {
			ctrl.Stop()
		}
		if cerr := d.CloseTimeout(*grace); cerr != nil {
			log.Printf("lotteryd: drain cut short, queued jobs discarded: %v", cerr)
		}
		return fmt.Errorf("lotteryd: serve: %w", err)
	case <-ctx.Done():
		log.Printf("lotteryd: shutdown signal; draining (grace %v)", *grace)
	}

	// Stop the overload controller before draining: a shed racing the
	// drain would bounce jobs the grace period could still finish.
	if ctrl != nil {
		ctrl.Stop()
	}

	// Stop accepting connections and let in-flight requests finish,
	// then drain the dispatcher's backlog — each bounded by the grace
	// deadline so a stuck queue cannot wedge shutdown.
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	shutErr := srv.Shutdown(shutCtx)
	if err := d.CloseTimeout(*grace); err != nil {
		log.Printf("lotteryd: drain cut short, queued jobs discarded: %v", err)
	}
	if shutErr != nil {
		return fmt.Errorf("lotteryd: shutdown: %w", shutErr)
	}
	log.Printf("lotteryd: drained cleanly")
	return nil
}

// spin busy-loops for roughly d, modeling CPU-bound work (sleeping
// would not contend for the worker pool in any interesting way).
func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

func parseClasses(s string) (map[string]ticket.Amount, error) {
	out := make(map[string]ticket.Amount)
	for _, part := range strings.Split(s, ",") {
		name, amount, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("lotteryd: bad class spec %q (want name=tickets)", part)
		}
		var n ticket.Amount
		if _, err := fmt.Sscanf(amount, "%d", &n); err != nil || n <= 0 {
			return nil, fmt.Errorf("lotteryd: bad ticket amount in %q", part)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("lotteryd: duplicate class %q", name)
		}
		out[name] = n
	}
	if len(out) == 0 {
		return nil, errors.New("lotteryd: no classes configured")
	}
	return out, nil
}

// parseReserves parses the -reserves flag: "class=mem:io" pairs where
// mem is bytes held and io is tokens spent per job. Every named class
// must exist in the funding map; unnamed classes default to a zero
// reserve (plain CPU jobs).
func parseReserves(s string, funding map[string]ticket.Amount) (map[string]rt.Reserve, error) {
	out := make(map[string]rt.Reserve)
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		name, spec, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("lotteryd: bad reserve spec %q (want class=mem:io)", part)
		}
		if _, known := funding[name]; !known {
			return nil, fmt.Errorf("lotteryd: reserve for unknown class %q", name)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("lotteryd: duplicate reserve for class %q", name)
		}
		memStr, ioStr, ok := strings.Cut(spec, ":")
		if !ok {
			return nil, fmt.Errorf("lotteryd: bad reserve spec %q (want class=mem:io)", part)
		}
		mem, err := strconv.ParseInt(memStr, 10, 64)
		if err != nil || mem < 0 {
			return nil, fmt.Errorf("lotteryd: bad memory bytes in %q", part)
		}
		io, err := strconv.ParseInt(ioStr, 10, 64)
		if err != nil || io < 0 {
			return nil, fmt.Errorf("lotteryd: bad I/O tokens in %q", part)
		}
		out[name] = rt.Reserve{MemBytes: mem, IOTokens: io}
	}
	return out, nil
}

// parseSLOs parses the -slo flag: "class=duration" pairs naming the
// class's p99 wait target. Every named class must exist in the
// funding map; unnamed classes get no SLO (no inflation, but they
// still participate in shed accounting).
func parseSLOs(s string, funding map[string]ticket.Amount) (map[string]time.Duration, error) {
	out := make(map[string]time.Duration)
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		name, spec, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("lotteryd: bad SLO spec %q (want class=duration)", part)
		}
		if _, known := funding[name]; !known {
			return nil, fmt.Errorf("lotteryd: SLO for unknown class %q", name)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("lotteryd: duplicate SLO for class %q", name)
		}
		d, err := time.ParseDuration(spec)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("lotteryd: bad SLO duration in %q", part)
		}
		out[name] = d
	}
	return out, nil
}

// statusWriter records the status code a handler sends so the metrics
// middleware can label http_requests_total with it. A handler that
// never calls WriteHeader leaves status 0 (net/http's implicit 200).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// tailParams parses the shared ?n= / ?after= query parameters of the
// /debug/events and /debug/trace tails. On a malformed value it
// writes a 400 and reports ok=false.
func tailParams(w http.ResponseWriter, r *http.Request) (n int, after uint64, ok bool) {
	if v := r.URL.Query().Get("n"); v != "" {
		var err error
		if n, err = strconv.Atoi(v); err != nil || n < 0 {
			http.Error(w, "bad n: want a non-negative integer", http.StatusBadRequest)
			return 0, 0, false
		}
	}
	if v := r.URL.Query().Get("after"); v != "" {
		var err error
		if after, err = strconv.ParseUint(v, 10, 64); err != nil {
			http.Error(w, "bad after: want an event id", http.StatusBadRequest)
			return 0, 0, false
		}
	}
	return n, after, true
}

// writeJSON encodes v into a buffer first so an encoding failure can
// still become a clean 500 instead of a half-written 200 body, and so
// Content-Length is known up front.
func writeJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("lotteryd: encoding response: %v", err)
		http.Error(w, "internal error", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = w.Write(buf.Bytes())
}
