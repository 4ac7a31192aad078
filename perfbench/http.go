package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// http_closed: lotteryd as the CI soak job runs it, driven closed-loop
// over two keep-alive connections with back-to-back /work?busy=0s
// requests; connection 0 also scrapes /metrics every second. See
// README.md.
const (
	httpConns    = 2
	httpWarmReqs = 1000 // per connection
	scrapeEvery  = time.Second
	// httpTraceEvery: a traced run records spans for one request in
	// this many.
	httpTraceEvery = 16
	// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat
	// CPU times (100 on every Linux architecture Go supports).
	clockTicks = 100
)

// daemonFlags is the CI soak daemon's configuration
// (.github/workflows/ci.yml), to which the run adds a loopback listen
// address, the seed, and -pprof for the daemon's allocation counters.
var daemonFlags = []string{
	"-workers", "2", "-queue", "1024",
	"-classes", "gold=50,silver=250,bronze=100",
	"-slo", "gold=500ms", "-shed", "400", "-shedlow", "300",
	"-trace-sample", "0.1", "-trace-buf", "8192", "-audit-window", "2048",
}

// daemon is a running lotteryd subprocess.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	logDone chan struct{} // closed when the daemon's stderr reaches EOF
}

func startDaemon(bin string, seed uint64) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("http_closed needs -daemon <lotteryd binary>")
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-seed", strconv.FormatUint(seed, 10), "-pprof"}, daemonFlags...)
	cmd := exec.Command(bin, args...)
	// One P each for the daemon and the generator: on a 2-vCPU box the
	// two processes then stop competing for CPUs, and the daemon's
	// handler-to-worker hand-offs stay on one thread.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start lotteryd: %w", err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		const marker = "listening on "
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if i := strings.Index(sc.Text(), marker); i >= 0 {
				select {
				case addr <- strings.TrimSpace(sc.Text()[i+len(marker):]):
				default:
				}
			}
		}
	}()
	select {
	case d.addr = <-addr:
		return d, nil
	case <-d.logDone:
		err := cmd.Wait()
		return nil, fmt.Errorf("lotteryd exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("lotteryd did not start listening within 30s")
	}
}

// stop shuts the daemon down gracefully (SIGINT), killing it if it has
// not exited within ten seconds, and waits for it.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(os.Interrupt) // a failure means it already exited
	select {
	case <-d.logDone:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.logDone
	}
	return d.cmd.Wait()
}

// cpu returns the daemon's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", b)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parse /proc stat: %w", err)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// httpConn is one keep-alive HTTP/1.1 connection to the daemon.
type httpConn struct {
	c  net.Conn
	br *bufio.Reader
}

func dial(addr string) (*httpConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &httpConn{c: c, br: bufio.NewReader(c)}, nil
}

func request(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: perfbench\r\n\r\n")
}

// do sends a prepared request and reads the whole response. first is
// the clock reading when the response's first byte had arrived.
func (h *httpConn) do(req []byte) (resp *http.Response, body []byte, first int64, err error) {
	if _, err = h.c.Write(req); err != nil {
		return nil, nil, 0, err
	}
	if _, err = h.br.Peek(1); err != nil {
		return nil, nil, 0, err
	}
	first = clock()
	if resp, err = http.ReadResponse(h.br, nil); err != nil {
		return nil, nil, 0, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body, first, err
}

// get is do for an ad-hoc path that must answer 200.
func (h *httpConn) get(path string) (*http.Response, []byte, error) {
	resp, body, _, err := h.do(request(path))
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return resp, body, err
}

// workReqs are the prepared /work requests, one per class.
var workReqs = func() [][]byte {
	out := make([][]byte, len(httpClasses))
	for i, c := range httpClasses {
		out[i] = request("/work?class=" + c.name + "&busy=0s")
	}
	return out
}()

// loader is one connection's closed loop.
type loader struct {
	conn   *httpConn
	next   func() int // class stream
	scrape bool       // this connection also scrapes /metrics
	served int64
	waits  *sampler // request write to first response byte
	lats   *sampler // request write to end of response body
	res    result   // failures only
}

// work sends one /work request and checks its answer.
func (l *loader) work(tr *tracer, req uint64, sample bool) error {
	cls := l.next()
	t0 := clock()
	resp, body, first, err := l.conn.do(workReqs[cls])
	t1 := clock()
	if err != nil {
		return fmt.Errorf("/work: %w", err)
	}
	var out struct {
		Class   string  `json:"class"`
		TotalMS float64 `json:"total_ms"`
	}
	if resp.StatusCode != http.StatusOK {
		l.res.fail("/work class %s: %s: %s", httpClasses[cls].name, resp.Status, bytes.TrimSpace(body))
		return nil
	}
	if err := json.Unmarshal(body, &out); err != nil || out.Class != httpClasses[cls].name {
		l.res.fail("/work class %s: answered %q (%v)", httpClasses[cls].name, body, err)
		return nil
	}
	l.served++
	if !sample {
		return nil
	}
	l.waits.add(first - t0)
	l.lats.add(t1 - t0)
	if tr != nil && req%httpTraceEvery == 0 {
		server := int64(out.TotalMS * 1e6)
		// The daemon reports only the server time's length; the server
		// span is placed to end with the response.
		root := tr.add(0, req, "request", t0, t1, 1)
		tr.add(root, req, "http.server", t1-server, t1, 1)
	}
	return nil
}

// daemonState is what the run reads from the daemon's own endpoints at
// the edges of the window.
type daemonState struct {
	dispatched, rebuilds, ringFull uint64
	auditWindows, auditDrifted     float64
	totalAlloc, numGC              uint64
	pauseNs                        []uint64 // MemStats.PauseNs ring
	cpu                            time.Duration
}

func readDaemon(d *daemon, c *httpConn) (daemonState, error) {
	var s daemonState
	_, body, err := c.get("/snapshot")
	if err != nil {
		return s, err
	}
	var snap struct {
		Dispatched       uint64 `json:"dispatched"`
		SnapshotRebuilds uint64 `json:"snapshot_rebuilds"`
		RingFull         uint64 `json:"ring_full"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return s, fmt.Errorf("/snapshot: %w", err)
	}
	s.dispatched, s.rebuilds, s.ringFull = snap.Dispatched, snap.SnapshotRebuilds, snap.RingFull
	if _, body, err = c.get("/metrics"); err != nil {
		return s, err
	}
	s.auditWindows = promValue(body, "audit_windows_total")
	s.auditDrifted = promValue(body, "audit_drift_windows_total")
	if _, body, err = c.get("/debug/pprof/allocs?debug=1"); err != nil {
		return s, err
	}
	if err := parseMemStats(body, &s); err != nil {
		return s, err
	}
	s.cpu, err = d.cpu()
	return s, err
}

// promValue returns the value of an unlabelled series in Prometheus
// text exposition, or 0 if absent.
func promValue(body []byte, name string) float64 {
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, _ := strconv.ParseFloat(strings.TrimSpace(v), 64) // malformed reads as absent
			return f
		}
	}
	return 0
}

// parseMemStats reads TotalAlloc, NumGC and PauseNs from the
// runtime.MemStats block of a debug=1 heap profile.
func parseMemStats(body []byte, s *daemonState) error {
	found := 0
	for _, line := range strings.Split(string(body), "\n") {
		k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok {
			continue
		}
		var err error
		switch k {
		case "TotalAlloc":
			s.totalAlloc, err = strconv.ParseUint(v, 10, 64)
			found++
		case "NumGC":
			s.numGC, err = strconv.ParseUint(v, 10, 64)
			found++
		case "PauseNs":
			s.pauseNs = s.pauseNs[:0]
			for _, f := range strings.Fields(strings.Trim(v, "[]")) {
				n, perr := strconv.ParseUint(f, 10, 64)
				err = errors.Join(err, perr)
				s.pauseNs = append(s.pauseNs, n)
			}
			found++
		}
		if err != nil {
			return fmt.Errorf("heap profile %s: %w", k, err)
		}
	}
	if found != 3 || len(s.pauseNs) != 256 {
		return errors.New("heap profile: no runtime.MemStats block")
	}
	return nil
}

// httpSession is one started daemon with its connections, warmed up.
type httpSession struct {
	d     *daemon
	conns []*httpConn
}

func (s *httpSession) close() error {
	for _, c := range s.conns {
		c.c.Close()
	}
	return s.d.stop()
}

func startSession(cfg config) (*httpSession, error) {
	d, err := startDaemon(cfg.daemon, cfg.seed)
	if err != nil {
		return nil, err
	}
	s := &httpSession{d: d}
	for i := 0; i < httpConns; i++ {
		c, err := dial(d.addr)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("dial lotteryd: %w", err)
		}
		s.conns = append(s.conns, c)
	}
	var wg sync.WaitGroup
	errs := make([]error, httpConns)
	for i, c := range s.conns {
		l := &loader{conn: c, next: classStream(cfg.seed^0xa5a5, i)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < httpWarmReqs && errs[i] == nil; n++ {
				errs[i] = l.work(nil, 0, false)
			}
			if errs[i] == nil && l.res.failed > 0 {
				errs[i] = fmt.Errorf("warm-up: %s", l.res.problems[0])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// httpRun is the state that carries across a run's sessions.
type httpRun struct {
	cfg     config
	classes [httpConns]func() int
	reqSeq  atomic.Uint64
	cnt     counters
	genCPU  time.Duration
}

func runHTTP(cfg config) (*result, error) {
	// The generator runs on one P, like the daemon (see startDaemon).
	runtime.GOMAXPROCS(1)
	res := newResult()
	h := &httpRun{cfg: cfg}
	for i := range h.classes {
		h.classes[i] = classStream(cfg.seed, i)
	}
	var setups []time.Duration
	var figs []figures
	for i := 0; i < sessions; i++ {
		t := time.Now()
		s, err := startSession(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t))
		f, err := h.measure(s, i, res)
		if cerr := s.close(); err == nil && cerr != nil {
			err = fmt.Errorf("stop lotteryd: %w", cerr)
		}
		if err != nil {
			return nil, err
		}
		figs = append(figs, f)
	}
	res.sessionMedians(setups, figs)
	h.cnt.fill(res.layer)
	res.layer["gen.cpu_us_per_req"] = float64(h.genCPU) / 1e3 / float64(h.cnt.tasks)
	if cfg.tr != nil {
		res.layer["http.overhead_us_p50"] = float64(summarize(overheads(cfg.tr)).P50) / 1e3
		weights := make([]float64, len(httpClasses))
		for i, c := range httpClasses {
			weights[i] = float64(c.tickets)
		}
		calibrate(cfg.tr, cfg.seed, weights)
	}
	return res, nil
}

// measure drives one started session for its share of the measured
// time, checks its answers, and returns its figures.
func (h *httpRun) measure(s *httpSession, session int, res *result) (figures, error) {
	ctl := s.conns[0]
	before, err := readDaemon(s.d, ctl)
	if err != nil {
		return nil, err
	}
	gen0 := readProc()
	var stop atomic.Bool
	timer := time.AfterFunc(h.cfg.sessionTime(), func() { stop.Store(true) })
	defer timer.Stop()
	loaders := make([]*loader, httpConns)
	errs := make([]error, httpConns)
	var wg sync.WaitGroup
	for i, c := range s.conns {
		l := &loader{conn: c, next: h.classes[i], scrape: i == 0,
			waits: newSampler(1 << 18), lats: newSampler(1 << 18)}
		loaders[i] = l
		wg.Add(1)
		go func() {
			defer wg.Done()
			nextScrape := clock() + int64(scrapeEvery)
			for !stop.Load() && errs[i] == nil {
				errs[i] = l.work(h.cfg.tr, h.reqSeq.Add(1), true)
				if l.scrape && clock() >= nextScrape {
					nextScrape += int64(scrapeEvery)
					t := clock()
					if _, _, err := l.conn.get("/metrics"); err != nil {
						errs[i] = err
					}
					h.cfg.tr.add(0, 0, "http.scrape", t, clock(), 1)
				}
			}
		}()
	}
	wg.Wait()
	gen1 := readProc()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	after, err := readDaemon(s.d, ctl)
	if err != nil {
		return nil, err
	}

	var served int64
	var waits, lats []int64
	for _, l := range loaders {
		served += l.served
		res.attempted += l.served + l.res.failed
		res.failed += l.res.failed
		res.problems = append(res.problems, l.res.problems...)
		waits = append(waits, l.waits.buf...)
		lats = append(lats, l.lats.buf...)
	}
	res.attempted++
	if got := int64(after.dispatched - before.dispatched); got != served {
		res.fail("/snapshot counted %d dispatches for %d served requests", got, served)
	}
	if served == 0 {
		return nil, errors.New("http_closed: no request served")
	}
	secs := float64(gen1.at-gen0.at) / 1e9
	daemonCPU := after.cpu - before.cpu
	f := figures{
		"tasks_per_s":          float64(served) / secs,
		"cpu_us_per_task":      float64(daemonCPU) / 1e3 / float64(served),
		"alloc_bytes_per_task": float64(after.totalAlloc-before.totalAlloc) / float64(served),
	}
	res.printf("session %d: %.3fs, %d requests served, daemon CPU %v", session, secs, served, daemonCPU)
	res.timing(f, session, "wait", waits)
	res.timing(f, session, "latency", lats)

	c := &h.cnt
	c.tasks += uint64(served)
	c.dispatched += after.dispatched - before.dispatched
	c.rebuilds += after.rebuilds - before.rebuilds
	c.ringFull += after.ringFull - before.ringFull
	c.windows += after.auditWindows - before.auditWindows
	c.drifted += after.auditDrifted - before.auditDrifted
	c.gcCycles += after.numGC - before.numGC
	for k := before.numGC + 1; k <= after.numGC && k <= before.numGC+256; k++ {
		c.gcPause += time.Duration(after.pauseNs[(k+255)%256])
	}
	h.genCPU += gen1.cpu - gen0.cpu
	return f, nil
}

// overheads pairs each traced request with its server span and returns
// client latency minus server time: HTTP, handler and JSON cost.
func overheads(tr *tracer) []int64 {
	req := map[uint64]int64{}
	for _, s := range tr.spans {
		if s.Name == "request" {
			req[s.ID] = s.End - s.Start
		}
	}
	var out []int64
	for _, s := range tr.spans {
		if s.Name == "http.server" {
			out = append(out, req[s.Parent]-(s.End-s.Start))
		}
	}
	return out
}
