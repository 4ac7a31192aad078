package rt

import (
	"strconv"

	"repro/internal/metrics"
)

// waitBuckets are the shared upper bounds (seconds) for
// enqueue-to-dispatch wait histograms: 1µs doubling to ~34s, so
// Snapshot quantiles carry a constant ~2x relative resolution from
// microsecond dispatches to pathological backlogs.
var waitBuckets = metrics.ExpBuckets(1e-6, 2, 26)

// rtMetrics holds the per-client vector families a dispatcher exports
// when Config.Metrics is set. Dispatcher-level totals are registered
// as callbacks over the dispatcher's own atomic counters — the same
// values Snapshot reports, so a /metrics scrape and a Snapshot can
// never disagree about what the totals mean, and a scrape never takes
// any dispatcher lock.
type rtMetrics struct {
	submitted  *metrics.CounterVec
	dispatched *metrics.CounterVec
	rejected   *metrics.CounterVec
	cancelled  *metrics.CounterVec
	panics     *metrics.CounterVec
	shed       *metrics.CounterVec
	depth      *metrics.GaugeVec
	wait       *metrics.HistogramVec
}

// newRTMetrics registers the dispatcher's families into r. One
// registry serves one dispatcher: registering a second dispatcher
// into the same registry panics on the duplicate family names.
// Called after the shards exist so the per-shard gauges can be bound;
// each shard pushes its own weight/depth gauges from publishLocked
// (two atomic stores — scrapes read them without touching any shard).
func newRTMetrics(r *metrics.Registry, d *Dispatcher) *rtMetrics {
	r.CounterFunc("rt_dispatched_total", "Tasks handed to workers by lottery.",
		func() float64 { return float64(d.dispatched.Load()) })
	r.CounterFunc("rt_completed_total", "Tasks whose body finished (including panics).",
		func() float64 { return float64(d.completed.Load()) })
	r.CounterFunc("rt_panicked_total", "Tasks whose body panicked.",
		func() float64 { return float64(d.panicked.Load()) })
	r.CounterFunc("rt_cancelled_total", "Tasks cancelled while queued, before any worker ran them.",
		func() float64 { return float64(d.cancelled.Load()) })
	r.CounterFunc("rt_shed_total", "Tasks evicted while queued by overload load shedding.",
		func() float64 { return float64(d.shed.Load()) })
	r.CounterFunc("rt_snapshot_rebuilds_total", "Lock-free draw snapshots rebuilt after a tree change.",
		func() float64 { return float64(d.snapRebuilds.Load()) })
	r.CounterFunc("rt_ring_full_total", "Submit-ring publishes that fell back to the locked submit path.",
		func() float64 { return float64(d.ringFull.Load()) })
	r.GaugeFunc("rt_pending_tasks", "Tasks accepted but not yet dispatched (queued plus ring backlog).",
		func() float64 { return float64(d.pendingAll()) })
	r.GaugeFunc("rt_clients", "Clients currently registered.",
		func() float64 { return float64(d.clientsN.Load()) })
	r.GaugeFunc("rt_workers", "Size of the worker pool.",
		func() float64 { return float64(d.workers) })
	r.GaugeFunc("rt_shards", "Number of run-queue shards.",
		func() float64 { return float64(len(d.shards)) })
	shardWeight := r.GaugeVec("rt_shard_weight",
		"Total lottery weight (base units × compensation) on the shard.", "shard")
	shardPending := r.GaugeVec("rt_shard_pending",
		"Queued tasks across the shard's clients.", "shard")
	for _, sh := range d.shards {
		id := strconv.Itoa(sh.id)
		sh.mWeight = shardWeight.With(id)
		sh.mPending = shardPending.With(id)
	}
	return &rtMetrics{
		submitted: r.CounterVec("rt_client_submitted_total",
			"Tasks admitted to the client's queue.", "client", "tenant"),
		dispatched: r.CounterVec("rt_client_dispatched_total",
			"Tasks the client won by lottery.", "client", "tenant"),
		rejected: r.CounterVec("rt_client_rejected_total",
			"Submissions rejected with a full queue (Reject policy).", "client", "tenant"),
		cancelled: r.CounterVec("rt_client_cancelled_total",
			"Tasks cancelled while queued.", "client", "tenant"),
		panics: r.CounterVec("rt_client_panics_total",
			"Tasks of this client whose body panicked.", "client", "tenant"),
		shed: r.CounterVec("rt_client_shed_total",
			"Tasks of this client evicted by overload load shedding.", "client", "tenant"),
		depth: r.GaugeVec("rt_client_queue_depth",
			"Tasks currently queued for the client.", "client", "tenant"),
		wait: r.HistogramVec("rt_client_wait_seconds",
			"Enqueue-to-dispatch wait latency.", waitBuckets, "client", "tenant"),
	}
}

// bindMetrics attaches the client's instruments: series in the
// dispatcher's registry when one is configured, otherwise standalone
// instruments (the wait histogram still backs Snapshot percentiles).
// Series are keyed by (client, tenant) name, so a client recreated
// under the same names resumes its counters — Prometheus-correct for
// monotonic counters — while two *live* clients sharing a name would
// share series; give clients unique names when exporting metrics.
func (c *Client) bindMetrics(m *rtMetrics) {
	if m == nil {
		c.mSubmitted = metrics.NewCounter()
		c.mDispatched = metrics.NewCounter()
		c.mRejected = metrics.NewCounter()
		c.mCancelled = metrics.NewCounter()
		c.mPanics = metrics.NewCounter()
		c.mShed = metrics.NewCounter()
		c.mDepth = metrics.NewGauge()
		c.waitHist = metrics.NewHistogram(waitBuckets)
		return
	}
	name, tenant := c.name, c.tenant.name
	c.mSubmitted = m.submitted.With(name, tenant)
	c.mDispatched = m.dispatched.With(name, tenant)
	c.mRejected = m.rejected.With(name, tenant)
	c.mCancelled = m.cancelled.With(name, tenant)
	c.mPanics = m.panics.With(name, tenant)
	c.mShed = m.shed.With(name, tenant)
	c.mDepth = m.depth.With(name, tenant)
	c.waitHist = m.wait.With(name, tenant)
}
