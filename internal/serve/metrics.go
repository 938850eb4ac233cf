package serve

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// series is one thing the engine exports: its /metrics name and help,
// where the value lives, and the Stats field that carries it. The
// exported table below is the only place a series is declared —
// RegisterMetrics and UnregisterMetrics walk it for /metrics,
// Engine.Stats for /stats and ResetStats for what to zero — so the
// surfaces cannot drift and a new counter is one row. Exactly one of
// ctr, read and hist is set. A scalar's Prometheus type and unit are
// the ones its name already promises: _total is a counter, _seconds a
// gauge whose value is a time.Duration, anything else a plain gauge.
type series struct {
	name, help string
	ctr        func(*Engine) *atomic.Uint64  // a counter the engine owns: ResetStats zeroes it
	read       func(*Engine) int64           // a value derived when asked for
	arena      func(tensor.ArenaStats) int64 // a field of the session arenas' sum, taken once per walk
	stat       func(*Stats, int64)           // the Stats field a ctr, read or arena row fills
	hist       func(*Engine) *telemetry.LogHistogram
	lane       string // hist only: the series' lane label
}

func outcomeCtr(o outcome) func(*Engine) *atomic.Uint64 {
	return func(e *Engine) *atomic.Uint64 { return &e.stats.outcomes[o] }
}

func laneLatency(p Priority) series {
	return series{name: "fathom_serve_latency_seconds", help: "End-to-end request latency by lane.", lane: p.String(),
		hist: func(e *Engine) *telemetry.LogHistogram { return &e.stats.latHist[p] }}
}

var exported = []series{
	{name: "fathom_serve_requests_total", help: "Requests answered successfully.",
		ctr: outcomeCtr(served), stat: func(s *Stats, v int64) { s.Requests = uint64(v) }},
	{name: "fathom_serve_errors_total", help: "Requests failed by execution faults.",
		ctr: outcomeCtr(failed), stat: func(s *Stats, v int64) { s.Errors = uint64(v) }},
	{name: "fathom_serve_cancelled_total", help: "Requests abandoned by their callers.",
		ctr: outcomeCtr(cancelled), stat: func(s *Stats, v int64) { s.Cancelled = uint64(v) }},
	{name: "fathom_serve_rejected_total", help: "Requests refused at the door (admission queue full).",
		ctr: outcomeCtr(rejected), stat: func(s *Stats, v int64) { s.Rejected = uint64(v) }},
	{name: "fathom_serve_shed_total", help: "Requests shed (deadline budget below the wait estimate).",
		ctr: outcomeCtr(shed), stat: func(s *Stats, v int64) { s.Shed = uint64(v) }},
	{name: "fathom_serve_expired_total", help: "Requests whose deadline passed before execution.",
		ctr: outcomeCtr(expired), stat: func(s *Stats, v int64) { s.Expired = uint64(v) }},
	{name: "fathom_serve_batches_total", help: "Micro-batches executed.",
		ctr:  func(e *Engine) *atomic.Uint64 { return &e.stats.batches },
		stat: func(s *Stats, v int64) { s.Batches = uint64(v) }},
	{name: "fathom_serve_padded_rows_total", help: "Zero rows executed to fill micro-batches up to their rung's batch size.",
		ctr:  func(e *Engine) *atomic.Uint64 { return &e.stats.padded },
		stat: func(s *Stats, v int64) { s.PaddedRows = uint64(v) }},
	{name: "fathom_serve_queue_depth", help: "Queued requests across both admission lanes.",
		read: func(e *Engine) int64 {
			return e.stats.qdepth[PriorityInteractive].Load() + e.stats.qdepth[PriorityBatch].Load()
		},
		stat: func(s *Stats, v int64) { s.QueueDepth = int(v) }},
	{name: "fathom_serve_batch_latency_ewma_seconds", help: "Smoothed batch execution latency (the shedding estimate).",
		read: func(e *Engine) int64 { return int64(e.stats.batchEWMA()) },
		stat: func(s *Stats, v int64) { s.BatchLatencyEWMA = time.Duration(v) }},
	laneLatency(PriorityInteractive),
	laneLatency(PriorityBatch),
	{name: "fathom_serve_queue_wait_seconds", help: "Queue wait of dispatched requests.",
		hist: func(e *Engine) *telemetry.LogHistogram { return &e.stats.waitHist }},

	// The worker sessions' slabs, summed.
	{name: "fathom_arena_bytes", help: "Session slab bytes.",
		arena: func(a tensor.ArenaStats) int64 { return a.TotalBytes },
		stat:  func(s *Stats, v int64) { s.ArenaBytes = v }},
	{name: "fathom_arena_slot_bytes", help: "Bytes the slots of the plans that sized the session slabs would take without sharing.",
		arena: func(a tensor.ArenaStats) int64 { return a.SlotBytes },
		stat:  func(s *Stats, v int64) { s.ArenaSlotBytes = v }},

	{name: "fathom_lease_granted", help: "Helpers the adaptive lease negotiation grants this engine.",
		read: func(e *Engine) int64 { return int64(e.leaseGranted()) },
		stat: func(s *Stats, v int64) { s.LeaseGranted = int(v) }},
}

// value reads a scalar row now; arena returns the walk's one sum of the
// session arenas.
func (sr *series) value(e *Engine, arena func() tensor.ArenaStats) int64 {
	switch {
	case sr.ctr != nil:
		return int64(sr.ctr(e).Load())
	case sr.arena != nil:
		return sr.arena(arena())
	}
	return sr.read(e)
}

// labels is the series' label set: the model, and the lane if it has one.
func (sr *series) labels(e *Engine) telemetry.Labels {
	l := telemetry.Labels{"model": e.model.Name()}
	if sr.lane != "" {
		l["lane"] = sr.lane
	}
	return l
}

// RegisterMetrics exposes the engine's exported series — counters,
// latency and queue-wait histograms, its sessions' slab sizes —
// and the shared worker pool's gauges on reg as Prometheus families.
// Every series is a scrape-time reader over the atomics the engine
// already maintains, so registration adds nothing to the request hot
// path. Series carry a model label; pool gauges are unlabeled (the
// pool is shared), and re-registration by co-tenant engines is
// idempotent.
//
// Engines with bounded lifetimes should call UnregisterMetrics from
// their teardown so the registry never scrapes a closed engine.
func (e *Engine) RegisterMetrics(reg *telemetry.Registry) {
	// The arena rows of one scrape share one sum of the session arenas.
	var (
		mu  sync.Mutex
		at  uint64
		sum tensor.ArenaStats
	)
	arena := func() tensor.ArenaStats {
		mu.Lock()
		defer mu.Unlock()
		if n := reg.Scrapes(); n != at {
			at, sum = n, e.arena()
		}
		return sum
	}
	for i := range exported {
		sr := &exported[i]
		switch {
		case sr.hist != nil:
			reg.Histogram(sr.name, sr.help, sr.labels(e), sr.hist(e))
		case strings.HasSuffix(sr.name, "_total"):
			reg.CounterFunc(sr.name, sr.help, sr.labels(e), func() uint64 { return uint64(sr.value(e, arena)) })
		case strings.HasSuffix(sr.name, "_seconds"):
			reg.GaugeFunc(sr.name, sr.help, sr.labels(e), func() float64 { return time.Duration(sr.value(e, arena)).Seconds() })
		default:
			reg.GaugeFunc(sr.name, sr.help, sr.labels(e), func() float64 { return float64(sr.value(e, arena)) })
		}
	}
	// Unlabeled: the pool is process-wide, and the registry's
	// replace-on-duplicate semantics make co-tenant engines'
	// registrations collapse into one series.
	reg.GaugeFunc("fathom_pool_size", "Shared worker pool size.", nil,
		func() float64 { return float64(e.pool.Size()) })
	reg.GaugeFunc("fathom_pool_busy", "Shared worker pool slots executing now.", nil,
		func() float64 { return float64(e.pool.Busy()) })
	reg.GaugeFunc("fathom_pool_spawned", "Shared worker pool goroutines in existence.", nil,
		func() float64 { return float64(e.pool.Spawned()) })
}

// UnregisterMetrics removes every series RegisterMetrics added for
// this engine (the shared pool gauges stay: another tenant may still
// be exporting them).
func (e *Engine) UnregisterMetrics(reg *telemetry.Registry) {
	for i := range exported {
		reg.Unregister(exported[i].name, exported[i].labels(e))
	}
}
