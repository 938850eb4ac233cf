package serve

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// ewmaShift is the EWMA smoothing factor for the batch-latency and
// queue-wait gauges: new = old + (sample − old)/2^ewmaShift. 1/8 reacts
// within a few batches without letting one outlier swing the admission
// estimate.
const ewmaShift = 3

// stats is the engine's lock-free counter block. Everything is
// atomics so workers and Infer callers update it concurrently without
// serializing the hot path.
type stats struct {
	startNano atomic.Int64
	outcomes  [numOutcomes]atomic.Uint64 // one per ended call; see conclude
	batches   atomic.Uint64
	slots     atomic.Uint64 // sum of batch fills
	padded    atomic.Uint64 // sum of rung size minus fill: zero rows run
	maxFill   atomic.Uint64

	// Per-lane end-to-end latency of served requests (interactive,
	// batch), so the lanes' p50/p99/p999 are observable separately —
	// the whole point of priority lanes is that these diverge under
	// overload. Their counts and sums are the lanes' request counts
	// and the mean latency.
	latHist [numLanes]telemetry.LogHistogram

	// waitHist records every dispatched request's queue wait next to
	// the EWMA gauge, so loadtest stages can separate queueing from
	// execution with real quantiles instead of one smoothed number.
	waitHist telemetry.LogHistogram

	// Gauges. qdepth tracks each lane's admission-queue occupancy;
	// ewmaBatchUS is the smoothed batch execution latency feeding the
	// shedding estimate; ewmaWaitUS is the smoothed queue wait of
	// dispatched requests.
	qdepth      [numLanes]atomic.Int64
	ewmaBatchUS atomic.Uint64
	ewmaWaitUS  atomic.Uint64
}

func (s *stats) reset() { s.startNano.Store(time.Now().UnixNano()) }

// recordBatch logs one executed micro-batch, its fill and the rows of
// the rung it ran on.
func (s *stats) recordBatch(fill, rows int) {
	s.batches.Add(1)
	s.slots.Add(uint64(fill))
	s.padded.Add(uint64(rows - fill))
	for {
		cur := s.maxFill.Load()
		if uint64(fill) <= cur || s.maxFill.CompareAndSwap(cur, uint64(fill)) {
			return
		}
	}
}

// ewmaUpdate folds one sample into an EWMA gauge, in microseconds, with
// a CAS loop (the workers race on it). Samples and results are clamped
// to 1µs: a warmed gauge never reads as cold again.
func ewmaUpdate(g *atomic.Uint64, d time.Duration) {
	sample := max(uint64(d.Microseconds()), 1)
	for {
		old := g.Load()
		nw := sample
		if old != 0 {
			nw = max(uint64(int64(old)+(int64(sample)-int64(old))>>ewmaShift), 1)
		}
		if g.CompareAndSwap(old, nw) {
			return
		}
	}
}

// batchEWMA is the smoothed batch execution latency; zero means no
// batch has completed yet (a cold engine never sheds on estimates).
func (s *stats) batchEWMA() time.Duration {
	return time.Duration(s.ewmaBatchUS.Load()) * time.Microsecond
}

// LaneStats is one priority lane's share of the snapshot.
type LaneStats struct {
	Requests   uint64        `json:"requests"`
	QueueDepth int           `json:"queue_depth"`
	P50Latency time.Duration `json:"p50_latency_ns"`
	P99Latency time.Duration `json:"p99_latency_ns"`
	P999       time.Duration `json:"p999_latency_ns"`
}

// Stats is a point-in-time snapshot of an Engine's counters.
type Stats struct {
	Uptime        time.Duration `json:"uptime_ns"`
	Requests      uint64        `json:"requests"`
	Errors        uint64        `json:"errors"`
	Cancelled     uint64        `json:"cancelled"`
	Rejected      uint64        `json:"rejected"` // admission queue full
	Shed          uint64        `json:"shed"`     // budget < estimated wait
	Expired       uint64        `json:"expired"`  // deadline passed unserved
	Batches       uint64        `json:"batches"`
	MeanBatchFill float64       `json:"mean_batch_fill"`
	MaxBatchFill  int           `json:"max_batch_fill"`
	// PaddedRows counts the zero rows executed to fill batches up to
	// their rung: rows run minus rows filled, summed over batches.
	PaddedRows    uint64        `json:"padded_rows"`
	ThroughputRPS float64       `json:"throughput_rps"`
	MeanLatency   time.Duration `json:"mean_latency_ns"`
	P50Latency    time.Duration `json:"p50_latency_ns"`
	P99Latency    time.Duration `json:"p99_latency_ns"`
	P999Latency   time.Duration `json:"p999_latency_ns"`

	// Admission gauges: total queued requests across both lanes, the
	// EWMA queue wait of dispatched requests, and the EWMA batch
	// execution latency the shedding estimate multiplies.
	QueueDepth       int           `json:"queue_depth"`
	QueueWaitEWMA    time.Duration `json:"queue_wait_ewma_ns"`
	BatchLatencyEWMA time.Duration `json:"batch_latency_ewma_ns"`

	// Queue-wait quantiles over every dispatched request since the
	// last reset, separating time-in-queue from execution time.
	// WaitHist is the raw histogram snapshot the quantiles derive
	// from; loadgen diffs two snapshots for per-stage quantiles.
	QueueWaitP50  time.Duration                `json:"queue_wait_p50_ns"`
	QueueWaitP99  time.Duration                `json:"queue_wait_p99_ns"`
	QueueWaitP999 time.Duration                `json:"queue_wait_p999_ns"`
	WaitHist      [telemetry.LogBuckets]uint64 `json:"-"`

	// The engine's session slabs (filled by Engine.Stats): their bytes,
	// what the slots of the plans that sized them would take without
	// sharing floats, and the share of that the sharing saves
	// (tensor.ArenaStats.ReuseRatio). A slab grows only when a larger
	// plan compiles, so steady-state serving holds both still.
	ArenaBytes      int64   `json:"arena_bytes"`
	ArenaSlotBytes  int64   `json:"arena_slot_bytes"`
	ArenaReuseRatio float64 `json:"arena_reuse_ratio"`

	// Per-lane views: interactive is dispatched first; batch queues,
	// sheds, and expires first under overload.
	Interactive LaneStats `json:"interactive"`
	BatchLane   LaneStats `json:"batch"`

	// Shared worker-pool gauges (filled by Engine.Stats, not part of
	// the atomic counter block): the pool's configured size, how many
	// workers are executing right now, how many goroutines exist, and
	// this engine's total lease claim — sessions × (inter-op ×
	// intra-op − 1). Busy ≈ Size means helper acquisition is failing
	// and execution is degrading to serial; the admission estimate and
	// load shedders key off it.
	PoolSize    int `json:"pool_size"`
	PoolBusy    int `json:"pool_busy"`
	PoolSpawned int `json:"pool_spawned"`
	LeaseClaim  int `json:"lease_claim"`

	// Adaptive lease view (also filled by Engine.Stats): LeaseGranted
	// is the helper count the pool's occupancy-driven negotiation
	// currently grants this engine's sessions — under contention it
	// tracks demand, not the static claim above — and Tenants lists
	// every tenant sharing the pool (engine, dist trainer, fused
	// array) with its aggregate ask/grant/occupancy.
	LeaseGranted int           `json:"lease_granted"`
	Tenants      []TenantStats `json:"tenants,omitempty"`
}

// TenantStats aggregates the shared pool's adaptive leases for one
// tenant name: how many leases it holds, their summed ask, what the
// occupancy negotiation currently grants, and how many granted slots
// are executing right now.
type TenantStats struct {
	Name    string `json:"name"`
	Leases  int    `json:"leases"`
	Want    int    `json:"want"`
	Granted int    `json:"granted"`
	Active  int    `json:"active"`
}

// quantiles reads the three reported quantiles off one histogram
// snapshot.
func quantiles(b *[telemetry.LogBuckets]uint64) (p50, p99, p999 time.Duration) {
	return telemetry.QuantileOf(b, 0.50), telemetry.QuantileOf(b, 0.99), telemetry.QuantileOf(b, 0.999)
}

// arena sums the worker sessions' slab stats (Arena.Stats is the one
// concurrency-safe arena read).
func (e *Engine) arena() (sum tensor.ArenaStats) {
	for _, sess := range e.sessions {
		as := sess.Arena().Stats()
		sum.TotalBytes += as.TotalBytes
		sum.SlotBytes += as.SlotBytes
	}
	return sum
}

// leaseGranted is this engine's slice of the shared pool: what the
// occupancy negotiation currently grants its sessions' leases, as
// opposed to the static claim they asked for.
func (e *Engine) leaseGranted() (granted int) {
	for _, ls := range e.pool.LeaseStats() {
		if ls.Name == e.leaseName {
			granted += ls.Granted
		}
	}
	return granted
}

// Stats returns a snapshot of the engine's counters, plus the shared
// worker pool's busy/spawned gauges and the engine's lease claim on it
// — the load signals the admission estimate and any shedding layer in
// front of /stats key off: when PoolBusy sits at PoolSize, every
// engine on the pool is executing degraded (serial) and added load
// only queues.
func (e *Engine) Stats() Stats {
	st := &e.stats
	s := Stats{
		Uptime:        time.Since(time.Unix(0, st.startNano.Load())),
		MaxBatchFill:  int(st.maxFill.Load()),
		QueueWaitEWMA: time.Duration(st.ewmaWaitUS.Load()) * time.Microsecond,
		PoolSize:      e.pool.Size(),
		PoolBusy:      e.pool.Busy(),
		PoolSpawned:   e.pool.Spawned(),
		LeaseClaim:    e.claim,
	}
	sum := e.arena()
	arena := func() tensor.ArenaStats { return sum }
	for i := range exported {
		if sr := &exported[i]; sr.stat != nil {
			sr.stat(&s, sr.value(e, arena))
		}
	}
	if s.Batches > 0 {
		s.MeanBatchFill = float64(st.slots.Load()) / float64(s.Batches)
	}
	s.ArenaReuseRatio = sum.ReuseRatio()

	// Each lane's histogram is loaded once; the merged view feeds the
	// engine-wide quantiles.
	var merged [telemetry.LogBuckets]uint64
	var latSum time.Duration
	for lane, ls := range []*LaneStats{&s.Interactive, &s.BatchLane} {
		h := &st.latHist[lane]
		var b [telemetry.LogBuckets]uint64
		h.Buckets(&b)
		for i := range b {
			merged[i] += b[i]
		}
		latSum += h.Sum()
		ls.Requests, ls.QueueDepth = h.Count(), int(st.qdepth[lane].Load())
		ls.P50Latency, ls.P99Latency, ls.P999 = quantiles(&b)
	}
	s.P50Latency, s.P99Latency, s.P999Latency = quantiles(&merged)
	if s.Requests > 0 {
		s.MeanLatency = (latSum / time.Duration(s.Requests)).Truncate(time.Microsecond)
		if sec := s.Uptime.Seconds(); sec > 0 {
			s.ThroughputRPS = float64(s.Requests) / sec
		}
	}
	st.waitHist.Buckets(&s.WaitHist)
	s.QueueWaitP50, s.QueueWaitP99, s.QueueWaitP999 = quantiles(&s.WaitHist)

	// Per-tenant adaptive grants: every lease on the shared pool,
	// aggregated by tenant name — the engine's own sessions appear as
	// "engine/<model>" next to any co-resident dist trainer
	// ("dist/<model>") or fused array ("fuse/<model>").
	for _, ls := range e.pool.LeaseStats() {
		i := slices.IndexFunc(s.Tenants, func(t TenantStats) bool { return t.Name == ls.Name })
		if i < 0 {
			i = len(s.Tenants)
			s.Tenants = append(s.Tenants, TenantStats{Name: ls.Name})
		}
		s.Tenants[i].Leases++
		s.Tenants[i].Want += ls.Want
		s.Tenants[i].Granted += ls.Granted
		s.Tenants[i].Active += ls.Active
	}
	return s
}

// ResetStats zeroes the counters and restarts the uptime clock —
// e.g. after warmup, so steady-state metrics exclude one-time plan
// compilation. The queue-depth gauges and latency EWMAs survive: they
// describe the engine's current state, and the admission estimate must
// not go blind after a stats reset.
func (e *Engine) ResetStats() {
	for i := range exported {
		switch sr := &exported[i]; {
		case sr.ctr != nil:
			sr.ctr(e).Store(0)
		case sr.hist != nil:
			sr.hist(e).Reset()
		}
	}
	e.stats.slots.Store(0)
	e.stats.maxFill.Store(0)
	e.stats.reset()
}

// String renders the snapshot for the CLI and logs.
func (s Stats) String() string {
	return fmt.Sprintf(
		"requests=%d errors=%d cancelled=%d admit(rejected=%d shed=%d expired=%d) batches=%d fill(mean=%.2f max=%d padded=%d) rps=%.1f latency(mean=%v p50=%v p99=%v p999=%v) queue(depth=%d wait=%v p50=%v p99=%v batch-ewma=%v) lanes(interactive p99=%v, batch p99=%v) pool(busy=%d/%d spawned=%d claim=%d granted=%d) arena(bytes=%d slot_bytes=%d reuse=%.3f)%s",
		s.Requests, s.Errors, s.Cancelled, s.Rejected, s.Shed, s.Expired,
		s.Batches, s.MeanBatchFill, s.MaxBatchFill, s.PaddedRows,
		s.ThroughputRPS, s.MeanLatency, s.P50Latency, s.P99Latency, s.P999Latency,
		s.QueueDepth, s.QueueWaitEWMA, s.QueueWaitP50, s.QueueWaitP99, s.BatchLatencyEWMA,
		s.Interactive.P99Latency, s.BatchLane.P99Latency,
		s.PoolBusy, s.PoolSize, s.PoolSpawned, s.LeaseClaim, s.LeaseGranted,
		s.ArenaBytes, s.ArenaSlotBytes, s.ArenaReuseRatio,
		s.tenantString())
}

// tenantString renders the per-tenant adaptive grants, e.g.
// " tenants(engine/alexnet granted=3/6 active=1, dist/vgg granted=1/3 active=0)".
func (s Stats) tenantString() string {
	if len(s.Tenants) == 0 {
		return ""
	}
	out := " tenants("
	for i, t := range s.Tenants {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s granted=%d/%d active=%d", t.Name, t.Granted, t.Want, t.Active)
	}
	return out + ")"
}
