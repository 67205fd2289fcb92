package core

import (
	"strconv"

	"regions/internal/metrics"
	"regions/internal/trace"
)

// This file wires the runtime into the live metrics registry
// (internal/metrics), the counterpart of tracing for aggregate telemetry.
// A metered runtime resolves each series once, here, and its observer
// (observe.go) updates the cached atomic series from the same calls that
// emit trace events, so hot paths never touch the registry's name maps.
// Metric updates are host-side bookkeeping outside the machine model — they
// charge no simulated cycles and leave stats.Counters identical to a bare
// run.

// Histogram bucket bounds. Alloc sizes follow the power-of-two spread of
// the paper's benchmark object sizes; region lifetimes span the decades
// between a scratch region and a whole-run region; barrier latencies
// bracket the Figure 5 instruction counts (12-30 extra cycles plus memory
// accesses).
var (
	allocSizeBounds      = []uint64{16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536}
	regionLifetimeBounds = []uint64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}
	barrierCycleBounds   = []uint64{4, 8, 16, 24, 32, 48, 64, 128}
	// Sweep-slice cycle bounds bracket the per-slice charge (1 cycle per
	// swept page) up to and past the default 32-page budget.
	sweepSliceCycleBounds = []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256}
)

// eventCounters names the counter each event kind increments: one count
// per event, so the series and the trace agree by construction. A kind with
// no entry has no counter of its own.
var eventCounters = map[trace.Kind]string{
	trace.KindRalloc:           "regions_core_allocs_total",
	trace.KindRarrayAlloc:      "regions_core_allocs_total",
	trace.KindRstrAlloc:        "regions_core_allocs_total",
	trace.KindRegionCreate:     "regions_core_regions_created_total",
	trace.KindRegionDelete:     "regions_core_regions_deleted_total",
	trace.KindRegionDeleteFail: "regions_core_region_delete_fails_total",
	trace.KindBarrierGlobal:    "regions_core_barrier_global_total",
	trace.KindBarrierRegion:    "regions_core_barrier_region_total",
	trace.KindBarrierElided:    "regions_core_barrier_region_total",
	trace.KindStackScan:        "regions_core_stack_scans_total",
	trace.KindStackUnscan:      "regions_core_stack_unscans_total",
	trace.KindSweepSlice:       "regions_sweep_slices_total",
	trace.KindRstrFree:         "regions_str_free_total",
}

// runtimeMetrics caches direct pointers to every series the runtime emits.
type runtimeMetrics struct {
	reg *metrics.Registry

	// byKind is eventCounters resolved, indexed by event kind.
	byKind [256]*metrics.Counter

	allocBytes *metrics.Counter
	allocSize  *metrics.Histogram

	liveRegions    *metrics.Gauge
	regionLifetime *metrics.Histogram

	barrierSame   *metrics.Counter // counted on barrier-elided events
	barrierFast   *metrics.Counter
	barrierCycles *metrics.Histogram

	rcIncs *metrics.Counter
	rcDecs *metrics.Counter

	lookups    *metrics.Counter
	lookupHits *metrics.Counter
	lrHits     *metrics.Counter
	lrMisses   *metrics.Counter

	pagesAcquired *metrics.Counter
	pagesReleased *metrics.Counter

	sweepDebt        *metrics.Gauge
	sweptPages       *metrics.Counter
	sweepSliceCycles *metrics.Histogram

	// Pooled string allocator (see strpool.go): New/Reuse are the
	// str_reuse_ratio-derivable pair, strPoolBlocks the per-capacity-class
	// occupancy gauges, indexed like rt.strNew. strSites holds the sampled
	// site profile's "str:<class>" keys, "str:big" last, so string-path
	// sites rank separately from cleanup-named normal sites.
	strNew        *metrics.Counter
	strReuse      *metrics.Counter
	strBig        *metrics.Counter
	strFreeBytes  *metrics.Counter
	strPoolBlocks []*metrics.Gauge
	strSites      []string
}

func newRuntimeMetrics(reg *metrics.Registry, classes int) *runtimeMetrics {
	pool, sites := make([]*metrics.Gauge, classes), make([]string, classes+1)
	for i := range pool {
		size := strconv.Itoa(strClassSize(i))
		pool[i] = reg.Gauge(`regions_str_pool_blocks{class="` + size + `"}`)
		sites[i] = "str:" + size
	}
	sites[classes] = "str:big"
	m := &runtimeMetrics{
		reg: reg,

		allocBytes: reg.Counter("regions_core_alloc_bytes_total"),
		allocSize:  reg.Histogram("regions_core_alloc_size_bytes", allocSizeBounds),

		liveRegions:    reg.Gauge("regions_core_live_regions"),
		regionLifetime: reg.Histogram("regions_core_region_lifetime_cycles", regionLifetimeBounds),

		barrierSame:   reg.Counter("regions_core_barrier_sameregion_total"),
		barrierFast:   reg.Counter("regions_core_barrier_fast_total"),
		barrierCycles: reg.Histogram("regions_core_barrier_cycles", barrierCycleBounds),

		rcIncs: reg.Counter("regions_core_rc_incs_total"),
		rcDecs: reg.Counter("regions_core_rc_decs_total"),

		lookups:    reg.Counter("regions_core_pageindex_lookups_total"),
		lookupHits: reg.Counter("regions_core_pageindex_hits_total"),
		lrHits:     reg.Counter("regions_core_lrcache_hits_total"),
		lrMisses:   reg.Counter("regions_core_lrcache_misses_total"),

		pagesAcquired: reg.Counter("regions_core_pages_acquired_total"),
		pagesReleased: reg.Counter("regions_core_pages_released_total"),

		sweepDebt:        reg.Gauge("regions_sweep_debt_pages"),
		sweptPages:       reg.Counter("regions_swept_pages_total"),
		sweepSliceCycles: reg.Histogram("regions_sweep_slice_cycles", sweepSliceCycleBounds),

		strNew:        reg.Counter("regions_str_new_total"),
		strReuse:      reg.Counter("regions_str_reuse_total"),
		strBig:        reg.Counter("regions_str_big_total"),
		strFreeBytes:  reg.Counter("regions_str_free_bytes_total"),
		strPoolBlocks: pool,
		strSites:      sites,
	}
	for kind, name := range eventCounters {
		m.byKind[kind] = reg.Counter(name)
	}
	return m
}

// fold updates the series ev stands for: its kind's counter (eventCounters)
// and whatever the event's fields carry beyond the count. Every series here
// is a function of the event stream, so the registry and the trace agree by
// construction.
func (m *runtimeMetrics) fold(rt *Runtime, ev trace.Event) {
	if c := m.byKind[ev.Kind]; c != nil {
		c.Inc()
	}
	size := uint64(ev.Size)
	switch ev.Kind {
	case trace.KindRegionCreate:
		m.liveRegions.Inc()
	case trace.KindRegionDelete:
		m.liveRegions.Dec()
	case trace.KindMigrate: // Aux 0 exports the region, 1 imports it
		m.liveRegions.Add(2*int64(ev.Aux) - 1)
	case trace.KindRalloc, trace.KindRarrayAlloc:
		m.alloc(size, ev.Site)
	case trace.KindRstrAlloc:
		idx := rt.strClass(int(ev.Size))
		switch {
		case ev.Aux == 1:
			m.strReuse.Inc()
		case idx >= 0:
			m.strNew.Inc()
		default:
			m.strBig.Inc()
			idx = len(m.strSites) - 1
		}
		m.alloc(size, m.strSites[idx])
	case trace.KindRstrFree:
		m.strFreeBytes.Add(size)
	case trace.KindBarrierElided:
		m.barrierSame.Inc()
	case trace.KindSweepSlice:
		m.sweptPages.Add(size)
		m.sweepDebt.Add(-int64(size))
	}
}

// alloc folds one allocation of size bytes from site into the series all
// three allocators share.
func (m *runtimeMetrics) alloc(size uint64, site string) {
	m.allocBytes.Add(size)
	m.allocSize.Observe(size)
	m.reg.SampleAlloc(site, size)
}

// SetMetrics attaches the runtime to a metrics registry (nil detaches).
// Series are resolved once here; see docs/OBSERVABILITY.md for the list.
// Gauges are shared: every runtime attached to a registry adds its own
// share, so several runtimes (a shard engine's) sum, and a runtime attached
// mid-run seeds its current share on attach and withdraws it on detach.
func (rt *Runtime) SetMetrics(reg *metrics.Registry) {
	if old := rt.meter(); old != nil {
		old.addShare(rt, -1)
	}
	var m *runtimeMetrics
	if reg != nil {
		m = newRuntimeMetrics(reg, len(rt.strNew))
		m.addShare(rt, +1)
	}
	rt.setObserver(rt.Tracer(), m)
}

// addShare adds sign times rt's current level to every gauge: live regions,
// sweep debt, and per-class pool occupancy.
func (m *runtimeMetrics) addShare(rt *Runtime, sign int64) {
	m.liveRegions.Add(sign * int64(len(rt.LiveRegions())))
	m.sweepDebt.Add(sign * int64(rt.SweepDebt()))
	for idx, c := range rt.StrPoolStats().Classes {
		m.strPoolBlocks[idx].Add(sign * int64(c.FreeBlocks))
	}
}

// Metrics returns the attached registry, or nil.
func (rt *Runtime) Metrics() *metrics.Registry {
	if m := rt.meter(); m != nil {
		return m.reg
	}
	return nil
}
