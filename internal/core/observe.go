package core

import "regions/internal/trace"

// This file is the runtime's one observation path. A runtime holds a single
// *observer, nil when neither a tracer nor a metrics registry is attached,
// and every op site makes exactly one guarded call into it, so an
// unobserved op pays one nil compare:
//
//	if o := rt.obs; o != nil {
//		o.event(trace.Event{Kind: trace.KindRalloc, ...})
//	}
//
// event hands one event value to both sinks: the tracer's ring, and the
// registry's fold (metrics.go), which derives every event-family series from
// the event's fields, so an event and its series cannot disagree. Probes
// with no event (translation cache, page index, rc, pages, pool occupancy)
// have their own methods. Nothing here charges a simulated cycle, so an
// observed run's stats.Counters equal a bare run's. Only this file and
// metrics.go touch a trace.Tracer or a runtimeMetrics.

// observer fans one runtime's observations out to its sinks, either of
// which may be nil (not both). SetTracer and SetMetrics replace it whole.
type observer struct {
	rt *Runtime
	t  *trace.Tracer
	m  *runtimeMetrics
}

// setObserver publishes the observer for sinks t and m (nil when both are).
func (rt *Runtime) setObserver(t *trace.Tracer, m *runtimeMetrics) {
	rt.obs = nil
	if t != nil || m != nil {
		rt.obs = &observer{rt: rt, t: t, m: m}
	}
}

// SetTracer attaches t as the runtime's event sink (nil detaches). If t has
// no clock yet, the runtime's modelled cycle count becomes its timestamp
// source, so events line up with the paper's cycle accounting. Tracing
// charges no simulated cycles.
func (rt *Runtime) SetTracer(t *trace.Tracer) {
	if t != nil {
		c := rt.c
		t.InitClock(func() uint64 { return c.TotalCycles() })
	}
	rt.setObserver(t, rt.meter())
}

// Tracer returns the attached tracer, or nil.
func (rt *Runtime) Tracer() *trace.Tracer {
	if rt.obs == nil {
		return nil
	}
	return rt.obs.t
}

// meter returns the attached registry's cached series, or nil.
func (rt *Runtime) meter() *runtimeMetrics {
	if rt.obs == nil {
		return nil
	}
	return rt.obs.m
}

// event records one op: the ring gets ev when traced, and the registry
// folds it when metered.
func (o *observer) event(ev trace.Event) {
	if o.t != nil {
		o.t.Emit(ev)
	}
	if o.m != nil {
		o.m.fold(o.rt, ev)
	}
}

// regionDelete records r's successful deletion and, when metered, its
// lifetime, read from the region itself: a reclaimed region leaves the
// runtime's table right after this call.
func (o *observer) regionDelete(r *Region) {
	o.event(trace.Event{Kind: trace.KindRegionDelete, Region: r.id,
		Size: int32(min(r.bytes, 1<<31-1)), Aux: int32(r.allocs)})
	if m := o.m; m != nil {
		m.regionLifetime.Observe(o.rt.c.TotalCycles() - r.born)
	}
}

// strPool moves capacity class idx's parked-block gauge by delta.
func (o *observer) strPool(idx, delta int) {
	if m := o.m; m != nil {
		m.strPoolBlocks[idx].Add(int64(delta))
	}
}

// clock reads the runtime's cycle count when observed and 0 otherwise, so
// a barrier can mark the start of its span without a guard of its own.
func (o *observer) clock() uint64 {
	if o == nil {
		return 0
	}
	return o.rt.c.TotalCycles()
}

// barrierRegion records a region-write barrier that began at cycle start.
func (o *observer) barrierRegion(slot Ptr, rold, rnew *Region, same, fast bool, start uint64) {
	kind := trace.KindBarrierRegion
	if same {
		kind = trace.KindBarrierElided
	}
	o.event(trace.Event{Kind: kind, Addr: slot, Region: regionID(rnew), Aux: regionID(rold)})
	if m := o.m; m != nil {
		if fast {
			m.barrierFast.Inc()
		}
		m.barrierCycles.Observe(o.rt.c.TotalCycles() - start)
	}
}

// barrierGlobal records a global-write barrier that began at cycle start.
func (o *observer) barrierGlobal(slot Ptr, rold, rnew *Region, start uint64) {
	o.event(trace.Event{Kind: trace.KindBarrierGlobal, Addr: slot, Region: regionID(rnew), Aux: regionID(rold)})
	if m := o.m; m != nil {
		m.barrierCycles.Observe(o.rt.c.TotalCycles() - start)
	}
}

// rc records a reference-count update: delta is +1 or -1.
func (o *observer) rc(delta int) {
	if m := o.m; m != nil && delta > 0 {
		m.rcIncs.Inc()
	} else if m != nil {
		m.rcDecs.Inc()
	}
}

// translate records one regionof probe: a translation-cache hit, or a miss
// answered by the page index (owned when the page belongs to a region).
func (o *observer) translate(hit, owned bool) {
	if m := o.m; m != nil && hit {
		m.lrHits.Inc()
	} else if m != nil {
		m.lrMisses.Inc()
		m.lookups.Inc()
		if owned {
			m.lookupHits.Inc()
		}
	}
}

// pages records n pages handed to a region (acquired) or leaving one;
// released pages that were detached rather than poisoned join the sweep debt.
func (o *observer) pages(n int, acquired, detached bool) {
	if m := o.m; m != nil && acquired {
		m.pagesAcquired.Add(uint64(n))
	} else if m != nil {
		m.pagesReleased.Add(uint64(n))
		if detached {
			m.sweepDebt.Add(int64(n))
		}
	}
}

// debtCancelled records n pages of sweep debt cancelled by reuse.
func (o *observer) debtCancelled(n int) {
	if m := o.m; m != nil {
		m.sweepDebt.Add(-int64(n))
	}
}

// sweepSlice records a slice that poisoned swept pages in cycles, leaving
// debt pages owed.
func (o *observer) sweepSlice(swept, debt int, cycles uint64) {
	o.event(trace.Event{Kind: trace.KindSweepSlice, Region: -1, Size: int32(swept), Aux: int32(debt)})
	if m := o.m; m != nil {
		m.sweepSliceCycles.Observe(cycles)
	}
}

// sweepTax runs an allocation-tax slice that began at cycle start,
// bracketed in a sweep span pair (request -1: the pause belongs to the
// runtime, not to any one request — the serving layer re-attributes it per
// request from the cycle accounting).
func (o *observer) sweepTax(start uint64) int {
	o.event(trace.SpanBegin(trace.SpanSweep, -1, -1, start))
	swept := o.rt.sweepSlice(0)
	o.event(trace.SpanEnd(trace.SpanSweep, -1, -1, o.rt.c.TotalCycles()))
	return swept
}
