package core

import (
	"testing"

	"regions/internal/metrics"
	"regions/internal/stats"
)

// TestLastRegionCacheInvalidation proves a stale translation is impossible
// through the cache's whole lifecycle: warm hits, DeleteRegion, page
// recycling into a new region, and a fresh region landing on the very page
// the cache was warmed on. Verify() runs at every step — it now checks each
// cache entry against the dense page index before trusting RegionOf for the
// RC recomputation.
func TestLastRegionCacheInvalidation(t *testing.T) {
	rt, _ := newRT(true)
	cln := rt.SizeCleanup(16)

	r1 := rt.NewRegion()
	p := rt.Ralloc(r1, 16, cln)
	// Warm the cache on p's page, twice so the second is a guaranteed hit.
	if rt.RegionOf(p) != r1 || rt.RegionOf(p) != r1 {
		t.Fatal("warm lookup did not resolve to r1")
	}
	if err := rt.Verify(); err != nil {
		t.Fatalf("verify after warming: %v", err)
	}

	if !rt.DeleteRegion(r1) {
		t.Fatal("r1 not deletable")
	}
	if err := rt.Verify(); err != nil {
		t.Fatalf("verify after delete: %v", err)
	}
	if got := rt.RegionOf(p); got != nil {
		t.Fatalf("RegionOf(p) after delete = region %d, want nil (stale cache hit)", regionID(got))
	}

	// The free-page list is LIFO, so the next region reuses p's page: the
	// cache must now translate p to the new region, not r1 and not nil.
	r2 := rt.NewRegion()
	if err := rt.Verify(); err != nil {
		t.Fatalf("verify after recycling: %v", err)
	}
	if got := rt.RegionOf(p); got != r2 {
		t.Fatalf("RegionOf(p) after page reuse = %v, want r2 (stale cache entry survived)", got)
	}
	if !rt.DeleteRegion(r2) {
		t.Fatal("r2 not deletable")
	}
	if got := rt.RegionOf(p); got != nil {
		t.Fatalf("RegionOf(p) after second delete = region %d, want nil", regionID(got))
	}
	if err := rt.Verify(); err != nil {
		t.Fatalf("final verify: %v", err)
	}
}

// TestRandomizedPageRecyclingNoCache runs the randomized churn with the
// translation cache disabled, pinning that NoRegionCache reproduces the
// pre-cache runtime under the same invariants.
func TestRandomizedPageRecyclingNoCache(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rt, _ := newRTOpts(Options{Safe: true, NoRegionCache: true})
		recycleExercise(t, rt, seed, 400)
	}
}

// barrierWorkload drives every barrier flavor through rt: sameregion and
// cross-region stores, overwrites of nil and of live pointers, global
// writes, dynamic writes, and region churn so translations go stale and
// refill. Identical inputs on any two runtimes produce identical heaps.
func barrierWorkload(rt *Runtime) {
	cln := rt.SizeCleanup(16)
	g := rt.AllocGlobals(4)
	for round := 0; round < 50; round++ {
		a := rt.NewRegion()
		b := rt.NewRegion()
		var pa, pb Ptr
		for i := 0; i < 20; i++ {
			qa := rt.Ralloc(a, 16, cln)
			qb := rt.Ralloc(b, 16, cln)
			if pa != 0 {
				rt.StorePtr(qa, pa) // sameregion, nil old value
				rt.StorePtr(qa, qa) // sameregion overwrite, old value live
				rt.StorePtr(qa, pb) // cross-region: inc b
				rt.StorePtr(qa, pa) // cross-region back: dec b, sameregion new
				rt.StorePtrDynamic(qa, pb)
				rt.StorePtr(qa, 0)
			}
			pa, pb = qa, qb
		}
		rt.StoreGlobalPtr(g, pa)
		rt.StoreGlobalPtr(g, pb)
		rt.StoreGlobalPtr(g, 0)
		if !rt.DeleteRegion(a) || !rt.DeleteRegion(b) {
			panic("barrierWorkload: regions not deletable")
		}
	}
}

// TestRegionCacheChangesOnlyRCCycles is the cache's accounting pin: the
// same barrier-heavy workload run with and without the translation cache
// must produce byte-identical counters — allocation volume, barrier and
// sameregion tallies, RC updates, reads and writes — except for the RC-mode
// cycle count, the one series the cache is chartered to reduce. The delta
// there must be a strict improvement.
func TestRegionCacheChangesOnlyRCCycles(t *testing.T) {
	run := func(noCache bool) *stats.Counters {
		rt, c := newRTOpts(Options{Safe: true, NoRegionCache: noCache})
		barrierWorkload(rt)
		if err := rt.Verify(); err != nil {
			t.Fatalf("verify (noCache=%v): %v", noCache, err)
		}
		return c
	}
	cached := run(false)
	bare := run(true)

	if cached.Cycles[stats.ModeRC] >= bare.Cycles[stats.ModeRC] {
		t.Errorf("cached RC cycles = %d, want < uncached %d",
			cached.Cycles[stats.ModeRC], bare.Cycles[stats.ModeRC])
	}

	// Every other field must match exactly: copy, level the intended
	// difference, compare the plain-data structs wholesale.
	a, b := *cached, *bare
	a.Cycles[stats.ModeRC] = 0
	b.Cycles[stats.ModeRC] = 0
	if a != b {
		t.Errorf("cache changed counters beyond RC cycles:\ncached: %+v\nbare:   %+v", a, b)
	}
}

// TestRegionCacheMeteredCountersUnchanged extends the PR 4 host-side-only
// contract to the cache paths: attaching a metrics registry while the cache
// and its fast path run must leave simulated counters byte-identical, and
// the registry must see the new cache series.
func TestRegionCacheMeteredCountersUnchanged(t *testing.T) {
	rt, bare := newRT(true)
	barrierWorkload(rt)

	reg := metrics.NewRegistry()
	rt2, metered := newRT(true)
	rt2.SetMetrics(reg)
	barrierWorkload(rt2)

	if *bare != *metered {
		t.Errorf("metrics changed simulated counters:\nbare:    %+v\nmetered: %+v", *bare, *metered)
	}
	snap := reg.Snapshot()
	hits, _ := snap.Counter("regions_core_lrcache_hits_total")
	if hits == 0 {
		t.Error("no lrcache hits recorded on a barrier-heavy workload")
	}
	fast, _ := snap.Counter("regions_core_barrier_fast_total")
	if fast == 0 {
		t.Error("no fast-path barriers recorded on a sameregion-heavy workload")
	}
	same, _ := snap.Counter("regions_core_barrier_sameregion_total")
	if fast > same {
		t.Errorf("fast barriers (%d) exceed sameregion barriers (%d)", fast, same)
	}
}

// TestDiagnosticsLeaveTranslationCache pins that Verify and Referrers
// measure nothing: a run of cross-region stores over 8 regions, with both
// diagnostics called after every fifth store, must charge exactly the
// counters and fold exactly the translation-cache series of the same run
// without them. A diagnostic that translated through RegionOf would refill
// the cache, so later barriers would hit or miss differently.
func TestDiagnosticsLeaveTranslationCache(t *testing.T) {
	type result struct {
		c            stats.Counters
		hits, misses uint64
	}
	run := func(diagnose bool) result {
		rt, c := newRT(true)
		reg := metrics.NewRegistry()
		rt.SetMetrics(reg)
		cln := rt.SizeCleanup(8)
		var regs []*Region
		var objs []Ptr
		for i := 0; i < 8; i++ {
			regs = append(regs, rt.NewRegion())
			for j := 0; j < 8; j++ {
				objs = append(objs, rt.Ralloc(regs[i], 8, cln))
			}
		}
		for i, slot := range objs {
			rt.StorePtr(slot, objs[(i*13+5)%len(objs)])
			if diagnose && i%5 == 4 {
				if err := rt.Verify(); err != nil {
					t.Fatalf("verify after store %d: %v", i, err)
				}
				rt.Referrers(regs[(i+3)%len(regs)])
			}
		}
		snap := reg.Snapshot()
		hits, _ := snap.Counter("regions_core_lrcache_hits_total")
		misses, _ := snap.Counter("regions_core_lrcache_misses_total")
		return result{*c, hits, misses}
	}
	bare, diagnosed := run(false), run(true)
	if bare.hits != diagnosed.hits || bare.misses != diagnosed.misses {
		t.Errorf("lrcache hits/misses %d/%d with diagnostics, %d/%d without",
			diagnosed.hits, diagnosed.misses, bare.hits, bare.misses)
	}
	if bare.c != diagnosed.c {
		t.Errorf("diagnostics changed the counters (%d cycles, %d without):\nwith:    %+v\nwithout: %+v",
			diagnosed.c.TotalCycles(), bare.c.TotalCycles(), diagnosed.c, bare.c)
	}
}
