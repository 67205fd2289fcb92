package core

import (
	"math/rand"
	"slices"
	"testing"

	"regions/internal/metrics"
	"regions/internal/trace"
)

// agreementWorkload drives a seeded random mix over the core API on rt:
// ralloc, rarrayalloc, rstralloc/rstrfree, both barriers, frame pushes and
// pops, refused and successful deletes, sweep slices, and export/import
// round trips through peer. It keeps its own map of every stored pointer so
// it can clear a region's references before a delete it wants to succeed.
func agreementWorkload(t *testing.T, rt, peer *Runtime, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cln := rt.SizeCleanup(16)
	peer.SizeCleanup(16)
	const nglobals = 4
	globals := rt.AllocGlobals(nglobals)

	type str struct {
		p    Ptr
		size int
	}
	type slotVal struct {
		owner *Region // nil for a global slot
		val   Ptr
	}
	var (
		live   []*Region
		objs   = map[*Region][]Ptr{} // ralloc'd 16-byte objects: 4 pointer slots
		strs   = map[*Region][]str{}
		slots  = map[Ptr]slotVal{}
		frames []*Frame
	)
	randObj := func() Ptr {
		if len(live) == 0 || rng.Intn(4) == 0 {
			return 0
		}
		os := objs[live[rng.Intn(len(live))]]
		if len(os) == 0 {
			return 0
		}
		return os[rng.Intn(len(os))]
	}
	store := func(owner *Region, slot, val Ptr) {
		if owner == nil {
			rt.StoreGlobalPtr(slot, val)
		} else {
			rt.StorePtr(slot, val)
		}
		slots[slot] = slotVal{owner, val}
	}
	// forget drops every pointer the workload tracks for r; unlink first
	// nulls every tracked reference out of r, and into r when incoming.
	forget := func(r *Region) {
		for i, x := range live {
			if x == r {
				live = append(live[:i], live[i+1:]...)
				break
			}
		}
		for slot, sv := range slots {
			if sv.owner == r {
				delete(slots, slot)
			}
		}
		delete(objs, r)
		delete(strs, r)
	}
	unlink := func(r *Region, incoming bool) {
		// Visit slots in address order so a seed replays exactly.
		addrs := make([]Ptr, 0, len(slots))
		for slot := range slots {
			addrs = append(addrs, slot)
		}
		slices.Sort(addrs)
		for _, slot := range addrs {
			sv := slots[slot]
			if sv.val != 0 && (sv.owner == r || (incoming && rt.RegionOf(sv.val) == r)) {
				store(sv.owner, slot, 0)
			}
		}
		if incoming {
			for _, f := range frames {
				for i := 0; i < f.Len(); i++ {
					if rt.RegionOf(f.Get(i)) == r {
						f.Set(i, 0)
					}
				}
			}
		}
	}

	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(20); {
		case op == 0 && len(live) < 10, len(live) == 0:
			live = append(live, rt.NewRegion())
		case op <= 3:
			r := live[rng.Intn(len(live))]
			objs[r] = append(objs[r], rt.Ralloc(r, 16, cln))
		case op == 4:
			r := live[rng.Intn(len(live))]
			rt.RarrayAlloc(r, 1+rng.Intn(6), 12, cln)
		case op <= 6:
			r := live[rng.Intn(len(live))]
			size := 1 + rng.Intn(300)
			strs[r] = append(strs[r], str{rt.RstrAlloc(r, size), size})
		case op == 7:
			r := live[rng.Intn(len(live))]
			if n := len(strs[r]); n > 0 {
				i := rng.Intn(n)
				rt.RstrFree(r, strs[r][i].p, strs[r][i].size)
				strs[r] = append(strs[r][:i], strs[r][i+1:]...)
			}
		case op <= 10:
			if obj := randObj(); obj != 0 {
				store(rt.RegionOf(obj), obj+Ptr(4*rng.Intn(4)), randObj())
			}
		case op == 11:
			store(nil, globals+Ptr(4*rng.Intn(nglobals)), randObj())
		case op == 12 && len(frames) < 5:
			frames = append(frames, rt.PushFrame(2))
		case op == 13 && len(frames) > 0:
			rt.PopFrame()
			frames = frames[:len(frames)-1]
		case op == 14 && len(frames) > 0:
			frames[len(frames)-1].Set(rng.Intn(2), randObj())
		case op <= 16:
			// Outgoing pointers are always cleared (size cleanups do not
			// Destroy them); incoming ones only half the time, so some
			// deletes are refused.
			r := live[rng.Intn(len(live))]
			unlink(r, rng.Intn(2) == 0)
			if rt.DeleteRegion(r) {
				forget(r)
			}
		case op == 17:
			rt.SweepSlice()
		case op == 18:
			r := live[rng.Intn(len(live))]
			unlink(r, true)
			if !rt.Exportable(r) {
				break
			}
			rec, err := rt.ExportRegion(r)
			if err != nil {
				t.Fatalf("export: %v", err)
			}
			forget(r)
			away, err := peer.ImportRegion(rec)
			if err != nil {
				t.Fatalf("peer import: %v", err)
			}
			if rec, err = peer.ExportRegion(away); err != nil {
				t.Fatalf("peer export: %v", err)
			}
			back, err := rt.ImportRegion(rec)
			if err != nil {
				t.Fatalf("import: %v", err)
			}
			live = append(live, back)
		}
	}
	if err := rt.Verify(); err != nil {
		t.Fatalf("Verify after workload: %v", err)
	}
}

// TestObservationAgreement: with both sinks attached, every event kind's
// count in the trace equals its registry series and the overlapping
// stats.Counters field, and every size-carrying series equals the sum of
// its events' sizes.
func TestObservationAgreement(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rt, c := newRTOpts(Options{Safe: true, DeferredDelete: true, SweepBudget: 2})
		peer, _ := newRTOpts(Options{Safe: true})
		tr := trace.New(1 << 17)
		reg := metrics.NewRegistry()
		rt.SetTracer(tr)
		rt.SetMetrics(reg)
		agreementWorkload(t, rt, peer, seed)
		if tr.Dropped() != 0 {
			t.Fatalf("seed %d: ring dropped %d events; enlarge it", seed, tr.Dropped())
		}

		count := map[trace.Kind]uint64{}
		sizes := map[trace.Kind]uint64{}
		migrations := map[int32]uint64{}
		born := map[int32]uint64{} // region id -> cycle it was created or imported
		var lifetimes uint64
		for _, ev := range tr.Events() {
			count[ev.Kind]++
			sizes[ev.Kind] += uint64(ev.Size)
			switch ev.Kind {
			case trace.KindMigrate:
				migrations[ev.Aux]++
				if ev.Aux == 1 {
					born[ev.Region] = ev.Cycle
				}
			case trace.KindRegionCreate:
				born[ev.Region] = ev.Cycle
			case trace.KindRegionDelete:
				lifetimes += ev.Cycle - born[ev.Region]
			}
		}
		sum := func(m map[trace.Kind]uint64, kinds ...trace.Kind) uint64 {
			var n uint64
			for _, k := range kinds {
				n += m[k]
			}
			return n
		}
		snap := reg.Snapshot()
		allocKinds := []trace.Kind{trace.KindRalloc, trace.KindRarrayAlloc, trace.KindRstrAlloc}
		for _, tc := range []struct {
			series   string
			events   uint64
			counters uint64
		}{
			{"regions_core_allocs_total", sum(count, allocKinds...), c.Allocs},
			{"regions_core_alloc_bytes_total", sum(sizes, allocKinds...), c.BytesRequested},
			{"regions_core_regions_created_total", count[trace.KindRegionCreate], c.RegionsCreated},
			{"regions_core_regions_deleted_total", count[trace.KindRegionDelete], c.RegionsDeleted},
			{"regions_core_region_delete_fails_total", count[trace.KindRegionDeleteFail], c.DeleteFails},
			{"regions_core_barrier_global_total", count[trace.KindBarrierGlobal], c.Barriers.Global},
			{"regions_core_barrier_region_total", sum(count, trace.KindBarrierRegion, trace.KindBarrierElided), c.Barriers.Region},
			{"regions_core_barrier_sameregion_total", count[trace.KindBarrierElided], c.Barriers.SameRegion},
			{"regions_core_stack_scans_total", count[trace.KindStackScan], c.FramesScanned},
			{"regions_core_stack_unscans_total", count[trace.KindStackUnscan], c.FramesUnscanned},
			{"regions_str_free_total", count[trace.KindRstrFree], c.FreeCalls},
			{"regions_sweep_slices_total", count[trace.KindSweepSlice], rt.SweepSlices()},
			{"regions_swept_pages_total", sizes[trace.KindSweepSlice], rt.SweptPages()},
		} {
			got, _ := snap.Counter(tc.series)
			if got != tc.events || got != tc.counters || got == 0 {
				t.Errorf("seed %d: %s = %d, events %d, counters %d (want equal and nonzero)",
					seed, tc.series, got, tc.events, tc.counters)
			}
		}
		// The lifetime histogram reads each region's birth from the region
		// itself, which leaves the runtime's table once reclaimed; it must
		// still agree with the births and deaths the trace records.
		deletes := count[trace.KindRegionDelete]
		if deletes <= 128 {
			t.Errorf("seed %d: workload deleted %d regions, want more than 128", seed, deletes)
		}
		if h, ok := snap.Histogram("regions_core_region_lifetime_cycles"); !ok || h.Count != deletes || h.Sum != lifetimes {
			t.Errorf("seed %d: lifetime histogram %+v, want count %d (delete events) and sum %d (trace lifetimes)",
				seed, h, deletes, lifetimes)
		}
		if migrations[0] == 0 || migrations[1] == 0 {
			t.Errorf("seed %d: workload made %d exports and %d imports, want both", seed, migrations[0], migrations[1])
		}
		for _, g := range []struct {
			series string
			want   int64
		}{
			{"regions_core_live_regions", int64(len(rt.LiveRegions()))},
			{"regions_sweep_debt_pages", int64(rt.SweepDebt())},
		} {
			if got, _ := snap.Gauge(g.series); got != g.want {
				t.Errorf("seed %d: %s = %d, runtime reports %d", seed, g.series, got, g.want)
			}
		}
	}
}

// TestGaugesSumAcrossRuntimes: level gauges on a shared registry (every
// shard engine's case) are the sum of each runtime's share, and a runtime
// attaching or detaching moves only its own share.
func TestGaugesSumAcrossRuntimes(t *testing.T) {
	reg := metrics.NewRegistry()
	pool := reg.Gauge(`regions_str_pool_blocks{class="64"}`)
	debt := reg.Gauge("regions_sweep_debt_pages")
	live := reg.Gauge("regions_core_live_regions")
	opts := Options{Safe: true, DeferredDelete: true}

	a, _ := newRTOpts(opts)
	a.SetMetrics(reg)
	ra := a.NewRegion()
	ps := []Ptr{a.RstrAlloc(ra, 64), a.RstrAlloc(ra, 64), a.RstrAlloc(ra, 64)}
	for _, p := range ps {
		a.RstrFree(ra, p, 64)
	}
	if got := pool.Value(); got != 3 {
		t.Fatalf("pool gauge after A parks 3 blocks: %d, want 3", got)
	}

	b, _ := newRTOpts(opts)
	rb := b.NewRegion()
	b.RstrFree(rb, b.RstrAlloc(rb, 64), 64)
	b.SetMetrics(reg) // mid-run attach seeds B's share, leaves A's alone
	if got := pool.Value(); got != 4 {
		t.Fatalf("pool gauge after B attaches: %d, want 4", got)
	}
	if got := live.Value(); got != 2 {
		t.Fatalf("live gauge after B attaches: %d, want 2", got)
	}
	for range ps {
		a.RstrAlloc(ra, 64)
	}
	if got := pool.Value(); got != 1 {
		t.Fatalf("pool gauge after A reuses its blocks: %d, want 1", got)
	}

	// Deferred deletes on both runtimes: the debt gauge is the sum.
	if !a.DeleteRegion(ra) || !b.DeleteRegion(rb) {
		t.Fatal("delete refused")
	}
	if a.SweepDebt() == 0 || b.SweepDebt() == 0 {
		t.Fatal("deferred deletes left no debt")
	}
	if got := debt.Value(); got != int64(a.SweepDebt()+b.SweepDebt()) {
		t.Fatalf("debt gauge %d, runtimes owe %d + %d", got, a.SweepDebt(), b.SweepDebt())
	}
	b.SweepDrain()
	if got := debt.Value(); got != int64(a.SweepDebt()) {
		t.Fatalf("debt gauge after B drains: %d, A owes %d", got, a.SweepDebt())
	}

	// Detaching withdraws exactly this runtime's share.
	a.SetMetrics(nil)
	for name, g := range map[string]*metrics.Gauge{"pool": pool, "debt": debt, "live": live} {
		if got := g.Value(); got != 0 {
			t.Errorf("%s gauge after A detaches: %d, want 0 (B holds none)", name, got)
		}
	}
	if a.Metrics() != nil || b.Metrics() != reg {
		t.Error("Metrics() does not report the attachments")
	}
}

// TestObserverAttachDetach: the observer exists exactly while a sink is
// attached, and swapping one sink keeps the other.
func TestObserverAttachDetach(t *testing.T) {
	rt, _ := newRT(true)
	tr, reg := trace.New(16), metrics.NewRegistry()
	if rt.obs != nil {
		t.Fatal("bare runtime has an observer")
	}
	rt.SetTracer(tr)
	rt.SetMetrics(reg)
	rt.SetTracer(nil)
	if rt.obs == nil || rt.Tracer() != nil || rt.Metrics() != reg {
		t.Fatal("detaching the tracer dropped the registry")
	}
	rt.SetTracer(tr)
	rt.SetMetrics(nil)
	if rt.obs == nil || rt.Tracer() != tr || rt.Metrics() != nil {
		t.Fatal("detaching the registry dropped the tracer")
	}
	rt.SetTracer(nil)
	if rt.obs != nil {
		t.Fatal("observer survives detaching both sinks")
	}
}
