package core

import (
	"sync"
	"testing"

	"regions/internal/trace"
)

// TestTraceEventOrdering runs a workload with allocations, barriers, a
// refused deletion, and cleanups, then checks the ordering guarantees
// docs/OBSERVABILITY.md promises: every region-delete is preceded by its
// region-create and by the cleanup events of all the region's objects, and
// is the last event naming its region.
func TestTraceEventOrdering(t *testing.T) {
	rt, _ := newRT(true)
	tr := trace.New(1 << 12)
	rt.SetTracer(tr)

	// A general cleanup destroys the object's first word. At deletion r2
	// holds a counted pointer into r1 and r1 one into r3, so both run the
	// cleanup walk; r3 holds no outgoing pointer and skips it.
	cln := rt.RegisterCleanup("node", func(rt *Runtime, obj Ptr) int {
		rt.Destroy(rt.Space().Load(obj))
		return 16
	})
	f := rt.PushFrame(2)

	r1 := rt.NewRegion()
	r2 := rt.NewRegion()
	r3 := rt.NewRegion()
	p1 := rt.Ralloc(r1, 16, cln)
	p2 := rt.Ralloc(r2, 16, cln)
	rt.RstrAlloc(r1, 8)
	p3 := rt.Ralloc(r3, 16, rt.SizeCleanup(16))
	rt.RarrayAlloc(r3, 3, 8, rt.SizeCleanup(8))

	// A cross-region heap pointer blocks r2's deletion once. The deletion
	// runs in an inner activation so the outer frame gets scanned (the
	// active frame never is) and unscanned when control returns.
	rt.StorePtr(p1, p2)
	f.Set(0, p1)
	rt.PushFrame(1)
	if rt.DeleteRegion(r2) {
		t.Fatal("delete of externally referenced region succeeded")
	}
	rt.PopFrame()
	rt.StorePtr(p1, p3)
	rt.StorePtr(p2, p1)
	f.Set(0, 0)
	if !rt.DeleteRegion(r2) || !rt.DeleteRegion(r1) || !rt.DeleteRegion(r3) {
		t.Fatal("deletes failed after clearing references")
	}
	rt.PopFrame()

	evs := tr.Events()
	if tr.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; enlarge the buffer", tr.Dropped())
	}

	type state struct {
		createSeq  uint64
		created    bool
		deleteSeq  uint64
		deleted    bool
		allocs     int
		cleanups   int
		afterDeath int // events naming the region after its delete
	}
	regions := map[int32]*state{}
	get := func(id int32) *state {
		s, ok := regions[id]
		if !ok {
			s = &state{}
			regions[id] = s
		}
		return s
	}
	var sawFail, sawScan, sawUnscan, sawBarrier bool
	for i, ev := range evs {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d: Events() not in emission order", i, ev.Seq)
		}
		if i > 0 && ev.Cycle < evs[i-1].Cycle {
			t.Fatalf("cycle went backwards at seq %d: %d -> %d", i, evs[i-1].Cycle, ev.Cycle)
		}
		switch ev.Kind {
		case trace.KindRegionCreate:
			s := get(ev.Region)
			s.createSeq, s.created = ev.Seq, true
		case trace.KindRegionDelete:
			s := get(ev.Region)
			s.deleteSeq, s.deleted = ev.Seq, true
		case trace.KindRegionDeleteFail:
			sawFail = true
		case trace.KindRalloc, trace.KindRarrayAlloc, trace.KindRstrAlloc:
			s := get(ev.Region)
			s.allocs++
			if s.deleted {
				s.afterDeath++
			}
		case trace.KindCleanup:
			s := get(ev.Region)
			s.cleanups++
			if s.deleted {
				s.afterDeath++
			}
		case trace.KindStackScan:
			sawScan = true
		case trace.KindStackUnscan:
			sawUnscan = true
		case trace.KindBarrierGlobal, trace.KindBarrierRegion, trace.KindBarrierElided:
			sawBarrier = true
		}
	}

	if len(regions) != 3 {
		t.Fatalf("traced %d regions, want 3", len(regions))
	}
	for id, s := range regions {
		if !s.created || !s.deleted {
			t.Fatalf("region %d: created=%v deleted=%v", id, s.created, s.deleted)
		}
		if s.createSeq >= s.deleteSeq {
			t.Errorf("region %d: create seq %d not before delete seq %d",
				id, s.createSeq, s.deleteSeq)
		}
		if s.afterDeath != 0 {
			t.Errorf("region %d: %d events after its region-delete", id, s.afterDeath)
		}
	}
	// r1 and r2 got one ralloc with a general cleanup each, r1 also an
	// rstralloc; r3's two size-only objects are deleted without a walk.
	if s := get(regionID(r1)); s.allocs != 2 || s.cleanups != 1 {
		t.Errorf("r1: %d allocs, %d cleanups; want 2, 1", s.allocs, s.cleanups)
	}
	if s := get(regionID(r2)); s.allocs != 1 || s.cleanups != 1 {
		t.Errorf("r2: %d allocs, %d cleanups; want 1, 1", s.allocs, s.cleanups)
	}
	if s := get(regionID(r3)); s.allocs != 2 || s.cleanups != 0 {
		t.Errorf("r3 (size-only): %d allocs, %d cleanups; want 2, 0", s.allocs, s.cleanups)
	}
	if !sawFail {
		t.Error("no region-delete-fail traced for the refused deletion")
	}
	if !sawScan || !sawUnscan {
		t.Errorf("stack events missing: scan=%v unscan=%v", sawScan, sawUnscan)
	}
	if !sawBarrier {
		t.Error("no barrier events traced")
	}
}

// TestTraceCountersUnchanged checks that attaching a tracer does not perturb
// the simulated machine: a traced run and an untraced run of the same
// workload report identical cycle counters.
func TestTraceCountersUnchanged(t *testing.T) {
	run := func(tr *trace.Tracer) uint64 {
		rt, c := newRT(true)
		rt.SetTracer(tr)
		r := rt.NewRegion()
		cln := rt.SizeCleanup(16)
		for i := 0; i < 32; i++ {
			p := rt.Ralloc(r, 16, cln)
			rt.StorePtr(p, p)
			rt.StorePtr(p, 0)
		}
		if !rt.DeleteRegion(r) {
			t.Fatal("delete failed")
		}
		return c.TotalCycles()
	}
	untraced := run(nil)
	traced := run(trace.New(1 << 12))
	if untraced != traced {
		t.Fatalf("tracing changed the modelled clock: %d vs %d cycles", untraced, traced)
	}
}

// TestParTraceOrdering checks the ordering guarantees under the parallel
// extension with genuinely concurrent workers (run with -race): every
// par-region-delete is preceded by its par-region-create in the tracer's
// total order, and no par-write to a region is recorded after its deletion
// event.
func TestParTraceOrdering(t *testing.T) {
	const workers = 4
	const rounds = 50

	w := NewParWorld(workers)
	tr := trace.New(1 << 16)
	w.SetTracer(tr)

	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			wk := w.Worker(id)
			for i := 0; i < rounds; i++ {
				r := w.NewParRegion()
				regionOf := func(p Ptr) *ParRegion {
					if p != 0 {
						return r
					}
					return nil
				}
				var slot ParSlot
				wk.Write(&slot, 4096, regionOf)
				if w.TryDelete(r) {
					t.Error("delete succeeded with a live reference")
				}
				wk.Write(&slot, 0, regionOf)
				if !w.TryDelete(r) {
					t.Error("delete failed after clearing the slot")
				}
			}
		}(id)
	}
	wg.Wait()

	evs := tr.Events()
	if tr.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; enlarge the buffer", tr.Dropped())
	}
	created := map[int32]uint64{}
	deleted := map[int32]uint64{}
	var fails int
	for i, ev := range evs {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d: not a total order", i, ev.Seq)
		}
		switch ev.Kind {
		case trace.KindParRegionCreate:
			created[ev.Region] = ev.Seq
		case trace.KindParRegionDelete:
			cs, ok := created[ev.Region]
			if !ok {
				t.Fatalf("par region %d deleted without a create event", ev.Region)
			}
			if cs >= ev.Seq {
				t.Fatalf("par region %d: create seq %d not before delete seq %d",
					ev.Region, cs, ev.Seq)
			}
			deleted[ev.Region] = ev.Seq
		case trace.KindParRegionDeleteFail:
			fails++
		case trace.KindParWrite:
			// Writes that install a reference name the target region; none
			// may appear after that region's delete event.
			if ds, dead := deleted[ev.Region]; dead && ev.Seq > ds {
				t.Fatalf("par-write to region %d at seq %d after its delete at seq %d",
					ev.Region, ev.Seq, ds)
			}
		}
	}
	want := workers * rounds
	if len(created) != want || len(deleted) != want {
		t.Fatalf("created=%d deleted=%d, want %d each", len(created), len(deleted), want)
	}
	if fails != want {
		t.Fatalf("delete-fail events = %d, want %d", fails, want)
	}
}
