package core

import (
	"errors"
	"testing"

	"regions/internal/stats"
	"regions/internal/trace"
)

// refCleanup is a general cleanup for 8-byte objects whose first word is a
// region pointer.
func refCleanup(rt *Runtime, obj Ptr) int {
	rt.Destroy(rt.Space().Load(obj))
	return 8
}

// TestOutgoingCountFollowsBarrier checks that the outgoing count moves
// exactly when a region-write barrier changes how many counted pointers the
// slot's region holds, and that each move costs two rc-mode accesses unless
// NoCleanupSkip leaves the count unused.
func TestOutgoingCountFollowsBarrier(t *testing.T) {
	run := func(noSkip bool) (rcCycles uint64) {
		rt, c := newRTOpts(Options{Safe: true, NoCleanupSkip: noSkip})
		cln := rt.RegisterCleanup("ref", refCleanup)
		a, b, d := rt.NewRegion(), rt.NewRegion(), rt.NewRegion()
		p, q := rt.Ralloc(a, 8, cln), rt.Ralloc(a, 8, cln)
		pb, pd := rt.Ralloc(b, 8, cln), rt.Ralloc(d, 8, cln)
		g := rt.AllocGlobals(1)
		steps := []struct {
			name      string
			slot, val Ptr
			want      int // a's outgoing count after the store
		}{
			{"cross-region store", p, pb, 1},
			{"second slot", q, pd, 2},
			{"retarget to another region", p, pd, 2},
			{"sameregion overwrite", p, q, 1},
			{"sameregion rewrite", p, p, 1},
			{"clear", q, 0, 0},
			{"store into b", pb, p, 0},
		}
		before := c.Cycles[stats.ModeRC]
		for _, s := range steps {
			rt.StorePtr(s.slot, s.val)
			if a.out != s.want {
				t.Fatalf("noSkip=%v %s: outgoing count %d, want %d", noSkip, s.name, a.out, s.want)
			}
		}
		rt.StoreGlobalPtr(g, pd) // globals belong to no region
		if a.out != 0 || b.out != 1 || d.out != 0 {
			t.Fatalf("noSkip=%v: counts a=%d b=%d d=%d, want 0 1 0", noSkip, a.out, b.out, d.out)
		}
		if err := rt.Verify(); err != nil {
			t.Fatalf("noSkip=%v: %v", noSkip, err)
		}
		return c.Cycles[stats.ModeRC] - before
	}
	// Five stores moved a count (+1, +1, -1, -1 on a; +1 on b); the
	// retarget and the sameregion rewrite did not.
	if skip, paper := run(false), run(true); skip != paper+5*2 {
		t.Fatalf("rc cycles %d with the count in use, %d without; want a difference of %d",
			skip, paper, 5*2)
	}
}

// TestCleanupWalkOnlyWithOutgoingPointers deletes regions holding general
// cleanups: one with no outgoing pointer is checked without a charge, a
// count or an event; one holding an outgoing pointer walks as in Figure 7;
// under NoCleanupSkip both walk.
func TestCleanupWalkOnlyWithOutgoingPointers(t *testing.T) {
	for _, noSkip := range []bool{false, true} {
		rt, c := newRTOpts(Options{Safe: true, NoCleanupSkip: noSkip})
		tr := trace.New(256)
		rt.SetTracer(tr)
		cln := rt.RegisterCleanup("ref", refCleanup)
		target := rt.NewRegion()
		tp := rt.Ralloc(target, 8, cln)

		quiet, holder := rt.NewRegion(), rt.NewRegion()
		for i := 0; i < 4; i++ {
			p := rt.Ralloc(quiet, 8, cln)
			rt.StorePtr(p, p) // sameregion: never counted
			rt.RarrayAlloc(quiet, 3, 8, cln)
		}
		rt.StorePtr(rt.Ralloc(holder, 8, cln), tp)

		del := func(r *Region) (cycles, calls uint64, events int) {
			t.Helper()
			cy, n, ev := c.Cycles[stats.ModeCleanup], c.CleanupCalls, len(tr.Events())
			if !rt.DeleteRegion(r) {
				t.Fatalf("noSkip=%v: delete of region %d refused", noSkip, r.id)
			}
			for _, e := range tr.Events()[ev:] {
				if e.Kind == trace.KindCleanup {
					events++
				}
			}
			return c.Cycles[stats.ModeCleanup] - cy, c.CleanupCalls - n, events
		}
		cy, calls, events := del(quiet)
		if noSkip != (cy != 0) || noSkip != (calls == 8) || noSkip != (events == 8) {
			t.Errorf("noSkip=%v: region without outgoing pointers charged %d cycles, %d cleanups, %d events",
				noSkip, cy, calls, events)
		}
		if cy, calls, events = del(holder); cy == 0 || calls != 1 || events != 1 {
			t.Errorf("noSkip=%v: region with an outgoing pointer charged %d cycles, %d cleanups, %d events",
				noSkip, cy, calls, events)
		}
		if target.RC() != 0 || !rt.DeleteRegion(target) {
			t.Errorf("noSkip=%v: the walk did not release the target (rc %d)", noSkip, target.RC())
		}
		if err := rt.Verify(); err != nil {
			t.Fatalf("noSkip=%v: %v", noSkip, err)
		}
	}
}

// wantUncounted requires TryDeleteRegion(r) to refuse with a
// FaultUncountedPointer naming r and leave r live and unchanged, with no
// cleanup charged.
func wantUncounted(t *testing.T, rt *Runtime, r *Region) {
	t.Helper()
	c := rt.Counters()
	sum, cleanup, destroys := rt.ContentChecksum(r), c.Cycles[stats.ModeCleanup], c.DestroyCalls
	ok, err := rt.TryDeleteRegion(r)
	var f *Fault
	if ok || !errors.As(err, &f) || f.Kind != FaultUncountedPointer {
		t.Fatalf("TryDeleteRegion = %v, %v; want false and a FaultUncountedPointer", ok, err)
	}
	if f.Region != r.id {
		t.Fatalf("fault names region %d, want %d", f.Region, r.id)
	}
	if r.deleted || rt.ContentChecksum(r) != sum {
		t.Fatal("the refused deletion changed the region")
	}
	if c.Cycles[stats.ModeCleanup] != cleanup || c.DestroyCalls != destroys {
		t.Fatal("the refused deletion charged its check walk")
	}
}

// TestZeroCountWithLivePointerFaults forces a region's outgoing count to
// zero while it holds a counted pointer. Skipping its walk would leak the
// target's count, so the check walk must refuse the deletion instead.
func TestZeroCountWithLivePointerFaults(t *testing.T) {
	rt, _ := newRT(true)
	cln := rt.RegisterCleanup("ref", refCleanup)
	r, target := rt.NewRegion(), rt.NewRegion()
	rt.Ralloc(r, 8, cln)
	rt.StorePtr(rt.Ralloc(r, 8, cln), rt.Ralloc(target, 8, cln))
	r.out = 0
	wantUncounted(t, rt, r)

	r.out = 1
	if !rt.DeleteRegion(r) || target.RC() != 0 {
		t.Fatalf("delete after restoring the count: target rc %d", target.RC())
	}
	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestRawCrossRegionStoreCaughtAtDeletion writes cross-region pointers with
// raw stores that bypass the write barrier, into a plain object and into an
// array element. No count moved, so the region looks walk-free; the check
// walk must still find the pointers.
func TestRawCrossRegionStoreCaughtAtDeletion(t *testing.T) {
	for _, array := range []bool{false, true} {
		rt, _ := newRT(true)
		cln := rt.RegisterCleanup("ref", refCleanup)
		r, target := rt.NewRegion(), rt.NewRegion()
		tp := rt.Ralloc(target, 8, cln)
		var slot Ptr
		if array {
			slot = rt.RarrayAlloc(r, 4, 8, cln) + 2*8
		} else {
			slot = rt.Ralloc(r, 8, cln)
		}
		rt.Space().Store(slot, tp)
		if r.out != 0 {
			t.Fatalf("raw store moved the outgoing count to %d", r.out)
		}
		wantUncounted(t, rt, r)
	}
}
