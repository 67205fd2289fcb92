package core

import (
	"math/rand"
	"testing"
)

// TestRegionTableRetiresReclaimed churns 10,000 regions with at most 8 live
// at a time, half through a runtime that deletes synchronously and half
// through one that defers deletion to sweep slices, each exporting one
// region to a peer and importing it back. It checks after every step that
// the region table stays proportional to live work: it never exceeds twice
// its unreclaimed regions (live or detached) plus the compaction floor,
// ids still count every region created or imported, LiveRegions keeps
// creation order, and Verify is clean.
func TestRegionTableRetiresReclaimed(t *testing.T) {
	for _, deferred := range []bool{false, true} {
		name := "sync"
		if deferred {
			name = "deferred"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			churnRegions(t, deferred)
		})
	}
}

// churnRegions is one runtime's half of TestRegionTableRetiresReclaimed.
func churnRegions(t *testing.T, deferred bool) {
	const churn, maxLive = 5_000, 8
	rt, _ := newRTOpts(Options{Safe: true, DeferredDelete: deferred, SweepBudget: 1})
	peer, _ := newRTOpts(Options{Safe: true})
	cln := rt.SizeCleanup(24)
	peer.SizeCleanup(24)
	rng := rand.New(rand.NewSource(1))

	var live, detached []*Region
	ids := int32(0) // regions created or imported on rt so far
	migrated := false
	check := func(step int, what string) {
		t.Helper()
		if err := rt.Verify(); err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}
		kept := detached[:0]
		for _, r := range detached {
			if r.Detached() {
				kept = append(kept, r)
			}
		}
		detached = kept
		if n, bound := len(rt.regions), 2*(len(live)+len(detached))+regionTableFloor; n > bound {
			t.Fatalf("step %d (%s): region table holds %d entries for %d live and %d detached regions, bound %d",
				step, what, n, len(live), len(detached), bound)
		}
		got := rt.LiveRegions()
		if len(got) != len(live) {
			t.Fatalf("step %d (%s): LiveRegions has %d regions, want %d", step, what, len(got), len(live))
		}
		for i, r := range got {
			if r != live[i] {
				t.Fatalf("step %d (%s): LiveRegions[%d] = %v, want %v (creation order)", step, what, i, r, live[i])
			}
		}
	}

	for step := 0; ids < churn; step++ {
		switch {
		case len(live) < maxLive && (len(live) == 0 || rng.Intn(2) == 0):
			r := rt.NewRegion()
			if r.id != ids {
				t.Fatalf("step %d: new region id %d, want %d", step, r.id, ids)
			}
			ids++
			rt.Ralloc(r, 24, cln)
			if rng.Intn(8) == 0 {
				rt.RstrAlloc(r, 1+rng.Intn(2000))
			}
			live = append(live, r)
			check(step, "create")
		case !migrated && ids >= churn/2:
			// One round trip through a peer: the export retires the handle
			// here, and the import back counts as a new region.
			rec, err := rt.ExportRegion(live[0])
			if err != nil {
				t.Fatalf("export: %v", err)
			}
			live = live[1:]
			check(step, "export")
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
			if back.id != ids {
				t.Fatalf("step %d: imported region id %d, want %d", step, back.id, ids)
			}
			ids++
			live = append(live, back)
			migrated = true
			check(step, "import")
		default:
			i := rng.Intn(len(live))
			r := live[i]
			if !rt.DeleteRegion(r) {
				t.Fatalf("step %d: delete of unreferenced %v refused", step, r)
			}
			live = append(live[:i], live[i+1:]...)
			if r.Detached() {
				detached = append(detached, r)
			}
			check(step, "delete")
			if deferred && rng.Intn(3) == 0 {
				rt.SweepSlice()
				check(step, "sweep")
			}
		}
	}
	if !migrated {
		t.Fatal("workload never migrated a region")
	}
	if deferred && rt.SweptPages() == 0 {
		t.Fatal("deferred run swept nothing")
	}
}
