package core

import (
	"math/rand"
	"reflect"
	"testing"

	"regions/internal/stats"
	"regions/internal/trace"
)

// equivSites are the object sites of the walk-skip equivalence workload.
// The control run registers each through RegisterCleanup (a closure
// returning the size, which the runtime must treat as general) on a
// NoCleanupSkip runtime, so every deletion walks; the skipping run
// registers each through RegisterSizeCleanup on the default runtime.
var equivSites = []struct {
	name string
	size int
}{{"leaf", 8}, {"node", 12}, {"blob", 40}, {"big", 700}, {"elem", 16}}

// equivArm selects what the workload mixes into its regions.
type equivArm struct {
	deferred  bool // Options.DeferredDelete, with sweep slices between steps
	general   bool // one general object, holding a counted pointer, per region
	arrays    bool // rarrayalloc with a size-only element cleanup
	empty     bool // every third region holds no ralloc objects or strings
	roundTrip bool // export every other region to a second runtime and back
}

// equivRun is everything one run of the workload observed.
type equivRun struct {
	addrs   []Ptr    // every ralloc, rarrayalloc and rstralloc address, in order
	sums    []uint32 // ContentChecksum of each region just before its deletion
	rcs     []Word   // the anchor region's stored count after every step
	c, peer stats.Counters
	events  int // cleanup events traced on the main runtime
	// skipCycles and skipObjs are the cleanup-mode charge and the object
	// count of deleting regions that hold no general object: the walks a
	// zero outgoing count lets the runtime skip.
	skipCycles, skipObjs uint64
	// outgoing counts the barriers that changed a region's outgoing count,
	// each charged two accesses where the count is used.
	outgoing uint64
}

func runEquiv(t *testing.T, arm equivArm, sizeOnly bool) equivRun {
	t.Helper()
	opts := Options{Safe: true, DeferredDelete: arm.deferred, NoCleanupSkip: !sizeOnly}
	rt, _ := newRTOpts(opts)
	peer, _ := newRTOpts(opts)
	tr := trace.New(1 << 16)
	rt.SetTracer(tr)

	var cln []CleanupID
	var general CleanupID
	for _, r := range []*Runtime{rt, peer} {
		cln = cln[:0]
		for _, s := range equivSites {
			if sizeOnly {
				cln = append(cln, r.RegisterSizeCleanup(s.name, s.size))
			} else {
				size := s.size
				cln = append(cln, r.RegisterCleanup(s.name, func(*Runtime, Ptr) int { return size }))
			}
		}
		general = r.RegisterCleanup("ref", func(rt *Runtime, obj Ptr) int {
			rt.Destroy(rt.Space().Load(obj))
			return 8
		})
	}

	var run equivRun
	verify := func(step int) {
		t.Helper()
		for _, r := range []*Runtime{rt, peer} {
			if err := r.Verify(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	anchor := rt.NewRegion()
	target := rt.Ralloc(anchor, 8, cln[0])

	type live struct {
		r       *Region
		general bool
		objs    uint64
	}
	var regs []live
	del := func(l live) {
		t.Helper()
		run.sums = append(run.sums, rt.ContentChecksum(l.r))
		before := rt.Counters().Cycles[stats.ModeCleanup]
		if !rt.DeleteRegion(l.r) {
			t.Fatalf("delete of region %d refused", l.r.id)
		}
		if !l.general {
			run.skipCycles += rt.Counters().Cycles[stats.ModeCleanup] - before
			run.skipObjs += l.objs
		}
	}

	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 60; step++ {
		l := live{r: rt.NewRegion()}
		if empty := arm.empty && step%3 == 0; !empty {
			run.addrs = append(run.addrs, rt.RstrAlloc(l.r, 1+rng.Intn(200)))
			var prev Ptr
			for i, n := 0, 1+rng.Intn(30); i < n; i++ {
				k := rng.Intn(len(equivSites) - 1)
				p := rt.Ralloc(l.r, equivSites[k].size, cln[k])
				rt.Space().Store(p+4, Word(rng.Uint32()))
				rt.StorePtr(p, prev) // sameregion: never counted
				prev = p
				run.addrs = append(run.addrs, p)
				l.objs++
			}
		}
		if arm.arrays && step%2 == 0 {
			n := rng.Intn(12)
			p := rt.RarrayAlloc(l.r, n, 16, cln[len(cln)-1])
			for i := 0; i < n; i++ {
				rt.Space().Store(p+Ptr(16*i), Word(rng.Uint32()))
			}
			run.addrs = append(run.addrs, p)
			l.objs++
		}
		if arm.general && step%2 == 1 {
			p := rt.Ralloc(l.r, 8, general)
			rt.StorePtr(p, target) // counted: the general cleanup releases it
			run.outgoing++
			run.addrs = append(run.addrs, p)
			l.general = true
			l.objs++
		}
		if arm.roundTrip && step%2 == 0 {
			sum := rt.ContentChecksum(l.r)
			l.r = migrateVia(t, rt, peer, l.r)
			if got := rt.ContentChecksum(l.r); got != sum {
				t.Fatalf("step %d: round trip changed content %#x -> %#x", step, sum, got)
			}
		}
		regs = append(regs, l)

		for len(regs) > 6 {
			i := rng.Intn(len(regs))
			del(regs[i])
			regs = append(regs[:i], regs[i+1:]...)
		}
		if arm.deferred {
			rt.SweepSlice()
		}
		run.rcs = append(run.rcs, rt.Space().Load(anchor.hdr+offRC))
		verify(step)
	}
	for _, l := range regs {
		del(l)
	}
	verify(-1)
	if tr.Dropped() != 0 {
		t.Fatalf("trace ring dropped %d events", tr.Dropped())
	}
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindCleanup {
			run.events++
		}
	}
	run.c, run.peer = *rt.Counters(), *peer.Counters()
	return run
}

// migrateVia exports r from rt, imports it into peer, and brings it back.
// Export refuses cross-region pointers, so every import starts with an
// outgoing count of zero.
func migrateVia(t *testing.T, rt, peer *Runtime, r *Region) *Region {
	t.Helper()
	for _, hop := range [2][2]*Runtime{{rt, peer}, {peer, rt}} {
		rec, err := hop[0].ExportRegion(r)
		if err != nil {
			t.Fatalf("export: %v", err)
		}
		if r, err = hop[1].ImportRegion(rec); err != nil {
			t.Fatalf("import: %v", err)
		}
		if r.out != 0 {
			t.Fatalf("imported region has outgoing count %d, want 0", r.out)
		}
	}
	return r
}

// TestSizeCleanupSkipsWalkEquivalently runs one seeded workload twice: with
// every site registered through RegisterCleanup on a NoCleanupSkip runtime
// that walks every deletion, and through RegisterSizeCleanup on the default
// runtime, which walks only regions holding outgoing counted pointers.
// Skipping the walk must change nothing but the walk: identical address
// streams, content checksums and counts, a clean Verify after every step,
// and a cleanup-mode difference that equals the skipped walks' charges and
// objects. The one other difference is the outgoing-count update the
// skipping runtime charges: two rc-mode accesses per count change.
func TestSizeCleanupSkipsWalkEquivalently(t *testing.T) {
	arms := []struct {
		name string
		arm  equivArm
	}{
		{"sync", equivArm{}},
		{"deferred", equivArm{deferred: true}},
		{"general-among-size", equivArm{general: true}},
		{"general-deferred", equivArm{general: true, deferred: true}},
		{"rarrayalloc", equivArm{arrays: true, empty: true}},
		{"empty-regions", equivArm{empty: true}},
		{"export-import", equivArm{roundTrip: true, arrays: true}},
	}
	for _, tc := range arms {
		arm := tc.arm
		t.Run(tc.name, func(t *testing.T) {
			gen := runEquiv(t, arm, false)
			size := runEquiv(t, arm, true)

			if !reflect.DeepEqual(gen.addrs, size.addrs) {
				t.Fatal("allocation address streams differ")
			}
			if !reflect.DeepEqual(gen.sums, size.sums) {
				t.Fatal("content checksums differ")
			}
			if !reflect.DeepEqual(gen.rcs, size.rcs) {
				t.Fatal("reference counts differ")
			}
			if gen.peer != size.peer {
				t.Fatalf("peer runtime counters differ:\n%+v\n%+v", gen.peer, size.peer)
			}
			if size.skipCycles != 0 {
				t.Fatalf("size-only regions charged %d cleanup cycles, want 0", size.skipCycles)
			}
			if gen.skipObjs == 0 || gen.skipCycles == 0 {
				t.Fatalf("workload skipped no walk: %d objects, %d cycles",
					gen.skipObjs, gen.skipCycles)
			}

			// Only the cleanup mode and the cleanup count may differ, and by
			// exactly the skipped walks.
			g, s := gen.c, size.c
			if d := g.Cycles[stats.ModeCleanup] - s.Cycles[stats.ModeCleanup]; d != gen.skipCycles {
				t.Errorf("cleanup cycles fell by %d, skipped walks charged %d", d, gen.skipCycles)
			}
			if d := g.CleanupCalls - s.CleanupCalls; d != gen.skipObjs {
				t.Errorf("CleanupCalls fell by %d, skipped %d objects", d, gen.skipObjs)
			}
			if d := gen.events - size.events; uint64(d) != gen.skipObjs {
				t.Errorf("cleanup events fell by %d, skipped %d objects", d, gen.skipObjs)
			}
			if arm.general && (s.CleanupCalls == 0 || s.DestroyCalls == 0) {
				t.Errorf("regions with a general object did not walk: %d cleanups, %d destroys",
					s.CleanupCalls, s.DestroyCalls)
			}
			if d := s.Cycles[stats.ModeRC] - g.Cycles[stats.ModeRC]; d != 2*size.outgoing {
				t.Errorf("rc cycles rose by %d, want 2 per outgoing-count update (%d)",
					d, size.outgoing)
			}
			g.Cycles[stats.ModeCleanup], s.Cycles[stats.ModeCleanup] = 0, 0
			g.Cycles[stats.ModeRC], s.Cycles[stats.ModeRC] = 0, 0
			g.CleanupCalls, s.CleanupCalls = 0, 0
			if g != s {
				t.Fatalf("counters outside the cleanup walk differ:\n%+v\n%+v", g, s)
			}
		})
	}
}
