package core

import (
	"errors"
	"testing"

	"regions/internal/mem"
	"regions/internal/trace"
)

// recoverFault runs fn expecting a panic carrying a *Fault of the given
// kind, returning the fault.
func recoverFault(t *testing.T, kind FaultKind, fn func()) *Fault {
	t.Helper()
	var f *Fault
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("no panic; want *Fault of kind %v", kind)
			}
			var ok bool
			if f, ok = r.(*Fault); !ok {
				t.Fatalf("panicked with %T (%v), want *Fault", r, r)
			}
		}()
		fn()
	}()
	if f.Kind != kind {
		t.Fatalf("fault kind %v, want %v (fault: %v)", f.Kind, kind, f)
	}
	return f
}

func TestTryNewRegionOOM(t *testing.T) {
	rt, _ := newRT(true)
	rt.Space().SetFaultPlan(&mem.FaultPlan{FailProb: 1, Seed: 1})
	r, err := rt.TryNewRegion()
	if r != nil || err == nil {
		t.Fatalf("TryNewRegion = (%v, %v), want (nil, error)", r, err)
	}
	if !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("error %v does not wrap mem.ErrOutOfMemory", err)
	}
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultOOM {
		t.Fatalf("error %v is not a FaultOOM *Fault", err)
	}
	// The failed create consumed no region id: the next create works and
	// the heap stays consistent.
	rt.Space().SetFaultPlan(nil)
	r2 := rt.NewRegion()
	if r2 == nil {
		t.Fatal("NewRegion after cleared plan failed")
	}
	if err := rt.Verify(); err != nil {
		t.Fatalf("Verify after failed create: %v", err)
	}
}

func TestTryAllocsOOMLeaveRegionUnchanged(t *testing.T) {
	rt, _ := newRT(true)
	r := rt.NewRegion()
	cln := rt.SizeCleanup(8)
	before := r.Bytes()

	rt.Space().SetFaultPlan(&mem.FaultPlan{FailProb: 1, Seed: 7})
	// A multi-page array allocation always needs fresh pages.
	if p, err := rt.TryRarrayAlloc(r, 4096, 8, cln); p != 0 || !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("TryRarrayAlloc = (%#x, %v), want OOM", p, err)
	}
	if p, err := rt.TryRstrAlloc(r, 4*mem.PageSize); p != 0 || !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("TryRstrAlloc = (%#x, %v), want OOM", p, err)
	}
	if p, err := rt.TryRalloc(r, 2*mem.PageSize, rt.SizeCleanup(2*mem.PageSize)); p != 0 || !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("TryRalloc = (%#x, %v), want OOM", p, err)
	}
	if r.Bytes() != before {
		t.Fatalf("failed allocations changed region byte count: %d -> %d", before, r.Bytes())
	}
	rt.Space().SetFaultPlan(nil)
	if err := rt.Verify(); err != nil {
		t.Fatalf("Verify after failed allocations: %v", err)
	}
	// The region still works.
	if p := rt.Ralloc(r, 8, cln); p == 0 {
		t.Fatal("Ralloc after cleared plan failed")
	}
	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestTryAllocGlobalsOOM(t *testing.T) {
	rt, _ := newRT(true)
	rt.Space().SetFaultPlan(&mem.FaultPlan{FailProb: 1, Seed: 3})
	if g, err := rt.TryAllocGlobals(8); g != 0 || !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("TryAllocGlobals = (%#x, %v), want OOM", g, err)
	}
	rt.Space().SetFaultPlan(nil)
	if g := rt.AllocGlobals(8); g == 0 {
		t.Fatal("AllocGlobals after cleared plan failed")
	}
}

func TestPanicPathsCarryTypedFaults(t *testing.T) {
	t.Run("oom", func(t *testing.T) {
		rt, _ := newRT(true)
		rt.Space().SetFaultPlan(&mem.FaultPlan{FailProb: 1, Seed: 1})
		f := recoverFault(t, FaultOOM, func() { rt.NewRegion() })
		if !errors.Is(f, mem.ErrOutOfMemory) {
			t.Fatalf("panic fault %v does not wrap ErrOutOfMemory", f)
		}
	})
	t.Run("deleted region", func(t *testing.T) {
		rt, _ := newRT(true)
		r := rt.NewRegion()
		if !rt.DeleteRegion(r) {
			t.Fatal("delete failed")
		}
		f := recoverFault(t, FaultDeletedRegion, func() { rt.Ralloc(r, 8, rt.SizeCleanup(8)) })
		if f.Region != r.id {
			t.Fatalf("fault region %d, want %d", f.Region, r.id)
		}
	})
	t.Run("stack underflow", func(t *testing.T) {
		rt, _ := newRT(true)
		recoverFault(t, FaultStackUnderflow, func() { rt.PopFrame() })
	})
	t.Run("rc underflow", func(t *testing.T) {
		rt, _ := newRT(true)
		r := rt.NewRegion()
		g := rt.AllocGlobals(1)
		p := rt.Ralloc(r, 8, rt.SizeCleanup(8))
		rt.StoreGlobalPtr(g, p)
		// Corrupt the stored count below the true external count, then
		// clear the global: the decrement underflows.
		rt.Space().Uncharged(func() { rt.Space().Store(r.hdr+offRC, 0) })
		recoverFault(t, FaultRCUnderflow, func() { rt.StoreGlobalPtr(g, 0) })
	})
	t.Run("dangling destroy", func(t *testing.T) {
		rt, _ := newRT(true)
		r := rt.NewRegion()
		p := rt.Ralloc(r, 8, rt.SizeCleanup(8))
		// Simulate the corruption this fault guards against: the region is
		// marked deleted but a pointer into it survives in a dying object.
		r.deleted = true
		recoverFault(t, FaultDanglingDestroy, func() { rt.Destroy(p) })
	})
	t.Run("corrupt header", func(t *testing.T) {
		rt, _ := newRT(true)
		r := rt.NewRegion()
		p := rt.Ralloc(r, 8, rt.SizeCleanup(8))
		rt.Space().Uncharged(func() { rt.Space().Store(p-4, 0xffff) })
		recoverFault(t, FaultCorruptHeader, func() { rt.DeleteRegion(r) })
	})
	// An outgoing counted pointer makes the deletion run the charged walk,
	// which must refuse the same corruption.
	t.Run("corrupt header general cleanup", func(t *testing.T) {
		rt, _ := newRT(true)
		r, other := rt.NewRegion(), rt.NewRegion()
		cln := rt.RegisterCleanup("node", func(rt *Runtime, obj Ptr) int {
			rt.Destroy(rt.Space().Load(obj))
			return 8
		})
		rt.StorePtr(rt.Ralloc(r, 8, cln), rt.Ralloc(other, 8, rt.SizeCleanup(8)))
		p := rt.Ralloc(r, 8, cln)
		rt.Space().Uncharged(func() { rt.Space().Store(p-4, 0xffff) })
		recoverFault(t, FaultCorruptHeader, func() { rt.DeleteRegion(r) })
	})
}

func TestFaultsEmitTraceEvents(t *testing.T) {
	rt, _ := newRT(true)
	tr := trace.New(64)
	rt.SetTracer(tr)
	rt.Space().SetFaultPlan(&mem.FaultPlan{FailProb: 1, Seed: 1})
	if _, err := rt.TryNewRegion(); err == nil {
		t.Fatal("expected OOM")
	}
	var found bool
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindFault && ev.Aux == int32(FaultOOM) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no KindFault event with Aux=FaultOOM in trace: %v", tr.Events())
	}
}

func TestFaultErrorFormatting(t *testing.T) {
	f := &Fault{Kind: FaultRCUnderflow, Addr: 0x2000, Region: 3, Context: "reference count underflow"}
	msg := f.Error()
	if msg == "" || f.Kind.String() != "rc-underflow" {
		t.Fatalf("unexpected formatting: %q / %q", msg, f.Kind.String())
	}
	for k := FaultOOM; k <= FaultInvariant; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

// TestEveryAllocatorSurvivesInjectedFailure is the acceptance test for the
// core runtime: under a seeded fault plan every allocation either succeeds
// or reports a typed OOM, and the heap verifies after each step.
func TestEveryAllocatorSurvivesInjectedFailure(t *testing.T) {
	for _, safe := range []bool{true, false} {
		name := "unsafe"
		if safe {
			name = "safe"
		}
		t.Run(name, func(t *testing.T) {
			rt, _ := newRT(safe)
			rt.Space().SetFaultPlan(&mem.FaultPlan{FailProb: 0.4, Seed: 99})
			cln := rt.SizeCleanup(16)
			var regions []*Region
			ooms := 0
			for i := 0; i < 60; i++ {
				r, err := rt.TryNewRegion()
				if err != nil {
					if !errors.Is(err, mem.ErrOutOfMemory) {
						t.Fatalf("untyped error: %v", err)
					}
					ooms++
					continue
				}
				regions = append(regions, r)
				for j := 0; j < 4; j++ {
					var err error
					switch j % 3 {
					case 0:
						_, err = rt.TryRalloc(r, 16, cln)
					case 1:
						_, err = rt.TryRarrayAlloc(r, 300, 16, cln)
					case 2:
						_, err = rt.TryRstrAlloc(r, 600)
					}
					if err != nil {
						if !errors.Is(err, mem.ErrOutOfMemory) {
							t.Fatalf("untyped error: %v", err)
						}
						ooms++
					}
				}
				if err := rt.Verify(); err != nil {
					t.Fatalf("Verify after round %d: %v", i, err)
				}
			}
			if ooms == 0 {
				t.Fatal("fault plan injected no failures; test is vacuous")
			}
			// Recovery: clear the plan, delete everything, verify.
			rt.Space().SetFaultPlan(nil)
			for _, r := range regions {
				if !rt.DeleteRegion(r) {
					t.Fatalf("delete of %v failed", r)
				}
			}
			if err := rt.Verify(); err != nil {
				t.Fatalf("Verify after drain: %v", err)
			}
		})
	}
}
