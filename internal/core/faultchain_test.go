package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"regions/internal/mem"
)

// catchFault runs fn and returns the error it panicked with (nil if it
// returned normally). Panics carrying non-error values fail the test: every
// runtime panic is supposed to be a *Fault.
func catchFault(t *testing.T, fn func()) (err error) {
	t.Helper()
	defer func() {
		switch r := recover().(type) {
		case nil:
		case error:
			err = r
		default:
			t.Fatalf("panic carried a non-error value: %v", r)
		}
	}()
	fn()
	return nil
}

// TestFaultErrorChains triggers every fault kind and checks the full error
// chain each one promises: errors.As reaches the *Fault, the kind and its
// kebab-case name are right, and errors.Is(err, mem.ErrOutOfMemory) holds
// exactly for OOM faults (which must also expose the *mem.OOMError they
// wrap). All kinds but one are produced by real misuse through the public
// API; FaultDanglingDestroy is constructed directly, because deletion
// clears page ownership before a region is ever observable as deleted, so
// no pointer a cleanup can legally hold still translates to a deleted
// region — the check is defense in depth against a corrupted page index.
func TestFaultErrorChains(t *testing.T) {
	cases := []struct {
		name    string
		kind    FaultKind
		wantOOM bool
		trigger func(t *testing.T) error
	}{
		{
			name: "oom", kind: FaultOOM, wantOOM: true,
			trigger: func(t *testing.T) error {
				rt, _ := newRT(true)
				rt.Space().SetFaultPlan(&mem.FaultPlan{FailNth: 1})
				_, err := rt.TryNewRegion()
				return err
			},
		},
		{
			name: "oom-page-limit", kind: FaultOOM, wantOOM: true,
			trigger: func(t *testing.T) error {
				rt, _ := newRT(true)
				rt.Space().SetPageLimit(2)
				r := rt.NewRegion()
				_, err := rt.TryRstrAlloc(r, 8*mem.PageSize)
				return err
			},
		},
		{
			name: "rc-underflow", kind: FaultRCUnderflow,
			trigger: func(t *testing.T) error {
				rt, _ := newRT(true)
				a, b := rt.NewRegion(), rt.NewRegion()
				cln := rt.SizeCleanup(8)
				q := rt.Ralloc(b, 8, cln)
				p := rt.Ralloc(a, 8, cln)
				// Smuggle a cross-region pointer past the write barrier: b's
				// count was never incremented, so the barrier's decrement on
				// overwrite underflows.
				rt.Space().Store(p, q)
				return catchFault(t, func() { rt.StorePtr(p, 0) })
			},
		},
		{
			name: "corrupt-header", kind: FaultCorruptHeader,
			trigger: func(t *testing.T) error {
				rt, _ := newRT(true)
				r := rt.NewRegion()
				p := rt.Ralloc(r, 16, rt.SizeCleanup(16))
				// Stomp the object header with a value that is no registered
				// cleanup id; the deletion's cleanup walk must refuse it.
				rt.Space().Store(p-mem.WordSize, 0x0ffffff0)
				return catchFault(t, func() { rt.DeleteRegion(r) })
			},
		},
		{
			name: "corrupt-header-general-cleanup", kind: FaultCorruptHeader,
			trigger: func(t *testing.T) error {
				rt, _ := newRT(true)
				r, other := rt.NewRegion(), rt.NewRegion()
				cln := rt.RegisterCleanup("node", func(rt *Runtime, obj Ptr) int {
					rt.Destroy(rt.Space().Load(obj))
					return 16
				})
				rt.StorePtr(rt.Ralloc(r, 16, cln), rt.Ralloc(other, 8, rt.SizeCleanup(8)))
				p := rt.Ralloc(r, 16, cln)
				// The outgoing counted pointer makes the deletion run the
				// charged walk, which must refuse the stomped header just
				// the same.
				rt.Space().Store(p-mem.WordSize, 0x0ffffff0)
				return catchFault(t, func() { rt.DeleteRegion(r) })
			},
		},
		{
			name: "deleted-region", kind: FaultDeletedRegion,
			trigger: func(t *testing.T) error {
				rt, _ := newRT(true)
				r := rt.NewRegion()
				if !rt.DeleteRegion(r) {
					t.Fatal("delete refused")
				}
				_, err := rt.TryDeleteRegion(r)
				return err
			},
		},
		{
			name: "detached-region", kind: FaultDetachedRegion,
			trigger: func(t *testing.T) error {
				rt, _ := newRTOpts(Options{Safe: true, DeferredDelete: true})
				r := rt.NewRegion()
				rt.RstrAlloc(r, 600)
				if !rt.DeleteRegion(r) {
					t.Fatal("delete refused")
				}
				_, err := rt.TryRalloc(r, 8, rt.SizeCleanup(8))
				return err
			},
		},
		{
			name: "migrated-region", kind: FaultMigratedRegion,
			trigger: func(t *testing.T) error {
				rt, _ := newRT(true)
				r := rt.NewRegion()
				rt.Ralloc(r, 8, rt.SizeCleanup(8))
				if _, err := rt.ExportRegion(r); err != nil {
					t.Fatalf("export: %v", err)
				}
				_, err := rt.TryRalloc(r, 8, rt.SizeCleanup(8))
				return err
			},
		},
		{
			name: "stack-underflow", kind: FaultStackUnderflow,
			trigger: func(t *testing.T) error {
				rt, _ := newRT(true)
				return catchFault(t, func() { rt.PopFrame() })
			},
		},
		{
			name: "invariant", kind: FaultInvariant,
			trigger: func(t *testing.T) error {
				rt, _ := newRT(true)
				r := rt.NewRegion()
				p := rt.RstrAlloc(r, 64)
				if !rt.DeleteRegion(r) {
					t.Fatal("delete refused")
				}
				// Scribble into the freed, poisoned page; Verify's free-page
				// check must report it.
				rt.Space().Store(p, 5)
				return rt.Verify()
			},
		},
		{
			name: "uncounted-pointer", kind: FaultUncountedPointer,
			trigger: func(t *testing.T) error {
				rt, _ := newRT(true)
				a, b := rt.NewRegion(), rt.NewRegion()
				cln := rt.RegisterCleanup("ref", refCleanup)
				// A raw store smuggles a cross-region pointer past the
				// barrier, so a's outgoing count stays zero; the check walk
				// that replaces its cleanup walk must refuse the deletion.
				rt.Space().Store(rt.Ralloc(a, 8, cln), rt.Ralloc(b, 8, cln))
				_, err := rt.TryDeleteRegion(a)
				return err
			},
		},
		{
			name: "dangling-destroy", kind: FaultDanglingDestroy,
			trigger: func(t *testing.T) error {
				// Synthetic (see the test comment): exercises the chain
				// mechanics through an extra wrapping layer.
				return fmt.Errorf("cleanup walk: %w",
					&Fault{Kind: FaultDanglingDestroy, Addr: 0x2000, Region: 3,
						Context: "Destroy found a pointer into a deleted region"})
			},
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := tc.trigger(t)
			if err == nil {
				t.Fatal("trigger produced no error")
			}
			var f *Fault
			if !errors.As(err, &f) {
				t.Fatalf("error does not unwrap to *Fault: %v", err)
			}
			if f.Kind != tc.kind {
				t.Fatalf("fault kind %v (%q), want %v", f.Kind, f.Kind, tc.kind)
			}
			if !strings.Contains(f.Error(), f.Kind.String()) {
				t.Fatalf("fault message %q does not name its kind %q", f.Error(), f.Kind)
			}
			if got := errors.Is(err, mem.ErrOutOfMemory); got != tc.wantOOM {
				t.Fatalf("errors.Is(err, ErrOutOfMemory) = %v, want %v (err: %v)", got, tc.wantOOM, err)
			}
			var oe *mem.OOMError
			if got := errors.As(err, &oe); got != tc.wantOOM {
				t.Fatalf("errors.As(err, *mem.OOMError) = %v, want %v (err: %v)", got, tc.wantOOM, err)
			}
		})
	}
}
