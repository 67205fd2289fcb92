package core

import (
	"errors"
	"strings"
	"testing"

	"regions/internal/mem"
)

// walkHeap is one region laid out for TestWalkerRefusals: a general-cleanup
// object, an array of size-only elements, and a second general-cleanup
// object, in that order on the region's home page.
type walkHeap struct {
	rt     *Runtime
	r      *Region
	arr, b Ptr    // data addresses of the array and the second object
	bad    Ptr    // header address of the corrupted object, if any
	sum    uint32 // r's ContentChecksum after the corruption
}

// untouched fails t unless h.r is still live, in place and unchanged.
func (h walkHeap) untouched(t *testing.T) {
	t.Helper()
	if h.r.Deleted() || h.r.Migrated() {
		t.Fatalf("refused walk left %v", h.r)
	}
	if got := h.rt.ContentChecksum(h.r); got != h.sum {
		t.Fatalf("refused walk changed the region: digest %#x, want %#x", got, h.sum)
	}
}

// wantFault fails t unless err is a *Fault of kind at h's corrupted header.
func (h walkHeap) wantFault(t *testing.T, err error, kind FaultKind, substr string) {
	t.Helper()
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("error %v, want a *Fault of kind %v", err, kind)
	}
	if f.Kind != kind || f.Addr != h.bad || f.Region != h.r.id || !strings.Contains(f.Context, substr) {
		t.Fatalf("fault %v, want kind %v at %#x in region#%d mentioning %q",
			f, kind, h.bad, h.r.id, substr)
	}
}

// TestWalkerRefusals drives every walk of a region's objects over the same
// two corruptions — an object header naming no registered cleanup, and an
// array whose element count carries its extent past its page entry — and
// checks each walk's refusal: the fault kind, address, region and message,
// and that a refusing walk leaves the region as it was. The import row
// corrupts the record instead: an object names a cleanup the record's
// table lacks, and the import must fail and roll back.
func TestWalkerRefusals(t *testing.T) {
	build := func(t *testing.T, outgoing bool, corrupt string) walkHeap {
		rt, _ := newRT(true)
		node := rt.RegisterCleanup("node", func(rt *Runtime, obj Ptr) int {
			rt.Destroy(rt.Space().Load(obj))
			return 8
		})
		other := rt.NewRegion()
		r := rt.NewRegion()
		a := rt.Ralloc(r, 8, node)
		h := walkHeap{rt: rt, r: r, arr: rt.RarrayAlloc(r, 4, 8, rt.SizeCleanup(8)), b: rt.Ralloc(r, 8, node)}
		if outgoing {
			rt.StorePtr(a, rt.Ralloc(other, 8, rt.SizeCleanup(8)))
		}
		rt.Space().Uncharged(func() {
			switch corrupt {
			case "header":
				h.bad = h.b - mem.WordSize
				rt.Space().Store(h.bad, 0x0ffffff0)
			case "extent":
				h.bad = h.arr - 3*mem.WordSize
				rt.Space().Store(h.bad+4, mem.PageSize) // element count
			}
		})
		h.sum = rt.ContentChecksum(r)
		return h
	}
	heapReport := func(t *testing.T, h walkHeap, substr string) {
		t.Helper()
		rep, err := h.rt.HeapReport()
		if rep != nil {
			t.Fatal("HeapReport returned a report for a corrupt heap")
		}
		h.wantFault(t, err, FaultInvariant, substr)
	}

	cases := []struct {
		name     string
		corrupt  string // "header", "extent" or "record"
		outgoing bool
		check    func(t *testing.T, h walkHeap)
	}{
		{"DeleteRegion/charged", "header", true, func(t *testing.T, h walkHeap) {
			f := recoverFault(t, FaultCorruptHeader, func() { h.rt.DeleteRegion(h.r) })
			h.wantFault(t, f, FaultCorruptHeader, "corrupt object header 0xffffff0")
		}},
		{"TryDeleteRegion/check", "header", false, func(t *testing.T, h walkHeap) {
			ok, err := h.rt.TryDeleteRegion(h.r)
			if ok {
				t.Fatal("TryDeleteRegion deleted a region with a corrupt header")
			}
			h.wantFault(t, err, FaultCorruptHeader, "corrupt object header 0xffffff0")
			h.untouched(t)
		}},
		{"Verify/header", "header", false, func(t *testing.T, h walkHeap) {
			h.wantFault(t, h.rt.Verify(), FaultInvariant, "corrupt object header 0xffffff0")
		}},
		{"Verify/extent", "extent", false, func(t *testing.T, h walkHeap) {
			h.wantFault(t, h.rt.Verify(), FaultInvariant, "runs past its page entry")
		}},
		{"HeapReport/header", "header", false, func(t *testing.T, h walkHeap) {
			heapReport(t, h, "corrupt object header 0xffffff0")
		}},
		{"HeapReport/extent", "extent", false, func(t *testing.T, h walkHeap) {
			heapReport(t, h, "runs past its page entry")
		}},
		{"ExportRegion", "header", false, func(t *testing.T, h walkHeap) {
			if h.rt.Exportable(h.r) {
				t.Fatal("Exportable true for a region with a corrupt header")
			}
			rec, err := h.rt.ExportRegion(h.r)
			if rec != nil {
				t.Fatal("ExportRegion returned a record for a corrupt region")
			}
			h.wantFault(t, err, FaultCorruptHeader, "corrupt object header 0xffffff0")
			h.untouched(t)
		}},
		{"ImportRegion", "record", false, func(t *testing.T, h walkHeap) {
			rec, err := h.rt.ExportRegion(h.r)
			if err != nil {
				t.Fatal(err)
			}
			dst, _ := newRT(true)
			dst.RegisterCleanup("node", listCleanup)
			dst.SizeCleanup(8)
			full := rec.Cleanups
			rec.Cleanups = nil
			for _, ref := range full {
				if ref.Name != "node" {
					rec.Cleanups = append(rec.Cleanups, ref)
				}
			}
			imp, err := dst.ImportRegion(rec)
			if imp != nil || err == nil || !strings.Contains(err.Error(), "names a cleanup missing from the record") {
				t.Fatalf("import of a record missing a used cleanup = (%v, %v)", imp, err)
			}
			if n := len(dst.LiveRegions()); n != 0 {
				t.Fatalf("failed import left %d live regions", n)
			}
			if err := dst.Verify(); err != nil {
				t.Fatalf("receiver verify after failed import: %v", err)
			}
			rec.Cleanups = full
			if imp, err = dst.ImportRegion(rec); err != nil {
				t.Fatalf("import of the whole record: %v", err)
			}
			if got := dst.ContentChecksum(imp); got != h.sum {
				t.Fatalf("imported digest %#x, want %#x", got, h.sum)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.check(t, build(t, c.outgoing, c.corrupt))
		})
	}
}
