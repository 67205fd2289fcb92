package core

import (
	"fmt"

	"regions/internal/stats"
	"regions/internal/trace"
)

// CleanupID identifies a registered cleanup function. The zero value is not
// a valid id; every ralloc'd object carries one, as in the paper, where the
// cleanup pointer doubles as the object header and a NULL header marks the
// end of a page's filled prefix (Figure 7).
type CleanupID int32

// CleanupFunc is the paper's cleanup_t: given the address of an object's
// data, it must call rt.Destroy on every region pointer stored in the object
// and return the object's data size in bytes. For array allocations the same
// function is applied per element (the count and element size are stored in
// the array header) and its return value is ignored.
//
// The user supplies cleanups for the same reason the paper requires them: in
// C, unions make it impossible for the compiler to locate region pointers.
// Cleanups also provide object finalization.
type CleanupFunc func(rt *Runtime, obj Ptr) int

type cleanupEntry struct {
	name string
	fn   CleanupFunc
}

// RegisterCleanup registers fn under a diagnostic name and returns its id.
// The runtime treats every cleanup alike: fn may call Destroy. It is
// called, charged, when a region that holds outgoing counted pointers is
// deleted; in any other region it is only dry-run, uncharged, to check that
// it finds no pointer the region's count missed (see runCleanups).
func (rt *Runtime) RegisterCleanup(name string, fn CleanupFunc) CleanupID {
	if fn == nil {
		panic("core: nil cleanup function")
	}
	rt.cleanups = append(rt.cleanups, cleanupEntry{name: name, fn: fn})
	return CleanupID(len(rt.cleanups))
}

// RegisterSizeCleanup registers, under a diagnostic name, a cleanup for
// objects of exactly size bytes that hold no counted region pointers: it
// calls no Destroy and returns size. It is a registration helper; deletion
// calls it like any other cleanup.
func (rt *Runtime) RegisterSizeCleanup(name string, size int) CleanupID {
	if size < 0 {
		panic("core: negative cleanup size")
	}
	return rt.RegisterCleanup(name, func(*Runtime, Ptr) int { return size })
}

// SizeCleanup returns the size-only cleanup "size<n>" for pointer-free
// objects of exactly size bytes (see RegisterSizeCleanup). Results are
// cached per size. Such objects could use RstrAlloc instead; SizeCleanup
// exists for data that must live among scanned objects or wants ralloc's
// clearing.
func (rt *Runtime) SizeCleanup(size int) CleanupID {
	if rt.sizeCleanups == nil {
		rt.sizeCleanups = make(map[int]CleanupID)
	}
	if id, ok := rt.sizeCleanups[size]; ok {
		return id
	}
	id := rt.RegisterSizeCleanup(fmt.Sprintf("size%d", size), size)
	rt.sizeCleanups[size] = id
	return id
}

// registered reports whether id names a cleanup registered on rt.
func (rt *Runtime) registered(id CleanupID) bool { return id > 0 && int(id) <= len(rt.cleanups) }

// encodeCleanup builds the object header word: id (1-based, so headers are
// never zero) plus an array flag bit.
func (rt *Runtime) encodeCleanup(cln CleanupID, array bool) Word {
	if !rt.registered(cln) {
		panic(fmt.Sprintf("core: invalid cleanup id %d", cln))
	}
	w := Word(cln)
	if array {
		w |= arrayFlag
	}
	return w
}

// Destroy is called by cleanup functions on every region pointer in a dying
// object (the paper's destroy). It decrements the target region's reference
// count unless the pointer is nil, points outside any region, or points back
// into the region being deleted (sameregion pointers were never counted).
// During the check walk of a region with no outgoing counted pointers it
// changes nothing and only checks the pointer (see checkDestroy).
func (rt *Runtime) Destroy(p Ptr) {
	if !rt.safe || rt.verifying {
		return
	}
	if rt.checking {
		rt.checkDestroy(p)
		return
	}
	rt.c.DestroyCalls++
	rt.charge(stats.ModeCleanup, 2)
	if p == 0 {
		return
	}
	reg := rt.RegionOf(p)
	if reg == nil || reg == rt.deleting {
		return
	}
	if reg.deleted {
		panic(rt.fault(FaultDanglingDestroy, p, reg.id,
			"Destroy found a pointer into a deleted region", nil))
	}
	rt.rcDec(reg)
	if o := rt.obs; o != nil {
		o.event(trace.Event{Kind: trace.KindDestroy, Addr: p, Region: reg.id, Aux: -1})
	}
}

// checkDestroy is Destroy in the check walk of a region whose outgoing
// count is zero. The pointer may be nil, outside every region, or into the
// dying region itself; a pointer into a deleted region faults exactly as
// Destroy does, and one into another live region faults too, because the
// zero count says no such pointer was stored through the barrier. It looks
// the page up directly, leaving the translation cache as it was.
func (rt *Runtime) checkDestroy(p Ptr) {
	reg := rt.pages.lookup(p)
	if reg == nil || reg == rt.deleting {
		return
	}
	if reg.deleted {
		panic(rt.fault(FaultDanglingDestroy, p, reg.id,
			"Destroy found a pointer into a deleted region", nil))
	}
	panic(rt.fault(FaultUncountedPointer, p, rt.deleting.id,
		fmt.Sprintf("Destroy found a pointer into region#%d in a region whose outgoing count is zero",
			reg.id), nil))
}

// runCleanups runs r's cleanups at deletion. It walks r's objects and
// invokes each one's cleanup, following Figure 7 of the paper (see
// forEachObject).
//
// Only a region holding outgoing counted pointers (r.out > 0), or every
// region under Options.NoCleanupSkip, runs that charged walk: in any other
// region no Destroy can change a count. Those regions get a check walk
// instead, with charging off as in Verify: every cleanup is dry-run with
// Destroy only checking its pointer, and no cleanup is charged, counted or
// traced. A corrupt header, or a pointer into a deleted region or into a
// live region the count missed, is returned as a *Fault before the region
// changes. The charged walk panics with the same faults.
func (rt *Runtime) runCleanups(r *Region) *Fault {
	if r.out == 0 && !rt.opts.NoCleanupSkip {
		return rt.checkWalk(r)
	}
	old := rt.space.SetMode(stats.ModeCleanup)
	defer rt.space.SetMode(old)
	rt.deleting = r
	defer func() { rt.deleting = nil }()
	rt.cleanupWalk(r, true)
	return nil
}

// checkWalk is runCleanups' uncharged check walk. It recovers the *Fault
// that a header check or a checking Destroy panics with, so the caller can
// refuse the deletion.
func (rt *Runtime) checkWalk(r *Region) (f *Fault) {
	rt.deleting, rt.checking = r, true
	defer func() {
		rt.deleting, rt.checking = nil, false
		if p := recover(); p != nil {
			var ok bool
			if f, ok = p.(*Fault); !ok {
				panic(p)
			}
		}
	}()
	rt.space.Uncharged(func() { rt.cleanupWalk(r, false) })
	return nil
}

// cleanupWalk is runCleanups' object walk: it calls every object's cleanup,
// once per element for an array. With charged set it also charges, counts
// and traces each object, the charge landing before the header check as
// the paper's loop pays it.
func (rt *Runtime) cleanupWalk(r *Region, charged bool) {
	err := rt.forEachObject(r.hdr, rt.registered, func(o object) (int, error) {
		if charged {
			rt.c.CleanupCalls++
			rt.charge(stats.ModeCleanup, 3)
		}
		if !o.known {
			return 0, rt.fault(FaultCorruptHeader, o.at, r.id,
				fmt.Sprintf("corrupt object header %#x", o.hdr), nil)
		}
		cln := &rt.cleanups[o.id-1]
		size := o.size
		if o.n < 0 {
			size = align4(cln.fn(rt, o.data))
		}
		for i := 0; i < o.n; i++ {
			cln.fn(rt, o.data+Ptr(i*o.esz))
		}
		if ob := rt.obs; ob != nil && charged {
			ob.event(trace.Event{Kind: trace.KindCleanup, Region: r.id, Addr: o.data,
				Size: int32(size), Aux: int32(o.n), Site: cln.name})
		}
		return size, nil
	})
	if err != nil {
		panic(err)
	}
}
