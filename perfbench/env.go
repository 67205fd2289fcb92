package main

import (
	"slices"
	"time"

	"regions/internal/apps/appkit"
)

// Calls into the region runtime that the decorator times. The first eight
// are the per-layer host_ns metrics; the rest still count toward the
// per-call simulated latency population.
const (
	opNewRegion = iota
	opDeleteRegion
	opRalloc
	opRarrayAlloc
	opRstrAlloc
	opRstrFree
	opStorePtr
	opPushFrame
	opPopFrame
	opStoreGlobalPtr
	opDestroy
	numOps
)

var opNames = [numOps]string{
	"newregion", "deleteregion", "ralloc", "rarrayalloc", "rstralloc",
	"rstrfree", "storeptr", "pushframe", "popframe", "storeglobalptr", "destroy",
}

// hostTimedOps is how many leading ops report host_ns.
const hostTimedOps = opPushFrame + 1

// callStats is what the decorator records about one op.
type callStats struct {
	calls  uint64
	hostNS int64
}

// cycleHist is an exact histogram of simulated cycles per call: dense for
// the small values nearly every call takes, a map above.
type cycleHist struct {
	dense [4096]uint64
	over  map[uint64]uint64
	n     uint64
}

func (h *cycleHist) add(v uint64) {
	h.n++
	if v < uint64(len(h.dense)) {
		h.dense[v]++
		return
	}
	if h.over == nil {
		h.over = map[uint64]uint64{}
	}
	h.over[v]++
}

func (h *cycleHist) merge(o *cycleHist) {
	for v, c := range o.dense {
		h.dense[v] += c
	}
	for v, c := range o.over {
		if h.over == nil {
			h.over = map[uint64]uint64{}
		}
		h.over[v] += c
	}
	h.n += o.n
}

// quantile returns the ceil(q*n)-th smallest value, the same order
// statistic trace.QuantileExact takes.
func (h *cycleHist) quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for v, c := range h.dense {
		seen += c
		if seen >= rank {
			return uint64(v)
		}
	}
	keys := make([]uint64, 0, len(h.over))
	for v := range h.over {
		keys = append(keys, v)
	}
	slices.Sort(keys)
	for _, v := range keys {
		seen += h.over[v]
		if seen >= rank {
			return v
		}
	}
	return keys[len(keys)-1]
}

// meteredEnv decorates the RegionEnv handed to an app: every top-level
// call into the runtime is counted, its host time measured, and the
// simulated cycles it charged recorded in an exact histogram. Calls the
// runtime makes back into the app (cleanups destroying nested regions) are
// part of the enclosing call and are not recorded on their own. It reads
// counters only, so the simulated machine runs exactly as undecorated. A
// panicking call leaves the depth unbalanced; runApp discards the env.
type meteredEnv struct {
	appkit.RegionEnv
	depth int
	ops   [numOps]callStats
	hist  cycleHist
	// hostClock switches host timing on; the oracle pass leaves it off
	// and records simulated cycles only.
	hostClock bool
}

func (e *meteredEnv) enter() (uint64, time.Time) {
	e.depth++
	if e.depth > 1 {
		return 0, time.Time{}
	}
	var t time.Time
	if e.hostClock {
		t = time.Now()
	}
	return e.Counters().TotalCycles(), t
}

func (e *meteredEnv) exit(op int, cyc uint64, t time.Time) {
	e.depth--
	if e.depth > 0 {
		return
	}
	s := &e.ops[op]
	s.calls++
	if e.hostClock {
		s.hostNS += int64(time.Since(t))
	}
	e.hist.add(e.Counters().TotalCycles() - cyc)
}

func (e *meteredEnv) NewRegion() appkit.Region {
	c, t := e.enter()
	v := e.RegionEnv.NewRegion()
	e.exit(opNewRegion, c, t)
	return v
}

func (e *meteredEnv) DeleteRegion(r appkit.Region) bool {
	c, t := e.enter()
	v := e.RegionEnv.DeleteRegion(r)
	e.exit(opDeleteRegion, c, t)
	return v
}

func (e *meteredEnv) Ralloc(r appkit.Region, size int, cln appkit.CleanupID) appkit.Ptr {
	c, t := e.enter()
	v := e.RegionEnv.Ralloc(r, size, cln)
	e.exit(opRalloc, c, t)
	return v
}

func (e *meteredEnv) RarrayAlloc(r appkit.Region, n, elemSize int, cln appkit.CleanupID) appkit.Ptr {
	c, t := e.enter()
	v := e.RegionEnv.RarrayAlloc(r, n, elemSize, cln)
	e.exit(opRarrayAlloc, c, t)
	return v
}

func (e *meteredEnv) RstrAlloc(r appkit.Region, size int) appkit.Ptr {
	c, t := e.enter()
	v := e.RegionEnv.RstrAlloc(r, size)
	e.exit(opRstrAlloc, c, t)
	return v
}

func (e *meteredEnv) RstrFree(r appkit.Region, p appkit.Ptr, size int) {
	c, t := e.enter()
	e.RegionEnv.RstrFree(r, p, size)
	e.exit(opRstrFree, c, t)
}

func (e *meteredEnv) StorePtr(slot, val appkit.Ptr) {
	c, t := e.enter()
	e.RegionEnv.StorePtr(slot, val)
	e.exit(opStorePtr, c, t)
}

func (e *meteredEnv) StoreGlobalPtr(slot, val appkit.Ptr) {
	c, t := e.enter()
	e.RegionEnv.StoreGlobalPtr(slot, val)
	e.exit(opStoreGlobalPtr, c, t)
}

func (e *meteredEnv) PushFrame(n int) appkit.Frame {
	c, t := e.enter()
	v := e.RegionEnv.PushFrame(n)
	e.exit(opPushFrame, c, t)
	return v
}

func (e *meteredEnv) PopFrame() {
	c, t := e.enter()
	e.RegionEnv.PopFrame()
	e.exit(opPopFrame, c, t)
}

func (e *meteredEnv) Destroy(p appkit.Ptr) {
	c, t := e.enter()
	e.RegionEnv.Destroy(p)
	e.exit(opDestroy, c, t)
}

// RegisterCleanup hands cleanups the decorator, so the Destroy calls they
// make are seen (as nested calls) rather than bypassing it.
func (e *meteredEnv) RegisterCleanup(name string, fn appkit.CleanupFunc) appkit.CleanupID {
	return e.RegionEnv.RegisterCleanup(name, func(_ appkit.RegionEnv, obj appkit.Ptr) int {
		return fn(e, obj)
	})
}
