package shard

import (
	"fmt"

	"regions/internal/apps/appkit"
	"regions/internal/core"
	"regions/internal/trace"
)

// This file is the engine's region-migration layer: MigrateRegion moves a
// quiesced region from one shard runtime to another.
//
// Work stealing moves *tasks*, but a task pinned to the shard that owns its
// regions cannot move — a tenant whose state lives on shard 0 hammers shard
// 0 no matter how idle its siblings are. Migration moves the *state*: the
// donor exports a quiesced region (core.ExportRegion serializes pages and
// remaps nothing), the receiver imports it into its own address space
// (core.ImportRegion rewrites intra-region pointers in O(pages)), and from
// then on the tenant's pinned tasks land on the receiver. Both steps run as
// pinned tasks on the owning workers, so each runtime is only ever touched
// by its own goroutine — the shared-nothing discipline survives. The
// driver decides what moves and when: internal/serve rebalances its tenants
// at the resize barrier, on the simulated clock.
//
// Checksum discipline: migration tasks return checksum 0, and region
// content is placement-independent by construction (core.ContentChecksum),
// so an engine's summed checksum is bit-identical with migration on or off
// — the determinism gate extends across migration.

// migrationCycleBounds buckets the simulated cost of one migration
// (export + import task cycles) for the regions_migration_cycles histogram.
var migrationCycleBounds = []uint64{
	1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20,
}

// Migration describes one region moved between shards.
type Migration struct {
	// From and To are the donor and receiver shard indexes; they are equal
	// when a refused import put the region back on the donor.
	From, To int
	// Old is the donor-side handle, now migrated: any use faults with
	// core.FaultMigratedRegion. New is the live handle on shard To.
	Old, New *core.Region
	// Rec is the transfer record; Rec.Translate maps pointers the driver
	// captured into the old placement onto the new one.
	Rec *core.RegionRecord
	// Pages is the page count moved.
	Pages int
	// Cycles is the simulated cost of the move: the cycle windows of its
	// export and import tasks summed.
	Cycles uint64
}

// Migrations returns the engine's totals: completed migrations and pages
// moved.
func (e *Engine) Migrations() (count, pages uint64) {
	return e.migrations.Load(), e.migratedPages.Load()
}

// onShard runs fn as a pinned task on w, with exclusive access to w's
// runtime, and waits for it. The runtime must verify clean after an fn that
// returns nil. It returns fn's error — or the task's, when fn or Verify
// panicked — and the task's simulated cycles, which it brackets in a
// migrate span on w's track.
func (e *Engine) onShard(w *worker, name string, fn func(rt *core.Runtime) error) (uint64, error) {
	var fnErr error
	done := make(chan TaskResult, 1)
	e.pinOn(w, Task{
		Name: name,
		Pin:  true,
		Run: func(appkit.RegionEnv) uint32 {
			rt := w.env.Runtime()
			if fnErr = fn(rt); fnErr == nil {
				if err := rt.Verify(); err != nil {
					panic(err)
				}
			}
			return 0
		},
		Done: func(res TaskResult) {
			e.emitSpan(trace.SpanMigrate, res.Shard, res.StartCycles, res.EndCycles)
			done <- res
		},
	})
	res := <-done
	cycles := res.EndCycles - res.StartCycles
	if res.Err != nil {
		return cycles, res.Err
	}
	return cycles, fnErr
}

// MigrateRegion moves r from shard from to shard to and returns the
// completed Migration. The export and import run as pinned tasks on the
// owning workers, each verifying its runtime; between them the region
// exists only as a serialized record, and afterwards r faults with
// core.FaultMigratedRegion while Migration.New is the live handle.
//
// The region must be quiescent: unreferenced from other regions, frames,
// and globals, with no outbound cross-region pointers (else
// core.ErrExportReferenced / core.ErrExportCrossRegion, with r untouched).
// If the receiver cannot place the pages (an OOM, matching
// mem.ErrOutOfMemory), the record is re-imported into the donor and the
// error is returned together with a Migration whose To is from and whose
// New is the restored handle — r is already a tombstone, so New is the only
// way back to the region. A rollback is not counted in Migrations.
//
// MigrateRegion blocks on worker queues and must not be called from a task
// or Done callback (a worker waiting on its own queue deadlocks).
func (e *Engine) MigrateRegion(r *core.Region, from, to int) (Migration, error) {
	if r == nil {
		return Migration{}, fmt.Errorf("shard: MigrateRegion: nil region")
	}
	e.resizeMu.Lock()
	defer e.resizeMu.Unlock()
	ws := e.workers()
	if from < 0 || from >= len(ws) || to < 0 || to >= len(ws) {
		return Migration{}, fmt.Errorf("shard: MigrateRegion(%d, %d): engine has %d shards", from, to, len(ws))
	}
	if from == to {
		return Migration{}, fmt.Errorf("shard: MigrateRegion: donor and receiver are both shard %d", from)
	}
	m := Migration{From: from, To: to, Old: r}
	cycles, err := e.onShard(ws[from], "migrate-export", func(rt *core.Runtime) (err error) {
		m.Rec, err = rt.ExportRegion(r)
		return err
	})
	if err != nil {
		return Migration{}, fmt.Errorf("shard: export from shard %d: %w", from, err)
	}
	m.Pages, m.Cycles = m.Rec.Pages, cycles
	importTo := func(i int) error {
		cycles, err := e.onShard(ws[i], "migrate-import", func(rt *core.Runtime) (err error) {
			m.New, err = rt.ImportRegion(m.Rec)
			return err
		})
		m.Cycles += cycles
		return err
	}
	if err := importTo(to); err != nil {
		// The receiver refused the region; put it back where it was.
		m.To = from
		if backErr := importTo(from); backErr != nil {
			return Migration{}, fmt.Errorf("shard: import into shard %d failed (%v) and rollback into shard %d failed: %w",
				to, err, from, backErr)
		}
		return m, fmt.Errorf("shard: import into shard %d (rolled back): %w", to, err)
	}
	e.migrations.Add(1)
	e.migratedPages.Add(uint64(m.Pages))
	if e.migTotal != nil {
		e.migTotal.Inc()
		e.migPages.Add(uint64(m.Pages))
		e.migCycles.Observe(m.Cycles)
	}
	return m, nil
}
