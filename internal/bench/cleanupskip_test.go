package bench

import (
	"fmt"
	"reflect"
	"testing"

	"regions/internal/apps/appkit"
	"regions/internal/core"
	"regions/internal/stats"
)

// skipRun is what one app run on one cleanup arm leaves behind.
type skipRun struct {
	sum uint32
	c   stats.Counters
	rcs []string // every live region's reference count at each deletion
}

// rcLog records, at every deletion an app asks for, each live region's
// reference count just before it.
type rcLog struct {
	appkit.RegionEnv
	rt  *core.Runtime
	rcs []string
}

func (e *rcLog) DeleteRegion(r appkit.Region) bool {
	for _, l := range e.rt.LiveRegions() {
		e.rcs = append(e.rcs, fmt.Sprintf("%v rc=%d", l, l.RC()))
	}
	return e.RegionEnv.DeleteRegion(r)
}

func runSkipArm(t *testing.T, app appkit.App, opts core.Options) skipRun {
	t.Helper()
	inner := appkit.NewCustomRegionEnv("safe", opts, appkit.Config{})
	e := &rcLog{RegionEnv: inner, rt: appkit.RuntimeOf(inner)}
	sum := app.Region(e, max(1, app.DefaultScale/24))
	e.Finalize()
	if err := e.rt.Verify(); err != nil {
		t.Fatalf("%s (NoCleanupSkip=%v): %v", app.Name, opts.NoCleanupSkip, err)
	}
	return skipRun{sum: sum, c: *e.Counters(), rcs: e.rcs}
}

// TestCleanupSkipSixAppEquivalence runs the six apps on the default runtime,
// which walks a region at deletion only while it holds outgoing counted
// pointers, and on the paper's walk-every-deletion arm. Skipping must change
// no result and no count: checksums, regions created and deleted, refused
// deletions and every live region's reference count at every deletion
// agree, and Verify is clean after each run. It must save cleanup cycles where the apps' walks
// release nothing, and cost none anywhere.
func TestCleanupSkipSixAppEquivalence(t *testing.T) {
	cheaper := map[string]bool{"grobner": true, "mudlle": true, "tile": true}
	for _, app := range Apps() {
		skip := runSkipArm(t, app, core.Options{Safe: true})
		paper := runSkipArm(t, app, paperOpts(true))
		if skip.sum != paper.sum {
			t.Errorf("%s: checksum %#x skipping, %#x walking every deletion", app.Name, skip.sum, paper.sum)
		}
		s, p := skip.c, paper.c
		if s.RegionsCreated != p.RegionsCreated || s.RegionsDeleted != p.RegionsDeleted ||
			s.DeleteFails != p.DeleteFails {
			t.Errorf("%s: regions created/deleted/refused %d/%d/%d skipping, %d/%d/%d walking",
				app.Name, s.RegionsCreated, s.RegionsDeleted, s.DeleteFails,
				p.RegionsCreated, p.RegionsDeleted, p.DeleteFails)
		}
		if len(skip.rcs) == 0 || !reflect.DeepEqual(skip.rcs, paper.rcs) {
			t.Errorf("%s: reference counts at deletion differ (%d and %d recorded)",
				app.Name, len(skip.rcs), len(paper.rcs))
		}
		sc, pc := s.Cycles[stats.ModeCleanup], p.Cycles[stats.ModeCleanup]
		if sc > pc || cheaper[app.Name] && sc >= pc {
			t.Errorf("%s: cleanup cycles %d skipping, %d walking every deletion", app.Name, sc, pc)
		}
		t.Logf("%-8s counts %d cleanup %8d -> %8d cycles, total %10d -> %10d", app.Name, len(skip.rcs), pc, sc,
			p.TotalCycles(), s.TotalCycles())
	}
}
