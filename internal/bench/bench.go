// Package bench is the experiment harness: it runs the six benchmarks over
// every allocator and renders the paper's evaluation artifacts — Tables 1-3
// and Figures 8-11 of Section 5. Runs are memoized per (app, environment,
// cache) so figures sharing measurements do not recompute them.
package bench

import (
	"fmt"

	"regions/internal/apps/appkit"
	"regions/internal/apps/cfrac"
	"regions/internal/apps/grobner"
	"regions/internal/apps/minicc"
	"regions/internal/apps/moss"
	"regions/internal/apps/mudlle"
	"regions/internal/apps/tile"
	"regions/internal/core"
	"regions/internal/stats"
)

// Apps returns the six benchmarks in the paper's order.
func Apps() []appkit.App {
	return []appkit.App{
		cfrac.App(),
		grobner.App(),
		mudlle.App(),
		minicc.App(),
		tile.App(),
		moss.App(),
	}
}

// Result is one measured run.
type Result struct {
	App, Env string
	Slow     bool // moss's original single-region version
	Checksum uint32
	Counters stats.Counters
	OSBytes  uint64 // memory requested from the simulated OS
	EmuLink  uint64 // emulation library link-word overhead, if any
}

// Suite runs and memoizes experiments. Scale divides every app's default
// workload (ScaleDiv 1 is the paper-sized run; tests use larger divisors).
type Suite struct {
	ScaleDiv int
	cache    map[string]Result
}

// NewSuite returns a Suite with the given workload divisor (minimum 1).
func NewSuite(scaleDiv int) *Suite {
	if scaleDiv < 1 {
		scaleDiv = 1
	}
	return &Suite{ScaleDiv: scaleDiv, cache: map[string]Result{}}
}

func (s *Suite) scale(app appkit.App) int {
	n := app.DefaultScale / s.ScaleDiv
	if n < 1 {
		n = 1
	}
	return n
}

// MallocRun measures app under a malloc environment ("Sun", "BSD", "Lea",
// "GC"). Apps that were originally region-based (mudlle, lcc) are measured
// through the emulation region library over the same allocator, exactly as
// the paper does.
func (s *Suite) MallocRun(app appkit.App, kind string, withCache bool) Result {
	key := fmt.Sprintf("m/%s/%s/%v", app.Name, kind, withCache)
	if r, ok := s.cache[key]; ok {
		return r
	}
	cfg := appkit.Config{Cache: withCache}
	var r Result
	if app.UsesEmulation {
		e := appkit.NewRegionEnv("emu:"+kind, cfg)
		sum := app.Region(e, s.scale(app))
		r = s.capture(app.Name, kind, e, sum)
		r.EmuLink = appkit.EmulationOverhead(e)
	} else {
		e := appkit.NewMallocEnv(kind, cfg)
		sum := app.Malloc(e, s.scale(app))
		r = s.capture(app.Name, kind, e, sum)
	}
	s.cache[key] = r
	return r
}

// paperOpts are the runtime options of the paper's region library, which
// every Suite run uses unless an ablation varies them: safe or unsafe, with
// the charged cleanup walk at every deletion (core.Options.NoCleanupSkip).
func paperOpts(safe bool) core.Options { return core.Options{Safe: safe, NoCleanupSkip: true} }

// RegionRun measures app under the paper's region library ("safe" or
// "unsafe"; see paperOpts); slow selects moss's original single-region
// organization.
func (s *Suite) RegionRun(app appkit.App, kind string, slow, withCache bool) Result {
	key := fmt.Sprintf("r/%s/%s/%v/%v", app.Name, kind, slow, withCache)
	if r, ok := s.cache[key]; ok {
		return r
	}
	e := appkit.NewCustomRegionEnv(kind, paperOpts(kind == "safe"), appkit.Config{Cache: withCache})
	run := app.Region
	if slow {
		if app.SlowRegion == nil {
			panic("bench: app has no slow region variant")
		}
		run = app.SlowRegion
	}
	sum := run(e, s.scale(app))
	r := s.capture(app.Name, kind, e, sum)
	r.Slow = slow
	s.cache[key] = r
	return r
}

func (s *Suite) capture(app, env string, e appkit.Env, sum uint32) Result {
	e.Finalize()
	return Result{
		App:      app,
		Env:      env,
		Checksum: sum,
		Counters: *e.Counters(),
		OSBytes:  e.Space().MappedBytes(),
	}
}

// VerifyChecksums cross-checks that every environment computes the same
// result for every app, the harness's correctness gate.
func (s *Suite) VerifyChecksums() error {
	for _, app := range Apps() {
		want := s.MallocRun(app, "Lea", false).Checksum
		for _, kind := range appkit.MallocKinds {
			if got := s.MallocRun(app, kind, false).Checksum; got != want {
				return fmt.Errorf("%s under %s: checksum %#x != %#x", app.Name, kind, got, want)
			}
		}
		for _, kind := range []string{"safe", "unsafe"} {
			if got := s.RegionRun(app, kind, false, false).Checksum; got != want {
				return fmt.Errorf("%s under regions/%s: checksum %#x != %#x", app.Name, kind, got, want)
			}
		}
	}
	return nil
}

func kb(b uint64) float64 { return float64(b) / 1024 }
