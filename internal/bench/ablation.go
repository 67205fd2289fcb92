package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"regions/internal/apps/appkit"
	"regions/internal/core"
	"regions/internal/stats"
)

// Ablations measures the design choices the paper singles out:
//
//  1. Deferred local counting (Section 4.2.1's high-water-mark scheme)
//     against the naive alternative of counting every local-variable write.
//  2. Region-structure coloring (Section 4.1's 64-byte offsets) against
//     placing every region header at the same page offset.
//  3. The sameregion optimization (Section 4.2.2): how many region writes
//     avoided count updates because source and target share a region.
//  4. The cleanup walk (Figure 7) at every deletion, as the paper's library
//     does, against walking only regions that hold outgoing counted
//     pointers, the runtime's default.
//
// Each ablation runs real benchmarks with the variant runtime. Every run
// but ablation 4's skipping arm walks every deletion (paperOpts).
func Ablations(w io.Writer, s *Suite) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Ablation 1: deferred (high-water mark) vs eager local counting")
	fmt.Fprintln(tw, "Name\tdeferred safety Mcycles\teager safety Mcycles\teager/deferred")
	for _, app := range Apps() {
		def := s.RegionRun(app, "safe", false, false).Counters
		eag := s.customRun(app, "eager", eagerOpts(), false)
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2fx\n", app.Name,
			float64(def.SafetyCycles())/1e6,
			float64(eag.Counters.SafetyCycles())/1e6,
			float64(eag.Counters.SafetyCycles())/float64(def.SafetyCycles()))
	}
	tw.Flush()
	fmt.Fprintln(w)

	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Ablation 2: region-structure coloring vs none (read-stall Mcycles)")
	fmt.Fprintln(tw, "Name\tcolored\tuncolored")
	for _, app := range Apps() {
		col := s.RegionRun(app, "safe", false, true).Counters
		opts := paperOpts(true)
		opts.NoColoring = true
		unc := s.customRun(app, "nocolor", opts, true)
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\n", app.Name,
			float64(col.ReadStalls)/1e6,
			float64(unc.Counters.ReadStalls)/1e6)
	}
	tw.Flush()
	fmt.Fprintln(w)

	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Ablation 3: sameregion pointers (no count update needed)")
	fmt.Fprintln(tw, "Name\tregion writes\tsameregion\tshare")
	for _, app := range Apps() {
		c := s.RegionRun(app, "safe", false, false).Counters
		share := 0.0
		if c.Barriers.Region > 0 {
			share = 100 * float64(c.Barriers.SameRegion) / float64(c.Barriers.Region)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.0f%%\n", app.Name,
			c.Barriers.Region, c.Barriers.SameRegion, share)
	}
	tw.Flush()
	fmt.Fprintln(w)

	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Ablation 4: cleanup walk at every deletion vs only with outgoing counted pointers (Mcycles)")
	fmt.Fprintln(tw, "Name\twalk-all cleanup\twalk-all safety\tskip cleanup\tskip safety")
	for _, app := range Apps() {
		all, skip := s.cleanupSkipRuns(app)
		a, k := all.Counters, skip.Counters
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\t%.2f\n", app.Name,
			float64(a.Cycles[stats.ModeCleanup])/1e6, float64(a.SafetyCycles())/1e6,
			float64(k.Cycles[stats.ModeCleanup])/1e6, float64(k.SafetyCycles())/1e6)
	}
	tw.Flush()
}

// cleanupSkipRuns returns ablation 4's two arms for app: the paper's
// walk-every-deletion runtime and the default runtime, which walks only
// regions holding outgoing counted pointers.
func (s *Suite) cleanupSkipRuns(app appkit.App) (walkAll, skip Result) {
	return s.RegionRun(app, "safe", false, false),
		s.customRun(app, "skip", core.Options{Safe: true}, false)
}

// customRun measures app on a region runtime with explicit options.
func (s *Suite) customRun(app appkit.App, tag string, opts core.Options, withCache bool) Result {
	key := fmt.Sprintf("c/%s/%s/%v", app.Name, tag, withCache)
	if r, ok := s.cache[key]; ok {
		return r
	}
	e := appkit.NewCustomRegionEnv(tag, opts, appkit.Config{Cache: withCache})
	sum := app.Region(e, s.scale(app))
	r := s.capture(app.Name, tag, e, sum)
	s.cache[key] = r
	return r
}

// eagerOpts returns the options of the eager-locals ablation (exported to
// the tests through the package boundary).
func eagerOpts() core.Options {
	opts := paperOpts(true)
	opts.EagerLocals = true
	return opts
}
