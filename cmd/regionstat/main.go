// Regionstat runs one of the paper's benchmark applications with the live
// metrics registry attached and reports where the cycles and bytes went:
// the final metrics snapshot (Prometheus text format or JSON) and, with
// -heap, a per-region heap profile taken the moment the workload returns —
// live bytes, allocator bookkeeping, free space, fragmentation, and the
// top allocation sites. docs/OBSERVABILITY.md documents both schemas.
//
// Usage:
//
//	regionstat [-app cfrac] [-env safe] [-scale N] [-heap] [-top N]
//	           [-json] [-every 1s] [-sample N]
//
// -every prints a one-line progress reading of the registry at that
// interval while the app runs (the registry is safe to read concurrently).
// -sample N records every Nth allocation into the site profile.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"regions/internal/apps/appkit"
	"regions/internal/bench"
	"regions/internal/metrics"
)

func main() {
	var (
		app    = flag.String("app", "cfrac", "benchmark application to run")
		env    = flag.String("env", "safe", `environment: "safe" or "unsafe"`)
		scale  = flag.Int("scale", 1, "workload scale (the app's unit; see internal/bench)")
		heap   = flag.Bool("heap", false, "profile the heap when the workload returns")
		top    = flag.Int("top", 10, "regions shown in the heap-profile table")
		asJSON = flag.Bool("json", false, "emit JSON instead of Prometheus text / tables")
		every  = flag.Duration("every", 0, "print a progress line at this interval (0 disables)")
		sample = flag.Int("sample", 64, "record every Nth allocation in the site profile (0 disables)")
	)
	flag.Parse()

	if *scale < 1 {
		fmt.Fprintf(os.Stderr, "regionstat: -scale must be at least 1, got %d\n", *scale)
		os.Exit(2)
	}
	if *env != "safe" && *env != "unsafe" {
		fmt.Fprintf(os.Stderr, "regionstat: unknown env %q (want safe or unsafe)\n", *env)
		os.Exit(2)
	}
	if *top < 1 {
		fmt.Fprintf(os.Stderr, "regionstat: -top must be at least 1, got %d\n", *top)
		os.Exit(2)
	}
	if *sample < 0 {
		fmt.Fprintf(os.Stderr, "regionstat: -sample must be at least 0, got %d\n", *sample)
		os.Exit(2)
	}
	if *every < 0 {
		fmt.Fprintf(os.Stderr, "regionstat: -every must not be negative, got %v\n", *every)
		os.Exit(2)
	}
	var chosen *appkit.App
	for _, a := range bench.Apps() {
		if a.Name == *app {
			a := a
			chosen = &a
			break
		}
	}
	if chosen == nil {
		fmt.Fprintf(os.Stderr, "regionstat: unknown app %q; have:", *app)
		for _, a := range bench.Apps() {
			fmt.Fprintf(os.Stderr, " %s", a.Name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}

	reg := metrics.NewRegistry()
	if *sample > 0 {
		reg.SetSiteSampling(*sample)
	}
	stopProgress := startProgress(reg, *every)

	e := appkit.NewRegionEnv(*env, appkit.Config{Metrics: reg})
	sum := chosen.Region(e, *scale)

	// Profile before Finalize, while the workload's end-of-run heap state
	// (still-live regions included) is intact.
	var prof *metrics.HeapReport
	if *heap {
		rt := appkit.RuntimeOf(e)
		if rt == nil {
			fmt.Fprintf(os.Stderr, "regionstat: env %q has no real runtime to profile\n", *env)
			os.Exit(2)
		}
		var err error
		prof, err = rt.HeapReport()
		if err != nil {
			fmt.Fprintln(os.Stderr, "regionstat: heap profile:", err)
			os.Exit(1)
		}
		prof.Origin = *app
		prof.CapturedCycle = e.Counters().TotalCycles()
	}
	e.Finalize()
	stopProgress()

	fmt.Fprintf(os.Stderr, "app %s, env %s, scale %d: checksum %08x\n", *app, *env, *scale, sum)
	snap := reg.Snapshot()
	var err error
	if *asJSON {
		err = metrics.WriteJSON(os.Stdout, snap)
	} else {
		err = metrics.WritePrometheus(os.Stdout, snap)
	}
	if err == nil && prof != nil {
		if *asJSON {
			err = prof.WriteJSON(os.Stdout)
		} else {
			fmt.Println()
			prof.WriteText(os.Stdout, *top)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "regionstat:", err)
		os.Exit(1)
	}
}

// startProgress prints a one-line reading of the registry every interval
// until the returned stop function is called. The registry's metrics are
// individually atomic, so reading them while the app runs is safe; the line
// is a progress indicator, not a consistent snapshot.
func startProgress(reg *metrics.Registry, interval time.Duration) func() {
	if interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		start := time.Now()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				fmt.Fprintf(os.Stderr,
					"%6.1fs allocs=%d alloc-bytes=%d live-regions=%d barriers=%d pages-mapped=%d\n",
					time.Since(start).Seconds(),
					reg.Counter("regions_core_allocs_total").Value(),
					reg.Counter("regions_core_alloc_bytes_total").Value(),
					reg.Gauge("regions_core_live_regions").Value(),
					reg.Counter("regions_core_barrier_region_total").Value()+
						reg.Counter("regions_core_barrier_global_total").Value(),
					reg.Counter("regions_mem_pages_mapped_total").Value(),
				)
			}
		}
	}()
	return func() { close(done); <-finished }
}
