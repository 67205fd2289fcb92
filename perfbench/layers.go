package main

import (
	"fmt"
	"strings"
)

// layerMetrics is the fixed per-layer metric set, in report order, with
// units. Every workload reports all of them; a layer a workload does not
// exercise (or that cannot be observed from outside on it) reports 0, and
// README.md says which.
var layerMetrics = func() [][2]string {
	m := [][2]string{
		{"mem.accesses", "count"},
		{"mem.pages_mapped", "count"},
		{"mem.map_calls", "count"},
		{"mem.host_share", "fraction"},
		{"cachesim.l1_miss_ratio", "fraction"},
		{"cachesim.l2_miss_ratio", "fraction"},
		{"cachesim.read_stall_mcycles", "Mcycles"},
		{"cachesim.write_stall_mcycles", "Mcycles"},
		{"cachesim.host_share", "fraction"},
	}
	for _, mode := range []string{"app", "alloc", "free", "rc", "scan", "cleanup"} {
		m = append(m, [2]string{"core.cycles." + mode, "Mcycles"})
	}
	for _, b := range []string{"region", "sameregion", "global", "fast"} {
		m = append(m, [2]string{"core.barriers." + b, "count"})
	}
	m = append(m, [][2]string{
		{"core.lrcache_hit_ratio", "fraction"},
		{"core.pageindex_hit_ratio", "fraction"},
		{"core.regions_created", "count"},
		{"core.regions_deleted", "count"},
		{"core.delete_fails", "count"},
		{"core.str_new", "count"},
		{"core.str_reuse", "count"},
		{"core.str_big", "count"},
		{"core.str_freed", "count"},
		{"core.str_reuse_ratio", "fraction"},
		{"core.sweep_slices", "count"},
		{"core.sweep_swept_pages", "count"},
		{"core.sweep_debt_peak", "pages"},
		{"core.sweep_tax_mcycles", "Mcycles"},
	}...)
	for op := 0; op < hostTimedOps; op++ {
		m = append(m, [2]string{"core.host_ns." + opNames[op], "ns"})
	}
	m = append(m, [][2]string{
		{"core.host_share", "fraction"},
		{"shard.busy_ratio", "ratio"},
		{"shard.max_queue_depth", "count"},
		{"shard.steals", "count"},
		{"shard.migrations", "count"},
		{"shard.migrated_pages", "count"},
		{"shard.phase2_busy_ratio", "ratio"},
		{"shard.host_share", "fraction"},
	}...)
	for _, p := range servePhases {
		m = append(m,
			[2]string{"serve.phase." + p + ".total_mcycles", "Mcycles"},
			[2]string{"serve.phase." + p + ".p99_cycles", "cycles"})
	}
	m = append(m, [][2]string{
		{"serve.track.sweep_mcycles", "Mcycles"},
		{"serve.track.migrate_mcycles", "Mcycles"},
		{"serve.completed", "count"},
		{"serve.queued_ratio", "fraction"},
		{"serve.shed_queue", "count"},
		{"serve.shed_oom", "count"},
		{"serve.hist_p99_cycles", "cycles"},
		{"serve.host_share", "fraction"},
	}...)
	for _, a := range paperApps {
		m = append(m,
			[2]string{"apps." + appLabel(a) + ".sim_mcycles", "Mcycles"},
			[2]string{"apps." + appLabel(a) + ".host_s", "s"})
	}
	return append(m, [][2]string{
		{"apps.host_share", "fraction"},
		{"observe.host_share", "fraction"},
		{"runtime.host_share", "fraction"},
		{"host.alloc_mb", "MB"},
		{"host.gc_count", "count"},
		{"host.gc_cpu_fraction", "fraction"},
		{"host.ns_per_sim_access", "ns"},
		{"host.trace_overhead_ratio", "ratio"},
	}...)
}()

// servePhases are the request phases a serve span can attribute cycles to.
var servePhases = []string{"queue", "parse", "work", "delete", "sweep", "migrate"}

// layers collects one traced run's per-layer values by name.
type layers struct{ v map[string]float64 }

func newLayers() *layers { return &layers{v: map[string]float64{}} }

func (l *layers) set(name string, v float64) {
	for _, m := range layerMetrics {
		if m[0] == name {
			l.v[name] = v
			return
		}
	}
	panic("perfbench: undeclared layer metric " + name)
}

// setRegistry reads the core, mem and shard series every metered runtime
// publishes; a workload that never touches a series reads 0.
// c sums a counter (and its labelled series) over every registry the run
// attached.
func (l *layers) setRegistry(c func(prefix string) uint64) {
	l.set("mem.pages_mapped", float64(c("regions_mem_pages_mapped_total")))
	l.set("mem.map_calls", float64(c("regions_mem_map_calls_total")))
	for _, b := range []string{"region", "sameregion", "global", "fast"} {
		l.set("core.barriers."+b, float64(c("regions_core_barrier_"+b+"_total")))
	}
	l.set("core.lrcache_hit_ratio", ratio(c("regions_core_lrcache_hits_total"),
		c("regions_core_lrcache_hits_total")+c("regions_core_lrcache_misses_total")))
	l.set("core.pageindex_hit_ratio", ratio(c("regions_core_pageindex_hits_total"),
		c("regions_core_pageindex_lookups_total")))
	l.set("core.regions_created", float64(c("regions_core_regions_created_total")))
	l.set("core.regions_deleted", float64(c("regions_core_regions_deleted_total")))
	l.set("core.delete_fails", float64(c("regions_core_region_delete_fails_total")))
	newN, reuse := c("regions_str_new_total"), c("regions_str_reuse_total")
	l.set("core.str_new", float64(newN))
	l.set("core.str_reuse", float64(reuse))
	l.set("core.str_big", float64(c("regions_str_big_total")))
	l.set("core.str_freed", float64(c("regions_str_free_total")))
	l.set("core.str_reuse_ratio", ratio(reuse, newN+reuse))
	l.set("core.sweep_slices", float64(c("regions_sweep_slices_total")))
	l.set("core.sweep_swept_pages", float64(c("regions_swept_pages_total")))
	l.set("shard.steals", float64(c("regions_shard_steals_total")))
}

// setShares records the CPU profile's per-module shares.
func (l *layers) setShares(shares map[string]float64) {
	for _, mod := range modules {
		l.set(mod+".host_share", shares[mod])
	}
}

// setHost reports the Go runtime's own cost between two samples, per pass.
func (l *layers) setHost(before, after hostSample, passes int) {
	n := float64(passes)
	l.set("host.alloc_mb", float64(after.allocBytes-before.allocBytes)/n/(1<<20))
	l.set("host.gc_count", float64(after.gcCycles-before.gcCycles)/n)
	frac := 0.0
	if d := after.totalCPU - before.totalCPU; d > 0 {
		frac = (after.gcCPU - before.gcCPU) / d
	}
	l.set("host.gc_cpu_fraction", frac)
}

// emit appends every declared layer metric to the report, in order.
func (l *layers) emit(rep *report) {
	for _, m := range layerMetrics {
		clock := "sim"
		if strings.HasPrefix(m[0], "host.") || strings.Contains(m[0], "host_") {
			clock = "host"
		}
		rep.add(m[0], l.v[m[0]], m[1], clock)
	}
	if len(l.v) > len(layerMetrics) {
		panic(fmt.Sprintf("perfbench: %d layer values for %d declared metrics", len(l.v), len(layerMetrics)))
	}
}
