package shard

import (
	"bytes"
	"fmt"
	"testing"

	"regions/internal/metrics"
)

// TestMetricsUnderConcurrentScrape is the observability race test: four
// shards churn allocations while a scraper loop snapshots the shared
// registry and renders it, exactly what a live /metrics endpoint does
// mid-run. Run under -race in CI.
func TestMetricsUnderConcurrentScrape(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.SetSiteSampling(16)
	eng := NewEngine(WithShards(4), WithMetrics(reg), WithHeapProfileEvery(8))

	stop := make(chan struct{})
	scraperDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				scraperDone <- nil
				return
			default:
				if err := metrics.WritePrometheus(bytes.NewBuffer(nil), reg.Snapshot()); err != nil {
					scraperDone <- err
					return
				}
				eng.HeapReports() // concurrent heap-profile reads must be safe too
			}
		}
	}()

	const tasks = 256
	for i := 0; i < tasks; i++ {
		eng.SubmitBatch([]Task{simpleTask(uint32(i))})
	}
	agg := eng.Close()
	close(stop)
	if err := <-scraperDone; err != nil {
		t.Fatal(err)
	}
	if agg.Failures != 0 {
		t.Fatalf("%d task failures", agg.Failures)
	}

	snap := reg.Snapshot()
	if got := snap.CounterSum("regions_shard_tasks_total"); got != tasks {
		t.Errorf("shard task counters sum to %d, want %d", got, tasks)
	}
	// Each simple task performs 32 rallocs.
	if got, _ := snap.Counter("regions_core_allocs_total"); got != tasks*32 {
		t.Errorf("regions_core_allocs_total = %d, want %d", got, tasks*32)
	}
	if got, _ := snap.Counter("regions_core_regions_created_total"); got != tasks {
		t.Errorf("regions created = %d, want %d", got, tasks)
	}
	if v, ok := snap.Gauge("regions_shard_makespan_cycles"); !ok || v <= 0 {
		t.Errorf("makespan gauge = %d,%v after Close", v, ok)
	}
	if v, ok := snap.Gauge("regions_shard_utilization_pct"); !ok || v <= 0 || v > 100 {
		t.Errorf("utilization gauge = %d,%v, want in (0,100]", v, ok)
	}
	for i := 0; i < eng.Shards(); i++ {
		name := fmt.Sprintf(`regions_shard_queue_depth{shard="%d"}`, i)
		if v, _ := snap.Gauge(name); v != 0 {
			t.Errorf("shard %d queue depth = %d after drain, want 0", i, v)
		}
	}
	if reps := eng.HeapReports(); len(reps) != eng.Shards() {
		t.Errorf("HeapReports returned %d profiles, want %d", len(reps), eng.Shards())
	} else {
		for _, rep := range reps {
			if rep.Origin == "" || rep.SchemaVersion != metrics.HeapSchemaVersion {
				t.Errorf("heap report origin=%q schema=%d", rep.Origin, rep.SchemaVersion)
			}
		}
	}
}
