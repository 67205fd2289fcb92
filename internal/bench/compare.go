package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"regions/internal/metrics"
)

// This file turns the ROADMAP's "diff, don't eyeball" rule into code: load
// a checked-in benchmark report, diff the freshly measured one against it —
// Snapshot.Sub over the embedded metrics, a micro table over simulated
// cycles per op — and decide pass/fail. The regression gate keys on the
// micro benchmarks' simulated cycles: they are scale-independent and
// deterministic, so they compare meaningfully even when the old report was
// generated at a different -scale-div. At the artifact's own config it also
// gates the checksums and the serve scenario's latency percentiles and
// mapped bytes (see compareServe), while raw counter totals and makespans
// (timing-dependent under work stealing) are printed as context only.

// DefaultCompareThreshold is the allowed fractional increase in a micro
// benchmark's simulated cycles per op before the comparison fails. The
// micro sims are deterministic, so this only leaves room for intentional
// remodelling, not noise.
const DefaultCompareThreshold = 0.05

// LoadReport reads and validates a benchmark report (the checked-in
// BENCH_PR*.json artifacts). It fails with a descriptive error — not a
// panic — on unreadable files, malformed JSON, a schema that is not
// regions-bench, or a schema_version this binary does not speak.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: read report: %w", err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parse report %s: %w", path, err)
	}
	if !strings.HasPrefix(r.Schema, "regions-bench/") {
		return nil, fmt.Errorf("bench: %s: schema %q is not a regions-bench report", path, r.Schema)
	}
	if r.SchemaVersion != ReportSchemaVersion {
		return nil, fmt.Errorf("bench: %s: schema_version %d, this binary speaks %d — regenerate the artifact",
			path, r.SchemaVersion, ReportSchemaVersion)
	}
	return &r, nil
}

// CompareReports prints a delta report of cur against old — micro
// benchmarks, throughput, and the Snapshot.Sub counter/histogram diff —
// and returns the list of regressions: micro benchmarks whose simulated
// cycles per op grew by more than threshold and, at the same config,
// changed checksums or a serve latency or mapped-bytes increase. An empty
// list means the gate passes.
func CompareReports(w io.Writer, old, cur *Report, threshold float64) []string {
	var regressions []string

	fmt.Fprintf(w, "micro (sim cycles/op; ns/op is host-dependent context):\n")
	fmt.Fprintf(w, "  %-28s %12s %12s %10s %8s\n", "name", "old", "new", "delta", "reuse")
	// reuseCol renders the strallocs micros' pool hit ratio; other
	// benchmarks leave the column blank.
	reuseCol := func(m MicroResult) string {
		if m.ReuseRatio == 0 {
			return ""
		}
		return fmt.Sprintf("%.3f", m.ReuseRatio)
	}
	oldMicro := make(map[string]MicroResult, len(old.Micro))
	for _, m := range old.Micro {
		oldMicro[m.Name] = m
	}
	for _, m := range cur.Micro {
		o, ok := oldMicro[m.Name]
		if !ok {
			fmt.Fprintf(w, "  %-28s %12s %12.2f %10s %8s\n", m.Name, "-", m.SimCyclesPerOp, "new", reuseCol(m))
			continue
		}
		delta := m.SimCyclesPerOp - o.SimCyclesPerOp
		fmt.Fprintf(w, "  %-28s %12.2f %12.2f %+10.2f %8s\n", m.Name, o.SimCyclesPerOp, m.SimCyclesPerOp, delta, reuseCol(m))
		if o.SimCyclesPerOp > 0 && m.SimCyclesPerOp > o.SimCyclesPerOp*(1+threshold) {
			// The message carries the benchmark's own unit from the micro
			// table, so a gate failure reads correctly for host-side
			// benchmarks too, not just the sim-cycle ones.
			regressions = append(regressions,
				fmt.Sprintf("%s: %.2f -> %.2f %s (+%.1f%%, threshold %.1f%%)",
					m.Name, o.SimCyclesPerOp, m.SimCyclesPerOp, m.unit(),
					100*delta/o.SimCyclesPerOp, 100*threshold))
		}
	}

	sameConfig := old.ScaleDiv == cur.ScaleDiv && old.Repeats == cur.Repeats
	fmt.Fprintf(w, "\nthroughput (old: scaleDiv=%d repeats=%d; new: scaleDiv=%d repeats=%d):\n",
		old.ScaleDiv, old.Repeats, cur.ScaleDiv, cur.Repeats)
	oldTp := make(map[int]ThroughputResult, len(old.Throughput))
	for _, t := range old.Throughput {
		oldTp[t.Shards] = t
	}
	for _, t := range cur.Throughput {
		o, ok := oldTp[t.Shards]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  shards=%d makespan %.1f -> %.1f Mcycles, speedup %.2f -> %.2f\n",
			t.Shards, o.SimMakespanMcycles, t.SimMakespanMcycles, o.SimSpeedup, t.SimSpeedup)
		if sameConfig && t.Checksum != o.Checksum {
			regressions = append(regressions,
				fmt.Sprintf("throughput shards=%d: checksum %#x, artifact has %#x — results changed",
					t.Shards, t.Checksum, o.Checksum))
		}
	}
	if !sameConfig {
		fmt.Fprintf(w, "  (configs differ: checksums and raw counters compared as context only)\n")
	}

	regressions = append(regressions, compareServe(w, old, cur, sameConfig)...)
	regressions = append(regressions, compareServeAB(w, old, cur, sameConfig)...)
	regressions = append(regressions, compareStrAB(w, old, cur, sameConfig)...)

	if old.Metrics != nil && cur.Metrics != nil {
		fmt.Fprintf(w, "\nmetrics delta (new minus old, Snapshot.Sub; nonzero series):\n")
		printSnapshotDelta(w, cur.Metrics.Sub(old.Metrics))
	}
	return regressions
}

// printSnapshotDelta renders a Snapshot.Sub result (already name-sorted),
// skipping zero deltas. Counter deltas are printed signed: the snapshots
// came from different processes, so a series can legitimately shrink.
func printSnapshotDelta(w io.Writer, d *metrics.Snapshot) {
	shown := 0
	for _, c := range d.Counters {
		if c.Value != 0 {
			fmt.Fprintf(w, "  %-52s %+d\n", c.Name, int64(c.Value))
			shown++
		}
	}
	for _, h := range d.Histograms {
		if h.Count == 0 && h.Sum == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-52s count%+d sum%+d\n", h.Name, int64(h.Count), int64(h.Sum))
		shown++
	}
	if shown == 0 {
		fmt.Fprintf(w, "  (no differences)\n")
	}
}
