package bench

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"regions/internal/serve"
)

func writeTempReport(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLoadReportErrors pins the fail-fast contract: every malformed artifact
// produces a descriptive error naming the problem, never a panic and never a
// silent zero report.
func TestLoadReportErrors(t *testing.T) {
	if _, err := LoadReport(filepath.Join(t.TempDir(), "missing.json")); err == nil ||
		!strings.Contains(err.Error(), "read report") {
		t.Errorf("missing file: err = %v, want read error", err)
	}
	cases := []struct{ name, content, want string }{
		{"bad-json", "{not json", "parse report"},
		{"wrong-schema", `{"schema":"other/v1","schema_version":2}`, "not a regions-bench report"},
		{"old-version", `{"schema":"regions-bench/v1","schema_version":1}`, "schema_version 1"},
	}
	for _, c := range cases {
		_, err := LoadReport(writeTempReport(t, c.name+".json", c.content))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestLoadReportRoundTrip(t *testing.T) {
	r := &Report{Schema: "regions-bench/v2", SchemaVersion: ReportSchemaVersion,
		ScaleDiv: 4, Repeats: 2,
		Micro: []MicroResult{{Name: "ralloc/16B", Ops: 10, SimCyclesPerOp: 16}}}
	var buf bytes.Buffer
	if err := EncodeBenchReport(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(writeTempReport(t, "ok.json", buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.ScaleDiv != 4 || got.Repeats != 2 || len(got.Micro) != 1 || got.Micro[0].Name != "ralloc/16B" {
		t.Fatalf("round trip mangled report: %+v", got)
	}
}

// TestCompareReportsMicroGate exercises the regression decision: an
// improvement and a new benchmark never fail, growth inside the threshold
// passes, growth beyond it is reported with the offending name.
func TestCompareReportsMicroGate(t *testing.T) {
	old := &Report{ScaleDiv: 4, Repeats: 2, Micro: []MicroResult{
		{Name: "a", SimCyclesPerOp: 10},
		{Name: "b", SimCyclesPerOp: 20},
	}}
	cur := &Report{ScaleDiv: 4, Repeats: 2, Micro: []MicroResult{
		{Name: "a", SimCyclesPerOp: 6},    // improvement
		{Name: "b", SimCyclesPerOp: 20.5}, // +2.5%, inside the 5% threshold
		{Name: "c", SimCyclesPerOp: 99},   // new benchmark: no baseline, no regression
	}}
	var buf bytes.Buffer
	if regs := CompareReports(&buf, old, cur, DefaultCompareThreshold); len(regs) != 0 {
		t.Fatalf("regressions on an improving run: %v", regs)
	}
	for _, want := range []string{"a", "b", "c", "new"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("delta table missing %q:\n%s", want, buf.String())
		}
	}

	cur.Micro[1].SimCyclesPerOp = 22 // +10%
	regs := CompareReports(io.Discard, old, cur, DefaultCompareThreshold)
	if len(regs) != 1 || !strings.Contains(regs[0], "b:") {
		t.Fatalf("regressions = %v, want exactly one naming b", regs)
	}
}

// TestCompareReportsChecksumGate: checksum drift fails only when the configs
// match — at a different scale the workloads legitimately differ, so the
// comparison is context, not a gate.
func TestCompareReportsChecksumGate(t *testing.T) {
	old := &Report{ScaleDiv: 4, Repeats: 2,
		Throughput: []ThroughputResult{{Shards: 4, Checksum: 0x1234}}}
	cur := &Report{ScaleDiv: 4, Repeats: 2,
		Throughput: []ThroughputResult{{Shards: 4, Checksum: 0x9999}}}
	regs := CompareReports(io.Discard, old, cur, DefaultCompareThreshold)
	if len(regs) != 1 || !strings.Contains(regs[0], "checksum") {
		t.Fatalf("regressions = %v, want one checksum mismatch", regs)
	}

	cur.ScaleDiv = 8 // different workload size: context only
	if regs := CompareReports(io.Discard, old, cur, DefaultCompareThreshold); len(regs) != 0 {
		t.Fatalf("checksum flagged across differing configs: %v", regs)
	}
}

// TestCompareServeGate perturbs a copy of the checked-in artifact's serve
// scenario by one unit per gated field: each perturbation must fail the
// comparison with exactly one regression naming that field, while the
// unchanged copy, a one-unit improvement, and a different config pass.
func TestCompareServeGate(t *testing.T) {
	old, err := LoadReport(filepath.Join("..", "..", "BENCH_PR10.json"))
	if err != nil {
		t.Fatal(err)
	}
	if old.Serve == nil {
		t.Fatal("artifact has no serve scenario")
	}
	cloneOf := func(from *Report) *Report {
		r := *from
		s := *from.Serve
		r.Serve = &s
		return &r
	}
	clone := func() *Report { return cloneOf(old) }
	if regs := CompareReports(io.Discard, old, clone(), DefaultCompareThreshold); len(regs) != 0 {
		t.Fatalf("unchanged copy regressed: %v", regs)
	}
	fields := []struct {
		name string
		bump func(r *serve.Result, d int)
	}{
		{"p50Cycles", func(r *serve.Result, d int) { r.P50 += uint64(d) }},
		{"p99Cycles", func(r *serve.Result, d int) { r.P99 += uint64(d) }},
		{"p999Cycles", func(r *serve.Result, d int) { r.P999 += uint64(d) }},
		{"mappedBytes", func(r *serve.Result, d int) { r.MappedBytes += uint64(d) }},
		{"checksum", func(r *serve.Result, d int) { r.Checksum += uint32(d) }},
	}
	for _, f := range fields {
		cur := clone()
		f.bump(cur.Serve, 1)
		regs := CompareReports(io.Discard, old, cur, DefaultCompareThreshold)
		if len(regs) != 1 || !strings.Contains(regs[0], "serve: "+f.name) {
			t.Errorf("%s +1: regressions = %v, want one naming the field", f.name, regs)
		}
		if f.name == "checksum" {
			continue // any change is a regression, not just growth
		}
		cur = clone()
		f.bump(cur.Serve, -1)
		if regs := CompareReports(io.Discard, old, cur, DefaultCompareThreshold); len(regs) != 0 {
			t.Errorf("%s -1: improvement regressed: %v", f.name, regs)
		}
		cur = clone()
		f.bump(cur.Serve, 1)
		cur.ScaleDiv++
		if regs := CompareReports(io.Discard, old, cur, DefaultCompareThreshold); len(regs) != 0 {
			t.Errorf("%s +1 at another config: gated context: %v", f.name, regs)
		}
	}

	// The checksum sums completed sessions only, so it gates only when the
	// completed and shed counts match the artifact's; more sheds fail on
	// their own. Tried against a copy of the artifact that sheds.
	shedding := clone()
	shedding.Serve.ShedQueue, shedding.Serve.ShedOOM = 5, 3
	shedding.Serve.Completed -= 8
	for _, tc := range []struct {
		name  string
		edit  func(r *serve.Result)
		field string // the one regression's field, or "" for none
		note  bool   // "checksum not comparable" is printed
	}{
		{"checksum at equal counts", func(r *serve.Result) { r.Checksum++ }, "checksum", false},
		{"checksum with fewer sheds", func(r *serve.Result) {
			r.Checksum++
			r.ShedQueue -= 2
			r.Completed += 2
		}, "", true},
		{"more queue sheds", func(r *serve.Result) { r.ShedQueue++; r.Completed-- }, "shedQueue", true},
		{"more oom sheds", func(r *serve.Result) { r.ShedOOM++; r.Completed-- }, "shedOOM", true},
	} {
		cur := cloneOf(shedding)
		tc.edit(cur.Serve)
		var out strings.Builder
		regs := CompareReports(&out, shedding, cur, DefaultCompareThreshold)
		if tc.field == "" && len(regs) != 0 ||
			tc.field != "" && (len(regs) != 1 || !strings.Contains(regs[0], "serve: "+tc.field)) {
			t.Errorf("%s: regressions = %v, want one naming %q", tc.name, regs, tc.field)
		}
		if got := strings.Contains(out.String(), "checksum not comparable (completed "); got != tc.note {
			t.Errorf("%s: not-comparable note printed = %v, want %v:\n%s", tc.name, got, tc.note, out.String())
		}
	}
}
