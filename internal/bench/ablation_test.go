package bench

import (
	"bytes"
	"strings"
	"testing"

	"regions/internal/stats"
)

func TestAblationsRender(t *testing.T) {
	var buf bytes.Buffer
	Ablations(&buf, quickSuite())
	out := buf.String()
	for _, want := range []string{"Ablation 1", "Ablation 2", "Ablation 3", "Ablation 4", "sameregion", "coloring"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("bad numbers:\n%s", out)
	}
}

// TestDeferredBeatsEagerOnFrameHeavyApp pins the paper's design rationale
// for the high-water-mark scheme on the app with the most local-variable
// traffic.
func TestDeferredBeatsEagerOnFrameHeavyApp(t *testing.T) {
	s := quickSuite()
	cfrac := Apps()[0]
	var buf bytes.Buffer
	Ablations(&buf, s) // populates the cache
	def := s.RegionRun(cfrac, "safe", false, false).Counters
	eag := s.customRun(cfrac, "eager", eagerOpts(), false).Counters
	if eag.SafetyCycles() <= def.SafetyCycles() {
		t.Fatalf("eager (%d) should cost more than deferred (%d)",
			eag.SafetyCycles(), def.SafetyCycles())
	}
}

// TestCleanupSkipAblation pins ablation 4: walking only regions that hold
// outgoing counted pointers never costs cleanup cycles on any app, leaves
// every checksum alone, and makes grobner's safety strictly cheaper. (On
// lcc and moss the outgoing-count updates can outweigh the few walks
// skipped, so total safety is not pinned there.)
func TestCleanupSkipAblation(t *testing.T) {
	s := quickSuite()
	for _, app := range Apps() {
		all, skip := s.cleanupSkipRuns(app)
		if skip.Checksum != all.Checksum {
			t.Errorf("%s: checksum %#x skipping, %#x walking", app.Name, skip.Checksum, all.Checksum)
		}
		a, k := all.Counters, skip.Counters
		if k.Cycles[stats.ModeCleanup] > a.Cycles[stats.ModeCleanup] {
			t.Errorf("%s: skipping costs %d cleanup cycles, walking every deletion %d",
				app.Name, k.Cycles[stats.ModeCleanup], a.Cycles[stats.ModeCleanup])
		}
		if app.Name == "grobner" && k.SafetyCycles() >= a.SafetyCycles() {
			t.Errorf("grobner: safety %d cycles skipping, %d walking; want strictly cheaper",
				k.SafetyCycles(), a.SafetyCycles())
		}
	}
}

// TestRelatedWorkShape pins the paper's related-work claims: Barrett-Zorn
// lifetime prediction recovers region-like allocation speed on the
// churn-heavy factoring benchmark, but regions never lose on memory the
// way BZ can when long-lived objects pin its birth regions.
func TestRelatedWorkShape(t *testing.T) {
	s := quickSuite()
	var buf bytes.Buffer
	RelatedWork(&buf, s)
	out := buf.String()
	if !strings.Contains(out, "Barrett-Zorn") || !strings.Contains(out, "cfrac") {
		t.Fatalf("unexpected output:\n%s", out)
	}

	cfrac := Apps()[0]
	lea := s.MallocRun(cfrac, "Lea", false)
	bz := s.MallocRun(cfrac, "BZ", false)
	reg := s.RegionRun(cfrac, "safe", false, false)
	if bz.Checksum != lea.Checksum {
		t.Fatal("BZ computed a different result")
	}
	leaC, bzC := lea.Counters, bz.Counters
	if bzC.TotalCycles() >= leaC.TotalCycles() {
		t.Errorf("BZ (%d cycles) should beat Lea (%d) on cfrac churn",
			bzC.TotalCycles(), leaC.TotalCycles())
	}
	if bz.OSBytes <= 2*reg.OSBytes {
		t.Errorf("expected BZ's pinned birth regions to cost memory: BZ=%d Reg=%d",
			bz.OSBytes, reg.OSBytes)
	}
}
