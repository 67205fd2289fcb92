package bench

import (
	"fmt"
	"io"

	"regions/internal/metrics"
	"regions/internal/serve"
)

// The serving scenario embedded in the benchmark report: one fixed
// multi-tenant run of the internal/serve simulator, so the checked-in
// artifact gates tail latency under concurrency, not just batch throughput.
// Everything in the result is simulated cycles, so — like the micro
// sim-cycle columns — it diffs exactly across hosts.

// ServeScenarioSeed pins the embedded scenario's arrival schedule.
const ServeScenarioSeed = 1

// RunServeScenario runs the report's fixed serving scenario: sessions scale
// down with scaleDiv exactly like the app workloads, the rest of the
// configuration is the serve package's defaults (4 shards, 700
// arrivals/Mcycle, queue cap 64). reg may be nil.
func RunServeScenario(scaleDiv int, reg *metrics.Registry) (*serve.Result, error) {
	sessions := 8000 / scaleDiv
	if sessions < 100 {
		sessions = 100
	}
	return serve.Run(serve.Config{
		Sessions: sessions,
		Seed:     ServeScenarioSeed,
		Metrics:  reg,
	})
}

// ServeABRate is the offered load of the deferred-reclamation A/B: just
// under the synchronous mode's capacity for the bulk profile on 4 shards,
// where per-page reclamation inside the service window turns directly into
// queueing delay — the regime the deferral exists for.
const ServeABRate = 6500

// ServeABResult is the deferred-reclamation A/B embedded in the report: the
// same bulk-profile serving scenario run twice — synchronous deletion, then
// DeferredDelete — over identical seeds. RunServeAB enforces the mode's
// core claim (bit-identical checksums) at build time; the compare gate
// holds the tail-latency claim (deferred p999 no worse than sync) and the
// artifact's determinism across regenerations.
type ServeABResult struct {
	Profile  string        `json:"profile"`
	Sessions int           `json:"sessions"`
	Seed     int64         `json:"seed"`
	Rate     float64       `json:"ratePerMcycle"`
	Sync     *serve.Result `json:"sync"`
	Deferred *serve.Result `json:"deferred"`
}

// RunServeAB runs the deferred-reclamation A/B scenario. It errors — rather
// than recording a report — when the two modes disagree on the checksum or
// the deferred run swept nothing, since either would make the A/B vacuous.
// (serve.Run itself already fails a deferred run whose sweep debt is
// nonzero after drain.)
func RunServeAB(scaleDiv int, reg *metrics.Registry) (*ServeABResult, error) {
	sessions := 4000 / scaleDiv
	if sessions < 100 {
		sessions = 100
	}
	base := serve.Config{
		Sessions: sessions,
		Seed:     ServeScenarioSeed,
		Profile:  "bulk",
		Rate:     ServeABRate,
		Metrics:  reg,
	}
	syncRes, err := serve.Run(base)
	if err != nil {
		return nil, fmt.Errorf("bench: serve A/B sync run: %w", err)
	}
	dcfg := base
	dcfg.DeferredDelete = true
	defRes, err := serve.Run(dcfg)
	if err != nil {
		return nil, fmt.Errorf("bench: serve A/B deferred run: %w", err)
	}
	if syncRes.Checksum != defRes.Checksum {
		return nil, fmt.Errorf("bench: serve A/B checksum mismatch: sync %08x, deferred %08x — deferred deletion changed the allocation stream",
			syncRes.Checksum, defRes.Checksum)
	}
	if defRes.SweptPages == 0 {
		return nil, fmt.Errorf("bench: serve A/B deferred run swept no pages — deferral never engaged")
	}
	return &ServeABResult{
		Profile:  base.Profile,
		Sessions: sessions,
		Seed:     base.Seed,
		Rate:     base.Rate,
		Sync:     syncRes,
		Deferred: defRes,
	}, nil
}

// compareServeAB prints the A/B delta and returns the regressions: a
// deferred p999 above the sync p999 (the scenario is deterministic, so
// this gate is noise-free), and — when the configs match — a checksum that
// drifted from the artifact.
func compareServeAB(w io.Writer, old, cur *Report, sameConfig bool) []string {
	if cur.ServeAB == nil {
		return nil
	}
	var regressions []string
	c := cur.ServeAB
	fmt.Fprintf(w, "\nserve A/B (%s profile, %d sessions, rate %g/Mcycle): sync vs deferred\n",
		c.Profile, c.Sessions, c.Rate)
	fmt.Fprintf(w, "  p50 %d -> %d, p99 %d -> %d, p999 %d -> %d sim cycles\n",
		c.Sync.P50, c.Deferred.P50, c.Sync.P99, c.Deferred.P99, c.Sync.P999, c.Deferred.P999)
	fmt.Fprintf(w, "  deferred: peak debt %d pages, swept %d pages, reclamation lag %d sim cycles\n",
		c.Deferred.SweepDebtPeakPages, c.Deferred.SweptPages, c.Deferred.ReclamationLagCycles)
	if c.Deferred.P999 > c.Sync.P999 {
		regressions = append(regressions,
			fmt.Sprintf("serve A/B: deferred p999 %d above sync p999 %d — deferral is hurting the tail",
				c.Deferred.P999, c.Sync.P999))
	}
	if o := old.ServeAB; o != nil && sameConfig && o.Sessions == c.Sessions {
		if c.Sync.Checksum != o.Sync.Checksum {
			regressions = append(regressions,
				fmt.Sprintf("serve A/B: checksum %08x, artifact has %08x — serving results changed",
					c.Sync.Checksum, o.Sync.Checksum))
		}
	}
	return regressions
}

// StrABResult is the pooled-string-allocator A/B embedded in the report:
// the strheavy buffer-recycling scenario served with the pool (the default)
// and with NoStrPool, over identical seeds. Checksums are content sums, so
// the two arms must agree bit for bit while the pooled arm serves most
// string allocations from its free lists (Pooled.StrReuseRatio) and maps
// less memory from the simulated OS (MappedBytes).
type StrABResult struct {
	Profile  string        `json:"profile"`
	Sessions int           `json:"sessions"`
	Seed     int64         `json:"seed"`
	Rate     float64       `json:"ratePerMcycle"`
	Pooled   *serve.Result `json:"pooled"`
	NoPool   *serve.Result `json:"noPool"`
}

// RunStrAB runs the string-pool A/B scenario. It errors — rather than
// recording a report — when the arms disagree on the checksum, when the
// pooled arm reused nothing (the A/B would be vacuous), or when pooling
// increased OS traffic (the opposite of the pool's claim).
func RunStrAB(scaleDiv int, reg *metrics.Registry) (*StrABResult, error) {
	sessions := 4000 / scaleDiv
	if sessions < 100 {
		sessions = 100
	}
	base := serve.Config{
		Sessions: sessions,
		Seed:     ServeScenarioSeed,
		Profile:  "strheavy",
		Metrics:  reg,
	}
	pooled, err := serve.Run(base)
	if err != nil {
		return nil, fmt.Errorf("bench: string-pool A/B pooled run: %w", err)
	}
	ncfg := base
	ncfg.NoStrPool = true
	noPool, err := serve.Run(ncfg)
	if err != nil {
		return nil, fmt.Errorf("bench: string-pool A/B no-pool run: %w", err)
	}
	if pooled.Checksum != noPool.Checksum {
		return nil, fmt.Errorf("bench: string-pool A/B checksum mismatch: pooled %08x, no-pool %08x — pooling changed session results",
			pooled.Checksum, noPool.Checksum)
	}
	if pooled.StrReuse == 0 {
		return nil, fmt.Errorf("bench: string-pool A/B pooled run reused nothing — the pool never engaged")
	}
	if noPool.StrReuse != 0 {
		return nil, fmt.Errorf("bench: string-pool A/B no-pool run reports %d reuses — NoStrPool did not disable the pool",
			noPool.StrReuse)
	}
	if pooled.MappedBytes > noPool.MappedBytes {
		return nil, fmt.Errorf("bench: string-pool A/B pooled run mapped %d bytes, no-pool %d — pooling increased OS traffic",
			pooled.MappedBytes, noPool.MappedBytes)
	}
	return &StrABResult{
		Profile:  base.Profile,
		Sessions: sessions,
		Seed:     base.Seed,
		Rate:     pooled.Rate,
		Pooled:   pooled,
		NoPool:   noPool,
	}, nil
}

// compareStrAB prints the string-pool A/B delta and returns the
// regressions: a pooled arm that stopped reusing, pooled OS traffic above
// the no-pool arm, and — when the configs match — a checksum that drifted
// from the artifact.
func compareStrAB(w io.Writer, old, cur *Report, sameConfig bool) []string {
	if cur.StrAB == nil {
		return nil
	}
	var regressions []string
	c := cur.StrAB
	fmt.Fprintf(w, "\nstring-pool A/B (%s profile, %d sessions): pooled vs no-pool\n",
		c.Profile, c.Sessions)
	fmt.Fprintf(w, "  reuse %d/%d allocs (ratio %.3f), big %d, freed %d\n",
		c.Pooled.StrReuse, c.Pooled.StrNew+c.Pooled.StrReuse,
		c.Pooled.StrReuseRatio, c.Pooled.StrBig, c.Pooled.StrFreed)
	fmt.Fprintf(w, "  mapped %d -> %d bytes (%.1f%% of no-pool), p99 %d -> %d sim cycles\n",
		c.NoPool.MappedBytes, c.Pooled.MappedBytes,
		100*float64(c.Pooled.MappedBytes)/float64(c.NoPool.MappedBytes),
		c.NoPool.P99, c.Pooled.P99)
	if c.Pooled.StrReuse == 0 {
		regressions = append(regressions, "string-pool A/B: pooled run reused nothing — the pool never engaged")
	}
	if c.Pooled.MappedBytes > c.NoPool.MappedBytes {
		regressions = append(regressions,
			fmt.Sprintf("string-pool A/B: pooled run mapped %d bytes, no-pool %d — pooling increased OS traffic",
				c.Pooled.MappedBytes, c.NoPool.MappedBytes))
	}
	if o := old.StrAB; o != nil && sameConfig && o.Sessions == c.Sessions {
		if c.Pooled.Checksum != o.Pooled.Checksum {
			regressions = append(regressions,
				fmt.Sprintf("string-pool A/B: checksum %08x, artifact has %08x — serving results changed",
					c.Pooled.Checksum, o.Pooled.Checksum))
		}
	}
	return regressions
}

// compareServe prints the serve-scenario delta as context. When both
// reports ran the identical scenario it is also a gate: the shed counts,
// simulated latency percentiles and mapped bytes — exact and
// host-independent — may not grow by even one unit, and each regression
// names its field. The checksum sums completed sessions only, so a faster
// runtime that sheds fewer sessions changes it legitimately: it must match
// only when the completed and shed counts all match the artifact's.
func compareServe(w io.Writer, old, cur *Report, sameConfig bool) []string {
	if old.Serve == nil || cur.Serve == nil {
		return nil
	}
	o, c := old.Serve, cur.Serve
	fmt.Fprintf(w, "\nserve (%d sessions, seed %d): p50 %d -> %d, p99 %d -> %d, p999 %d -> %d sim cycles\n",
		c.Sessions, c.Seed, o.P50, c.P50, o.P99, c.P99, o.P999, c.P999)
	fmt.Fprintf(w, "  completed %d -> %d, shed %d -> %d (queue %d/%d, oom %d/%d), mapped %d -> %d bytes\n",
		o.Completed, c.Completed,
		o.ShedQueue+o.ShedOOM, c.ShedQueue+c.ShedOOM,
		o.ShedQueue, c.ShedQueue, o.ShedOOM, c.ShedOOM, o.MappedBytes, c.MappedBytes)
	if !sameConfig || o.Sessions != c.Sessions {
		return nil
	}
	var regressions []string
	switch {
	case o.Completed != c.Completed || o.ShedQueue != c.ShedQueue || o.ShedOOM != c.ShedOOM:
		fmt.Fprintf(w, "  checksum not comparable (completed %d -> %d)\n", o.Completed, c.Completed)
	case o.Checksum != c.Checksum:
		regressions = append(regressions, fmt.Sprintf("serve: checksum %08x, artifact has %08x — serving results changed",
			c.Checksum, o.Checksum))
	}
	for _, g := range []struct {
		field    string
		old, cur uint64
	}{
		{"shedQueue", o.ShedQueue, c.ShedQueue},
		{"shedOOM", o.ShedOOM, c.ShedOOM},
		{"p50Cycles", o.P50, c.P50},
		{"p99Cycles", o.P99, c.P99},
		{"p999Cycles", o.P999, c.P999},
		{"mappedBytes", o.MappedBytes, c.MappedBytes},
	} {
		if g.cur > g.old {
			regressions = append(regressions, fmt.Sprintf("serve: %s %d, artifact has %d — serving got worse",
				g.field, g.cur, g.old))
		}
	}
	return regressions
}
