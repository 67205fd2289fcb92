package main

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime/pprof"
	"time"

	"regions/internal/core"
	"regions/internal/metrics"
	"regions/internal/serve"
	"regions/internal/shard"
	"regions/internal/trace"
)

// serveWorkload is one open-loop serving workload. A run serves replicas
// independent schedules of base.Sessions sessions each (replica i uses seed
// + i*replicaStride, so replica 0 is the bare seed) and reports latency
// order statistics as the median over replicas: one replica's tail is
// dominated by a few bursts, and the median of several is steady from seed
// to seed where a single replica's p999 is not.
type serveWorkload struct {
	base     serve.Config
	replicas int
}

const replicaStride = 1_000_000

// sloCycles is the latency limit max_rate_at_slo holds exact p99 to. It
// binds near the measured knee of both serve workloads; the serve default
// of 1,000,000 cycles never binds.
const sloCycles = 32768

var (
	// serveMix: the default six-profile mix on 2 shards with synchronous
	// delete at about 80% of the knee. Short-lived per-request regions;
	// shard queueing and admission decide the tail. No cache model.
	serveMix = serveWorkload{
		base:     serve.Config{Sessions: 20000, Shards: 2, Rate: 330},
		replicas: 3,
	}
	// serveTenants: 8 skewed tenants with long-lived state regions beside
	// the per-request ones, deferred delete, served on 1 shard and resized
	// live to 2 halfway through — the only workload where sweep, migrate
	// and placement do real work.
	serveTenants = serveWorkload{
		base: serve.Config{Sessions: 20000, Shards: 1, ResizeTo: 2, Tenants: 8,
			DeferredDelete: true, Rate: 150},
		replicas: 5,
	}
)

func (w serveWorkload) config(seed int64, replica int, rate float64) serve.Config {
	c := w.base
	c.Seed = seed + int64(replica)*replicaStride
	c.Rate = rate
	return c
}

// setup builds the simulated machines a pass serves on: one shard
// environment (region runtime and address space, configured as the engine
// configures it) per shard of every replica. The engine's worker
// goroutines are left out: starting and joining threads is host
// scheduling, which is too noisy to time in microseconds.
func (w serveWorkload) setup() {
	for i := 0; i < w.replicas*max(w.base.Shards, w.base.ResizeTo); i++ {
		shard.NewEnv("setup", core.Options{
			Safe:           true,
			PageBatch:      shard.DefaultPageBatch,
			DeferredDelete: w.base.DeferredDelete,
		})
	}
}

// observed is one replica served with spans (and optionally metrics) on.
type observed struct {
	res  *serve.Result
	prof *trace.SpanProfile
	lat  []uint64          // per completed request, request-id order
	snap *metrics.Snapshot // nil unless metered
}

func (ob *observed) quantile(q float64) uint64 { return trace.QuantileExact(ob.lat, q) }

// observe serves cfg with a span ring sized so no event is overwritten
// (serve emits about 12 per completed session plus shard-track spans) and,
// when metered, a private metrics registry.
func observe(cfg serve.Config, metered bool) (*observed, error) {
	t := trace.New(16*cfg.Sessions + 1024)
	cfg.SpanTracer = t
	if metered {
		cfg.Metrics = metrics.NewRegistry()
	}
	res, err := serve.Run(cfg)
	if err != nil {
		return nil, err
	}
	if d := t.Stats().Dropped; d != 0 {
		return nil, fmt.Errorf("span ring dropped %d events; latencies would be incomplete", d)
	}
	prof, err := trace.BuildSpanProfile(t.Events(), 0)
	if err != nil {
		return nil, err
	}
	ob := &observed{res: res, prof: prof, lat: make([]uint64, len(prof.Requests))}
	for i, r := range prof.Requests {
		ob.lat[i] = r.Latency()
	}
	if metered {
		ob.snap = cfg.Metrics.Snapshot()
	}
	return ob, nil
}

// sameSim reports whether two results of one config agree on every
// simulated number; the span report is the only field observation adds.
func sameSim(a, b *serve.Result) bool {
	x, y := *a, *b
	x.Spans, y.Spans = nil, nil
	return reflect.DeepEqual(x, y)
}

// histBucket is the power-of-two latency bucket (serve's histogram bounds,
// 2^11..2^31 cycles) a value falls in.
func histBucket(v uint64) int {
	b := 11
	for b < 32 && v > 1<<b {
		b++
	}
	return b
}

func runServe(o options, w serveWorkload) (*report, error) {
	k := w.replicas
	rep := &report{attempted: k * w.base.Sessions}
	nominal := w.base.Rate
	var passes [][]*serve.Result
	hostBefore := readHost()
	walls, err := timedPasses(o.seconds, func() (time.Duration, error) {
		results := make([]*serve.Result, k)
		start := time.Now()
		for i := range results {
			res, err := serve.Run(w.config(o.seed, i, nominal))
			if err != nil {
				return 0, err
			}
			results[i] = res
		}
		wall := time.Since(start)
		passes = append(passes, results)
		return wall, nil
	})
	if err != nil {
		return nil, err
	}
	hostAfter := readHost()
	rss := peakRSSMB()
	wall := medianDuration(walls)
	// After the passes, like apps: set-up must not raise their peak RSS.
	setup := medianSetup(w.setup)

	// The oracle pass: the same replicas with spans and metrics on (and
	// the CPU profile when traced) — exact latencies and the busy-cycle
	// ledger, and the proof that observation changes no simulated number.
	// Traced, it runs one replica at a time like the timed passes, so its
	// extra wall time is the observation overhead; untraced, two at a time.
	obs := make([]*observed, k)
	observeOne := func(i int) (err error) {
		obs[i], err = observe(w.config(o.seed, i, nominal), true)
		return err
	}
	var prof bytes.Buffer
	var tracedWall time.Duration
	if o.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
		start := time.Now()
		for i := range obs {
			if err = observeOne(i); err != nil {
				break
			}
		}
		tracedWall = time.Since(start)
		pprof.StopCPUProfile()
	} else {
		err = forEach(k, observeOne)
	}
	if err != nil {
		return nil, err
	}
	if w.base.Tenants > 0 {
		controls := make([]*serve.Result, k)
		err := forEach(k, func(i int) (err error) {
			c := w.config(o.seed, i, nominal)
			c.ResizeTo = 0
			controls[i], err = serve.Run(c)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("no-resize control: %w", err)
		}
		for i, c := range controls {
			r := obs[i].res
			rep.check(c.TenantChecksum == r.TenantChecksum && c.Checksum == r.Checksum,
				"resize-equals-control", "replica %d: tenant digest %#x vs control %#x, checksum %#x vs %#x",
				i, r.TenantChecksum, c.TenantChecksum, r.Checksum, c.Checksum)
		}
	}

	var busy, mapped uint64
	var p50, p99, p999, histP99 []uint64
	for i, ob := range obs {
		r := ob.res
		rep.failed += int(r.ShedQueue + r.ShedOOM)
		for p, results := range passes {
			rep.check(sameSim(results[i], r), "passes-reproduce-oracle",
				"replica %d: timed pass %d differs from the observed run", i, p)
		}
		rep.check(uint64(len(ob.lat)) == r.Completed, "spans-cover-requests",
			"replica %d: %d requests reconstructed, %d completed", i, len(ob.lat), r.Completed)
		rep.check(r.Completed >= 10000, "p999-has-10k-samples", "replica %d: %d completed", i, r.Completed)
		err := ob.prof.Conserved()
		var phases, lats uint64
		for _, c := range ob.prof.PhaseTotals {
			phases += c
		}
		for _, l := range ob.lat {
			lats += l
		}
		rep.check(err == nil && phases == lats, "spans-conserved",
			"replica %d: phase self-cycles %d vs latencies %d (%v)", i, phases, lats, err)
		for _, q := range []struct {
			est, exact uint64
		}{{r.P50, ob.quantile(0.50)}, {r.P99, ob.quantile(0.99)}, {r.P999, ob.quantile(0.999)}} {
			rep.check(histBucket(q.est) == histBucket(q.exact), "exact-in-hist-bucket",
				"replica %d: exact %d and histogram estimate %d in different buckets", i, q.exact, q.est)
		}
		busy += ob.snap.CounterSum("regions_shard_busy_cycles_total")
		mapped += r.MappedBytes
		p50 = append(p50, ob.quantile(0.50))
		p99 = append(p99, ob.quantile(0.99))
		p999 = append(p999, ob.quantile(0.999))
		histP99 = append(histP99, r.P99)
	}

	if !o.trace {
		maxRate, err := w.maxRate(o.seed, lowerMedian(p99) <= sloCycles && rep.failed == 0)
		if err != nil {
			return nil, err
		}
		rep.add("setup_s", setup, "s", "host")
		rep.add("wall_s", wall.Seconds(), "s", "host")
		rep.add("host_rss_mb", rss, "MB", "host")
		rep.add("sim_mcycles", float64(busy)/1e6, "Mcycles", "sim")
		rep.add("os_mapped_kb", float64(mapped)/1024, "KB", "sim")
		rep.add("p50_cycles", float64(lowerMedian(p50)), "cycles", "sim")
		rep.add("p99_cycles", float64(lowerMedian(p99)), "cycles", "sim")
		rep.add("p999_cycles", float64(lowerMedian(p999)), "cycles", "sim")
		rep.add("max_rate_at_slo", maxRate, "1/Mcycle", "sim")
		fmt.Printf("serve: timed passes of %d replicas x %d sessions took %v; per-replica exact p99 %v, p999 %v\n",
			k, w.base.Sessions, walls, p99, p999)
		return rep, nil
	}

	l := newLayers()
	l.setRegistry(func(prefix string) uint64 {
		var sum uint64
		for _, ob := range obs {
			sum += ob.snap.CounterSum(prefix)
		}
		return sum
	})
	var res serve.Result // summed tallies
	var busyRatios, phase2 []float64
	var tax uint64
	var peak int
	phaseP99 := map[string][]uint64{}
	var track [trace.NumSpanKinds]uint64
	var phaseTotals [trace.NumSpanKinds]uint64
	for _, ob := range obs {
		r := ob.res
		res.Completed += r.Completed
		res.Admitted += r.Admitted
		res.Queued += r.Queued
		res.ShedQueue += r.ShedQueue
		res.ShedOOM += r.ShedOOM
		res.Migrations += r.Migrations
		res.MigratedPages += r.MigratedPages
		res.MaxQueueDepth = max(res.MaxQueueDepth, r.MaxQueueDepth)
		peak = max(peak, r.SweepDebtPeakPages)
		tax += ob.prof.PhaseTotals[trace.SpanSweep]
		var shardBusy []uint64
		for s := 0; s < max(w.base.Shards, w.base.ResizeTo); s++ {
			v, _ := ob.snap.Counter(fmt.Sprintf(`regions_shard_busy_cycles_total{shard="%d"}`, s))
			shardBusy = append(shardBusy, v)
		}
		busyRatios = append(busyRatios, maxMinRatio(shardBusy))
		phase2 = append(phase2, r.Phase2BusyRatio)
		for _, kind := range trace.SpanKinds() {
			phaseTotals[kind] += ob.prof.PhaseTotals[kind]
			track[kind] += ob.prof.TrackTotals[kind]
			phaseP99[kind.String()] = append(phaseP99[kind.String()],
				trace.QuantileExact(ob.prof.PhaseValues(kind), 0.99))
		}
	}
	l.set("core.sweep_debt_peak", float64(peak))
	l.set("core.sweep_tax_mcycles", float64(tax)/1e6)
	l.set("shard.busy_ratio", lowerMedian(busyRatios))
	l.set("shard.max_queue_depth", float64(res.MaxQueueDepth))
	l.set("shard.migrations", float64(res.Migrations))
	l.set("shard.migrated_pages", float64(res.MigratedPages))
	l.set("shard.phase2_busy_ratio", lowerMedian(phase2))
	for _, kind := range trace.SpanKinds() {
		name := kind.String()
		if kind == trace.SpanStealStall {
			// Sessions are pinned to their home shard, so nothing is ever
			// stolen; shard.steals reports the engine's own count.
			continue
		}
		l.set("serve.phase."+name+".total_mcycles", float64(phaseTotals[kind])/1e6)
		l.set("serve.phase."+name+".p99_cycles", float64(lowerMedian(phaseP99[name])))
	}
	l.set("serve.track.sweep_mcycles", float64(track[trace.SpanSweep])/1e6)
	l.set("serve.track.migrate_mcycles", float64(track[trace.SpanMigrate])/1e6)
	l.set("serve.completed", float64(res.Completed))
	l.set("serve.queued_ratio", ratio(res.Queued, res.Admitted))
	l.set("serve.shed_queue", float64(res.ShedQueue))
	l.set("serve.shed_oom", float64(res.ShedOOM))
	l.set("serve.hist_p99_cycles", float64(lowerMedian(histP99)))
	shares, err := hostShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	l.setShares(shares)
	l.setHost(hostBefore, hostAfter, len(walls))
	l.set("host.trace_overhead_ratio", tracedWall.Seconds()/wall.Seconds()-1)
	l.emit(rep)
	return rep, nil
}

// maxRate finds the highest offered rate, on a grid of nominal/32 steps,
// at which the median over replicas of exact p99 stays within sloCycles
// and no replica sheds. nominalOK is that verdict at the nominal rate,
// already measured. The schedule runs on the simulated clock, so the
// arrival generator is never late.
func (w serveWorkload) maxRate(seed int64, nominalOK bool) (float64, error) {
	const grid = 32
	step := w.base.Rate / grid
	// Grid indices: lo meets the SLO (or is 0); hi is the first index known
	// or assumed not to. Doubling hi is probed only if the bisection ends
	// just below it, which saves a probe on the usual bracket.
	lo, hi, hiKnown := 0, grid, true
	if nominalOK {
		lo, hi, hiKnown = grid, 2*grid, false
	}
	for {
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			ok, err := w.meetsSLO(seed, float64(mid)*step)
			if err != nil {
				return 0, err
			}
			if ok {
				lo = mid
			} else {
				hi, hiKnown = mid, true
			}
		}
		if hiKnown {
			return float64(lo) * step, nil
		}
		ok, err := w.meetsSLO(seed, float64(hi)*step)
		if err != nil {
			return 0, err
		}
		if !ok {
			return float64(lo) * step, nil
		}
		lo, hi = hi, 2*hi
	}
}

// meetsSLO serves the replicas at rate, two at a time, until the verdict
// is known: any shed or a majority over the limit fails it early; passing
// needs every replica.
func (w serveWorkload) meetsSLO(seed int64, rate float64) (bool, error) {
	over := 0
	for first := 0; first < w.replicas; first += 2 {
		batch := make([]*observed, min(2, w.replicas-first))
		err := forEach(len(batch), func(i int) (err error) {
			batch[i], err = observe(w.config(seed, first+i, rate), false)
			return err
		})
		if err != nil {
			return false, err
		}
		for _, ob := range batch {
			if ob.res.ShedQueue+ob.res.ShedOOM > 0 {
				return false, nil
			}
			if ob.quantile(0.99) > sloCycles {
				over++
			}
		}
		if over > w.replicas/2 {
			return false, nil
		}
	}
	return true, nil
}

func maxMinRatio(v []uint64) float64 {
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	return ratio(hi, max(lo, 1))
}
