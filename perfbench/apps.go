package main

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime/pprof"
	"time"

	"regions/internal/apps/appkit"
	"regions/internal/apps/cfrac"
	"regions/internal/apps/grobner"
	"regions/internal/apps/minicc"
	"regions/internal/apps/moss"
	"regions/internal/apps/mudlle"
	"regions/internal/apps/tile"
	"regions/internal/metrics"
	"regions/internal/stats"
)

// paperApps are the paper's six benchmarks in its order; minicc is "lcc".
var paperApps = []appkit.App{cfrac.App(), grobner.App(), mudlle.App(), minicc.App(), tile.App(), moss.App()}

func appLabel(a appkit.App) string {
	if a.Name == "minicc" {
		return "lcc"
	}
	return a.Name
}

// appRun is everything one app run leaves on the simulated machine.
type appRun struct {
	Checksum uint32
	Counters stats.Counters
	Mapped   uint64
	// Cache model tallies (the UltraSparc-I model is always attached).
	Reads, Writes, L1Misses, L2Misses uint64
}

func captureApp(e appkit.RegionEnv, sum uint32) appRun {
	c := e.Space().Cache()
	return appRun{
		Checksum: sum,
		Counters: *e.Counters(),
		Mapped:   e.Space().MappedBytes(),
		Reads:    c.Reads, Writes: c.Writes, L1Misses: c.L1Misses, L2Misses: c.L2Misses,
	}
}

// runApp runs one app to completion, turning a panic into an error so one
// broken app counts as failed instead of ending the benchmark.
func runApp(a appkit.App, e appkit.RegionEnv) (sum uint32, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s panicked: %v", a.Name, p)
		}
	}()
	sum = a.Region(e, a.DefaultScale)
	e.Finalize()
	return sum, nil
}

// newAppEnvs is the apps workload's set-up: one safe-runtime environment
// per app, each with its own address space and UltraSparc-I cache model.
func newAppEnvs(reg *metrics.Registry) []appkit.RegionEnv {
	envs := make([]appkit.RegionEnv, len(paperApps))
	for i := range envs {
		envs[i] = appkit.NewRegionEnv("safe", appkit.Config{Cache: true, Metrics: reg})
	}
	return envs
}

// runApps is the apps workload: the six paper apps at DefaultScale under
// the safe runtime with the cache model, one after another in the paper's
// order on one goroutine — a closed batch. The apps' inputs are the
// paper's, fixed in each app, so the seed changes nothing here: varying the
// run order by seed would move only the peak RSS, by about 20%, and no
// simulated number.
func runApps(o options) (*report, error) {
	rep := &report{attempted: len(paperApps)}

	var passes [][]appRun
	perApp := make([][]time.Duration, len(paperApps))
	hostBefore := readHost()
	walls, err := timedPasses(o.seconds, func() (time.Duration, error) {
		envs := newAppEnvs(nil)
		runs := make([]appRun, len(paperApps))
		start := time.Now()
		for i := range paperApps {
			t0 := time.Now()
			sum, err := runApp(paperApps[i], envs[i])
			if err != nil {
				return 0, err
			}
			perApp[i] = append(perApp[i], time.Since(t0))
			runs[i] = captureApp(envs[i], sum)
		}
		wall := time.Since(start)
		passes = append(passes, runs)
		return wall, nil
	})
	if err != nil {
		return nil, err
	}
	hostAfter := readHost()
	rss := peakRSSMB()
	wall := medianDuration(walls)
	// Set-up is timed after the passes so that its repeated constructions
	// cannot raise the peak RSS the passes report.
	setup := medianSetup(func() { newAppEnvs(nil) })

	// The oracle pass, untimed unless traced: every app again under the
	// env decorator (per-call simulated latency; host time and the metrics
	// registry too when traced), its heap verified, and its checksum
	// compared with the unsafe runtime's.
	var reg *metrics.Registry
	if o.trace {
		reg = metrics.NewRegistry()
	}
	envs := newAppEnvs(reg)
	decorated := make([]*meteredEnv, len(envs))
	oracle := make([]appRun, len(envs))
	runErr := make([]error, len(envs))
	runOracle := func(i int) error {
		decorated[i] = &meteredEnv{RegionEnv: envs[i], hostClock: o.trace}
		sum, err := runApp(paperApps[i], decorated[i])
		runErr[i] = err
		oracle[i] = captureApp(envs[i], sum)
		return nil
	}
	// Traced, the apps run one after another like the timed passes, so the
	// extra wall time is the observation overhead; untraced, two at a time.
	var prof bytes.Buffer
	var tracedWall time.Duration
	if o.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
		start := time.Now()
		for i := range paperApps {
			runOracle(i)
		}
		tracedWall = time.Since(start)
		pprof.StopCPUProfile()
	} else {
		forEach(len(envs), runOracle)
	}
	unsafeSum := make([]uint32, len(envs))
	unsafeErr := make([]error, len(envs))
	forEach(len(envs), func(i int) error {
		unsafeSum[i], unsafeErr[i] = runApp(paperApps[i], appkit.NewRegionEnv("unsafe", appkit.Config{}))
		return nil
	})

	var hist cycleHist
	for i, a := range paperApps {
		hist.merge(&decorated[i].hist)
		ok := rep.check(runErr[i] == nil, "apps-run", "%v", runErr[i])
		verr := appkit.RuntimeOf(envs[i]).Verify()
		ok = rep.check(verr == nil, "verify-clean", "%s: %v", a.Name, verr) && ok
		ok = rep.check(unsafeErr[i] == nil && unsafeSum[i] == oracle[i].Checksum, "safe-equals-unsafe",
			"%s: safe checksum %#x, unsafe %#x (%v)", a.Name, oracle[i].Checksum, unsafeSum[i], unsafeErr[i]) && ok
		if !ok {
			rep.failed++
		}
		for p, runs := range passes {
			rep.check(reflect.DeepEqual(runs[i], oracle[i]), "passes-reproduce-oracle",
				"%s: timed pass %d differs from the oracle pass", a.Name, p)
		}
	}

	// Conservation: the paper's modes plus the two stall kinds account for
	// every charged cycle, per app and overall, and the apps sum to the
	// workload total.
	var total, modeSum, stalls uint64
	for i, a := range paperApps {
		c := oracle[i].Counters
		var m uint64
		for _, v := range c.Cycles {
			m += v
		}
		if m+c.ReadStalls+c.WriteStalls != c.TotalCycles() {
			rep.check(false, "cycles-conserved", "%s: modes %d + stalls %d != total %d",
				a.Name, m, c.ReadStalls+c.WriteStalls, c.TotalCycles())
		}
		total += c.TotalCycles()
		modeSum += m
		stalls += c.ReadStalls + c.WriteStalls
	}
	rep.check(modeSum+stalls == total, "cycles-conserved", "overall modes %d + stalls %d != Σ app totals %d",
		modeSum, stalls, total)

	if !o.trace {
		var mapped uint64
		for _, r := range oracle {
			mapped += r.Mapped
		}
		simM := float64(total) / 1e6
		rep.add("setup_s", setup, "s", "host")
		rep.add("wall_s", wall.Seconds(), "s", "host")
		rep.add("host_rss_mb", rss, "MB", "host")
		rep.add("sim_mcycles", simM, "Mcycles", "sim")
		rep.add("os_mapped_kb", float64(mapped)/1024, "KB", "sim")
		rep.add("p50_cycles", float64(hist.quantile(0.50)), "cycles", "sim")
		rep.add("p99_cycles", float64(hist.quantile(0.99)), "cycles", "sim")
		rep.add("p999_cycles", float64(hist.quantile(0.999)), "cycles", "sim")
		rep.add("max_rate_at_slo", float64(hist.n)/simM, "1/Mcycle", "sim")
		fmt.Printf("apps: timed passes took %v; %d region-runtime calls in the latency population\n", walls, hist.n)
		return rep, nil
	}

	// Per-layer numbers from the traced pass.
	l := newLayers()
	snap := reg.Snapshot()
	var acc, l1, l2, rst, wst uint64
	var modes [stats.NumModes]uint64
	for _, r := range oracle {
		acc += r.Reads + r.Writes
		l1 += r.L1Misses
		l2 += r.L2Misses
		rst += r.Counters.ReadStalls
		wst += r.Counters.WriteStalls
		for m, v := range r.Counters.Cycles {
			modes[m] += v
		}
	}
	l.set("mem.accesses", float64(acc))
	l.set("cachesim.l1_miss_ratio", ratio(l1, acc))
	l.set("cachesim.l2_miss_ratio", ratio(l2, l1))
	l.set("cachesim.read_stall_mcycles", float64(rst)/1e6)
	l.set("cachesim.write_stall_mcycles", float64(wst)/1e6)
	for m := stats.ModeApp; m <= stats.ModeCleanup; m++ {
		l.set("core.cycles."+m.String(), float64(modes[m])/1e6)
	}
	l.setRegistry(snap.CounterSum)
	var peak int
	var tax uint64
	for _, e := range envs {
		rt := appkit.RuntimeOf(e)
		peak = max(peak, rt.SweepDebtPeak())
		tax += rt.SweepTaxCycles()
	}
	l.set("core.sweep_debt_peak", float64(peak))
	l.set("core.sweep_tax_mcycles", float64(tax)/1e6)
	var ops [numOps]callStats
	for _, d := range decorated {
		for op := range ops {
			ops[op].calls += d.ops[op].calls
			ops[op].hostNS += d.ops[op].hostNS
		}
	}
	for op := 0; op < hostTimedOps; op++ {
		l.set("core.host_ns."+opNames[op], ratio(uint64(ops[op].hostNS), ops[op].calls))
	}
	for i, a := range paperApps {
		l.set("apps."+appLabel(a)+".sim_mcycles", float64(oracle[i].Counters.TotalCycles())/1e6)
		l.set("apps."+appLabel(a)+".host_s", medianDuration(perApp[i]).Seconds())
	}
	shares, err := hostShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	l.setShares(shares)
	l.setHost(hostBefore, hostAfter, len(walls))
	l.set("host.ns_per_sim_access", ratio(uint64(wall.Nanoseconds()), acc))
	l.set("host.trace_overhead_ratio", tracedWall.Seconds()/wall.Seconds()-1)
	l.emit(rep)
	return rep, nil
}
