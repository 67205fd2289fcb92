// Command perfbench is the repository benchmark: one process that runs a
// named workload against the region runtime, measures it on the simulated
// clock (exact, host-independent) and the host clock (noisy), checks the
// outputs against independent oracles, and prints every metric followed by
// one JSON result line.
//
//	perfbench --workload apps|serve-mix|serve-tenants --seed N --seconds S --trace 0|1
//
// With --trace 0 the JSON carries the end-to-end metrics, measured with
// every observation hook off. With --trace 1 a separate traced run attaches
// a metrics registry, span tracer, env decorator and CPU profile, checks
// that it reproduces the untraced run's simulated numbers bit for bit, and
// the JSON carries the per-layer metrics. README.md documents every metric.
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported number. Clock is "sim" for simulated-machine
// quantities (bit-identical for a given seed) and "host" for the
// simulator process's own cost.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Clock string
}

// report is one invocation's outcome.
type report struct {
	attempted int
	failed    int
	metrics   []metric
	checks    []string        // every check that ran, in first-run order
	failedChk map[string]bool // checks that failed at least once
	problems  []string        // one line per failure; any makes the run incorrect
}

func (r *report) add(name string, v float64, unit, clock string) {
	r.metrics = append(r.metrics, metric{name, v, unit, clock})
}

// check records one correctness check; a failing check marks the run
// incorrect and the command exits nonzero.
func (r *report) check(ok bool, name string, format string, args ...any) bool {
	if r.failedChk == nil {
		r.failedChk = map[string]bool{}
	}
	if _, seen := r.failedChk[name]; !seen {
		r.checks = append(r.checks, name)
		r.failedChk[name] = false
	}
	if !ok {
		r.failedChk[name] = true
		r.problems = append(r.problems, name+": "+fmt.Sprintf(format, args...))
	}
	return ok
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

var workloads = map[string]func(options) (*report, error){
	"apps":          runApps,
	"serve-mix":     func(o options) (*report, error) { return runServe(o, serveMix) },
	"serve-tenants": func(o options) (*report, error) { return runServe(o, serveTenants) },
}

func main() {
	name := flag.String("workload", "", "workload: apps, serve-mix or serve-tenants")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "host seconds of timed passes per run")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || flag.NArg() != 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	// Apps run on one goroutine and serve uses two shards: two threads is
	// all the workloads can use, and capping here keeps host numbers
	// comparable across machines with more cores.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	rep, err := run(options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traced == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	writeReport(*name, rep)
	if len(rep.problems) > 0 {
		os.Exit(1)
	}
}

// writeReport writes the human-readable table, the checks, and the JSON result as
// the last line of standard output.
func writeReport(name string, rep *report) {
	fmt.Printf("workload %s\n", name)
	for _, m := range rep.metrics {
		fmt.Printf("  %-36s %18s %-10s %s\n", m.Name, formatValue(m.Value), m.Unit, m.Clock)
	}
	fmt.Printf("  %-36s %18s %-10s %s\n", "failed_ratio",
		formatValue(float64(rep.failed)/float64(rep.attempted)), "fraction", "sim")
	var held []string
	for _, c := range rep.checks {
		if !rep.failedChk[c] {
			held = append(held, c)
		}
	}
	fmt.Printf("checks held: %s\n", strings.Join(held, ", "))
	for _, p := range rep.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(rep.problems) == 0, rep.attempted, rep.failed, map[string]value{}}
	for _, m := range rep.metrics {
		if _, dup := out.Metrics[m.Name]; dup {
			panic("perfbench: metric reported twice: " + m.Name)
		}
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // every value is finite by construction
	}
	fmt.Println(string(b))
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

// timedPasses runs pass until the budget is spent (at least once) and
// returns each pass's host duration. Each pass starts from a collected
// heap with its free pages returned to the OS, so one pass's garbage is
// not billed to the next and the peak RSS does not depend on when the
// background scavenger last ran.
func timedPasses(budget time.Duration, pass func() (time.Duration, error)) ([]time.Duration, error) {
	var walls []time.Duration
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < budget {
		debug.FreeOSMemory()
		d, err := pass()
		if err != nil {
			return nil, err
		}
		walls = append(walls, d)
	}
	return walls, nil
}

// setupReps is how many set-up samples a run takes. Each sample repeats
// the set-up for at least setupSample and keeps the mean, because one
// construction can take only microseconds. The collector is off within a
// sample: in a real run the machines built stay live, so collecting the
// discarded copies would time an artifact of repeating the set-up.
const (
	setupReps   = 15
	setupSample = 2 * time.Millisecond
)

// medianSetup returns the median over setupReps samples of the mean set-up
// time, in seconds.
func medianSetup(setup func()) float64 {
	ds := make([]time.Duration, setupReps)
	for i := range ds {
		runtime.GC()
		gcPercent := debug.SetGCPercent(-1)
		n := 0
		start := time.Now()
		for n == 0 || time.Since(start) < setupSample {
			setup()
			n++
		}
		ds[i] = time.Since(start) / time.Duration(n)
		debug.SetGCPercent(gcPercent)
	}
	runtime.GC()
	return medianDuration(ds).Seconds()
}

func medianDuration(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// lowerMedian is the lower median: an element of the population, so a
// median of simulated cycle counts stays an exact simulated count.
func lowerMedian[T cmp.Ordered](v []T) T {
	s := slices.Clone(v)
	slices.Sort(s)
	return s[(len(s)-1)/2]
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// hostSample reads the Go runtime's own statistics, after the lindb
// runtime-statistics pattern: the simulator's heap and GC cost are layer
// metrics like any other.
type hostSample struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

func readHost() hostSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var h hostSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		h.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		h.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		h.gcCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		h.totalCPU = s[3].Value.Float64()
	}
	return h
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// forEach calls fn(0..n-1) on up to two goroutines (the GOMAXPROCS cap) and
// returns the first error. Only untimed passes use it: their results are
// simulated numbers, which do not depend on host scheduling.
func forEach(n int, fn func(i int) error) error {
	workers := min(n, runtime.GOMAXPROCS(0))
	errs := make([]error, n)
	next := make(chan int, n) // sized to the number of sends
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
