package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"regions/internal/apps/appkit"
	"regions/internal/core"
	"regions/internal/metrics"
	"regions/internal/trace"
)

// DefaultPageBatch is the free-page cache batch used by shard runtimes when
// the config does not name one: each shard requests pages from its simulated
// OS 64 at a time and serves region churn from the cache.
const DefaultPageBatch = 64

// queueCap is the capacity of each shard's stealable and pinned task
// deques; a submitter blocks while every deque it still has tasks for is
// full.
const queueCap = 32

// Task is one unit of work for the engine. Run receives the executing
// shard's environment and returns a checksum; checksums are summed (a
// commutative fold) into the shard's stats, so any placement of a fixed
// task set — including placements rearranged by work stealing — yields the
// same aggregate checksum, the engine's determinism gate. Summing rather
// than XOR keeps repeated identical tasks from cancelling out.
type Task struct {
	// Name labels the task in failure reports.
	Name string
	// Affinity, when non-empty, names the task's home shard: all tasks
	// with this key hash to the same shard. It is a soft preference —
	// an idle shard may still steal the task — unless Pin is also set.
	// Empty-key tasks are placed round-robin.
	Affinity string
	// Pin makes the task unstealable: it executes on its home shard, and
	// pinned tasks on one shard run in submission order (FIFO). Tasks
	// that touch regions owned by a specific shard's runtime must pin;
	// everything else should leave Pin false so the scheduler can balance
	// load.
	Pin bool
	// Run executes the task on the shard's environment.
	Run func(env appkit.RegionEnv) uint32
	// Done, when non-nil, is the task's completion callback: it runs on the
	// executing shard's goroutine immediately after Run returns (or after a
	// panic in Run is recovered), before the worker pops its next task.
	// Pinned tasks on one shard therefore observe their Done calls in
	// submission (FIFO) order, which is what lets a serving driver thread
	// per-shard bookkeeping through callbacks without locks — see
	// internal/serve. Done must not submit to the engine.
	Done func(res TaskResult)
}

// TaskResult describes one completed task, delivered to Task.Done.
type TaskResult struct {
	// Shard is the shard the task executed on (its home shard unless the
	// task was stolen).
	Shard int
	// Stolen reports whether a sibling shard ran the task.
	Stolen bool
	// Checksum is Run's return value; zero when the task failed.
	Checksum uint32
	// Err is non-nil when Run panicked; the panic was recovered and
	// recorded as a task failure.
	Err error
	// StartCycles and EndCycles bracket the task on the executing shard's
	// simulated clock: EndCycles-StartCycles is the simulated cost of this
	// task, and since a shard runs its tasks serially, consecutive pinned
	// tasks see contiguous, monotone windows.
	StartCycles, EndCycles uint64
}

// Stats is one shard's tally, owned by the shard goroutine until Close.
type Stats struct {
	Shard     int
	Tasks     uint64
	Failures  uint64
	LastError string // first line of the most recent task failure
	Checksum  uint32 // sum of completed task checksums
	Steals    uint64 // tasks this shard stole from siblings' deques
	SimCycles uint64 // simulated cycles charged on this shard
	OSBytes   uint64 // memory the shard requested from its OS

	// Deferred-reclamation tallies (core.Options.DeferredDelete only).
	SweptPages       uint64 // pages the shard's sweeper poisoned
	SweepDebtPeak    int    // highest sweep debt the shard ever carried
	DrainSweepCycles uint64 // simulated cycles of the close-time debt drain
}

// Aggregate is the whole engine's tally after Close, with PerShard in
// shard order.
type Aggregate struct {
	Shards   int
	Tasks    uint64
	Failures uint64
	Checksum uint32 // summed across shards; placement-independent
	Steals   uint64 // tasks that ran away from their home shard
	// MakespanCycles is the modelled completion time of the workload: the
	// maximum simulated cycle count over shards, since shards run
	// concurrently in wall time but each is its own simulated machine.
	MakespanCycles uint64
	// TotalCycles sums simulated cycles over all shards (the work done).
	TotalCycles uint64
	PerShard    []Stats
}

// workerMetrics caches one shard's labeled series.
type workerMetrics struct {
	tasks      *metrics.Counter
	failures   *metrics.Counter
	busyCycles *metrics.Counter
	steals     *metrics.Counter
	queueDepth *metrics.Gauge
}

func newWorkerMetrics(reg *metrics.Registry, shard int) *workerMetrics {
	label := fmt.Sprintf(`{shard="%d"}`, shard)
	return &workerMetrics{
		tasks:      reg.Counter("regions_shard_tasks_total" + label),
		failures:   reg.Counter("regions_shard_failures_total" + label),
		busyCycles: reg.Counter("regions_shard_busy_cycles_total" + label),
		steals:     reg.Counter("regions_shard_steals_total" + label),
		queueDepth: reg.Gauge("regions_shard_queue_depth" + label),
	}
}

type worker struct {
	id      int // position in the worker set; also the metric label and Env name
	env     *Env
	dq      deque // stealable tasks: owner pops back, thieves take front
	pinned  deque // pinned tasks: FIFO, never stolen
	npinned atomic.Int64
	stats   Stats

	met       *workerMetrics
	profEvery int
	lastProf  atomic.Value // *metrics.HeapReport
}

// Engine distributes tasks over N shard workers with work stealing:
// SubmitBatch places each task on its home shard's deque (affinity hash, or
// round-robin), the owner pops its own deque newest-first, and a worker that
// runs dry takes the oldest task from the first non-empty sibling deque.
// Pinned tasks never move. SubmitBatch may be called from any goroutine;
// Close waits for the queues to drain and returns the tally.
//
// The worker set only grows: Resize appends fresh shards, so a worker's id
// is its position for the engine's lifetime. The live slice is published
// through an atomic pointer, so SubmitBatch and the steal sweep always act
// on a consistent snapshot; Resize must not race SubmitBatch/Close — the
// driver quiesces submissions first (see Resize).
//
// Sleep/wake protocol: e.stealable counts tasks sitting in stealable
// deques engine-wide and each worker counts its own pinned backlog, both
// maintained by submitters at push time and by workers at pop time. A
// worker that finds nothing re-checks those counters under the engine
// mutex before blocking on the condvar, so a push between "sweep found
// nothing" and "sleep" can never be lost; every push and pop broadcasts,
// which also unblocks a submitter waiting because every deque it still has
// tasks for is full.
type Engine struct {
	ws        atomic.Pointer[[]*worker]
	rr        atomic.Uint32
	wg        sync.WaitGroup
	set       settings     // resolved options; template for workers Resize adds
	stealable atomic.Int64 // tasks currently in stealable deques, engine-wide

	mu     sync.Mutex
	cond   *sync.Cond
	closed atomic.Bool

	// resizeMu serializes Resize, MigrateRegion and Close.
	resizeMu sync.Mutex

	// Migration tallies (see migrate.go).
	migrations    atomic.Uint64
	migratedPages atomic.Uint64
	migTotal      *metrics.Counter
	migPages      *metrics.Counter
	migCycles     *metrics.Histogram
}

// NewEngine starts an engine configured by functional options (see
// options.go), each worker owning an independent region runtime (safe by
// default, see WithRuntime) with a batched free-page cache.
func NewEngine(opts ...Option) *Engine {
	s := settings{runtime: core.Options{Safe: true}}
	for _, o := range opts {
		o(&s)
	}
	if s.shards < 1 {
		s.shards = 1
	}
	if s.runtime.PageBatch == 0 {
		s.runtime.PageBatch = DefaultPageBatch
	}
	e := &Engine{set: s}
	e.cond = sync.NewCond(&e.mu)
	if reg := s.metrics; reg != nil {
		e.migTotal = reg.Counter("regions_migrations_total")
		e.migPages = reg.Counter("regions_migrated_pages_total")
		e.migCycles = reg.Histogram("regions_migration_cycles", migrationCycleBounds)
	}
	ws := make([]*worker, s.shards)
	for i := range ws {
		ws[i] = e.newWorker(i)
	}
	// Publish the full slice before starting anyone: a worker's steal sweep
	// reads the whole worker set.
	e.ws.Store(&ws)
	for _, w := range ws {
		e.wg.Add(1)
		go w.loop(e)
	}
	return e
}

// newWorker builds (but does not start) worker id from the engine's
// resolved settings.
func (e *Engine) newWorker(id int) *worker {
	w := &worker{
		id:        id,
		env:       NewEnv(shardName(id), e.set.runtime),
		dq:        newDeque(queueCap),
		pinned:    newDeque(queueCap),
		profEvery: e.set.heapProfileEvery,
	}
	if reg := e.set.metrics; reg != nil {
		w.env.Runtime().SetMetrics(reg)
		w.env.Space().SetMetrics(reg)
		w.met = newWorkerMetrics(reg, id)
	}
	w.stats.Shard = id
	return w
}

// workers returns the current live worker slice. The slice is immutable
// once published; Resize publishes a new one.
func (e *Engine) workers() []*worker { return *e.ws.Load() }

// Shards returns the number of live workers.
func (e *Engine) Shards() int { return len(e.workers()) }

// Env returns shard i's environment. The worker goroutine owns its
// environment while tasks run, so callers may touch it only before the
// first SubmitBatch (to install fault plans, page limits, cleanups), from a
// task pinned to shard i, or after Close (to Verify the drained heap).
func (e *Engine) Env(i int) *Env { return e.workers()[i].env }

// ShardFor returns the home shard index an affinity key maps to: FNV-1a
// mod the current shard count.
func (e *Engine) ShardFor(key string) int {
	return int(fnv32a(key) % uint32(len(e.workers())))
}

// home picks the index of t's home shard among n: the affinity hash when a
// key is set, round-robin otherwise.
func (e *Engine) home(n int, t Task) int {
	if t.Affinity != "" {
		return int(fnv32a(t.Affinity) % uint32(n))
	}
	return int((e.rr.Add(1) - 1) % uint32(n))
}

// Resize grows the live worker set to n shards by appending fresh shards
// (ids continuing from the current count, new empty runtimes built from the
// engine's settings) that immediately join placement and stealing. The
// engine never shrinks: n below Shards() is refused with an error and the
// engine left untouched; n equal to it is a no-op.
//
// Resize must not race SubmitBatch — the driver quiesces submission first
// (internal/serve resizes at a phase barrier) — and, like Env, a grown
// shard's environment may be set up directly until its first task.
func (e *Engine) Resize(n int) error {
	e.resizeMu.Lock()
	defer e.resizeMu.Unlock()
	if e.closed.Load() {
		return fmt.Errorf("shard: Resize after Close")
	}
	ws := e.workers()
	if n < len(ws) {
		return fmt.Errorf("shard: Resize(%d): the engine has %d shards and only grows", n, len(ws))
	}
	grown := append([]*worker(nil), ws...)
	for len(grown) < n {
		grown = append(grown, e.newWorker(len(grown)))
	}
	e.ws.Store(&grown)
	for _, w := range grown[len(ws):] {
		e.wg.Add(1)
		go w.loop(e)
	}
	return nil
}

// SubmitBatch submits tasks in order, grouped per destination queue — one
// (shard, pinned) deque — and fills every destination together: each round
// pushes whatever fits into every queue that still has tasks, so all shards
// start working at once instead of one queue filling while the others idle.
// Each push broadcasts once for its whole group. Order is preserved within
// each destination queue — the only order the engine promises, since
// stealable tasks may be rearranged by stealing anyway while pinned queues
// are FIFO. It blocks only while every destination with tasks left is full;
// submitting after Close panics, like writing to a closed pipe.
func (e *Engine) SubmitBatch(ts []Task) {
	ws := e.workers()
	ds := make([]dest, 2*len(ws)) // stealable at 2i, pinned at 2i+1
	for i, w := range ws {
		ds[2*i] = dest{w: w, q: &w.dq}
		ds[2*i+1] = dest{w: w, q: &w.pinned, pinned: true}
	}
	for _, t := range ts {
		i := 2 * e.home(len(ws), t)
		if t.Pin {
			i++
		}
		ds[i].ts = append(ds[i].ts, t)
	}
	e.fill(ds)
}

// dest is one destination of a submission: one of w's two deques and the
// tasks still to be pushed onto it, in order.
type dest struct {
	w      *worker
	q      *deque
	pinned bool
	ts     []Task
}

// fill pushes every destination's tasks onto its queue, in order, the
// engine's one blocking enqueue loop. Each round pushes whatever fits into
// every destination with tasks left; when none of them has room it waits on
// the condvar, re-checking under the engine mutex — which every pop's wake
// takes before broadcasting — so a slot freed between the round and the
// wait cannot be missed.
func (e *Engine) fill(ds []dest) {
	for {
		left := false
		for i := range ds {
			d := &ds[i]
			if len(d.ts) == 0 {
				continue
			}
			if e.closed.Load() {
				panic("shard: SubmitBatch after Close")
			}
			if n := d.q.pushN(d.ts); n > 0 {
				e.noteQueued(d.w, d.pinned, n)
				d.ts = d.ts[n:]
			}
			left = left || len(d.ts) > 0
		}
		if !left {
			return
		}
		e.mu.Lock()
		for allFull(ds) {
			if e.closed.Load() {
				e.mu.Unlock()
				panic("shard: SubmitBatch after Close")
			}
			e.cond.Wait()
		}
		e.mu.Unlock()
	}
}

// pinOn queues t on w's pinned deque regardless of placement, through the
// same fill loop; migration uses it to run its export and import tasks on
// the donor and the receiver.
func (e *Engine) pinOn(w *worker, t Task) {
	e.fill([]dest{{w: w, q: &w.pinned, pinned: true, ts: []Task{t}}})
}

// allFull reports whether every destination with tasks left is full.
func allFull(ds []dest) bool {
	for i := range ds {
		if len(ds[i].ts) > 0 && !ds[i].q.full() {
			return false
		}
	}
	return true
}

// noteQueued publishes n newly queued tasks on w: counters first, then a
// broadcast so sleeping workers re-check and find them.
func (e *Engine) noteQueued(w *worker, pinned bool, n int) {
	if pinned {
		w.npinned.Add(int64(n))
	} else {
		e.stealable.Add(int64(n))
	}
	if w.met != nil {
		w.met.queueDepth.Add(int64(n))
	}
	e.wake()
}

// wake broadcasts the engine condvar under its mutex, so a waiter is either
// already re-checking the counters or blocked and about to be released —
// never in between.
func (e *Engine) wake() {
	e.mu.Lock()
	e.cond.Broadcast()
	e.mu.Unlock()
}

// next returns the next task for w and whether it was stolen. Pop order:
// w's pinned queue first (FIFO, nobody else can run those), then the newest
// task on w's own deque (LIFO keeps the shard working what it was just
// given), then — unless stealing is off — the oldest task of the first
// non-empty sibling deque, sweeping rightward from w's own position in the
// live worker set. Blocks while nothing is runnable; ok=false means the
// engine is closed and drained.
func (e *Engine) next(w *worker) (t Task, stolen, ok bool) {
	for {
		if t, ok := w.pinned.popFront(); ok {
			w.npinned.Add(-1)
			w.notePopped(w)
			return t, false, true
		}
		if t, ok := w.dq.popBack(); ok {
			e.stealable.Add(-1)
			w.notePopped(w)
			return t, false, true
		}
		if !e.set.noSteal {
			// Reload the live slice each sweep: Resize may have grown it.
			ws := e.workers()
			for i := 1; i < len(ws); i++ {
				v := ws[(w.id+i)%len(ws)]
				if t, ok := v.dq.popFront(); ok {
					e.stealable.Add(-1)
					w.notePopped(v)
					return t, true, true
				}
			}
		}
		e.mu.Lock()
		for {
			if w.npinned.Load() > 0 || w.dq.len() > 0 ||
				(!e.set.noSteal && e.stealable.Load() > 0) {
				break
			}
			if e.closed.Load() {
				e.mu.Unlock()
				return Task{}, false, false
			}
			e.cond.Wait()
		}
		e.mu.Unlock()
	}
}

// emitSpan brackets the shard-clock window [begin, end] on shard in a span
// pair on the engine's span tracer. Nil-checked (an engine without a span
// tracer pays one predicate) and host-side only: emission charges no
// simulated cycles, the stamps are cycle counts the shard already paid.
// Both halves are emitted together, after the fact, which the analyzer
// accepts because it orders by the stamps, not by arrival.
func (e *Engine) emitSpan(kind trace.SpanKind, shard int, begin, end uint64) {
	if e.set.spanT == nil {
		return
	}
	e.set.spanT.Emit(trace.SpanBegin(kind, -1, shard, begin))
	e.set.spanT.Emit(trace.SpanEnd(kind, -1, shard, end))
}

// notePopped records a task leaving owner's queue; the caller's loop then
// broadcasts so submitters blocked on the freed slot retry.
func (w *worker) notePopped(owner *worker) {
	if owner.met != nil {
		owner.met.queueDepth.Dec()
	}
}

// HeapReports returns the most recent heap profile captured by each live
// shard, in shard order, omitting shards that have not captured one yet.
// Profiles are taken by the shard goroutines (see WithHeapProfileEvery);
// reading them is safe at any time.
func (e *Engine) HeapReports() []*metrics.HeapReport {
	var out []*metrics.HeapReport
	for _, w := range e.workers() {
		if rep, ok := w.lastProf.Load().(*metrics.HeapReport); ok && rep != nil {
			out = append(out, rep)
		}
	}
	return out
}

// captureHeapProfile snapshots the shard runtime's heap into lastProf; a
// heap that fails its structural checks simply yields no new profile.
func (w *worker) captureHeapProfile() {
	rep, err := w.env.Runtime().HeapReport()
	if err != nil || rep == nil {
		return
	}
	rep.Origin = w.env.Name()
	w.lastProf.Store(rep)
}

// Close drains every queue, stops the workers, and returns the aggregated
// stats.
func (e *Engine) Close() Aggregate {
	e.resizeMu.Lock()
	defer e.resizeMu.Unlock()
	e.mu.Lock()
	e.closed.Store(true)
	e.cond.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()
	ws := e.workers()
	agg := Aggregate{Shards: len(ws)}
	for _, w := range ws {
		s := w.stats
		agg.Tasks += s.Tasks
		agg.Failures += s.Failures
		agg.Checksum += s.Checksum
		agg.Steals += s.Steals
		agg.TotalCycles += s.SimCycles
		if s.SimCycles > agg.MakespanCycles {
			agg.MakespanCycles = s.SimCycles
		}
		agg.PerShard = append(agg.PerShard, s)
	}
	if reg := e.set.metrics; reg != nil {
		reg.Gauge("regions_shard_makespan_cycles").Set(int64(agg.MakespanCycles))
		if agg.MakespanCycles > 0 && agg.Shards > 0 {
			util := agg.TotalCycles * 100 / (agg.MakespanCycles * uint64(agg.Shards))
			reg.Gauge("regions_shard_utilization_pct").Set(int64(util))
		}
		if e.set.spanT != nil {
			// Span reconstruction is only as good as the ring: publish the
			// events lost to wraparound so a scrape (and the SpanProfile
			// consumer) can tell a complete account from a truncated window.
			if d := e.set.spanT.Stats().Dropped; d > 0 {
				reg.Counter("regions_trace_dropped_total").Add(d)
			}
		}
	}
	return agg
}

func (w *worker) loop(e *Engine) {
	defer e.wg.Done()
	var prevCycles uint64
	for {
		t, stolen, ok := e.next(w)
		if !ok {
			break
		}
		// A pop freed a deque slot; unblock any submitter waiting on it.
		e.wake()
		simBefore := w.env.Counters().TotalCycles()
		sum, err := w.runTask(t)
		w.stats.Tasks++
		if stolen {
			w.stats.Steals++
		}
		if err != nil {
			w.stats.Failures++
			w.stats.LastError = err.Error()
			w.env.reset()
			if w.met != nil {
				w.met.failures.Inc()
			}
		} else {
			w.stats.Checksum += sum
		}
		simAfter := w.env.Counters().TotalCycles()
		if w.met != nil {
			w.met.tasks.Inc()
			if stolen {
				w.met.steals.Inc()
			}
			w.met.busyCycles.Add(simAfter - prevCycles)
			prevCycles = simAfter
		}
		if stolen {
			// The thief shard spent this window running work homed elsewhere;
			// the span names those cycles so a shard's track shows how much of
			// its time went to siblings' backlogs.
			e.emitSpan(trace.SpanStealStall, w.id, simBefore, simAfter)
		}
		if t.Done != nil {
			w.runDone(t, TaskResult{
				Shard:       w.id,
				Stolen:      stolen,
				Checksum:    sum,
				Err:         err,
				StartCycles: simBefore,
				EndCycles:   simAfter,
			})
		}
		if w.profEvery > 0 && (w.stats.Tasks == 1 || w.stats.Tasks%uint64(w.profEvery) == 0) {
			w.captureHeapProfile()
		}
	}
	if e.set.runtime.DeferredDelete {
		// Drain remaining sweep debt before the books close, so Close hands
		// back fully poisoned heaps and debt provably returns to zero.
		rt := w.env.Runtime()
		if rt.SweepDebt() > 0 {
			before := w.env.Counters().TotalCycles()
			rt.SweepDrain()
			w.stats.DrainSweepCycles = w.env.Counters().TotalCycles() - before
			e.emitSpan(trace.SpanSweep, w.id, before, before+w.stats.DrainSweepCycles)
		}
		w.stats.SweptPages = rt.SweptPages()
		w.stats.SweepDebtPeak = rt.SweepDebtPeak()
	}
	w.stats.SimCycles = w.env.Counters().TotalCycles()
	w.stats.OSBytes = w.env.Space().MappedBytes()
	if w.profEvery > 0 {
		w.captureHeapProfile()
	}
}

// runTask executes t, converting a panic (an app assertion, a runtime
// *Fault) into a recorded failure so one bad task cannot take down the
// shard, the behavior a service owes its other tenants.
func (w *worker) runTask(t Task) (sum uint32, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("shard: task %q: %v", t.Name, r)
		}
	}()
	return t.Run(w.env), nil
}

// runDone invokes t's completion callback, converting a panic in it into a
// recorded failure rather than letting it kill the worker goroutine.
func (w *worker) runDone(t Task, res TaskResult) {
	defer func() {
		if r := recover(); r != nil {
			w.stats.Failures++
			w.stats.LastError = fmt.Sprintf("shard: done %q: %v", t.Name, r)
			if w.met != nil {
				w.met.failures.Inc()
			}
		}
	}()
	t.Done(res)
}

// fnv32a is the 32-bit FNV-1a hash, inlined to keep placement
// allocation-free.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
