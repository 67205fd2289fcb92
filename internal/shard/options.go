package shard

import (
	"time"

	"regions/internal/core"
	"regions/internal/metrics"
	"regions/internal/trace"
)

// This file is the engine's construction surface: functional options over a
// private settings struct, each knob a named, documented, composable unit —
// shard.NewEngine(shard.WithShards(8), shard.WithMigration(cfg)). Runtime
// knobs are not re-declared here: WithRuntime hands every shard one
// core.Options value whole.

// PlacementFunc maps an affinity key to a home shard index in [0, shards).
// It must be a pure function of its arguments: placement runs on every
// Submit and, under Resize, with a changing shard count.
type PlacementFunc func(key string, shards int) int

// defaultPlacement is the engine's historical placement: FNV-1a mod shards.
func defaultPlacement(key string, shards int) int {
	return int(fnv32a(key) % uint32(shards))
}

// MigrationConfig tunes the background migration coordinator (see
// migrate.go). The zero value leaves the coordinator off; WithMigration
// applies defaults to zero fields when Enabled is set.
type MigrationConfig struct {
	// Enabled starts the coordinator goroutine.
	Enabled bool
	// Interval is the poll period over the shards' published busy-cycle and
	// steal counters (default 2ms of wall clock).
	Interval time.Duration
	// SkewRatio is the busiest/idlest busy-cycle delta ratio that counts a
	// poll as skewed (default 4). An idle shard (zero delta) opposite a busy
	// one always counts as skewed.
	SkewRatio float64
	// SustainedPolls is how many consecutive skewed polls trigger a
	// rebalance (default 3), so a single bursty poll doesn't move regions.
	SustainedPolls int
	// MaxMoves bounds the regions migrated per rebalance (default 1).
	MaxMoves int
	// OnMigrate, when non-nil, is called after each completed migration
	// (coordinator- and Resize-initiated) on the initiating goroutine. The
	// driver uses it to re-root any untracked pointers it holds into the
	// moved region, via Migration.Rec.Translate.
	OnMigrate func(m Migration)
}

func (c *MigrationConfig) withDefaults() MigrationConfig {
	out := *c
	if out.Interval <= 0 {
		out.Interval = 2 * time.Millisecond
	}
	if out.SkewRatio <= 1 {
		out.SkewRatio = 4
	}
	if out.SustainedPolls <= 0 {
		out.SustainedPolls = 3
	}
	if out.MaxMoves <= 0 {
		out.MaxMoves = 1
	}
	return out
}

// settings is the resolved engine configuration NewEngine builds from its
// options.
type settings struct {
	shards           int
	noSteal          bool
	idleSweep        bool
	heapProfileEvery int
	runtime          core.Options
	metrics          *metrics.Registry
	placement        PlacementFunc
	migration        MigrationConfig
	spanT            *trace.Tracer
}

// Option configures an Engine at construction.
type Option func(*settings)

// WithShards sets the initial worker count (default 1; values below 1
// become 1). Engine.Resize can change it later.
func WithShards(n int) Option { return func(s *settings) { s.shards = n } }

// WithRuntime sets the core options every shard runtime is built with,
// including shards Engine.Resize adds later. The struct is taken verbatim,
// so callers set Safe themselves: the zero core.Options is the unsafe
// library. PageBatch 0 resolves to DefaultPageBatch. Without this option
// shards run core.Options{Safe: true}. DeferredDelete also makes each worker
// drain its sweep debt when the engine closes (Stats.DrainSweepCycles).
func WithRuntime(opts core.Options) Option { return func(s *settings) { s.runtime = opts } }

// WithNoSteal disables work stealing: every task runs on its home shard,
// the engine's pre-stealing static placement. Exists for A/B measurement
// (the imbalance benchmark).
func WithNoSteal() Option { return func(s *settings) { s.noSteal = true } }

// WithMetrics attaches every shard's runtime and space to reg (core/mem
// series are shared across shards; the registry is atomic) and adds
// per-shard labeled series: tasks, failures, busy simulated cycles, steals,
// and live queue depth, plus the engine's migration counters. Close records
// the engine's makespan and utilization gauges.
func WithMetrics(reg *metrics.Registry) Option {
	return func(s *settings) { s.metrics = reg }
}

// WithHeapProfileEvery makes each shard capture a heap profile of its
// runtime every n completed tasks (plus after its first task and once at
// drain, so short runs still expose one), exposed via HeapReports — the data
// behind regionbench's /heap endpoint. Capture runs on the shard's own
// goroutine, so it is safe without locking the runtime.
func WithHeapProfileEvery(n int) Option {
	return func(s *settings) { s.heapProfileEvery = n }
}

// WithIdleSweep makes workers that find no runnable task sweep one slice of
// sweep debt before blocking, turning scheduler idle cycles into
// reclamation (meaningful only with a DeferredDelete runtime). Off by
// default because sweep progress then depends on wall-clock scheduling:
// drivers that need deterministic simulated clocks (internal/serve) model
// their own idle sweeping instead.
func WithIdleSweep(on bool) Option { return func(s *settings) { s.idleSweep = on } }

// WithPlacement replaces the affinity-key placement function (default:
// FNV-1a hash mod shard count). Round-robin placement of empty-key tasks is
// unaffected.
func WithPlacement(fn PlacementFunc) Option {
	return func(s *settings) {
		if fn != nil {
			s.placement = fn
		}
	}
}

// WithMigration configures live region migration: cfg.Enabled starts the
// skew-watching coordinator; Engine.MigrateRegion and Engine.Resize work
// regardless, but honor cfg.OnMigrate.
func WithMigration(cfg MigrationConfig) Option {
	return func(s *settings) { s.migration = cfg.withDefaults() }
}

// WithSpanTracer attaches t as the engine's span sink: workers bracket
// idle-sweep slices, close-time sweep drains, stolen-task executions, and
// migration export/import pauses in begin/end span pairs (trace.SpanBegin /
// trace.SpanEnd) stamped with the executing shard's own simulated clock.
// The tracer must be clock-less (no SetClock) so those per-shard stamps
// survive; it is shared by all workers, which is safe because Emit locks.
// Nil — the default — emits nothing, and span emission never charges
// simulated cycles, so checksums and cycle counts are bit-identical with
// spans on or off.
func WithSpanTracer(t *trace.Tracer) Option {
	return func(s *settings) { s.spanT = t }
}
