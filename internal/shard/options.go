package shard

import (
	"regions/internal/core"
	"regions/internal/metrics"
	"regions/internal/trace"
)

// This file is the engine's construction surface: functional options over a
// private settings struct, each knob a named, documented, composable unit —
// shard.NewEngine(shard.WithShards(8), shard.WithNoSteal()). Runtime
// knobs are not re-declared here: WithRuntime hands every shard one
// core.Options value whole.

// settings is the resolved engine configuration NewEngine builds from its
// options.
type settings struct {
	shards           int
	noSteal          bool
	heapProfileEvery int
	runtime          core.Options
	metrics          *metrics.Registry
	spanT            *trace.Tracer
}

// Option configures an Engine at construction.
type Option func(*settings)

// WithShards sets the initial worker count (default 1; values below 1
// become 1). Engine.Resize can grow it later.
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

// WithSpanTracer attaches t as the engine's span sink: workers bracket
// close-time sweep drains, stolen-task executions, and migration
// export/import pauses in begin/end span pairs (trace.SpanBegin /
// trace.SpanEnd) stamped with the executing shard's own simulated clock.
// The tracer must be clock-less (no SetClock) so those per-shard stamps
// survive; it is shared by all workers, which is safe because Emit locks.
// Nil — the default — emits nothing, and span emission never charges
// simulated cycles, so checksums and cycle counts are bit-identical with
// spans on or off.
func WithSpanTracer(t *trace.Tracer) Option {
	return func(s *settings) { s.spanT = t }
}
