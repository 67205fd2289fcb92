package shard

import (
	"testing"

	"regions/internal/apps/appkit"
	"regions/internal/core"
)

// runtimeProbe is what one shard's runtime reports about its options,
// observed by behaviour from a task pinned to that shard.
type runtimeProbe struct {
	safe      bool
	debt      int    // sweep debt right after deleting a multi-page region
	strReuse  uint64 // string allocations served from the pool
	completed bool
}

// probeRuntime runs a pinned task on every live shard that frees and
// re-allocates a string (reused only when pooling is on), then deletes a
// region holding a multi-page blob (leaving sweep debt only under
// DeferredDelete), and reports what the shard's runtime did.
func probeRuntime(e *Engine) []runtimeProbe {
	ws := e.workers()
	out := make([]runtimeProbe, len(ws))
	for i, w := range ws {
		e.pinOn(w, Task{Name: "probe", Pin: true, Run: func(env appkit.RegionEnv) uint32 {
			rt := env.(*Env).Runtime()
			r := env.NewRegion()
			s := env.RstrAlloc(r, 64)
			env.RstrFree(r, s, 64)
			env.RstrAlloc(r, 64)
			env.RstrAlloc(r, 3*8192)
			if !env.DeleteRegion(r) {
				panic("probe region not deletable")
			}
			out[i] = runtimeProbe{safe: env.Safe(), debt: rt.SweepDebt(),
				strReuse: rt.StrPoolStats().Reuse, completed: true}
			return 0
		}})
	}
	return out
}

// TestWithRuntimeReachesEveryShard guards the single runtime-options path:
// a bare engine runs the safe library (the zero core.Options would be
// unsafe), and whatever WithRuntime names reaches every shard — the initial
// ones and those Resize adds later — as observed by behaviour.
func TestWithRuntimeReachesEveryShard(t *testing.T) {
	bare := NewEngine()
	got := probeRuntime(bare)
	bare.Close()
	if !got[0].completed || !got[0].safe {
		t.Fatalf("NewEngine() shard: %+v, want a safe runtime", got[0])
	}

	cases := []struct {
		name                   string
		opts                   core.Options
		safe, deferred, pooled bool
	}{
		{"default", core.Options{Safe: true}, true, false, true},
		{"unsafe", core.Options{}, false, false, true},
		{"deferred", core.Options{Safe: true, DeferredDelete: true}, true, true, true},
		{"nostrpool", core.Options{Safe: true, NoStrPool: true}, true, false, false},
	}
	for _, tc := range cases {
		e := NewEngine(WithShards(2), WithRuntime(tc.opts))
		if err := e.Resize(4); err != nil {
			t.Fatalf("%s: resize: %v", tc.name, err)
		}
		probes := probeRuntime(e)
		for _, s := range e.Close().PerShard {
			if s.Failures != 0 {
				t.Errorf("%s: shard %d: %s", tc.name, s.Shard, s.LastError)
			}
		}
		for i, p := range probes {
			if !p.completed || p.safe != tc.safe || (p.debt > 0) != tc.deferred ||
				(p.strReuse > 0) != tc.pooled {
				t.Errorf("%s: shard %d reports %+v", tc.name, i, p)
			}
		}
	}
}

// TestDefaultsApply checks the resolved defaults: zero options mean one
// shard, and sub-minimum shard counts clamp to one.
func TestDefaultsApply(t *testing.T) {
	e := NewEngine()
	if e.Shards() != 1 {
		t.Fatalf("default Shards() = %d, want 1", e.Shards())
	}
	e.Close()

	e = NewEngine(WithShards(-3))
	if e.Shards() != 1 {
		t.Fatalf("Shards() = %d with WithShards(-3), want 1", e.Shards())
	}
	e.Close()
}
