package shard

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"regions/internal/apps/appkit"
)

// TestDoneFIFOOnPinned checks the completion-callback contract the serving
// driver depends on: pinned tasks on one shard deliver their Done calls in
// submission order, on the shard's goroutine, with contiguous monotone
// simulated-cycle windows.
func TestDoneFIFOOnPinned(t *testing.T) {
	e := NewEngine(WithShards(2))
	const n = 64
	var mu sync.Mutex
	var order []int
	var results []TaskResult
	var batch []Task
	for i := 0; i < n; i++ {
		i := i
		batch = append(batch, Task{
			Name:     fmt.Sprintf("t%d", i),
			Affinity: "pinned-home",
			Pin:      true,
			Run: func(env appkit.RegionEnv) uint32 {
				r := env.NewRegion()
				p := env.Ralloc(r, 16, env.SizeCleanup(16))
				env.DeleteRegion(r)
				return uint32(p)
			},
			Done: func(res TaskResult) {
				mu.Lock()
				order = append(order, i)
				results = append(results, res)
				mu.Unlock()
			},
		})
	}
	e.SubmitBatch(batch)
	e.Close()
	if len(order) != n {
		t.Fatalf("got %d Done calls, want %d", len(order), n)
	}
	home := e.ShardFor("pinned-home")
	var prevEnd uint64
	for k, i := range order {
		if i != k {
			t.Fatalf("Done order[%d] = task %d, want FIFO", k, i)
		}
		res := results[k]
		if res.Shard != home || res.Stolen {
			t.Errorf("task %d ran on shard %d (stolen=%v), want pinned to %d", i, res.Shard, res.Stolen, home)
		}
		if res.Err != nil || res.Checksum == 0 {
			t.Errorf("task %d: err=%v checksum=%d", i, res.Err, res.Checksum)
		}
		if res.StartCycles != prevEnd {
			t.Errorf("task %d starts at cycle %d, previous ended at %d — windows must be contiguous",
				i, res.StartCycles, prevEnd)
		}
		if res.EndCycles <= res.StartCycles {
			t.Errorf("task %d consumed no cycles: [%d, %d]", i, res.StartCycles, res.EndCycles)
		}
		prevEnd = res.EndCycles
	}
}

// TestSubmitBatchFeedsEveryShard checks that one batch feeds every shard's
// queue together: a backlog homed on shard 0 that is more than twice a
// queue deep must not hold back shard 1's only task, since shard 0's first
// task waits for it. Done calls still arrive in submission order per shard.
func TestSubmitBatchFeedsEveryShard(t *testing.T) {
	e := NewEngine(WithShards(2))
	keys := [2]string{keyFor(e, 0), keyFor(e, 1)}
	release := make(chan struct{})
	timedOut := false
	var order [2][]int // each shard's slice is written only by its own goroutine
	var batch []Task
	add := func(home int, run func()) {
		i := len(batch)
		batch = append(batch, Task{
			Name:     fmt.Sprintf("t%d", i),
			Affinity: keys[home],
			Pin:      true,
			Run:      func(appkit.RegionEnv) uint32 { run(); return 1 },
			Done: func(res TaskResult) {
				if res.Shard == home && !res.Stolen {
					order[res.Shard] = append(order[res.Shard], i)
				}
			},
		})
	}
	add(0, func() {
		select {
		case <-release:
		case <-time.After(10 * time.Second):
			timedOut = true
		}
	})
	for i := 0; i < 2*queueCap; i++ {
		add(0, func() {})
	}
	add(1, func() { close(release) })
	e.SubmitBatch(batch)
	agg := e.Close()
	if timedOut {
		t.Fatal("shard 1's task did not run while shard 0's queue was backlogged")
	}
	if agg.Tasks != uint64(len(batch)) || agg.Failures != 0 {
		t.Fatalf("ran %d tasks with %d failures, want %d and 0", agg.Tasks, agg.Failures, len(batch))
	}
	want := [2][]int{make([]int, 0, 2*queueCap+1), {2*queueCap + 1}}
	for i := 0; i <= 2*queueCap; i++ {
		want[0] = append(want[0], i)
	}
	for s := range order {
		if fmt.Sprint(order[s]) != fmt.Sprint(want[s]) {
			t.Errorf("shard %d Done order %v, want %v", s, order[s], want[s])
		}
	}
}

// TestConcurrentSubmittersKeepOrder has four goroutines submit deep pinned
// batches to two shards at once, so each of them keeps blocking on full
// queues. Every task must run (a lost wakeup hangs the test), and on each
// shard every submitter's tasks complete in that submitter's order.
func TestConcurrentSubmittersKeepOrder(t *testing.T) {
	e := NewEngine(WithShards(2))
	keys := [2]string{keyFor(e, 0), keyFor(e, 1)}
	const submitters, per = 4, 4 * queueCap
	type tag struct{ sub, i int }
	var order [2][]tag // each shard's slice is written only by its own goroutine
	var wg sync.WaitGroup
	for k := 0; k < submitters; k++ {
		batch := make([]Task, per)
		for i := range batch {
			home, id := i%2, tag{k, i}
			batch[i] = Task{
				Name:     fmt.Sprintf("s%d-t%d", k, i),
				Affinity: keys[home],
				Pin:      true,
				Run:      func(appkit.RegionEnv) uint32 { return 1 },
				Done:     func(res TaskResult) { order[res.Shard] = append(order[res.Shard], id) },
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.SubmitBatch(batch)
		}()
	}
	wg.Wait()
	agg := e.Close()
	if agg.Tasks != submitters*per || agg.Failures != 0 {
		t.Fatalf("ran %d tasks with %d failures, want %d and 0", agg.Tasks, agg.Failures, submitters*per)
	}
	for s, got := range order {
		var n [submitters]int // tasks of each submitter seen on shard s so far
		for _, id := range got {
			if want := s + 2*n[id.sub]; id.i != want {
				t.Fatalf("shard %d ran submitter %d's task %d, want its task %d", s, id.sub, id.i, want)
			}
			n[id.sub]++
		}
	}
}

// TestDoneSeesRunPanic checks that a panicking Run still invokes Done with
// the recorded error and a zero checksum.
func TestDoneSeesRunPanic(t *testing.T) {
	e := NewEngine(WithShards(1))
	var got TaskResult
	done := false
	e.SubmitBatch([]Task{{
		Name: "boom",
		Pin:  true,
		Run:  func(appkit.RegionEnv) uint32 { panic("kaput") },
		Done: func(res TaskResult) { got = res; done = true },
	}})
	agg := e.Close()
	if !done {
		t.Fatal("Done not called for failed task")
	}
	if got.Err == nil || got.Checksum != 0 {
		t.Errorf("failed task result: err=%v checksum=%d, want error and 0", got.Err, got.Checksum)
	}
	if agg.Failures != 1 {
		t.Errorf("aggregate failures = %d, want 1", agg.Failures)
	}
}

// TestDonePanicRecorded checks that a panic inside Done itself is recovered
// and counted as a failure instead of killing the worker goroutine.
func TestDonePanicRecorded(t *testing.T) {
	e := NewEngine(WithShards(1))
	e.SubmitBatch([]Task{{
		Name: "done-boom",
		Run:  func(appkit.RegionEnv) uint32 { return 1 },
		Done: func(TaskResult) { panic("callback kaput") },
	}})
	// A second task proves the worker survived the Done panic.
	ran := false
	e.SubmitBatch([]Task{{
		Name: "after",
		Run:  func(appkit.RegionEnv) uint32 { ran = true; return 2 },
	}})
	agg := e.Close()
	if !ran {
		t.Error("worker did not survive a panicking Done callback")
	}
	if agg.Failures != 1 {
		t.Errorf("aggregate failures = %d, want 1 (the Done panic)", agg.Failures)
	}
}

// BenchmarkSubmitBatchTwoShards measures one serving-shaped batch on two
// shards: 512 pinned request tasks alternating between the shards, each
// waited for through its Done callback. The batch is 8 queues deep per
// shard, so it finishes in about half the single-shard time only when both
// shards are fed together.
func BenchmarkSubmitBatchTwoShards(b *testing.B) {
	e := NewEngine(WithShards(2))
	defer e.Close()
	keys := [2]string{keyFor(e, 0), keyFor(e, 1)}
	const n = 16 * queueCap
	var done sync.WaitGroup
	batch := make([]Task, n)
	for i := range batch {
		batch[i] = simpleTask(uint32(i))
		batch[i].Affinity = keys[i%2]
		batch[i].Pin = true
		batch[i].Done = func(TaskResult) { done.Done() }
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done.Add(n)
		e.SubmitBatch(batch)
		done.Wait()
	}
}
