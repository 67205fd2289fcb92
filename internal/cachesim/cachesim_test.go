package cachesim

import (
	"math/rand"
	"testing"
)

func small() Config {
	return Config{
		L1Size: 256, L1Assoc: 1,
		L2Size: 1024, L2Assoc: 2,
		LineSize:      64,
		L1MissPenalty: 6, L2MissPenalty: 40,
		StoreBufferCap: 80, DrainPerAccess: 8,
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := New(small())
	r, w := c.Access(0x1000, false)
	if r != 40 || w != 0 {
		t.Fatalf("cold read: stalls (%d,%d), want (40,0)", r, w)
	}
	r, w = c.Access(0x1004, false) // same 64-byte line
	if r != 0 || w != 0 {
		t.Fatalf("hit on same line: stalls (%d,%d), want (0,0)", r, w)
	}
	if c.Reads != 2 || c.L1Misses != 1 || c.L2Misses != 1 {
		t.Fatalf("reads=%d l1miss=%d l2miss=%d", c.Reads, c.L1Misses, c.L2Misses)
	}
}

func TestL1ConflictL2Hit(t *testing.T) {
	c := New(small())
	// L1 is 256 bytes direct-mapped with 64-byte lines: 4 sets. Addresses
	// 0x0 and 0x100 conflict in L1 but live in different L2 sets or ways.
	c.Access(0x0, false)
	c.Access(0x100, false) // evicts 0x0 from L1
	r, _ := c.Access(0x0, false)
	if r != 6 {
		t.Fatalf("L1 conflict, L2 hit: read stall %d, want 6", r)
	}
}

func TestLRUWithinSet(t *testing.T) {
	cfg := small()
	cfg.L1Size = 128
	cfg.L1Assoc = 2 // one set of two ways
	c := New(cfg)
	c.Access(0x000, false) // miss
	c.Access(0x040, false) // miss; set is {40, 00}
	c.Access(0x000, false) // hit; set is {00, 40}
	c.Access(0x080, false) // miss; evicts LRU 0x40
	if r, _ := c.Access(0x000, false); r != 0 {
		t.Fatalf("0x000 should still be in L1 (MRU), got stall %d", r)
	}
	if r, _ := c.Access(0x040, false); r == 0 {
		t.Fatal("0x040 should have been evicted from L1")
	}
}

func TestWriteStallsOnlyWhenBufferOverflows(t *testing.T) {
	c := New(small())
	var totalW uint64
	// Two write misses fit in the 80-cycle buffer (40 + 40 - drain).
	for i := 0; i < 2; i++ {
		_, w := c.Access(uint32(0x10000+i*0x1000), true)
		totalW += w
	}
	if totalW != 0 {
		t.Fatalf("buffer should absorb first write misses, got %d stall cycles", totalW)
	}
	// A burst of distinct-line write misses must eventually stall.
	for i := 2; i < 10; i++ {
		_, w := c.Access(uint32(0x10000+i*0x1000), true)
		totalW += w
	}
	if totalW == 0 {
		t.Fatal("sustained write-miss burst should overflow the store buffer")
	}
	if c.WriteStalls != totalW {
		t.Fatalf("counter %d != returned sum %d", c.WriteStalls, totalW)
	}
}

func TestBufferDrains(t *testing.T) {
	c := New(small())
	// Fill the buffer with write misses.
	for i := 0; i < 10; i++ {
		c.Access(uint32(0x10000+i*0x1000), true)
	}
	// Many cheap hits drain it.
	for i := 0; i < 64; i++ {
		c.Access(0x10000, false)
	}
	_, w := c.Access(0x90000, true)
	if w != 0 {
		t.Fatalf("after drain, a single write miss should not stall, got %d", w)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		c := New(UltraSparcI())
		for i := 0; i < 10000; i++ {
			addr := uint32((i * 2654435761) % (1 << 20))
			c.Access(addr&^3, i%3 == 0)
		}
		return c.ReadStalls, c.WriteStalls
	}
	r1, w1 := run()
	r2, w2 := run()
	if r1 != r2 || w1 != w2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", r1, w1, r2, w2)
	}
	if r1 == 0 {
		t.Fatal("expected some read stalls on a random trace")
	}
}

func TestSequentialBeatsRandom(t *testing.T) {
	seq := New(UltraSparcI())
	for i := 0; i < 20000; i++ {
		seq.Access(uint32(i*4), false)
	}
	rnd := New(UltraSparcI())
	for i := 0; i < 20000; i++ {
		rnd.Access(uint32((i*2654435761)%(1<<24))&^3, false)
	}
	if seq.ReadStalls >= rnd.ReadStalls {
		t.Fatalf("sequential scan (%d stalls) should beat random (%d stalls)",
			seq.ReadStalls, rnd.ReadStalls)
	}
}

func TestUltraSparcIConfig(t *testing.T) {
	cfg := UltraSparcI()
	if cfg.LineSize != 64 {
		t.Fatalf("line size %d, want the paper's 64-byte L2 lines", cfg.LineSize)
	}
	if cfg.L1Size != 16*1024 || cfg.L2Size != 512*1024 {
		t.Fatalf("cache sizes %d/%d", cfg.L1Size, cfg.L2Size)
	}
	c := New(cfg)
	if r, w := c.Access(0x4000, false); r == 0 || w != 0 {
		t.Fatalf("cold read stalls (%d,%d)", r, w)
	}
}

// BenchmarkCacheAccess measures the host cost of one simulated access on
// the paper's machine. The trace mostly walks words sequentially and
// jumps to a random spot in 1 MB one access in 32, so most accesses hit
// L1, as in the paper's applications.
func BenchmarkCacheAccess(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := make([]access, 1<<16)
	addr := uint32(0)
	for i := range tr {
		if rng.Intn(32) == 0 {
			addr = uint32(rng.Intn(1<<20)) &^ 3
		} else {
			addr += 4
		}
		tr[i] = access{addr, rng.Intn(4) == 0}
	}
	c := New(UltraSparcI())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := tr[i&(len(tr)-1)]
		c.Access(a.addr, a.write)
	}
	b.ReportMetric(float64(c.L1Misses)/float64(c.Reads+c.Writes), "l1-misses/access")
}
