package cachesim

import (
	"math/rand"
	"testing"
)

// The reference model is the original cache simulator: one heap slice per
// set, probed with a loop, and the store buffer drained on every access.
// Cache must match it access for access.

type refSet struct {
	tags []uint32 // line tags, most recently used first; 0 means empty
}

type refLevel struct {
	sets     []refSet
	assoc    int
	setShift uint // log2(lineSize)
	setMask  uint32
}

func newRefLevel(size, assoc, lineSize int) *refLevel {
	nsets := size / (assoc * lineSize)
	if nsets < 1 {
		nsets = 1
	}
	l := &refLevel{
		sets:    make([]refSet, nsets),
		assoc:   assoc,
		setMask: uint32(nsets - 1),
	}
	for s := lineSize; s > 1; s >>= 1 {
		l.setShift++
	}
	for i := range l.sets {
		l.sets[i].tags = make([]uint32, 0, assoc)
	}
	return l
}

func (l *refLevel) access(addr uint32) bool {
	line := (addr >> l.setShift) + 1
	s := &l.sets[line&l.setMask]
	for i, t := range s.tags {
		if t == line {
			copy(s.tags[1:i+1], s.tags[:i])
			s.tags[0] = line
			return true
		}
	}
	if len(s.tags) < l.assoc {
		s.tags = append(s.tags, 0)
	}
	copy(s.tags[1:], s.tags)
	s.tags[0] = line
	return false
}

type refCache struct {
	cfg     Config
	l1, l2  *refLevel
	pending int

	Reads, Writes, L1Misses, L2Misses, ReadStalls, WriteStalls uint64
}

func newRef(cfg Config) *refCache {
	return &refCache{
		cfg: cfg,
		l1:  newRefLevel(cfg.L1Size, cfg.L1Assoc, cfg.LineSize),
		l2:  newRefLevel(cfg.L2Size, cfg.L2Assoc, cfg.LineSize),
	}
}

func (c *refCache) Access(addr uint32, write bool) (readStall, writeStall uint64) {
	c.pending -= c.cfg.DrainPerAccess
	if c.pending < 0 {
		c.pending = 0
	}
	penalty := 0
	if !c.l1.access(addr) {
		c.L1Misses++
		if c.l2.access(addr) {
			penalty = c.cfg.L1MissPenalty
		} else {
			c.L2Misses++
			penalty = c.cfg.L2MissPenalty
		}
	}
	if write {
		c.Writes++
		c.pending += penalty
		if c.pending > c.cfg.StoreBufferCap {
			over := uint64(c.pending - c.cfg.StoreBufferCap)
			c.pending = c.cfg.StoreBufferCap
			c.WriteStalls += over
			return 0, over
		}
		return 0, 0
	}
	c.Reads++
	c.ReadStalls += uint64(penalty)
	return uint64(penalty), 0
}

// assoc4 has a 4-way L1 (four sets) over a 2-way L2, so Hit never answers
// and every access takes the associative path.
func assoc4() Config {
	cfg := small()
	cfg.L1Size, cfg.L1Assoc = 1024, 4
	cfg.L2Size, cfg.L2Assoc = 4096, 2
	return cfg
}

type access struct {
	addr  uint32
	write bool
}

// oracleTrace builds a seeded trace from segments of the patterns that
// stress the model: hot lines, strides, L1/L2 conflicts, long hit runs
// followed by write-miss bursts that overflow the store buffer, and
// random mixed reads and writes.
func oracleTrace(cfg Config, seed int64, n int) []access {
	rng := rand.New(rand.NewSource(seed))
	tr := make([]access, 0, n)
	add := func(addr uint32, write bool) { tr = append(tr, access{addr &^ 3, write}) }
	line := uint32(cfg.LineSize)
	for len(tr) < n {
		base := uint32(rng.Intn(1<<22)) &^ (line - 1)
		k := 1 + rng.Intn(400)
		switch rng.Intn(5) {
		case 0: // a few hot lines
			hot := []uint32{base, base + line, base + 7*line, base + 64*line}
			for i := 0; i < k; i++ {
				add(hot[rng.Intn(len(hot))]+uint32(rng.Intn(cfg.LineSize)), rng.Intn(4) == 0)
			}
		case 1: // strided scan
			stride := []uint32{4, line, 4096, uint32(cfg.L1Size), uint32(cfg.L2Size)}[rng.Intn(5)]
			write := rng.Intn(2) == 0
			for i := 0; i < k; i++ {
				add(base+uint32(i)*stride, write)
			}
		case 2: // addresses that collide in L1, L2 or both
			for i := 0; i < k; i++ {
				off := []uint32{0, uint32(cfg.L1Size), uint32(cfg.L2Size), uint32(cfg.L1Size + cfg.L2Size)}[rng.Intn(4)]
				add(base+off, rng.Intn(3) == 0)
			}
		case 3: // a long hit run, then a burst of write misses
			for i := 0; i < k; i++ {
				add(base, false)
			}
			burst := cfg.StoreBufferCap/cfg.L1MissPenalty + rng.Intn(8)
			for i := 0; i < burst; i++ {
				add(base+uint32(i+1)*uint32(cfg.L2Size+cfg.LineSize), true)
			}
		case 4: // random mixed reads and writes
			for i := 0; i < k; i++ {
				add(uint32(rng.Intn(1<<21)), rng.Intn(2) == 0)
			}
		}
	}
	return tr[:n]
}

func TestMatchesReferenceModel(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"UltraSparcI", UltraSparcI()},
		{"small", small()},
		{"assoc4", assoc4()},
	}
	for _, tc := range configs {
		for seed := int64(1); seed <= 4; seed++ {
			c, ref := New(tc.cfg), newRef(tc.cfg)
			for i, a := range oracleTrace(tc.cfg, seed, 50000) {
				r, w := c.Access(a.addr, a.write)
				rr, rw := ref.Access(a.addr, a.write)
				got := [...]uint64{r, w, c.Reads, c.Writes, c.L1Misses, c.L2Misses, c.ReadStalls, c.WriteStalls}
				want := [...]uint64{rr, rw, ref.Reads, ref.Writes, ref.L1Misses, ref.L2Misses, ref.ReadStalls, ref.WriteStalls}
				if got != want {
					t.Fatalf("%s seed %d access %d (%#x write=%v): "+
						"stalls/reads/writes/l1/l2/rstall/wstall %v, reference %v",
						tc.name, seed, i, a.addr, a.write, got, want)
				}
			}
			if ref.WriteStalls == 0 || ref.L2Misses == 0 {
				t.Fatalf("%s seed %d: trace never overflowed the store buffer or missed L2", tc.name, seed)
			}
		}
	}
}
