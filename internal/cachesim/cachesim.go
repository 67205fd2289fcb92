// Package cachesim models the memory hierarchy of the paper's test machine,
// a 167 MHz UltraSparc-I, closely enough to reproduce Figure 10: processor
// cycles lost to read stalls (waiting for the result of a load) and write
// stalls (store buffer full).
//
// The model is a two-level set-associative cache with LRU replacement and a
// leaky-bucket store buffer. Each simulated memory access is pushed through
// Access, which returns the stall cycles that access causes. The model is
// deterministic: the same access trace always yields the same stall counts.
//
// Each level keeps its tags in one flat slice, assoc consecutive entries
// per set, most recently used first, so a direct-mapped level probes with
// one compare. Hit is the inlinable L1 probe that Access starts with: on a
// direct-mapped L1 hit it only counts the access. The store buffer is
// drained lazily: a hit stalls nothing and only drains, and k successive
// drain-and-clamp steps equal one step of k drains, so the drains owed
// since the last miss are applied when the next miss arrives. Stall
// returns and tallies are exactly those of draining on every access.
package cachesim

// Config describes the cache hierarchy. The zero value is not useful; use
// UltraSparcI for the paper's machine.
type Config struct {
	L1Size  int // bytes
	L1Assoc int // ways
	L2Size  int // bytes
	L2Assoc int // ways
	// LineSize is shared by both levels, in bytes. The paper offsets region
	// headers by the 64-byte second-level line size.
	LineSize int

	L1MissPenalty int // read-stall cycles on an L1 miss that hits in L2
	L2MissPenalty int // read-stall cycles on an L2 miss (memory access)

	// Store buffer model: a write miss occupies the buffer for the relevant
	// miss penalty; every access drains DrainPerAccess (>= 0) cycles of
	// pending write work. When more than StoreBufferCap cycles of writes
	// are pending, the processor stalls for the excess.
	StoreBufferCap int
	DrainPerAccess int
}

// UltraSparcI returns a configuration approximating the paper's machine:
// 16 KB direct-mapped L1 data cache, 512 KB unified L2, 64-byte L2 lines.
func UltraSparcI() Config {
	return Config{
		L1Size:         16 * 1024,
		L1Assoc:        1,
		L2Size:         512 * 1024,
		L2Assoc:        1,
		LineSize:       64,
		L1MissPenalty:  6,
		L2MissPenalty:  42,
		StoreBufferCap: 128,
		DrainPerAccess: 3,
	}
}

type level struct {
	tags     []uint32 // assoc entries per set, most recently used first; 0 means empty
	assoc    int
	setShift uint // log2(lineSize)
	setMask  uint32
}

func newLevel(size, assoc, lineSize int) level {
	nsets := size / (assoc * lineSize)
	if nsets < 1 {
		nsets = 1
	}
	l := level{
		tags:    make([]uint32, nsets*assoc),
		assoc:   assoc,
		setMask: uint32(nsets - 1),
	}
	for s := lineSize; s > 1; s >>= 1 {
		l.setShift++
	}
	return l
}

// line returns addr's tag: the full line address plus one, so that 0 can
// mean "empty".
func (l *level) line(addr uint32) uint32 { return addr>>l.setShift + 1 }

// access returns true on a hit, inserting the line on a miss.
func (l *level) access(addr uint32) bool {
	line := l.line(addr)
	base := int(line&l.setMask) * l.assoc
	ways := l.tags[base : base+l.assoc]
	for i, t := range ways {
		if t == line {
			// Move to front (LRU).
			copy(ways[1:i+1], ways[:i])
			ways[0] = line
			return true
		}
	}
	// Evict the least recently used way (or an empty one: empties trail).
	copy(ways[1:], ways)
	ways[0] = line
	return false
}

// Cache is a two-level cache plus store-buffer model.
type Cache struct {
	cfg     Config
	l1, l2  level
	pending int    // cycles of write work queued in the store buffer
	drained uint64 // Reads+Writes when the store buffer was last drained

	Reads       uint64
	Writes      uint64
	L1Misses    uint64
	L2Misses    uint64
	ReadStalls  uint64
	WriteStalls uint64
}

// New builds a cache from cfg. Sizes must be powers of two.
func New(cfg Config) *Cache {
	return &Cache{
		cfg: cfg,
		l1:  newLevel(cfg.L1Size, cfg.L1Assoc, cfg.LineSize),
		l2:  newLevel(cfg.L2Size, cfg.L2Assoc, cfg.LineSize),
	}
}

// Hit is the fast probe Access starts with. For a direct-mapped L1 that
// holds addr's line it counts the read or write and returns true: the
// access stalls nothing, and its store-buffer drain is applied lazily by
// the next miss. Otherwise it returns false and records nothing, and the
// caller must complete the access with Access.
func (c *Cache) Hit(addr uint32, write bool) bool {
	line := c.l1.line(addr)
	if c.l1.assoc != 1 || c.l1.tags[line&c.l1.setMask] != line {
		return false
	}
	if write {
		c.Writes++
	} else {
		c.Reads++
	}
	return true
}

// Access simulates one memory access and returns (readStall, writeStall)
// cycles caused by it. Both caches are write-allocate, so reads and writes
// probe identically; only the stall attribution differs.
func (c *Cache) Access(addr uint32, write bool) (readStall, writeStall uint64) {
	if c.Hit(addr, write) {
		return 0, 0
	}
	if write {
		c.Writes++
	} else {
		c.Reads++
	}
	if c.l1.access(addr) {
		// An associative L1 hit: like a direct-mapped one, it only drains.
		return 0, 0
	}

	// Apply the drains of every access since the last miss, this one
	// included. Each would have been pending = max(0, pending-Drain); with
	// Drain >= 0 the composition is one clamp of their sum.
	n := c.Reads + c.Writes
	if d := (n - c.drained) * uint64(c.cfg.DrainPerAccess); d >= uint64(c.pending) {
		c.pending = 0
	} else {
		c.pending -= int(d)
	}
	c.drained = n

	c.L1Misses++
	penalty := c.cfg.L1MissPenalty
	if !c.l2.access(addr) {
		c.L2Misses++
		penalty = c.cfg.L2MissPenalty
	}

	if write {
		// The write's miss handling is buffered; the processor only stalls
		// if the buffer overflows.
		c.pending += penalty
		if c.pending > c.cfg.StoreBufferCap {
			over := uint64(c.pending - c.cfg.StoreBufferCap)
			c.pending = c.cfg.StoreBufferCap
			c.WriteStalls += over
			return 0, over
		}
		return 0, 0
	}
	c.ReadStalls += uint64(penalty)
	return uint64(penalty), 0
}
