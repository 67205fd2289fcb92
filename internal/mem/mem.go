// Package mem provides the simulated machine underneath every allocator in
// this repository: a 32-bit byte-addressed, word-granular address space made
// of 4 KB pages, handed out by a simulated operating system that tracks the
// total memory "requested from the OS" (the OS bar of the paper's Figure 8).
//
// All allocators — the region library, the three malloc implementations, and
// the conservative collector — place both program data and their own
// metadata (free lists, boundary tags, region headers, page links) in this
// space, so space overhead and locality are measured rather than modelled.
// Every load and store costs one simulated cycle, charged to the accounting
// mode active at the time, and is optionally pushed through a cache
// simulator to obtain stall cycles.
package mem

import (
	"fmt"
	"math/bits"
	"math/rand"

	"regions/internal/cachesim"
	"regions/internal/stats"
)

// Addr is a simulated 32-bit byte address. Address 0 is the nil pointer and
// is never mapped.
type Addr = uint32

// Word is the 32-bit contents of one aligned memory word.
type Word = uint32

const (
	// PageSize is the simulated page size, as in the paper's allocators.
	PageSize = 4096
	// WordSize is the machine word size in bytes.
	WordSize = 4
	// PageWords is the number of words per page.
	PageWords = PageSize / WordSize
	// PageShift converts between addresses and page numbers.
	PageShift = 12

	// AppComputeFactor is the cycles charged per application-mode memory
	// access: one for the access itself plus surrounding ALU and control
	// work. Typical RISC instruction mixes run several non-memory
	// instructions per load or store; without this factor the fixed-cost
	// pieces of memory management (e.g. the paper's 16/23-instruction
	// write barriers) would look several times more expensive relative to
	// the program than they did on the paper's machine. Memory-management
	// modes are memory-bound and charge one cycle per access.
	AppComputeFactor = 4
)

type page struct {
	words [PageWords]Word
}

// Space is one simulated address space. It is not safe for concurrent use;
// each experiment run owns its own Space.
type Space struct {
	pages []*page // index = page number; page 0 is reserved and nil

	// Fast-path state for Load and Store, refreshed by refresh whenever
	// an input changes. fastWords is the number of words in pages
	// [1, len(pages)) while charging is on, and 0 otherwise; cyc and cost
	// are the current mode's cycle counter and per-access charge.
	fastWords uint32
	cyc       *uint64
	cost      uint64

	mappedBytes uint64

	mode  stats.Mode
	c     *stats.Counters
	cache *cachesim.Cache

	// charge disables cycle accounting when false (used while an allocator
	// initializes pages it has not yet handed to anyone).
	charge bool

	// Failure model (see fault.go): an optional hard page limit plus an
	// optional injected fault plan, and the bookkeeping of refused calls.
	pageLimit int
	plan      *FaultPlan
	planRNG   *rand.Rand
	planCalls uint64
	mapCalls  uint64
	mapFails  uint64
	lastFail  *MapFailure

	// met, when non-nil, mirrors OS-level events into a metrics registry
	// (see metrics.go); every update site is nil-guarded.
	met *spaceMetrics
}

// NewSpace returns an empty address space whose accesses are charged to c.
// Page 0 is reserved so that address 0 stays invalid. The page table grows
// with the pages mapped, so an empty space costs the host a few hundred
// bytes.
func NewSpace(c *stats.Counters) *Space {
	s := &Space{
		pages:  make([]*page, 1),
		c:      c,
		charge: true,
	}
	s.refresh()
	return s
}

// refresh recomputes the fast-path state after the mode, charging or the
// mapped pages change. The fast path reads the cache field directly.
func (s *Space) refresh() {
	// Unless set below, every access takes the slow path, which charges or
	// panics.
	s.fastWords = 0
	if s.charge && s.c != nil && uint(s.mode) < uint(stats.NumModes) {
		s.fastWords = uint32(len(s.pages)-1) * PageWords
		s.cyc, s.cost = &s.c.Cycles[s.mode], modeCost[s.mode]
	}
}

// modeCost is the per-access charge of each accounting mode.
var modeCost = func() (c [stats.NumModes]uint64) {
	for m := range c {
		c[m] = 1
	}
	c[stats.ModeApp] = AppComputeFactor
	return c
}()

// AttachCache routes subsequent accesses through the given cache model.
func (s *Space) AttachCache(cache *cachesim.Cache) { s.cache = cache }

// Cache returns the attached cache model, or nil.
func (s *Space) Cache() *cachesim.Cache { return s.cache }

// Counters returns the counters this space charges cycles to.
func (s *Space) Counters() *stats.Counters { return s.c }

// SetMode switches the accounting mode for subsequent accesses and returns
// the previous mode so callers can restore it:
//
//	defer s.SetMode(s.SetMode(stats.ModeAlloc))
//
// While the fast window is live a switch to a valid mode only retargets the
// charge; anything else recomputes the whole fast-path state. SetMode runs
// twice per barrier, so it is kept within the compiler's inlining budget.
func (s *Space) SetMode(m stats.Mode) (old stats.Mode) {
	old, s.mode = s.mode, m
	if s.fastWords == 0 || uint(m) >= uint(stats.NumModes) {
		s.refresh()
	} else {
		s.cyc, s.cost = &s.c.Cycles[m], modeCost[m]
	}
	return
}

// Mode returns the current accounting mode.
func (s *Space) Mode() stats.Mode { return s.mode }

// MappedBytes returns the total memory requested from the simulated OS.
// It never shrinks: like sbrk, the simulated OS only grows.
func (s *Space) MappedBytes() uint64 { return s.mappedBytes }

// MapPages maps n fresh zeroed pages contiguously and returns the address of
// the first. It returns 0 — the never-mapped nil address — when the simulated
// OS refuses the request: the 32-bit address space is exhausted, a page limit
// (SetPageLimit) is reached, or an installed FaultPlan injects a failure.
// Allocators must treat 0 as out-of-memory and surface a typed error (see
// Space.OOM); a non-positive count is still an API-misuse panic.
func (s *Space) MapPages(n int) Addr {
	if n <= 0 {
		panic("mem: MapPages of non-positive count")
	}
	s.mapCalls++
	if s.met != nil {
		s.met.mapCalls.Inc()
	}
	if cause := s.refuse(n); cause != "" {
		s.mapFails++
		s.lastFail = &MapFailure{Call: s.mapCalls, Pages: n, Mapped: s.mappedBytes, Cause: cause}
		if s.met != nil {
			s.met.mapFailures.Inc()
			s.met.failureCounter(cause).Inc()
		}
		return 0
	}
	first := len(s.pages)
	for i := 0; i < n; i++ {
		s.pages = append(s.pages, &page{})
	}
	s.mappedBytes += uint64(n) * PageSize
	s.refresh()
	if s.met != nil {
		s.met.pagesMapped.Add(uint64(n))
		s.met.mappedBytes.Set(int64(s.mappedBytes))
	}
	return Addr(first) << PageShift
}

// Mapped reports whether a is inside a mapped page.
func (s *Space) Mapped(a Addr) bool {
	p := int(a >> PageShift)
	return p > 0 && p < len(s.pages)
}

// NumPages returns the number of page slots, including the reserved page 0.
func (s *Space) NumPages() int { return len(s.pages) }

// access charges one access on the slow path.
func (s *Space) access(a Addr, write bool) {
	if !s.charge {
		return
	}
	if s.mode == stats.ModeApp {
		s.c.Cycles[stats.ModeApp] += AppComputeFactor
	} else {
		s.c.Cycles[s.mode]++
	}
	if s.cache != nil {
		s.stall(a, write)
	}
}

func (s *Space) page(a Addr) *page {
	if a&(WordSize-1) != 0 {
		panic(fmt.Sprintf("mem: unaligned access at %#x", a))
	}
	p := int(a >> PageShift)
	if p <= 0 || p >= len(s.pages) {
		panic(fmt.Sprintf("mem: access to unmapped address %#x", a))
	}
	return s.pages[p]
}

// fastIndex maps a to its word index counted from page 1. Rotating the
// two alignment bits to the top makes an unaligned address, address 0 and
// every address below PageSize index past fastWords, so one compare
// against fastWords checks alignment, mapping and charging at once.
func fastIndex(a Addr) uint32 { return bits.RotateLeft32(a-PageSize, -2) }

// word returns the word at fast index i.
func (s *Space) word(i uint32) *Word {
	return &s.pages[i/PageWords+1].words[i%PageWords]
}

// Load returns the word at the 4-byte-aligned address a.
func (s *Space) Load(a Addr) Word {
	if i := fastIndex(a); i < s.fastWords {
		*s.cyc += s.cost
		if s.cache != nil && !s.cache.Hit(a, false) {
			s.stall(a, false)
		}
		return *s.word(i)
	}
	s.access(a, false)
	return s.page(a).words[(a%PageSize)/WordSize]
}

// Store writes v to the 4-byte-aligned address a.
func (s *Space) Store(a Addr, v Word) {
	if i := fastIndex(a); i < s.fastWords {
		*s.cyc += s.cost
		if s.cache != nil && !s.cache.Hit(a, true) {
			s.stall(a, true)
		}
		*s.word(i) = v
		return
	}
	s.access(a, true)
	s.page(a).words[(a%PageSize)/WordSize] = v
}

// stall runs a through the cache model and adds the stalls it causes.
func (s *Space) stall(a Addr, write bool) {
	r, w := s.cache.Access(a, write)
	s.c.ReadStalls += r
	s.c.WriteStalls += w
}

// LoadByte returns the byte at address a (no alignment requirement).
// Byte order within a word is little-endian.
func (s *Space) LoadByte(a Addr) byte {
	w := s.Load(a &^ (WordSize - 1))
	return byte(w >> (8 * (a & (WordSize - 1))))
}

// StoreByte writes b at address a, preserving the other bytes of the word.
func (s *Space) StoreByte(a Addr, b byte) {
	aligned := a &^ Addr(WordSize-1)
	shift := 8 * (a & (WordSize - 1))
	w := s.Load(aligned)
	w = w&^(0xff<<shift) | Word(b)<<shift
	s.Store(aligned, w)
}

// ZeroRange zeroes size bytes starting at a (both word-aligned), charging
// one cycle per word as the paper's ralloc clearing does. Without a cache
// model a range inside the fast window is charged in one step and cleared
// page by page; otherwise each word is a Store, so the cache sees it and a
// bad address charges then panics at the word it reaches.
func (s *Space) ZeroRange(a Addr, size int) {
	words := (size + WordSize - 1) / WordSize
	i := fastIndex(a)
	if s.cache == nil && words > 0 && i < s.fastWords && words <= int(s.fastWords-i) {
		*s.cyc += uint64(words) * s.cost
		for n := uint32(words); n > 0; {
			off := i % PageWords
			k := min(n, PageWords-off)
			clear(s.pages[i/PageWords+1].words[off : off+k])
			i, n = i+k, n-k
		}
		return
	}
	for off := 0; off < size; off += WordSize {
		s.Store(a+Addr(off), 0)
	}
}

// ZeroPageFree zeroes the page containing a without charging cycles. It is
// used when an allocator recycles a page it owns: the paper's region library
// reuses pages from its free page list, and freshly OS-mapped pages arrive
// zeroed either way.
func (s *Space) ZeroPageFree(a Addr) {
	p := s.page(a &^ (PageSize - 1))
	p.words = [PageWords]Word{}
}

// PoisonWord fills freed pages (PoisonPageFree) so that reads through
// dangling pointers return an unmistakable pattern and stray writes into
// freed pages are detectable by a verifier.
const PoisonWord Word = 0xdeadbeef

// poisonedPage is a page of PoisonWord, copied whole by PoisonPageFree.
var poisonedPage = func() (p page) {
	for i := range p.words {
		p.words[i] = PoisonWord
	}
	return p
}()

// PoisonPageFree fills the page containing a with PoisonWord without
// charging cycles. Allocators call it when a page returns to a free list;
// pages are re-zeroed (ZeroPageFree) before reuse, so poisoning is
// observable only through dangling pointers.
func (s *Space) PoisonPageFree(a Addr) {
	*s.page(a &^ (PageSize - 1)) = poisonedPage
}

// PoisonRange fills size bytes starting at the word-aligned address a with
// PoisonWord without charging cycles — the sub-page sibling of
// PoisonPageFree, used when an allocator retires one block inside a page it
// still owns (the region library's pooled string frees). size must be a
// multiple of WordSize and the range must not cross a page boundary.
func (s *Space) PoisonRange(a Addr, size int) {
	p := s.page(a)
	base := (a % PageSize) / WordSize
	for i := 0; i < size/WordSize; i++ {
		p.words[base+Addr(i)] = PoisonWord
	}
}

// Uncharged runs f with cycle accounting disabled. It exists for test
// oracles and statistics gathering that must not perturb measurements.
func (s *Space) Uncharged(f func()) {
	old := s.charge
	s.charge = false
	s.refresh()
	defer func() {
		s.charge = old
		s.refresh()
	}()
	f()
}
