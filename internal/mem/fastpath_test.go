package mem

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"regions/internal/cachesim"
	"regions/internal/stats"
)

// Load and Store take a fast path for aligned, mapped addresses while
// charging is on and fall back to the checked slow path otherwise. These
// tests pin the edges between the two.

// panicMsg runs f and returns the message it panicked with, or "".
func panicMsg(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

func TestBadAddressChargesThenPanics(t *testing.T) {
	for _, withCache := range []bool{false, true} {
		s, c := newSpace()
		var cache *cachesim.Cache
		if withCache {
			cache = cachesim.New(cachesim.UltraSparcI())
			s.AttachCache(cache)
		}
		a := s.MapPages(2)
		end := a + 2*PageSize
		cases := []struct {
			addr Addr
			want string
		}{
			{a + 2, fmt.Sprintf("mem: unaligned access at %#x", a+2)},
			{end + 1, fmt.Sprintf("mem: unaligned access at %#x", end+1)},
			{0, "mem: access to unmapped address 0x0"},
			{8, "mem: access to unmapped address 0x8"},
			{PageSize - 4, fmt.Sprintf("mem: access to unmapped address %#x", PageSize-4)},
			{end, fmt.Sprintf("mem: access to unmapped address %#x", end)},
			{0xfffffffc, "mem: access to unmapped address 0xfffffffc"},
		}
		for _, tc := range cases {
			for _, write := range []bool{false, true} {
				before := c.Cycles[stats.ModeApp]
				var accesses uint64
				if cache != nil {
					accesses = cache.Reads + cache.Writes
				}
				got := panicMsg(func() {
					if write {
						s.Store(tc.addr, 1)
					} else {
						s.Load(tc.addr)
					}
				})
				if got != tc.want {
					t.Fatalf("cache=%v write=%v %#x: panic %q, want %q", withCache, write, tc.addr, got, tc.want)
				}
				if d := c.Cycles[stats.ModeApp] - before; d != AppComputeFactor {
					t.Fatalf("cache=%v write=%v %#x: charged %d cycles before panicking, want %d",
						withCache, write, tc.addr, d, AppComputeFactor)
				}
				if cache != nil && cache.Reads+cache.Writes != accesses+1 {
					t.Fatalf("write=%v %#x: the cache did not see the access before the panic", write, tc.addr)
				}
			}
		}
	}
}

func TestUnchargedWithSetModeInside(t *testing.T) {
	s, c := newSpace()
	a := s.MapPages(1)
	s.Uncharged(func() {
		s.SetMode(stats.ModeAlloc) // left set on purpose
		s.Store(a, 7)
		s.Uncharged(func() { s.Load(a) })
		s.Load(a)
	})
	if c.TotalCycles() != 0 {
		t.Fatalf("uncharged accesses cost %v", c.Cycles)
	}
	if s.Mode() != stats.ModeAlloc {
		t.Fatalf("mode %v after Uncharged, want the alloc mode set inside it", s.Mode())
	}
	s.Load(a)
	s.SetMode(stats.ModeApp)
	s.Store(a, 8)
	if c.Cycles[stats.ModeAlloc] != 1 || c.Cycles[stats.ModeApp] != AppComputeFactor {
		t.Fatalf("after Uncharged: alloc %d app %d, want 1 and %d",
			c.Cycles[stats.ModeAlloc], c.Cycles[stats.ModeApp], AppComputeFactor)
	}

	// A panic inside Uncharged still restores charging.
	panicMsg(func() { s.Uncharged(func() { s.Load(0) }) })
	s.Load(a)
	if c.Cycles[stats.ModeApp] != 2*AppComputeFactor {
		t.Fatalf("charging not restored after a panic inside Uncharged: app %d", c.Cycles[stats.ModeApp])
	}
}

func TestAccessPagesMappedLater(t *testing.T) {
	s, c := newSpace()
	a := s.MapPages(1)
	s.Store(a, 1)
	next := a + PageSize
	if msg := panicMsg(func() { s.Load(next) }); msg == "" {
		t.Fatal("Load of a not yet mapped page did not panic")
	}
	if b := s.MapPages(2); b != next {
		t.Fatalf("second mapping at %#x, want %#x", b, next)
	}
	before := c.Cycles[stats.ModeApp]
	last := next + 2*PageSize - WordSize
	s.Store(next, 2)
	s.Store(last, 3)
	if s.Load(a) != 1 || s.Load(next) != 2 || s.Load(last) != 3 {
		t.Fatal("words on later-mapped pages do not round-trip")
	}
	if d := c.Cycles[stats.ModeApp] - before; d != 5*AppComputeFactor {
		t.Fatalf("five accesses charged %d cycles, want %d", d, 5*AppComputeFactor)
	}
}

func TestAttachCacheAfterAccesses(t *testing.T) {
	s, c := newSpace()
	a := s.MapPages(1)
	for i := 0; i < 10; i++ {
		s.Store(a+Addr(i*WordSize), 1)
	}
	cache := cachesim.New(cachesim.UltraSparcI())
	s.AttachCache(cache)
	s.Load(a)
	s.Load(a + 4)
	if cache.Reads != 2 || cache.Writes != 0 {
		t.Fatalf("cache saw %d reads, %d writes; want only the 2 reads after attaching", cache.Reads, cache.Writes)
	}
	if c.ReadStalls != 42 {
		t.Fatalf("read stalls %d, want one cold L2 miss (42)", c.ReadStalls)
	}
	if c.Cycles[stats.ModeApp] != 12*AppComputeFactor {
		t.Fatalf("app cycles %d, want %d", c.Cycles[stats.ModeApp], 12*AppComputeFactor)
	}
}

// TestMatchesPerAccessReference drives a random trace of loads, stores,
// byte accesses, range zeroing, page poisoning, mode switches (inside
// uncharged stretches too), uncharged stretches and new mappings, and
// checks contents, mode cycles and stalls against a loop that charges each
// access the way the original slow path did.
func TestMatchesPerAccessReference(t *testing.T) {
	for _, withCache := range []bool{false, true} {
		s, c := newSpace()
		var refCache *cachesim.Cache
		if withCache {
			s.AttachCache(cachesim.New(cachesim.UltraSparcI()))
			refCache = cachesim.New(cachesim.UltraSparcI())
		}
		var want stats.Counters
		shadowWords := make([]Word, 70*PageWords)
		shadow := func(a Addr) *Word { return &shadowWords[(a-PageSize)/WordSize] }
		mode := stats.ModeApp
		pages := 1
		s.MapPages(1)
		charge := func(a Addr, write bool) {
			if mode == stats.ModeApp {
				want.Cycles[mode] += AppComputeFactor
			} else {
				want.Cycles[mode]++
			}
			if refCache != nil {
				r, w := refCache.Access(a, write)
				want.ReadStalls += r
				want.WriteStalls += w
			}
		}
		// zeroRange is a random ZeroRange inside the mapped pages: 0 to 3
		// pages long, often crossing pages and often not a multiple of the
		// word size.
		zeroRange := func(a Addr, size int, charged bool) {
			if end := int(PageSize + pages*PageSize); int(a)+size > end {
				size = end - int(a)
			}
			for off := 0; off < size; off += WordSize {
				if charged {
					charge(a+Addr(off), true)
				}
				*shadow(a + Addr(off)) = 0
			}
			s.ZeroRange(a, size)
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 200000; i++ {
			a := PageSize + Addr(rng.Intn(pages*PageSize))&^(WordSize-1)
			switch op := rng.Intn(100); {
			case op < 43:
				charge(a, false)
				if got := s.Load(a); got != *shadow(a) {
					t.Fatalf("cache=%v step %d: Load(%#x)=%#x, want %#x", withCache, i, a, got, *shadow(a))
				}
			case op < 86:
				v := rng.Uint32()
				charge(a, true)
				s.Store(a, v)
				*shadow(a) = v
			case op < 91:
				b := Addr(rng.Intn(WordSize))
				charge(a, false)
				charge(a, true)
				s.StoreByte(a+b, 0xab)
				*shadow(a) = *shadow(a)&^(0xff<<(8*b)) | 0xab<<(8*b)
			case op < 94:
				mode = stats.Mode(rng.Intn(int(stats.NumModes)))
				s.SetMode(mode)
			case op < 96:
				zeroRange(a, rng.Intn(3*PageSize+1), true)
			case op < 97:
				page := a &^ (PageSize - 1)
				for j := Addr(0); j < PageSize; j += WordSize {
					*shadow(page + j) = PoisonWord
				}
				s.PoisonPageFree(page + Addr(rng.Intn(PageSize)))
			case op < 98:
				s.Uncharged(func() {
					for j := Addr(0); j < 8*WordSize; j += WordSize {
						s.Load(a&^(PageSize-1) + j)
					}
					s.Store(a, *shadow(a))
					if rng.Intn(2) == 0 {
						mode = stats.Mode(rng.Intn(int(stats.NumModes)))
						s.SetMode(mode)
					}
					zeroRange(a, rng.Intn(PageSize), false)
				})
			default:
				if pages < 64 {
					n := 1 + rng.Intn(3)
					s.MapPages(n)
					pages += n
				}
			}
		}
		if *c != want {
			t.Fatalf("cache=%v: counters %+v, reference %+v", withCache, *c, want)
		}
		if withCache && want.ReadStalls == 0 {
			t.Fatal("trace caused no read stalls")
		}
		s.Uncharged(func() {
			for a := Addr(PageSize); a < Addr(PageSize+pages*PageSize); a += WordSize {
				if got := s.Load(a); got != *shadow(a) {
					t.Fatalf("cache=%v: final word at %#x is %#x, want %#x", withCache, a, got, *shadow(a))
				}
			}
		})
	}
}

// TestInvalidModeTakesSlowPath checks that an invalid accounting mode keeps
// every access off the fast path: Load, Store and ZeroRange try to charge
// the invalid mode and panic without charging anything, and a switch back
// to a valid mode restores fast charging.
func TestInvalidModeTakesSlowPath(t *testing.T) {
	for _, withCache := range []bool{false, true} {
		s, c := newSpace()
		var cache *cachesim.Cache
		if withCache {
			cache = cachesim.New(cachesim.UltraSparcI())
			s.AttachCache(cache)
		}
		a := s.MapPages(2)
		s.Store(a, 7)
		for _, bad := range []stats.Mode{stats.NumModes, -1} {
			s.SetMode(stats.ModeAlloc)
			s.SetMode(bad)
			before := *c
			var accesses uint64
			if cache != nil {
				accesses = cache.Reads + cache.Writes
			}
			for name, f := range map[string]func(){
				"Load":      func() { s.Load(a) },
				"Store":     func() { s.Store(a, 1) },
				"ZeroRange": func() { s.ZeroRange(a, 2*PageSize) },
			} {
				if msg := panicMsg(f); !strings.Contains(msg, "index out of range") {
					t.Fatalf("cache=%v mode %d: %s panicked with %q, want the charge's index panic", withCache, bad, name, msg)
				}
			}
			if *c != before {
				t.Fatalf("cache=%v mode %d: counters moved from %+v to %+v", withCache, bad, before, *c)
			}
			if cache != nil && cache.Reads+cache.Writes != accesses {
				t.Fatalf("mode %d: the cache saw an access that was never charged", bad)
			}
			if s.SetMode(stats.ModeFree) != bad {
				t.Fatalf("SetMode did not return the invalid mode %d", bad)
			}
			if s.fastWords == 0 {
				t.Fatalf("cache=%v: the fast window stayed closed after leaving mode %d", withCache, bad)
			}
			free := c.Cycles[stats.ModeFree]
			if s.Load(a) != 7 || c.Cycles[stats.ModeFree] != free+1 {
				t.Fatalf("cache=%v: a valid mode after mode %d does not charge 1 cycle per load", withCache, bad)
			}
		}
	}
}

// BenchmarkSpaceLoadStore measures the host cost of one simulated word
// access, with no cache model and with the paper's UltraSparc-I. It walks
// 64 pages word by word, storing one word in four: one access in 16
// misses L1 and all hit L2 after the first pass.
func BenchmarkSpaceLoadStore(b *testing.B) {
	for _, bc := range []struct {
		name  string
		cache bool
	}{{"no-cache", false}, {"UltraSparcI", true}} {
		b.Run(bc.name, func(b *testing.B) {
			s, _ := newSpace()
			if bc.cache {
				s.AttachCache(cachesim.New(cachesim.UltraSparcI()))
			}
			const span = 64 * PageSize
			base := s.MapPages(span / PageSize)
			off := Addr(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := base + off
				if i&3 == 0 {
					s.Store(a, Word(i))
				} else {
					s.Load(a)
				}
				off = (off + WordSize) % span
			}
		})
	}
}

// BenchmarkSpaceZeroRange measures the host cost of clearing one 256-byte
// allocation, with no cache model (the bulk path) and with the paper's
// UltraSparc-I (one Store per word).
func BenchmarkSpaceZeroRange(b *testing.B) {
	for _, bc := range []struct {
		name  string
		cache bool
	}{{"no-cache", false}, {"UltraSparcI", true}} {
		b.Run(bc.name, func(b *testing.B) {
			s, _ := newSpace()
			if bc.cache {
				s.AttachCache(cachesim.New(cachesim.UltraSparcI()))
			}
			const span, size = 64 * PageSize, 256
			base := s.MapPages(span / PageSize)
			off := Addr(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ZeroRange(base+off, size)
				off = (off + size) % span
			}
		})
	}
}

// BenchmarkPoisonPageFree measures the host cost of poisoning one freed
// page.
func BenchmarkPoisonPageFree(b *testing.B) {
	s, _ := newSpace()
	const pages = 64
	base := s.MapPages(pages)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PoisonPageFree(base + Addr(i%pages)*PageSize)
	}
}
