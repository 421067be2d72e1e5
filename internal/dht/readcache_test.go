package dht

import (
	"testing"
	"unsafe"

	"hipmer/internal/xrt"
)

// denseCache is the read cache as it was before the index + arena layout:
// one array holding an entry for every slot, filled or not. It survives
// here as the oracle the new layout must match answer for answer.
type denseCache struct {
	mask  uint64
	slots []denseSlot
}

type denseSlot struct {
	key   uint64
	val   int64
	state uint8 // 0 empty, 1 present, 2 absent (negative entry)
}

func newDenseCache(slots int) *denseCache {
	return &denseCache{mask: uint64(slots - 1), slots: make([]denseSlot, slots)}
}

func (c *denseCache) get(mix uint64, k uint64) (v int64, ok bool, hit bool) {
	s := &c.slots[mix&c.mask]
	if s.state != 0 && s.key == k {
		return s.val, s.state == 1, true
	}
	return 0, false, false
}

func (c *denseCache) put(mix uint64, k uint64, v int64, ok bool) {
	s := &c.slots[mix&c.mask]
	s.key, s.val, s.state = k, v, 2
	if ok {
		s.state = 1
	}
}

// checkCacheStream replays one get/put stream against the cache and the
// dense oracle. Each op is two bytes: a key from a space of up to four
// times the slot count (so slots collide and fills overwrite), and a
// selector — get, put-present or put-absent — that is also the value put.
// It returns the cache for the storage checks.
func checkCacheStream(t *testing.T, slots int, ops []byte) *readCache[uint64, int64] {
	t.Helper()
	c := newReadCache[uint64, int64](slots)
	ref := newDenseCache(slots)
	for i := 0; i+1 < len(ops); i += 2 {
		k := uint64(ops[i]) % uint64(4*slots)
		mix := k // the slot is k mod slots: four keys contend for each
		switch sel := ops[i+1]; sel % 4 {
		case 0, 1:
			v, ok, hit := c.get(mix, k)
			rv, rok, rhit := ref.get(mix, k)
			if v != rv || ok != rok || hit != rhit {
				t.Fatalf("op %d: get(%d) = (%d,%v,%v), dense cache says (%d,%v,%v)",
					i/2, k, v, ok, hit, rv, rok, rhit)
			}
		case 2:
			c.put(mix, k, int64(sel), true)
			ref.put(mix, k, int64(sel), true)
		default:
			c.put(mix, k, 0, false)
			ref.put(mix, k, 0, false)
		}
	}
	// Storage follows fills: one index word per slot, and entries for the
	// slots ever filled, rounded up to a chunk.
	filled := 0
	for _, s := range ref.slots {
		if s.state != 0 {
			filled++
		}
	}
	if c.filled != filled {
		t.Fatalf("%d entries handed out for %d filled slots", c.filled, filled)
	}
	if want := (filled + cacheChunk - 1) / cacheChunk; len(c.chunks) != want || len(c.index) != slots {
		t.Fatalf("%d chunks and %d index words for %d fills in %d slots, want %d chunks",
			len(c.chunks), len(c.index), filled, slots, want)
	}
	return c
}

// TestReadCacheMatchesDenseReference: random streams over few slots, so
// that most fills collide, and over enough slots to span several chunks.
func TestReadCacheMatchesDenseReference(t *testing.T) {
	rng := xrt.NewPrng(17)
	for _, slots := range []int{1, 8, 64} {
		for trial := 0; trial < 50; trial++ {
			ops := make([]byte, 2*(1+rng.Intn(2000)))
			for i := range ops {
				ops[i] = byte(rng.Uint64())
			}
			checkCacheStream(t, slots, ops)
		}
	}
	// every slot filled: the worst case is the dense array plus the index
	const slots = 4 * cacheChunk
	var ops []byte
	for k := 0; k < slots; k++ {
		ops = append(ops, byte(k), 2)
	}
	c := checkCacheStream(t, slots, ops)
	got := len(c.index)*4 + len(c.chunks)*cacheChunk*int(unsafe.Sizeof(cacheEntry[uint64, int64]{}))
	if dense := slots * int(unsafe.Sizeof(cacheEntry[uint64, int64]{})); got != dense+4*slots {
		t.Fatalf("full cache holds %d bytes, want the dense array's %d plus 4 per slot", got, dense)
	}
}

func FuzzReadCache(f *testing.F) {
	f.Add([]byte{1, 2, 1, 0, 9, 3, 9, 1, 1, 0})
	f.Add([]byte{0, 2, 8, 2, 0, 0, 8, 0, 16, 3, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkCacheStream(t, 8, ops)
	})
}

// TestFreezeAllocatesNoCache: Freeze builds nothing, a rank that only
// reads its own keys still has nothing, and a rank's first remote miss
// brings it an index and one chunk.
func TestFreezeAllocatesNoCache(t *testing.T) {
	team := xrt.NewTeam(xrt.Config{Ranks: 4, RanksPerNode: 2})
	opt := intOpts()
	opt.CacheSlots = 8192
	tab := New[uint64, int64](team, opt, sumMerge)
	var local, remote uint64 // keys owned by rank 0 and by another rank
	for k := uint64(0); ; k++ {
		if tab.Owner(k) == 0 {
			local = k
		} else {
			remote = k
		}
		if local != 0 && remote != 0 {
			break
		}
	}
	cached := func() (n int) {
		for _, c := range tab.caches {
			if c != nil {
				n++
			}
		}
		return n
	}
	team.Run(func(r *xrt.Rank) {
		tab.Put(r, local, 1)
		tab.Freeze(r)
		if r.ID == 0 {
			tab.Get(r, local)
		}
	})
	if n := cached(); n != 0 {
		t.Fatalf("%d ranks hold a read cache after Freeze and a local Get", n)
	}
	team.Run(func(r *xrt.Rank) {
		if r.ID == 0 {
			tab.Get(r, remote)
		}
	})
	c := tab.caches[0]
	if cached() != 1 || c == nil {
		t.Fatalf("after rank 0's remote miss %d ranks hold a cache, want rank 0 alone", cached())
	}
	if len(c.index) != 8192 || len(c.chunks) != 1 {
		t.Fatalf("first fill built %d index words and %d chunks, want 8192 and 1", len(c.index), len(c.chunks))
	}
}

// BenchmarkFreeze is one frozen era of a table nobody reads remotely, at
// the wheat workload's shape: what a Freeze/Thaw pair costs by itself.
func BenchmarkFreeze(b *testing.B) {
	team := xrt.NewTeam(xrt.Config{Ranks: 96, RanksPerNode: 24})
	opt := intOpts()
	opt.CacheSlots = 8192
	tab := New[uint64, int64](team, opt, sumMerge)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		team.Run(func(r *xrt.Rank) {
			tab.Freeze(r)
			tab.Thaw(r)
		})
	}
}
