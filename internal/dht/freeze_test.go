package dht

import (
	"sync/atomic"
	"testing"

	"hipmer/internal/xrt"
)

// expectPanic runs fn and reports whether it panicked.
func expectPanic(fn func()) (panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	fn()
	return false
}

func TestFreezePanicsOnWritesAndThawRestores(t *testing.T) {
	team := xrt.NewTeam(xrt.Config{Ranks: 4, RanksPerNode: 2})
	tab := New[uint64, int64](team, intOpts(), sumMerge)
	team.Run(func(r *xrt.Rank) {
		for i := 0; i < 100; i++ {
			tab.Put(r, uint64(r.ID*100+i), 1)
		}
		tab.Freeze(r) // flushes, barriers, publishes immutable

		// reads still work, lock-free
		if v, ok := tab.Get(r, uint64(r.ID*100)); !ok || v != 1 {
			t.Errorf("rank %d: frozen Get = (%d,%v)", r.ID, v, ok)
		}
		// every write class must panic
		if r.ID == 0 {
			for name, fn := range map[string]func(){
				"Put":    func() { tab.Put(r, 7, 1) },
				"Mutate": func() { tab.Mutate(r, 7, func(v int64, _ bool) (int64, bool) { return v, true }) },
				"LocalFilter": func() {
					tab.LocalFilter(r, func(_ uint64, v int64) (int64, bool) { return v, true })
				},
			} {
				if !expectPanic(fn) {
					t.Errorf("%s on frozen table did not panic", name)
				}
			}
		}
		r.Barrier()

		tab.Thaw(r)
		// writes work again and are visible after flush + barrier
		tab.Put(r, uint64(1000+r.ID), 5)
		tab.Flush(r)
		r.Barrier()
		if v, ok := tab.Get(r, uint64(1000+(r.ID+1)%4)); !ok || v != 5 {
			t.Errorf("rank %d: post-thaw Get = (%d,%v)", r.ID, v, ok)
		}
	})
}

func TestFrozenFlushOfEmptyBuffersIsNoop(t *testing.T) {
	team := xrt.NewTeam(xrt.Config{Ranks: 2})
	tab := New[uint64, int64](team, intOpts(), sumMerge)
	team.Run(func(r *xrt.Rank) {
		tab.Put(r, uint64(r.ID), 1)
		tab.Freeze(r)
		tab.Flush(r) // buffers drained by Freeze: must not panic
	})
}

func TestCacheServesRemoteReadsLocally(t *testing.T) {
	team := xrt.NewTeam(xrt.Config{Ranks: 4, RanksPerNode: 2})
	opt := intOpts()
	opt.CacheSlots = 1 << 12
	tab := New[uint64, int64](team, opt, sumMerge)
	const n = 512
	team.Run(func(r *xrt.Rank) {
		for i := r.ID; i < n; i += r.N() {
			tab.Put(r, uint64(i), int64(i))
		}
		tab.Freeze(r)
		// two passes over all keys, plus absent keys: the second pass
		// must be answered from the cache with correct values
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < n; i++ {
				v, ok := tab.Get(r, uint64(i))
				if !ok || v != int64(i) {
					t.Errorf("rank %d pass %d: key %d = (%d,%v)", r.ID, pass, i, v, ok)
					return
				}
			}
			for i := n; i < n+64; i++ { // negative entries cache too
				if _, ok := tab.Get(r, uint64(i)); ok {
					t.Errorf("rank %d: phantom key %d", r.ID, i)
					return
				}
			}
		}
	})
	s := team.AggStats()
	if s.CacheHits == 0 {
		t.Fatalf("no cache hits recorded: %+v", s)
	}
	if s.CacheMisses == 0 {
		t.Fatalf("no cache misses recorded: %+v", s)
	}
	// with two identical passes and a cache larger than the key space,
	// roughly half the remote reads must hit
	if rate := s.CacheHitRate(); rate < 0.3 {
		t.Fatalf("cache hit rate %.2f too low", rate)
	}
}

func TestThawDiscardsCaches(t *testing.T) {
	team := xrt.NewTeam(xrt.Config{Ranks: 2, RanksPerNode: 1})
	opt := intOpts()
	opt.CacheSlots = 64
	tab := New[uint64, int64](team, opt, nil) // last write wins
	// find a key owned by rank 1 so rank 0 reads it remotely (cached)
	var key uint64
	for k := uint64(0); ; k++ {
		if int(xrt.Splitmix64(k)%2) == 1 {
			key = k
			break
		}
	}
	team.Run(func(r *xrt.Rank) {
		if r.ID == 1 {
			tab.Put(r, key, 1)
		}
		tab.Freeze(r)
		if v, _ := tab.Get(r, key); v != 1 { // fills rank 0's cache
			t.Errorf("rank %d: stale initial read %d", r.ID, v)
		}
		tab.Thaw(r)
		if r.ID == 1 {
			tab.Put(r, key, 2)
		}
		tab.Freeze(r)
		if v, _ := tab.Get(r, key); v != 2 {
			t.Errorf("rank %d: read %d after thaw+rewrite, want 2 (stale cache?)", r.ID, v)
		}
	})
}

func TestLocalPutFastPathAppliesImmediately(t *testing.T) {
	team := xrt.NewTeam(xrt.Config{Ranks: 4})
	tab := New[uint64, int64](team, intOpts(), sumMerge)
	var localPuts atomic.Int64
	team.Run(func(r *xrt.Rank) {
		for k := uint64(0); k < 4000; k++ {
			if tab.Owner(k) != r.ID {
				continue
			}
			tab.Put(r, k, 1)
			localPuts.Add(1)
			// no Flush: local stores bypass the buffer and are visible
			// immediately
			if v, ok := tab.Get(r, k); !ok || v != 1 {
				t.Errorf("rank %d: local put of %d not visible pre-flush", r.ID, k)
				return
			}
		}
	})
	s := team.AggStats()
	if s.LocalStores != localPuts.Load() {
		t.Fatalf("local stores %d, want %d", s.LocalStores, localPuts.Load())
	}
	if s.OnNodeMsgs+s.OffNodeMsgs != 0 {
		t.Fatalf("local puts generated messages: %+v", s)
	}
}

// TestStressConcurrentOps hammers Get/Put/Mutate/Flush concurrently from
// every rank — the -race target exercising stripe locking under real
// contention. The sum invariant checks no update is lost or duplicated.
func TestStressConcurrentOps(t *testing.T) {
	const (
		ranks   = 8
		puts    = 3000
		mutates = 500
		keys    = 97 // small keyspace maximizes stripe contention
	)
	team := xrt.NewTeam(xrt.Config{Ranks: ranks, RanksPerNode: 2})
	opt := intOpts()
	opt.AggBufSize = 16
	opt.Stripes = 4
	tab := New[uint64, int64](team, opt, sumMerge)
	team.Run(func(r *xrt.Rank) {
		rng := xrt.NewPrng(int64(r.ID) + 1)
		for i := 0; i < puts; i++ {
			tab.Put(r, rng.Uint64()%keys, 1)
			if i%7 == 0 {
				tab.Get(r, rng.Uint64()%keys)
			}
			if i%251 == 0 {
				tab.Flush(r)
			}
			if i%6 == 0 && i/6 < mutates {
				tab.Mutate(r, rng.Uint64()%keys, func(v int64, _ bool) (int64, bool) {
					return v + 1, true
				})
			}
		}
		tab.Flush(r)
		r.Barrier()
		// concurrent frozen reads from all ranks (lock-free under -race)
		tab.Freeze(r)
		for k := uint64(0); k < keys; k++ {
			tab.Get(r, k)
		}
	})
	var sum int64
	tab.RangeAll(func(_ uint64, v int64) bool { sum += v; return true })
	want := int64(ranks * (puts + mutates))
	if sum != want {
		t.Fatalf("lost or duplicated updates: sum %d, want %d", sum, want)
	}
}

// TestExpectedItemsIsOnlyAHint: a size hint changes no behaviour and
// allocates nothing by itself — not at New, and not later for entries that
// never arrive (here the hint is 100× the truth).
func TestExpectedItemsIsOnlyAHint(t *testing.T) {
	team := xrt.NewTeam(xrt.Config{Ranks: 4})
	opt := intOpts()
	opt.ExpectedItems = 100000
	tab := New[uint64, int64](team, opt, sumMerge)
	slots := func() (n int) {
		for i := range tab.shards {
			for s := range tab.shards[i].stripes {
				n += tab.shards[i].stripes[s].m.Cap()
			}
		}
		return n
	}
	if n := slots(); n != 0 {
		t.Fatalf("New allocated %d slots for a hint", n)
	}
	team.Run(func(r *xrt.Rank) {
		for i := 0; i < 1000; i++ {
			tab.Put(r, uint64(i), 1)
		}
		tab.Flush(r)
		r.Barrier()
		if n := tab.GlobalLen(r); n != 1000 {
			t.Errorf("global len %d, want 1000", n)
		}
	})
	if n := slots(); n > 4*1000 {
		t.Fatalf("%d slots hold 1000 entries: the hint over-allocated", n)
	}
}

// ---------------------------------------------------------------------
// Microbenchmarks: striped-mutex Get vs frozen lock-free Get vs frozen
// cached Get, all with 8 ranks issuing lookups concurrently.

const benchKeys = 1 << 15

func buildBenchTable(cacheSlots int) (*xrt.Team, *Table[uint64, int64]) {
	team := xrt.NewTeam(xrt.Config{Ranks: 8, RanksPerNode: 4})
	opt := intOpts()
	opt.CacheSlots = cacheSlots
	opt.ExpectedItems = benchKeys
	tab := New[uint64, int64](team, opt, sumMerge)
	team.Run(func(r *xrt.Rank) {
		for i := r.ID; i < benchKeys; i += r.N() {
			tab.Put(r, uint64(i), int64(i))
		}
		tab.Flush(r)
	})
	return team, tab
}

func benchGets(b *testing.B, team *xrt.Team, tab *Table[uint64, int64], span uint64) {
	b.ReportAllocs()
	b.ResetTimer()
	team.Run(func(r *xrt.Rank) {
		x := uint64(r.ID)*0x9e3779b97f4a7c15 + 1
		for i := 0; i < b.N/8+1; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			tab.Get(r, (x>>17)%span)
		}
	})
}

// BenchmarkDHTGetStriped is the mutex baseline: every Get locks its
// stripe.
func BenchmarkDHTGetStriped(b *testing.B) {
	team, tab := buildBenchTable(0)
	benchGets(b, team, tab, benchKeys)
}

// BenchmarkDHTGetFrozen serves the same lookups lock-free from the
// frozen table.
func BenchmarkDHTGetFrozen(b *testing.B) {
	team, tab := buildBenchTable(0)
	team.Run(func(r *xrt.Rank) { tab.Freeze(r) })
	benchGets(b, team, tab, benchKeys)
}

// BenchmarkDHTGetFrozenCached adds the per-rank software cache with a
// working set that fits it (seed-lookup-like reuse).
func BenchmarkDHTGetFrozenCached(b *testing.B) {
	team, tab := buildBenchTable(1 << 14)
	team.Run(func(r *xrt.Rank) { tab.Freeze(r) })
	benchGets(b, team, tab, 1<<12)
	s := team.AggStats()
	b.ReportMetric(s.CacheHitRate(), "hitRate")
}

// TestFreezeThawIdempotent: Freeze on a frozen table and Thaw on a
// thawed table are documented no-ops — every rank must still converge
// (they keep their barrier) and the table's contents must be untouched.
// Regression test: double-freeze used to flush into frozen shards.
func TestFreezeThawIdempotent(t *testing.T) {
	team := xrt.NewTeam(xrt.Config{Ranks: 4, RanksPerNode: 2})
	tab := New[uint64, int64](team, intOpts(), sumMerge)
	team.Run(func(r *xrt.Rank) {
		tab.Put(r, uint64(r.ID), int64(r.ID)+1)
		tab.Freeze(r)
		tab.Freeze(r) // idempotent: no flush, no re-publish, still collective
		if v, ok := tab.Get(r, uint64(r.ID)); !ok || v != int64(r.ID)+1 {
			t.Errorf("rank %d: Get after double Freeze = (%d,%v)", r.ID, v, ok)
		}
		tab.Thaw(r)
		tab.Thaw(r) // idempotent on a thawed table
		tab.Put(r, uint64(100+r.ID), 9)
		tab.Flush(r)
		r.Barrier()
		if v, ok := tab.Get(r, uint64(100+(r.ID+1)%4)); !ok || v != 9 {
			t.Errorf("rank %d: writes after double Thaw = (%d,%v)", r.ID, v, ok)
		}
	})
}
