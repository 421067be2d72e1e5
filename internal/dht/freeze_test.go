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

// TestThawedMutateVisibleAfterRefreeze: every rank reads a key while the
// table is frozen; Mutates between Thaw and the next Freeze must be what
// every rank reads after it.
func TestThawedMutateVisibleAfterRefreeze(t *testing.T) {
	team := xrt.NewTeam(xrt.Config{Ranks: 8, RanksPerNode: 4})
	tab := New[uint64, int64](team, intOpts(), nil) // last write wins
	const key = 777
	owner := tab.Owner(key)
	team.Run(func(r *xrt.Rank) {
		if r.ID == owner {
			tab.Put(r, key, 1)
		}
		tab.Flush(r)
		r.Barrier()
		tab.Freeze(r)
		for i := 0; i < 2; i++ {
			if v, ok := tab.Get(r, key); !ok || v != 1 {
				t.Errorf("rank %d: frozen read = (%d,%v), want 1", r.ID, v, ok)
			}
		}
		tab.Thaw(r)
		if r.ID == owner {
			tab.Mutate(r, key, func(v int64, _ bool) (int64, bool) { return v + 1, true })
			tab.Mutate(r, key, func(v int64, _ bool) (int64, bool) { return v + 1, true })
		}
		r.Barrier()
		tab.Freeze(r)
		if v, ok := tab.Get(r, key); !ok || v != 3 {
			t.Errorf("rank %d: post-thaw Mutate not visible: (%d,%v), want 3", r.ID, v, ok)
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
	ks := keysInStripes(keys, stripes/2) // half the stripes, for the same reason
	team := xrt.NewTeam(xrt.Config{Ranks: ranks, RanksPerNode: 2})
	opt := intOpts()
	opt.AggBufSize = 16
	tab := New[uint64, int64](team, opt, sumMerge)
	team.Run(func(r *xrt.Rank) {
		rng := xrt.NewPrng(int64(r.ID) + 1)
		for i := 0; i < puts; i++ {
			tab.Put(r, ks[rng.Uint64()%keys], 1)
			if i%7 == 0 {
				tab.Get(r, ks[rng.Uint64()%keys])
			}
			if i%251 == 0 {
				tab.Flush(r)
			}
			if i%6 == 0 && i/6 < mutates {
				tab.Mutate(r, ks[rng.Uint64()%keys], func(v int64, _ bool) (int64, bool) {
					return v + 1, true
				})
			}
		}
		tab.Flush(r)
		r.Barrier()
		// concurrent frozen reads from all ranks (lock-free under -race)
		tab.Freeze(r)
		for _, k := range ks {
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
// Microbenchmarks: striped-mutex Get vs frozen lock-free Get, both with 8
// ranks issuing lookups concurrently, and a Freeze/Thaw pair by itself.

const benchKeys = 1 << 15

func buildBenchTable() (*xrt.Team, *Table[uint64, int64]) {
	team := xrt.NewTeam(xrt.Config{Ranks: 8, RanksPerNode: 4})
	opt := intOpts()
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

func benchGets(b *testing.B, team *xrt.Team, tab *Table[uint64, int64]) {
	b.ReportAllocs()
	b.ResetTimer()
	team.Run(func(r *xrt.Rank) {
		x := uint64(r.ID)*0x9e3779b97f4a7c15 + 1
		for i := 0; i < b.N/8+1; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			tab.Get(r, (x>>17)%benchKeys)
		}
	})
}

// BenchmarkDHTGetStriped is the mutex baseline: every Get locks its
// stripe.
func BenchmarkDHTGetStriped(b *testing.B) {
	team, tab := buildBenchTable()
	benchGets(b, team, tab)
}

// BenchmarkDHTGetFrozen serves the same lookups lock-free from the
// frozen table.
func BenchmarkDHTGetFrozen(b *testing.B) {
	team, tab := buildBenchTable()
	team.Run(func(r *xrt.Rank) { tab.Freeze(r) })
	benchGets(b, team, tab)
}

// BenchmarkFreeze is one frozen era of a table nobody reads remotely, at
// the wheat workload's shape: what a Freeze/Thaw pair costs by itself.
func BenchmarkFreeze(b *testing.B) {
	team := xrt.NewTeam(xrt.Config{Ranks: 96, RanksPerNode: 24})
	tab := New[uint64, int64](team, intOpts(), sumMerge)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		team.Run(func(r *xrt.Rank) {
			tab.Freeze(r)
			tab.Thaw(r)
		})
	}
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
