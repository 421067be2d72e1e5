package dht

import (
	"testing"

	"hipmer/internal/xrt"
)

// Regression tests for stale read-cache hits across the freeze/thaw
// boundary: Thaw must invalidate every per-rank readCache — positive
// and negative entries alike — so a post-thaw Put/Mutate is never
// masked by a frozen-era cached value when the table refreezes.

// TestThawInvalidatesNegativeEntries: a frozen-phase Get of an absent
// key plants a negative cache entry on every non-owner rank; after Thaw,
// Put, and refreeze, the key must be visible everywhere — a stale
// negative entry would make the cached ranks report it absent forever.
func TestThawInvalidatesNegativeEntries(t *testing.T) {
	team := xrt.NewTeam(xrt.Config{Ranks: 8, RanksPerNode: 4})
	opt := intOpts()
	opt.CacheSlots = 64
	tab := New[uint64, int64](team, opt, sumMerge)
	const key = 12345
	owner := tab.Owner(key)
	team.Run(func(r *xrt.Rank) {
		tab.Freeze(r)
		// Two Gets: the first fills a negative slot, the second must hit it.
		if _, ok := tab.Get(r, key); ok {
			t.Errorf("rank %d: key present before any Put", r.ID)
		}
		if _, ok := tab.Get(r, key); ok {
			t.Errorf("rank %d: cached negative read reports key present", r.ID)
		}
		tab.Thaw(r)
		if r.ID == owner {
			tab.Put(r, key, 42)
		}
		tab.Flush(r)
		r.Barrier()
		tab.Freeze(r)
		if v, ok := tab.Get(r, key); !ok || v != 42 {
			t.Errorf("rank %d: post-thaw Put masked by stale negative cache entry: (%d,%v)", r.ID, v, ok)
		}
	})
	hits := team.AggStats().CacheHits
	if hits == 0 {
		t.Fatal("workload never hit the cache; the regression is not exercised")
	}
}

// TestThawedMutateVisibleAfterRefreeze: a frozen-phase Get caches the old
// value on every non-owner rank; post-thaw Mutates must win over the stale
// positive entry once the table refreezes.
func TestThawedMutateVisibleAfterRefreeze(t *testing.T) {
	team := xrt.NewTeam(xrt.Config{Ranks: 8, RanksPerNode: 4})
	opt := intOpts()
	opt.CacheSlots = 64
	tab := New[uint64, int64](team, opt, nil) // last write wins
	const key = 777
	owner := tab.Owner(key)
	team.Run(func(r *xrt.Rank) {
		if r.ID == owner {
			tab.Put(r, key, 1)
		}
		tab.Flush(r)
		r.Barrier()
		tab.Freeze(r)
		for i := 0; i < 2; i++ { // fill, then hit
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
			t.Errorf("rank %d: post-thaw Mutate masked by stale cache entry: (%d,%v), want 3", r.ID, v, ok)
		}
	})
}

// TestThawIdempotentPathLeavesNoCaches: thawing a never-frozen or
// already-thawed table must leave no cache behind for any rank (the
// "not frozen => every cache nil" invariant the frozen Get fast path
// relies on).
func TestThawIdempotentPathLeavesNoCaches(t *testing.T) {
	team := xrt.NewTeam(xrt.Config{Ranks: 4, RanksPerNode: 2})
	opt := intOpts()
	opt.CacheSlots = 16
	tab := New[uint64, int64](team, opt, sumMerge)
	team.Run(func(r *xrt.Rank) {
		tab.Thaw(r) // never frozen: documented no-op
		tab.Freeze(r)
		tab.Thaw(r)
		tab.Thaw(r) // already thawed: documented no-op
	})
	for i, c := range tab.caches {
		if c != nil {
			t.Fatalf("rank %d cache survived thaw", i)
		}
	}
}
