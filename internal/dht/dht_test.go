package dht

import (
	"fmt"
	"sync/atomic"
	"testing"

	"hipmer/internal/flat"
	"hipmer/internal/xrt"
)

func intOpts() Options[uint64] {
	return Options[uint64]{Hash: xrt.Splitmix64}
}

// keysInStripes returns the n smallest keys that intOpts places in the
// first lim stripes of a shard: the stripe count is fixed, so a stress test
// raises lock contention by concentrating its keys.
func keysInStripes(n, lim int) []uint64 {
	hash := intOpts().Hash
	keys := make([]uint64, 0, n)
	for k := uint64(0); len(keys) < n; k++ {
		if int(flat.Mix(hash(k))&(stripes-1)) < lim {
			keys = append(keys, k)
		}
	}
	return keys
}

func sumMerge(old, in int64, _ bool) int64 { return old + in }

func TestPutGetVisibleAfterFlushBarrier(t *testing.T) {
	team := xrt.NewTeam(xrt.Config{Ranks: 8, RanksPerNode: 4})
	tab := New[uint64, int64](team, intOpts(), sumMerge)
	const perRank = 1000
	team.Run(func(r *xrt.Rank) {
		for i := 0; i < perRank; i++ {
			tab.Put(r, uint64(r.ID*perRank+i), int64(r.ID*perRank+i))
		}
		tab.Flush(r)
		r.Barrier()
		// every rank reads every key
		for i := 0; i < 8*perRank; i += 97 {
			v, ok := tab.Get(r, uint64(i))
			if !ok || v != int64(i) {
				t.Errorf("rank %d: key %d -> (%d,%v)", r.ID, i, v, ok)
				return
			}
		}
	})
}

func TestMergeAccumulates(t *testing.T) {
	team := xrt.NewTeam(xrt.Config{Ranks: 6})
	tab := New[uint64, int64](team, intOpts(), sumMerge)
	team.Run(func(r *xrt.Rank) {
		for i := 0; i < 100; i++ {
			tab.Put(r, uint64(i%10), 1)
		}
		tab.Flush(r)
		r.Barrier()
		for i := 0; i < 10; i++ {
			v, ok := tab.Get(r, uint64(i))
			if !ok || v != 60 { // 6 ranks x 10 increments
				t.Errorf("key %d = %d, want 60", i, v)
				return
			}
		}
	})
}

func TestExactlyOnceDeliveryUnderAggregation(t *testing.T) {
	// Every put must be applied exactly once regardless of buffer size.
	for _, bufSize := range []int{1, 2, 7, 512, 100000} {
		team := xrt.NewTeam(xrt.Config{Ranks: 5})
		opt := intOpts()
		opt.AggBufSize = bufSize
		tab := New[uint64, int64](team, opt, sumMerge)
		team.Run(func(r *xrt.Rank) {
			for i := 0; i < 333; i++ {
				tab.Put(r, uint64(i), 1)
			}
			tab.Flush(r)
		})
		bad := 0
		tab.RangeAll(func(k uint64, v int64) bool {
			if v != 5 {
				bad++
			}
			return true
		})
		if bad != 0 {
			t.Fatalf("bufSize=%d: %d keys with wrong count", bufSize, bad)
		}
	}
}

func TestAggregationReducesMessages(t *testing.T) {
	run := func(bufSize int) int64 {
		team := xrt.NewTeam(xrt.Config{Ranks: 8, RanksPerNode: 2})
		opt := intOpts()
		opt.AggBufSize = bufSize
		tab := New[uint64, int64](team, opt, sumMerge)
		team.Run(func(r *xrt.Rank) {
			rng := xrt.NewPrng(int64(r.ID) + 1)
			for i := 0; i < 2000; i++ {
				tab.Put(r, rng.Uint64(), 1)
			}
			tab.Flush(r)
		})
		s := team.AggStats()
		return s.OnNodeMsgs + s.OffNodeMsgs
	}
	fine, agg := run(1), run(512)
	if agg*50 > fine {
		t.Fatalf("aggregation did not reduce messages enough: fine=%d agg=%d", fine, agg)
	}
}

func TestMutateAtomicity(t *testing.T) {
	team := xrt.NewTeam(xrt.Config{Ranks: 8})
	tab := New[uint64, int64](team, intOpts(), nil)
	const inc = 5000
	team.Run(func(r *xrt.Rank) {
		for i := 0; i < inc; i++ {
			tab.Mutate(r, 42, func(v int64, _ bool) (int64, bool) { return v + 1, true })
		}
	})
	var got int64
	tab.RangeAll(func(k uint64, v int64) bool { got = v; return true })
	if got != 8*inc {
		t.Fatalf("concurrent mutate lost updates: %d != %d", got, 8*inc)
	}
}

func TestMutateCASPattern(t *testing.T) {
	// claim semantics: exactly one rank may claim a key
	team := xrt.NewTeam(xrt.Config{Ranks: 16})
	tab := New[uint64, int64](team, intOpts(), nil)
	var winners int64
	team.Run(func(r *xrt.Rank) {
		claimed := false
		tab.Mutate(r, 7, func(v int64, exists bool) (int64, bool) {
			if !exists {
				claimed = true
				return int64(r.ID + 1), true
			}
			return v, false
		})
		if claimed {
			atomic.AddInt64(&winners, 1)
		}
	})
	if winners != 1 {
		t.Fatalf("%d ranks claimed the key", winners)
	}
}

func TestLookupLocalityClassification(t *testing.T) {
	team := xrt.NewTeam(xrt.Config{Ranks: 4, RanksPerNode: 2})
	tab := New[uint64, int64](team, intOpts(), nil)
	// place keys deterministically: find keys owned by each rank
	keyFor := make([]uint64, 4)
	for k := uint64(0); ; k++ {
		o := int(xrt.Splitmix64(k) % 4)
		if keyFor[o] == 0 {
			keyFor[o] = k
		}
		done := true
		for _, v := range keyFor {
			if v == 0 {
				done = false
			}
		}
		if done {
			break
		}
	}
	team.Run(func(r *xrt.Rank) {
		if r.ID != 0 {
			return
		}
		tab.Get(r, keyFor[0]) // local
		tab.Get(r, keyFor[1]) // on-node (ranks 0,1 on node 0)
		tab.Get(r, keyFor[2]) // off-node
		tab.Get(r, keyFor[3]) // off-node
	})
	s := team.AggStats()
	if s.LocalLookups != 1 || s.OnNodeLookups != 1 || s.OffNodeLookups != 2 {
		t.Fatalf("classification wrong: %+v", s)
	}
}

func TestLocalRangeCoversExactlyOwnShard(t *testing.T) {
	team := xrt.NewTeam(xrt.Config{Ranks: 6})
	tab := New[uint64, int64](team, intOpts(), nil)
	const n = 5000
	var covered atomic.Int64
	team.Run(func(r *xrt.Rank) {
		for i := r.ID; i < n; i += r.N() {
			tab.Put(r, uint64(i), int64(i))
		}
		tab.Flush(r)
		r.Barrier()
		tab.LocalRange(r, func(k uint64, v int64) bool {
			if tab.Owner(k) != r.ID {
				t.Errorf("rank %d saw foreign key %d", r.ID, k)
			}
			covered.Add(1)
			return true
		})
	})
	if covered.Load() != n {
		t.Fatalf("local ranges covered %d keys, want %d", covered.Load(), n)
	}
}

func TestGlobalLen(t *testing.T) {
	team := xrt.NewTeam(xrt.Config{Ranks: 4})
	tab := New[uint64, int64](team, intOpts(), nil)
	team.Run(func(r *xrt.Rank) {
		for i := 0; i < 100; i++ {
			tab.Put(r, uint64(r.ID*100+i), 1)
		}
		tab.Flush(r)
		r.Barrier()
		if n := tab.GlobalLen(r); n != 400 {
			t.Errorf("global len %d, want 400", n)
		}
	})
}

func TestOraclePlacementMakesLookupsLocal(t *testing.T) {
	const ranks = 8
	team := xrt.NewTeam(xrt.Config{Ranks: ranks, RanksPerNode: 2})
	oracle := NewOracle(1<<16, ranks)
	// assign 1000 keys per rank to that rank
	keys := make([][]uint64, ranks)
	for rank := 0; rank < ranks; rank++ {
		for i := 0; i < 1000; i++ {
			k := uint64(rank*1000 + i)
			oracle.Assign(xrt.Splitmix64(k), rank)
			keys[rank] = append(keys[rank], k)
		}
	}
	opt := intOpts()
	opt.Place = oracle.Place
	tab := New[uint64, int64](team, opt, nil)
	team.Run(func(r *xrt.Rank) {
		for _, k := range keys[r.ID] {
			tab.Put(r, k, 1)
		}
		tab.Flush(r)
		r.Barrier()
		for _, k := range keys[r.ID] {
			tab.Get(r, k)
		}
	})
	s := team.AggStats()
	frac := float64(s.LocalLookups) / float64(s.Lookups())
	if frac < 0.95 {
		t.Fatalf("oracle layout: only %.2f of lookups local", frac)
	}
}

func TestOracleCollisionsFallBackConsistently(t *testing.T) {
	o := NewOracle(16, 4) // tiny vector to force collisions
	for k := uint64(0); k < 100; k++ {
		o.Assign(xrt.Splitmix64(k), int(k%4))
	}
	if o.Collisions() == 0 {
		t.Fatal("expected collisions with a 16-slot vector")
	}
	// Placement must be deterministic and in range.
	for k := uint64(0); k < 1000; k++ {
		p1 := o.Place(xrt.Splitmix64(k))
		p2 := o.Place(xrt.Splitmix64(k))
		if p1 != p2 || p1 < 0 || p1 >= 4 {
			t.Fatalf("placement unstable or out of range: %d vs %d", p1, p2)
		}
	}
}

func TestOracleMemoryBytes(t *testing.T) {
	if got := NewOracle(1000, 4).MemoryBytes(); got != 4000 {
		t.Fatalf("memory = %d, want 4000", got)
	}
}

func TestStringKeys(t *testing.T) {
	team := xrt.NewTeam(xrt.Config{Ranks: 4})
	opt := Options[string]{Hash: func(s string) uint64 {
		h := uint64(14695981039346656037)
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
		return h
	}}
	tab := New[string, string](team, opt, nil)
	team.Run(func(r *xrt.Rank) {
		tab.Put(r, fmt.Sprintf("key-%d", r.ID), fmt.Sprintf("val-%d", r.ID))
		tab.Flush(r)
		r.Barrier()
		for i := 0; i < 4; i++ {
			v, ok := tab.Get(r, fmt.Sprintf("key-%d", i))
			if !ok || v != fmt.Sprintf("val-%d", i) {
				t.Errorf("rank %d: key-%d -> %q,%v", r.ID, i, v, ok)
			}
		}
	})
}

func BenchmarkPutAggregated(b *testing.B) {
	team := xrt.NewTeam(xrt.Config{Ranks: 8})
	tab := New[uint64, int64](team, intOpts(), sumMerge)
	b.ResetTimer()
	team.Run(func(r *xrt.Rank) {
		rng := xrt.NewPrng(int64(r.ID) + 1)
		for i := 0; i < b.N/8+1; i++ {
			tab.Put(r, rng.Uint64(), 1)
		}
		tab.Flush(r)
	})
}

func BenchmarkGet(b *testing.B) {
	team := xrt.NewTeam(xrt.Config{Ranks: 8})
	tab := New[uint64, int64](team, intOpts(), nil)
	team.Run(func(r *xrt.Rank) {
		for i := 0; i < 10000; i++ {
			tab.Put(r, uint64(i), int64(i))
		}
		tab.Flush(r)
	})
	b.ResetTimer()
	team.Run(func(r *xrt.Rank) {
		for i := 0; i < b.N/8+1; i++ {
			tab.Get(r, uint64(i%10000))
		}
	})
}

// TestGetBatch: a batched read answers every key as Get does, in key
// order, and sends one message per remote owner it asks, where Get sends
// one per remote key; the lookups it counts are Get's. It refuses a table
// that is still being written.
func TestGetBatch(t *testing.T) {
	team := xrt.NewTeam(xrt.Config{Ranks: 6, RanksPerNode: 2})
	tab := New[uint64, int64](team, intOpts(), nil)
	const stored = 600
	keys := make([]uint64, 0, 2*stored)
	for k := uint64(0); k < 2*stored; k++ { // every other key absent
		keys = append(keys, k*7919)
	}
	team.Run(func(r *xrt.Rank) {
		if r.ID == 0 {
			defer func() {
				if recover() == nil {
					t.Error("GetBatch on a mutable table did not panic")
				}
			}()
			tab.GetBatch(r, keys, func(int, int64, bool) {})
		}
	})
	team.Run(func(r *xrt.Rank) {
		for i := r.ID; i < stored; i += r.N() {
			tab.Put(r, keys[2*i], int64(i))
		}
		tab.Freeze(r)
	})
	// every rank reads at once, each through its own batch scratch
	viaGet := make([]xrt.CommStats, team.Config().Ranks)
	viaBatch := make([]xrt.CommStats, team.Config().Ranks)
	team.Run(func(r *xrt.Rank) {
		before := team.RankStats(r.ID)
		want := make([]int64, len(keys))
		found := make([]bool, len(keys))
		for i, k := range keys {
			want[i], found[i] = tab.Get(r, k)
		}
		viaGet[r.ID] = team.RankStats(r.ID).Sub(before)
		before = team.RankStats(r.ID)
		next := 0
		tab.GetBatch(r, keys, func(i int, v int64, ok bool) {
			if i != next || v != want[i] || ok != found[i] {
				t.Errorf("rank %d, key %d (call %d): (%d, %v), Get says (%d, %v)", r.ID, i, next, v, ok, want[i], found[i])
			}
			next++
		})
		viaBatch[r.ID] = team.RankStats(r.ID).Sub(before)
		if next != len(keys) {
			t.Errorf("rank %d: GetBatch answered %d of %d keys", r.ID, next, len(keys))
		}
	})
	remote := int64(team.Config().Ranks - 1)
	for id := range viaGet {
		g, b := viaGet[id], viaBatch[id]
		if b.LocalLookups != g.LocalLookups || b.OnNodeLookups != g.OnNodeLookups || b.OffNodeLookups != g.OffNodeLookups {
			t.Errorf("rank %d: batch counted lookups %+v, Get %+v", id, b, g)
		}
		if b.Msgs() != remote || g.Msgs() != g.OnNodeLookups+g.OffNodeLookups {
			t.Errorf("rank %d: batch sent %d messages, want one per remote owner (%d); Get sent %d", id, b.Msgs(), remote, g.Msgs())
		}
	}
}

// TestGetBatchRepeatedKeys: a batch that names keys several times asks each
// owner once per distinct key — the remote lookups counted equal the
// distinct remote keys, and one message goes to each owner asked — and
// bills every repeat as a local lookup; fn still sees Get's answer at
// every index, present keys and absent ones alike.
func TestGetBatchRepeatedKeys(t *testing.T) {
	const p = 6
	team := xrt.NewTeam(xrt.Config{Ranks: p, RanksPerNode: 2})
	tab := New[uint64, int64](team, intOpts(), nil)
	team.Run(func(r *xrt.Rank) {
		for k := uint64(r.ID); k < 100; k += p {
			tab.Put(r, k, int64(k)*3)
		}
		tab.Freeze(r)
	})
	// keys 0..149 (the last 50 absent), key k named k%4 + 1 times, spread
	var named []uint64
	for k := uint64(0); k < 150; k++ {
		for range k%4 + 1 {
			named = append(named, k)
		}
	}
	keys := make([]uint64, len(named))
	for i, j := range xrt.NewPrng(3).Perm(len(named)) {
		keys[i] = named[j]
	}
	team.Run(func(r *xrt.Rank) {
		distinct := map[uint64]bool{}
		remoteKeys, owners := 0, map[int]bool{}
		for _, k := range keys {
			if distinct[k] {
				continue
			}
			distinct[k] = true
			if o := tab.Owner(k); o != r.ID {
				remoteKeys++
				owners[o] = true
			}
		}
		before := team.RankStats(r.ID)
		calls := 0
		tab.GetBatch(r, keys, func(i int, v int64, ok bool) {
			calls++
			if wv, wok := tab.GetAt(tab.Owner(keys[i]), keys[i]); v != wv || ok != wok {
				t.Errorf("rank %d, key %d at %d: (%d, %v), Get says (%d, %v)", r.ID, keys[i], i, v, ok, wv, wok)
			}
		})
		d := team.RankStats(r.ID).Sub(before)
		if calls != len(keys) {
			t.Errorf("rank %d: fn called %d times for %d keys", r.ID, calls, len(keys))
		}
		if got := d.OnNodeLookups + d.OffNodeLookups; got != int64(remoteKeys) {
			t.Errorf("rank %d: owners answered %d lookups, want the %d distinct remote keys", r.ID, got, remoteKeys)
		}
		if d.Lookups() != int64(len(keys)) || d.Msgs() != int64(len(owners)) {
			t.Errorf("rank %d: %d lookups in %d messages, want %d in %d", r.ID, d.Lookups(), d.Msgs(), len(keys), len(owners))
		}
	})
}
