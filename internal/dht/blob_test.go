package dht

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"

	"hipmer/internal/flat"
	"hipmer/internal/xrt"
)

// blobCodec is a trivial record format for the tests: 8-byte LE key +
// 8-byte LE value per item.
func blobAppend(dst []byte, k uint64, v int64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, k)
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}

func blobDecode(payload []byte, put func(k uint64, v int64)) {
	for len(payload) >= 16 {
		put(binary.LittleEndian.Uint64(payload), int64(binary.LittleEndian.Uint64(payload[8:])))
		payload = payload[16:]
	}
}

// TestPutBlobChargesOneMessageOfPayloadBytes: records buffered for one
// destination ship as a single message whose size is the byte payload,
// not one message (or item-record bytes) per item.
func TestPutBlobChargesOneMessageOfPayloadBytes(t *testing.T) {
	team := xrt.NewTeam(xrt.Config{Ranks: 2, RanksPerNode: 1})
	opt := intOpts()
	opt.ItemBytes = 64 // what the per-item path would have charged
	tab := New[uint64, int64](team, opt, sumMerge)
	tab.SetBlobApply(func(src, owner int, payload []byte, put func(k uint64, v int64)) {
		blobDecode(payload, put)
	})

	const items = 100
	team.Run(func(r *xrt.Rank) {
		if r.ID == 0 {
			for i := 0; i < items; i++ {
				tab.PutBlob(r, 1, blobAppend(nil, uint64(i), 1), 1)
			}
			tab.Flush(r)
		}
		r.Barrier()
	})

	s := team.AggStats()
	if got := s.OffNodeMsgs + s.OnNodeMsgs; got != 1 {
		t.Fatalf("blob flush sent %d messages, want 1", got)
	}
	if got, want := s.OffNodeBytes+s.OnNodeBytes, int64(items*16); got != want {
		t.Fatalf("blob flush charged %d bytes, want payload size %d", got, want)
	}
	var n int
	tab.RangeAll(func(k uint64, v int64) bool {
		if v != 1 {
			t.Fatalf("key %d has count %d, want 1", k, v)
		}
		n++
		return true
	})
	if n != items {
		t.Fatalf("decoded %d items into the table, want %d", n, items)
	}
}

// TestPutBlobAutoFlushAtBlobBytes: the per-destination buffer ships as
// soon as it reaches blobBytes.
func TestPutBlobAutoFlushAtBlobBytes(t *testing.T) {
	const perBuffer = blobBytes / 16 // 16-byte records
	team := xrt.NewTeam(xrt.Config{Ranks: 2, RanksPerNode: 1})
	tab := New[uint64, int64](team, intOpts(), sumMerge)
	tab.SetBlobApply(func(src, owner int, payload []byte, put func(k uint64, v int64)) {
		blobDecode(payload, put)
	})
	team.Run(func(r *xrt.Rank) {
		if r.ID == 0 {
			for i := 0; i < 10*perBuffer; i++ {
				tab.PutBlob(r, 1, blobAppend(nil, uint64(i), 1), 1)
			}
			tab.Flush(r)
		}
		r.Barrier()
	})
	if got := team.AggStats().Msgs(); got != 10 {
		t.Fatalf("sent %d messages, want 10 (%d records / %d per buffer)", got, 10*perBuffer, perBuffer)
	}
}

func TestPutBlobWithoutHookPanics(t *testing.T) {
	team := xrt.NewTeam(xrt.Config{Ranks: 2})
	tab := New[uint64, int64](team, intOpts(), sumMerge)
	team.Run(func(r *xrt.Rank) {
		if r.ID != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("PutBlob without SetBlobApply did not panic")
			}
		}()
		tab.PutBlob(r, 1, blobAppend(nil, 1, 1), 1)
	})
}

// TestOwnerHashPlacement: an OwnerHash decouples placement from the
// stripe/cache hash — every operation must agree on the owner.
func TestOwnerHashPlacement(t *testing.T) {
	team := xrt.NewTeam(xrt.Config{Ranks: 6, RanksPerNode: 2})
	opt := intOpts()
	opt.OwnerHash = func(k uint64) uint64 { return k / 100 } // coarse bins
	tab := New[uint64, int64](team, opt, sumMerge)
	team.Run(func(r *xrt.Rank) {
		for i := 0; i < 300; i++ {
			tab.Put(r, uint64(i), 1)
		}
		tab.Flush(r)
		r.Barrier()
		for i := 0; i < 300; i++ {
			v, ok := tab.Get(r, uint64(i))
			if !ok || v != 6 {
				t.Errorf("rank %d: key %d = (%d, %v), want (6, true)", r.ID, i, v, ok)
			}
		}
		// keys in the same bin of 100 share an owner
		for i := 0; i < 300; i += 100 {
			base := tab.Owner(uint64(i))
			for j := 1; j < 100; j++ {
				if o := tab.Owner(uint64(i + j)); o != base {
					t.Errorf("key %d owned by %d, bin owner %d", i+j, o, base)
				}
			}
		}
	})
}

// TestStressBlobFlushesAndMutateOnOneOwner funnels every rank's traffic
// into one owner's shard at once — blob flushes decoded on the senders'
// goroutines, aggregated stores, remote Mutates, and the owner applying its
// own stores a batch at a time inside OwnShard sections — over a key space
// that keeps growing, so the stripes' slot arrays grow (and re-place every
// entry) while other ranks probe them. Every key lives in two of the
// shard's stripes, which maximizes the contention, and each PutBlob carries
// blobPairs records, so a sender's buffer reaches blobBytes and ships every
// 16 calls — tens of auto-flushes per rank. The -race target for the flat
// shards and the owner section; the sum invariant checks no update was lost
// to a stale slot pointer or slipped past a section's locks.
func TestStressBlobFlushesAndMutateOnOneOwner(t *testing.T) {
	const (
		ranks     = 6
		steps     = 4000
		blobPairs = blobBytes / 16 / 16 // 16-byte records, 16 calls per flush
	)
	keys := keysInStripes(8+steps, 2)
	var want atomic.Int64 // updates issued
	team := xrt.NewTeam(xrt.Config{Ranks: ranks, RanksPerNode: 2})
	opt := intOpts()
	opt.AggBufSize = 8
	opt.OwnerHash = func(uint64) uint64 { return 0 } // every key lives on rank 0
	tab := New[uint64, int64](team, opt, sumMerge)
	tab.SetBlobApply(func(src, owner int, payload []byte, put func(k uint64, v int64)) {
		if owner != 0 {
			t.Errorf("blob from %d delivered to %d", src, owner)
		}
		blobDecode(payload, put)
	})
	team.Run(func(r *xrt.Rank) {
		rng := xrt.NewPrng(int64(r.ID) + 1)
		var own []uint64 // rank 0: keys waiting for its next section
		section := func() {
			tab.OwnShard(r, func(o Owned[uint64, int64]) {
				for _, k := range own {
					v, _ := o.Entry(opt.Hash(k), k).Upsert()
					*v++
				}
			})
			own = own[:0]
		}
		key := func(i int) uint64 { return keys[rng.Uint64()%uint64(8+i)] } // the key space widens as the run goes
		var blob []byte
		for i := 0; i < steps; i++ {
			k := key(i)
			switch {
			case i%3 == 0:
				tab.Mutate(r, k, func(v int64, _ bool) (int64, bool) { return v + 1, true })
			case r.ID == 0:
				if own = append(own, k); len(own) == 64 {
					section()
				}
			case i%3 == 1:
				tab.PutHashed(r, opt.Hash(k), k, 1)
			default:
				blob = blobAppend(blob[:0], k, 1)
				for len(blob) < blobPairs*16 {
					blob = blobAppend(blob, key(i), 1)
				}
				tab.PutBlob(r, 0, blob, blobPairs)
				want.Add(blobPairs - 1)
			}
			want.Add(1)
		}
		section()
		tab.Flush(r)
		r.Barrier()
	})
	var sum int64
	tab.RangeAll(func(k uint64, v int64) bool {
		if tab.Owner(k) != 0 {
			t.Errorf("key %d not owned by rank 0", k)
		}
		sum += v
		return true
	})
	if sum != want.Load() {
		t.Fatalf("lost or duplicated updates: sum %d, want %d", sum, want.Load())
	}
	if n := tab.Len(); n < 1000 {
		t.Fatalf("only %d keys stored: the shard never grew under load", n)
	}
}

// TestOwnShardMatchesPerItemPath: owners that are handed raw payloads and
// apply them themselves inside OwnShard end up with the table the per-item
// path builds from the same stores, and Entry names the stripe an ApplyFunc
// is handed for the key.
func TestOwnShardMatchesPerItemPath(t *testing.T) {
	const ranks, perRank, keyspace = 5, 3000, 700
	stores := func(r *xrt.Rank, put func(k uint64, v int64)) {
		rng := xrt.NewPrng(int64(r.ID) + 1)
		for i := 0; i < perRank; i++ {
			put(rng.Uint64()%keyspace, int64(1+rng.Uint64()%9))
		}
	}

	team := xrt.NewTeam(xrt.Config{Ranks: ranks, RanksPerNode: 2})
	model := New[uint64, int64](team, intOpts(), nil)
	stripeOf := make([]int, keyspace) // written under the key's stripe lock
	model.SetApply(func(_, stripe int, _ uint64, k uint64, in int64, e Entry[uint64, int64]) {
		stripeOf[k] = stripe
		v, _ := e.Upsert()
		*v += in
	})
	team.Run(func(r *xrt.Rank) {
		stores(r, func(k uint64, v int64) { model.Put(r, k, v) })
		model.Flush(r)
		r.Barrier()
	})

	tab := New[uint64, int64](team, intOpts(), nil)
	var mu sync.Mutex
	inbox := make([][]byte, ranks)
	tab.SetBlobApply(func(_, owner int, payload []byte, _ func(uint64, int64)) {
		mu.Lock()
		inbox[owner] = append(inbox[owner], payload...)
		mu.Unlock()
	})
	team.Run(func(r *xrt.Rank) {
		stores(r, func(k uint64, v int64) { tab.PutBlob(r, tab.Owner(k), blobAppend(nil, k, v), 1) })
		tab.Flush(r)
		r.Barrier()
		tab.OwnShard(r, func(o Owned[uint64, int64]) {
			blobDecode(inbox[r.ID], func(k uint64, in int64) {
				// Entry and the apply hook find a key's stripe by one rule
				h := xrt.Splitmix64(k)
				if stripe := stripeIndex(flat.Mix(h)); stripe != stripeOf[k] {
					t.Errorf("key %d: Entry's stripe is %d, the apply hook was handed %d", k, stripe, stripeOf[k])
				}
				e := o.Entry(h, k)
				if e.m != &o.stripes[stripeOf[k]].m {
					t.Errorf("key %d: Entry's handle is not on stripe %d, the apply hook's", k, stripeOf[k])
				}
				v, _ := e.Upsert()
				*v += in
			})
		})
	})

	if tab.Len() != model.Len() {
		t.Fatalf("%d keys, the per-item path stored %d", tab.Len(), model.Len())
	}
	model.RangeAll(func(k uint64, want int64) bool {
		if got, ok := tab.Lookup(k); !ok || got != want {
			t.Errorf("key %d = (%d, %v), the per-item path has %d", k, got, ok, want)
		}
		return true
	})
}

// TestOwnShardPanicReleasesStripes: a panic inside the section — an
// injected crash fires inside a charge — leaves no stripe locked, so a rank
// storing into that shard afterwards gets through.
func TestOwnShardPanicReleasesStripes(t *testing.T) {
	team := xrt.NewTeam(xrt.Config{Ranks: 2})
	opt := intOpts()
	opt.OwnerHash = func(uint64) uint64 { return 0 }
	tab := New[uint64, int64](team, opt, sumMerge)
	team.Run(func(r *xrt.Rank) {
		if r.ID == 0 {
			func() {
				defer func() {
					if recover() == nil {
						t.Error("the section swallowed the panic")
					}
				}()
				tab.OwnShard(r, func(Owned[uint64, int64]) { panic("crash inside a charge") })
			}()
			for i := range tab.shards[0].stripes {
				if mu := &tab.shards[0].stripes[i].mu; !mu.TryLock() {
					t.Errorf("stripe %d is still locked", i)
				} else {
					mu.Unlock()
				}
			}
		}
		r.Barrier()
		if r.ID == 1 && !t.Failed() { // a stranded lock would hang the Put
			for k := uint64(0); k < 100; k++ {
				tab.Put(r, k, 1)
			}
			tab.Flush(r)
		}
		r.Barrier()
	})
	if !t.Failed() && tab.Len() != 100 {
		t.Fatalf("%d keys reached the shard, want 100", tab.Len())
	}
}
