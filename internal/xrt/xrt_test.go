package xrt

import (
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestTeamRunAllRanksExecute(t *testing.T) {
	for _, p := range []int{1, 2, 7, 24, 48} {
		team := NewTeam(Config{Ranks: p})
		var hits int64
		seen := make([]int32, p)
		team.Run(func(r *Rank) {
			atomic.AddInt64(&hits, 1)
			atomic.AddInt32(&seen[r.ID], 1)
		})
		if hits != int64(p) {
			t.Fatalf("ranks=%d: got %d executions", p, hits)
		}
		for i, s := range seen {
			if s != 1 {
				t.Fatalf("rank %d executed %d times", i, s)
			}
		}
	}
}

func TestLocalityClassification(t *testing.T) {
	team := NewTeam(Config{Ranks: 48, RanksPerNode: 24})
	team.Run(func(r *Rank) {
		if r.ID != 0 {
			return
		}
		if got := r.Locality(0); got != Local {
			t.Errorf("self locality = %v", got)
		}
		if got := r.Locality(23); got != OnNode {
			t.Errorf("rank 23 locality = %v, want on-node", got)
		}
		if got := r.Locality(24); got != OffNode {
			t.Errorf("rank 24 locality = %v, want off-node", got)
		}
	})
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	team := NewTeam(Config{Ranks: 8, RanksPerNode: 4})
	team.Run(func(r *Rank) {
		r.Charge(float64(r.ID) * 1000)
		r.Barrier()
		if r.clock() < 7000 {
			t.Errorf("rank %d clock %d below barrier max", r.ID, r.clock())
		}
	})
}

func TestVirtualTimeIsCriticalPath(t *testing.T) {
	team := NewTeam(Config{Ranks: 4})
	ps := team.Run(func(r *Rank) {
		r.Charge(float64(r.ID+1) * 1e6)
	})
	if ps.Virtual.Microseconds() != 4000 {
		t.Fatalf("virtual = %v, want 4ms (max over ranks)", ps.Virtual)
	}
}

func TestForeignChargesCount(t *testing.T) {
	// A store batch charges its receiver the per-item apply cost: with
	// enough items that, not the sender's one message, is the phase.
	team := NewTeam(Config{Ranks: 2})
	const items = 1_000_000
	ps := team.Run(func(r *Rank) {
		if r.ID == 0 {
			r.ChargeStoreBatch(1, items, 8)
		}
	})
	if want := time.Duration(items * LocalOpNs); ps.Virtual != want {
		t.Fatalf("virtual = %v, want %v from the receiver's foreign charge", ps.Virtual, want)
	}
}

// TestChargeLookupBatch holds the aggregated read to its bill. A local
// batch of n reads costs n local operations, what n local ChargeLookups
// cost. A remote one costs the caller one message and its bytes, counts n
// lookups by locality, and charges the owner n local operations. Under a
// lossy transport a batch is one drop/retry exchange, whatever its n.
func TestChargeLookupBatch(t *testing.T) {
	const n, bytes = 40, 40 * 24
	team := NewTeam(Config{Ranks: 4, RanksPerNode: 2})
	var batch, single int64
	team.Run(func(r *Rank) {
		if r.ID != 0 {
			return
		}
		before := r.clock()
		r.ChargeLookupBatch(0, n, bytes)
		batch = r.clock() - before
		before = r.clock()
		for i := 0; i < n; i++ {
			r.ChargeLookup(0, 24)
		}
		single = r.clock() - before
	})
	if batch != int64(n*LocalOpNs) || single != batch {
		t.Errorf("local batch of %d: %v ns, %d local lookups %v ns, want %v", n, batch, n, single, n*LocalOpNs)
	}
	if s := team.RankStats(0); s.LocalLookups != 2*n || s.Msgs() != 0 {
		t.Errorf("local batch counted %d local lookups and %d messages, want %d and 0", s.LocalLookups, s.Msgs(), 2*n)
	}

	team = NewTeam(Config{Ranks: 4, RanksPerNode: 2})
	var clock int64
	team.Run(func(r *Rank) {
		if r.ID == 0 {
			r.ChargeLookupBatch(1, n, bytes) // on-node
			r.ChargeLookupBatch(2, n, bytes) // off-node
			clock = r.clock()
		}
	})
	if want := wholeNs(OnNodeMsgNs+bytes*OnNodeByteNs) + wholeNs(OffNodeMsgNs+bytes*OffNodeByteNs); clock != want {
		t.Errorf("two remote batches cost the caller %v ns, want one message each, %v", clock, want)
	}
	s := team.RankStats(0)
	if s.OnNodeLookups != n || s.OffNodeLookups != n || s.LocalLookups != 0 ||
		s.OnNodeMsgs != 1 || s.OffNodeMsgs != 1 || s.OnNodeBytes != bytes || s.OffNodeBytes != bytes {
		t.Errorf("remote batches counted %+v", s)
	}
	for _, owner := range []int{1, 2} {
		if w := team.RankWorkNs(owner); w != int64(n*LocalOpNs) {
			t.Errorf("owner %d charged %v ns, want %v", owner, w, n*LocalOpNs)
		}
	}

	// a batch draws from the chaos stream as one lookup of its bytes does
	lossy := func(batched bool) CommStats {
		team := NewTeam(Config{Ranks: 2, RanksPerNode: 1, Inject: Inject{ChaosSeed: 7, DropRate: 0.3}})
		team.Run(func(r *Rank) {
			for i := 0; r.ID == 0 && i < 100; i++ {
				if batched {
					r.ChargeLookupBatch(1, n, bytes)
				} else {
					r.ChargeLookup(1, bytes)
				}
			}
		})
		return team.RankStats(0)
	}
	b, one := lossy(true), lossy(false)
	if b.Drops == 0 {
		t.Fatal("precondition: the lossy transport dropped nothing")
	}
	if b.OffNodeMsgs != 100 || b.Drops != one.Drops || b.Retries != one.Retries || b.Dups != one.Dups ||
		b.RedeliveredBytes != one.RedeliveredBytes {
		t.Errorf("100 batches: %d messages, drops/retries/dups %d/%d/%d; 100 lookups: %d/%d/%d",
			b.OffNodeMsgs, b.Drops, b.Retries, b.Dups, one.Drops, one.Retries, one.Dups)
	}
}

func TestAllReduceInt64(t *testing.T) {
	team := NewTeam(Config{Ranks: 9})
	team.Run(func(r *Rank) {
		sum := r.AllReduceInt64(int64(r.ID), func(a, b int64) int64 { return a + b })
		if sum != 36 {
			t.Errorf("rank %d: sum = %d, want 36", r.ID, sum)
		}
		mx := r.AllReduceInt64(int64(r.ID), func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		})
		if mx != 8 {
			t.Errorf("rank %d: max = %d, want 8", r.ID, mx)
		}
	})
}

func TestAllReduceRepeatedCalls(t *testing.T) {
	team := NewTeam(Config{Ranks: 5})
	team.Run(func(r *Rank) {
		for iter := 0; iter < 50; iter++ {
			v := int64(r.ID + iter)
			want := int64(0+1+2+3+4) + int64(5*iter)
			got := r.AllReduceInt64(v, func(a, b int64) int64 { return a + b })
			if got != want {
				t.Errorf("iter %d rank %d: got %d want %d", iter, r.ID, got, want)
				return
			}
		}
	})
}

// TestAllReduceSum: every rank gets the element-wise sum, and is charged
// log(p) steps that each carry the whole vector off-node.
func TestAllReduceSum(t *testing.T) {
	team := NewTeam(Config{Ranks: 9})
	team.Run(func(r *Rank) {
		clock := r.clock()
		sum := r.AllReduceSum([]int64{int64(r.ID), 1, -int64(r.ID)})
		if want := []int64{36, 9, -36}; !slices.Equal(sum, want) {
			t.Errorf("rank %d: sum = %v, want %v", r.ID, sum, want)
		}
		// one charge of 4 × (450 + 24 × 0.15) = 1814.4 ns, rounded once
		if got, want := r.clock()-clock, int64(1814); got != want {
			t.Errorf("rank %d: charged %v ns, want %v", r.ID, got, want)
		}
	})
}

func TestBroadcastAndAllGather(t *testing.T) {
	team := NewTeam(Config{Ranks: 4})
	team.Run(func(r *Rank) {
		v := r.Broadcast(2, r.ID*10)
		if v.(int) != 20 {
			t.Errorf("rank %d: broadcast got %v", r.ID, v)
		}
		all := r.AllGather(r.ID * r.ID)
		for i, a := range all {
			if a.(int) != i*i {
				t.Errorf("rank %d: allgather[%d] = %v", r.ID, i, a)
			}
		}
	})
}

func TestCommChargesAndStats(t *testing.T) {
	team := NewTeam(Config{Ranks: 48, RanksPerNode: 24})
	team.Run(func(r *Rank) {
		if r.ID != 0 {
			return
		}
		r.ChargeLookup(0, 8)  // local
		r.ChargeLookup(5, 8)  // on-node
		r.ChargeLookup(30, 8) // off-node
		r.ChargeStoreBatch(30, 100, 800)
	})
	s := team.AggStats()
	if s.LocalLookups != 1 || s.OnNodeLookups != 1 || s.OffNodeLookups != 1 {
		t.Fatalf("lookup classification wrong: %+v", s)
	}
	if s.OffNodeMsgs != 2 { // one lookup + one batched store
		t.Fatalf("off-node msgs = %d, want 2", s.OffNodeMsgs)
	}
	if f := s.OffNodeLookupFrac(); f < 0.33 || f > 0.34 {
		t.Fatalf("off-node lookup frac = %f", f)
	}
}

// TestSpanCommNs: a span's CommNs is what each rank charged to its own
// messages and their bytes — remote lookups, remote store batches,
// collective tree steps, ChargeComm — and nothing else: not local
// operations, not plain compute, not the applies its store batches charge
// their owner. No rank works longer than the span: the ranks with less
// work spent the rest waiting at the barriers.
func TestSpanCommNs(t *testing.T) {
	team := NewTeam(Config{Ranks: 4, RanksPerNode: 2})
	team.BeginSpan("s")
	team.Run(func(r *Rank) {
		if r.ID == 0 {
			r.ChargeLookup(0, 8) // local
			r.ChargeLookup(1, 8) // on-node
			r.ChargeLookup(2, 8) // off-node
			r.ChargeStoreBatch(3, 100, 800)
			r.ChargeItems(10)
			r.ChargeComm(5)
		}
		r.Barrier()
		r.AllReduceInt64(1, func(a, b int64) int64 { return a + b })
	})
	rec := team.EndSpan()
	tree := 2 * OffNodeMsgNs // log2(4) steps of one control message
	// each message charge is rounded once: 150.4 + 451.2 + 570 → 150 + 451 + 570
	want := []float64{
		150 + 451 + 570 + 5 + tree,
		tree, tree, tree,
	}
	for i, rd := range rec.Ranks {
		if rd.CommNs != want[i] {
			t.Errorf("rank %d: CommNs %v, want %v", i, rd.CommNs, want[i])
		}
		if rd.WorkNs > rec.VirtualNs {
			t.Errorf("rank %d: worked %v ns in a %v ns span", i, rd.WorkNs, rec.VirtualNs)
		}
	}
	if w := rec.Ranks[3].WorkNs; w != tree+100*LocalOpNs {
		t.Errorf("owner of the store batch worked %v ns, want its applies %v and the tree", w, tree+100*LocalOpNs)
	}
}

func TestIOSaturation(t *testing.T) {
	// With aggregate bandwidth saturated, doubling ranks should not reduce
	// I/O time for a fixed total volume.
	cost := CostModel{IOAggBytesPerSec: 1e9, IORankBytesPerSec: 1e9}
	total := int64(1 << 30)
	timeFor := func(p int) float64 {
		team := NewTeam(Config{Ranks: p, Cost: cost})
		ps := team.Run(func(r *Rank) { r.ChargeIORead(total / int64(p)) })
		return ps.Virtual.Seconds()
	}
	t4, t8 := timeFor(4), timeFor(8)
	if t8 < t4*0.95 {
		t.Fatalf("I/O time shrank under saturation: p=4 %fs, p=8 %fs", t4, t8)
	}
}

func TestIOScalingBeforeSaturation(t *testing.T) {
	cost := CostModel{IOAggBytesPerSec: 1e12, IORankBytesPerSec: 1e8, IOLatencyNs: 1}
	total := int64(1 << 28)
	timeFor := func(p int) float64 {
		team := NewTeam(Config{Ranks: p, Cost: cost})
		ps := team.Run(func(r *Rank) { r.ChargeIORead(total / int64(p)) })
		return ps.Virtual.Seconds()
	}
	t2, t8 := timeFor(2), timeFor(8)
	if t8 > t2/3 {
		t.Fatalf("I/O did not scale below saturation: p=2 %fs, p=8 %fs", t2, t8)
	}
}

func TestManyRanksRun(t *testing.T) {
	team := NewTeam(Config{Ranks: 512})
	var n int64
	team.Run(func(r *Rank) {
		r.Barrier()
		atomic.AddInt64(&n, 1)
	})
	if n != 512 {
		t.Fatalf("got %d executions", n)
	}
}

func TestPrngDeterminism(t *testing.T) {
	a, b := NewPrng(42), NewPrng(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewPrng(43)
	same := 0
	a = NewPrng(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestPrngUniformish(t *testing.T) {
	p := NewPrng(7)
	var buckets [10]int
	n := 100000
	for i := 0; i < n; i++ {
		buckets[p.Intn(10)]++
	}
	for i, b := range buckets {
		if b < n/10-n/50 || b > n/10+n/50 {
			t.Fatalf("bucket %d has %d of %d", i, b, n)
		}
	}
}

func TestPrngPermIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		p := NewPrng(seed)
		n := 1 + int(uint64(seed)%97)
		perm := p.Perm(n)
		seen := make([]bool, n)
		for _, v := range perm {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitmixAvalanche(t *testing.T) {
	// flipping one input bit should change ~half the output bits
	x := uint64(0x12345678)
	base := Splitmix64(x)
	for bit := 0; bit < 64; bit += 7 {
		d := base ^ Splitmix64(x^(1<<bit))
		n := 0
		for d != 0 {
			d &= d - 1
			n++
		}
		if n < 10 || n > 54 {
			t.Fatalf("bit %d: only %d output bits changed", bit, n)
		}
	}
}

func TestStatsSubAndAdd(t *testing.T) {
	a := CommStats{LocalLookups: 10, OffNodeMsgs: 5, IOBytes: 100}
	b := CommStats{LocalLookups: 4, OffNodeMsgs: 2, IOBytes: 60}
	d := a.Sub(b)
	if d.LocalLookups != 6 || d.OffNodeMsgs != 3 || d.IOBytes != 40 {
		t.Fatalf("sub wrong: %+v", d)
	}
	b.Add(d)
	if b != a {
		t.Fatalf("add(sub) != original: %+v vs %+v", b, a)
	}
}
