package kanalysis

import (
	"bytes"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"hipmer/internal/bloom"
	"hipmer/internal/dht"
	"hipmer/internal/fastq"
	"hipmer/internal/genome"
	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

// TestSuperKmerEquivalence: the minimizer super-k-mer transport is a
// communication optimization — the resulting k-mer table (counts and
// extension codes) must be identical to the per-k-mer path's, with and
// without heavy hitters in play, with the Bloom screen and (every window
// counted on admission, none left for the count pass) without it. One read
// pair is 70 000 bases of poly-A: a single minimizer run longer than a
// record frames, which travels as two.
func TestSuperKmerEquivalence(t *testing.T) {
	const k = 21
	rng := xrt.NewPrng(4)
	g := genome.WheatLike(rng, 60000)
	recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 12,
		Lib:      genome.Library{Name: "w", ReadLen: 100, InsertMean: 280, InsertSD: 15},
		Err:      genome.DefaultErrorModel(),
	})
	polyA := fastq.Record{ID: []byte("polyA"), Seq: bytes.Repeat([]byte{'A'}, 70000), Qual: bytes.Repeat([]byte{'I'}, 70000)}
	recs = append(recs, polyA, polyA)
	collect := func(opt Options) (map[kmer.Kmer]KmerData, *Result) {
		team := xrt.NewTeam(xrt.Config{Ranks: 7, RanksPerNode: 3})
		opt.K, opt.MinCount, opt.Theta, opt.HHMinCount = k, 2, 2000, 200
		res := Run(team, splitReads(recs, 7), opt)
		return tableCounts(res), res
	}
	for _, opt := range []Options{{}, {HeavyHitters: true}, {DisableBloom: true}, {HeavyHitters: true, DisableBloom: true}} {
		perItem := opt
		perItem.DisableSuperKmers = true
		base, _ := collect(perItem)
		sk, skRes := collect(opt)
		if skRes.SuperKmers == 0 {
			t.Fatal("super-k-mer path shipped no super-k-mers")
		}
		if opt.HeavyHitters && skRes.HeavyHitters == 0 {
			t.Fatal("wheat-like data produced no heavy hitters")
		}
		if len(base) != len(sk) {
			t.Fatalf("%+v: table sizes differ: %d (per-k-mer) vs %d (super-k-mer)",
				opt, len(base), len(sk))
		}
		for km, d := range base {
			if sk[km] != d {
				t.Fatalf("%+v: k-mer %s differs: %+v (per-k-mer) vs %+v (super-k-mer)",
					opt, km.String(k), d, sk[km])
			}
		}
		if a := kmer.FromString(strings.Repeat("A", k)); sk[a].Count != 2*(70000-k+1) {
			t.Fatalf("%+v: poly-A counted %d times, the two reads have %d windows", opt, sk[a].Count, 2*(70000-k+1))
		}
	}
}

// TestScreenCountsOnAdmissionReplayAppliesTheRest drives one owner's inbox
// through both passes by hand: the screen sorts by sender and leaves every
// window either counted or flagged; the replay charges every window but
// applies only the flagged ones — after it each admitted k-mer holds its
// exact count, and a replay with no flag set (what DisableBloom leaves)
// changes nothing.
func TestScreenCountsOnAdmissionReplayAppliesTheRest(t *testing.T) {
	const k = 21
	_, recs := simReads(t, 13, 6000, 8, genome.DefaultErrorModel())
	m := kmer.ClampMinimizerLen(k, 0)
	team := xrt.NewTeam(xrt.Config{Ranks: 1})
	table := NewTable(team, 0, 0, 0, k, m)
	var in inbox
	var buf []byte
	windows := 0
	for i, rec := range recs {
		windows += forEachSuperKmer(rec, k, m, newHeavySet(nil, k, m), nil,
			func(_ uint64, record []byte, _ int) { in.deliver(2-i%3, record) }, &buf)
	}
	truth := naiveCounts(recs, k)
	filter := bloom.New(uint64(len(truth))*12/10, bloomFP)
	counted := func() (n int) {
		table.RangeAll(func(_ kmer.Kmer, d KmerData) bool { n += int(d.Count); return true })
		return n
	}

	var msgs []inboxMsg
	flagged := 0
	team.Run(func(r *xrt.Rank) {
		table.OwnShard(r, func(own dht.Owned[kmer.Kmer, KmerData]) {
			in.screen(k, 0, own, func(_, _ int, h uint64) bool { return filter.Add(h, mix64(h)) })
		})
		msgs = in.msgs // replay drops the inbox's reference, not the messages
		if !slices.IsSortedFunc(msgs, func(a, b inboxMsg) int { return a.src - b.src }) {
			t.Error("the screen did not take the inbox in sender order")
		}
		for _, word := range in.first {
			flagged += bits.OnesCount64(word)
		}
		if n := counted(); n == 0 || flagged == 0 || n+flagged != windows {
			t.Errorf("after the screen %d windows are counted and %d flagged, of %d", n, flagged, windows)
		}

		stores := team.RankStats(0).LocalStores
		table.OwnShard(r, func(own dht.Owned[kmer.Kmer, KmerData]) {
			if n := in.replay(k, own, r); n != windows {
				t.Errorf("replay decoded %d windows, want %d", n, windows)
			}
		})
		if got := team.RankStats(0).LocalStores - stores; got != int64(windows) {
			t.Errorf("replay charged %d local stores for %d windows", got, windows)
		}
	})
	after := tableCounts(&Result{Table: table})
	for km, c := range truth {
		if d, ok := after[km]; ok && d.Count != c {
			t.Fatalf("admitted k-mer counted %d times, occurs %d times", d.Count, c)
		} else if !ok && c >= 2 {
			t.Fatalf("k-mer occurring %d times was not admitted", c)
		}
	}

	in.msgs, in.first = msgs, make([]uint64, (windows+63)/64)
	before := counted()
	team.Run(func(r *xrt.Rank) {
		table.OwnShard(r, func(own dht.Owned[kmer.Kmer, KmerData]) { in.replay(k, own, r) })
	})
	if n := counted(); n != before {
		t.Fatalf("a replay with no window flagged moved the counts from %d to %d", before, n)
	}
}

// TestSuperKmersReduceCommunication: on identical inputs the super-k-mer
// transport must ship both fewer stage-1 messages and fewer bytes than
// per-k-mer aggregated stores, and the saved-bytes counter must cover
// the measured gap.
func TestSuperKmersReduceCommunication(t *testing.T) {
	const k = 31
	rng := xrt.NewPrng(6)
	g := genome.HumanLike(rng, 120000)
	recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 12,
		Lib:      genome.Library{Name: "h", ReadLen: 101, InsertMean: 300, InsertSD: 20},
		Err:      genome.DefaultErrorModel(),
	})
	const p = 8
	measure := func(disable bool) (xrt.CommStats, *Result) {
		team := xrt.NewTeam(xrt.Config{Ranks: p, RanksPerNode: 4})
		before := team.AggStats()
		res := Run(team, splitReads(recs, p), Options{
			K: k, MinCount: 2, HeavyHitters: true, DisableSuperKmers: disable,
		})
		return team.AggStats().Sub(before), res
	}
	base, _ := measure(true)
	sk, skRes := measure(false)
	if sk.Bytes() >= base.Bytes() {
		t.Fatalf("super-k-mers did not cut bytes: %d vs %d", sk.Bytes(), base.Bytes())
	}
	if sk.Msgs() >= base.Msgs() {
		t.Fatalf("super-k-mers did not cut messages: %d vs %d", sk.Msgs(), base.Msgs())
	}
	if skRes.CommBytesSaved <= 0 {
		t.Fatal("CommBytesSaved not accounted")
	}
	if skRes.SuperKmerBases <= skRes.SuperKmers {
		t.Fatalf("SuperKmerBases %d inconsistent with %d records",
			skRes.SuperKmerBases, skRes.SuperKmers)
	}
	avgRun := float64(skRes.SuperKmerBases) / float64(skRes.SuperKmers)
	if avgRun < float64(k)+1 {
		t.Errorf("average super-k-mer run %.1f bases barely exceeds k=%d — binning is not compressing", avgRun, k)
	}
}

// TestSuperKmerMinimizerLenOverride: a custom minimizer length flows
// through and still produces the same table.
func TestSuperKmerMinimizerLenOverride(t *testing.T) {
	const k = 21
	rng := xrt.NewPrng(7)
	g := genome.Random(rng, 20000)
	recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 8,
		Lib:      genome.Library{Name: "r", ReadLen: 80, InsertMean: 250, InsertSD: 15},
	})
	collect := func(mlen int) map[kmer.Kmer]KmerData {
		team := xrt.NewTeam(xrt.Config{Ranks: 5})
		res := Run(team, splitReads(recs, 5), Options{
			K: k, MinCount: 2, MinimizerLen: mlen,
		})
		m := make(map[kmer.Kmer]KmerData)
		res.Table.RangeAll(func(km kmer.Kmer, d KmerData) bool { m[km] = d; return true })
		return m
	}
	ref := collect(0)
	for _, mlen := range []int{5, 7, 11} {
		got := collect(mlen)
		if len(got) != len(ref) {
			t.Fatalf("m=%d: table size %d, want %d", mlen, len(got), len(ref))
		}
		for km, d := range ref {
			if got[km] != d {
				t.Fatalf("m=%d: k-mer data differs", mlen)
			}
		}
	}
}

func TestEffectiveMinimizerLen(t *testing.T) {
	cases := []struct {
		k, m    int
		disable bool
		want    int
	}{
		{31, 0, false, kmer.DefaultMinimizerLen},
		{31, 7, false, 7},
		{31, 0, true, 0},
		{31, 9, true, 0},
		{5, 0, false, 3},
	}
	for _, c := range cases {
		if got := EffectiveMinimizerLen(c.k, c.m, c.disable); got != c.want {
			t.Errorf("EffectiveMinimizerLen(%d, %d, %v) = %d, want %d",
				c.k, c.m, c.disable, got, c.want)
		}
	}
}
