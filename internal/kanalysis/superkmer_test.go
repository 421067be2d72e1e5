package kanalysis

import (
	"bytes"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"hipmer/internal/dht"
	"hipmer/internal/fastq"
	"hipmer/internal/genome"
	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

// serialTable is the oracle stage 1 must reproduce: every canonical k-mer
// of recs counted in one serial pass into a Go map, with its
// quality-filtered extension evidence, then filtered at minCount and its
// extension codes called.
func serialTable(recs []fastq.Record, k, minCount int) map[kmer.Kmer]KmerData {
	m := make(map[kmer.Kmer]KmerData)
	for _, rec := range recs {
		kmer.ForEachCanonical(rec.Seq, k, func(pos int, canon kmer.Kmer, flipped bool) {
			d := m[canon]
			d.add(occurrenceAt(rec.Seq, rec.Qual, pos, k, canon, flipped), 1)
			m[canon] = d
		})
	}
	for km, d := range m {
		if d.Count < uint32(minCount) {
			delete(m, km)
			continue
		}
		d.ExtL, d.ExtR = callExt(d.LeftCnt, minExtCount), callExt(d.RightCnt, minExtCount)
		m[km] = d
	}
	return m
}

// TestSuperKmerEquivalence: the minimizer super-k-mer transport is a
// communication optimization — the resulting k-mer table (counts and
// extension codes) must be identical to a serial map counter's on the same
// reads, with and without heavy hitters in play, with the Bloom screen and
// (every window counted on admission, none left for the count pass)
// without it. One read pair is 70 000 bases of poly-A: a single minimizer
// run longer than a record frames, which travels as two.
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
	want := serialTable(recs, k, 2)
	for _, opt := range []Options{{}, {HeavyHitters: true}, {DisableBloom: true}, {HeavyHitters: true, DisableBloom: true}} {
		opt.K, opt.MinCount, opt.Theta, opt.HHMinCount = k, 2, 2000, 200
		res := Run(xrt.NewTeam(xrt.Config{Ranks: 7, RanksPerNode: 3}), splitReads(recs, 7), opt)
		got := tableCounts(res)
		if res.SuperKmers == 0 {
			t.Fatal("super-k-mer path shipped no super-k-mers")
		}
		if opt.HeavyHitters && res.HeavyHitters == 0 {
			t.Fatal("wheat-like data produced no heavy hitters")
		}
		if len(got) != len(want) {
			t.Fatalf("%+v: table sizes differ: %d (serial) vs %d (super-k-mer)", opt, len(want), len(got))
		}
		for km, d := range want {
			if got[km] != d {
				t.Fatalf("%+v: k-mer %s differs: %+v (serial) vs %+v (super-k-mer)", opt, km.String(k), d, got[km])
			}
		}
		if a := kmer.FromString(strings.Repeat("A", k)); got[a].Count != 2*(70000-k+1) {
			t.Fatalf("%+v: poly-A counted %d times, the two reads have %d windows", opt, got[a].Count, 2*(70000-k+1))
		}
	}
}

// TestScreenCountsOnAdmissionReplayAppliesTheRest drives one owner's inbox
// through both passes by hand, with a Go set as the "seen" test. The screen
// counts every window the set has seen and keeps, in sender order, exactly
// the records an oracle decode finds a first sighting in, with one bit per
// window of those; the replay decodes just them, charges one local store
// per first sighting and nothing else, and leaves every k-mer seen twice at
// its exact count. With DisableBloom every window is "seen": the screen
// counts everything, keeps nothing, and the replay charges nothing. And a
// read window sent before a pseudo-read record of the same k-mers is
// screened after it, so it is seen and counted on the spot, never a first
// sighting.
func TestScreenCountsOnAdmissionReplayAppliesTheRest(t *testing.T) {
	const k, senders, batch = 21, 3, 5
	_, recs := simReads(t, 13, 6000, 8, genome.DefaultErrorModel())
	m := kmer.ClampMinimizerLen(k, 0)
	truth := naiveCounts(recs, k)

	// The inbox three senders fill, batch records to a message, and what
	// each sent in send order.
	var sent [senders][][]byte
	fill := func() (in *inbox, windows int) {
		in, sent = &inbox{}, [senders][][]byte{}
		var pending [senders][]byte
		var buf []byte
		for i, rec := range recs {
			src := senders - 1 - i%senders
			windows += forEachSuperKmer(rec, 0, k, m, newHeavySet(nil, k, m), nil,
				func(_ uint64, record []byte, _ int) {
					sent[src] = append(sent[src], bytes.Clone(record))
					if pending[src] = append(pending[src], record...); len(sent[src])%batch == 0 {
						in.deliver(src, pending[src])
						pending[src] = pending[src][:0]
					}
				}, &buf)
		}
		for src, p := range pending {
			in.deliver(src, p)
		}
		return in, windows
	}
	in, windows := fill()

	// The oracle: decode every record in (sender, send order) against a set
	// of k-mers; a record is kept iff some window is not in the set yet.
	var want [][]byte
	wantKept, wantFirsts := 0, 0
	set := make(map[kmer.Kmer]bool)
	for _, list := range sent {
		for _, rec := range list {
			firsts := 0
			n := decode(rec, k, func(canon kmer.Kmer, _, _ uint8) {
				if !set[canon] {
					set[canon] = true
					firsts++
				}
			})
			if firsts > 0 {
				want = append(want, rec)
				wantKept += n
				wantFirsts += firsts
			}
		}
	}

	team := xrt.NewTeam(xrt.Config{Ranks: 1})
	table := NewTable(team, 0, 0, 0, k, m)
	counted := func() (n int) {
		table.RangeAll(func(_ kmer.Kmer, d KmerData) bool { n += int(d.Count); return true })
		return n
	}
	hashes := make(map[uint64]bool)
	seen := func(_, _ int, h uint64) bool {
		had := hashes[h]
		hashes[h] = true
		return had
	}
	team.Run(func(r *xrt.Rank) {
		var firsts, kept, screened int
		table.OwnShard(r, func(own dht.Owned[kmer.Kmer, KmerData]) { firsts, kept, screened = in.screen(k, 0, own, seen) })
		if screened != windows {
			t.Errorf("the screen saw %d windows, the senders sent %d", screened, windows)
		}
		if n := counted(); firsts == 0 || n == 0 || n+firsts != windows {
			t.Errorf("after the screen %d windows are counted and %d are first sightings, of %d", n, firsts, windows)
		}
		if firsts != wantFirsts || kept != wantKept {
			t.Errorf("the screen left %d first sightings in %d windows, the oracle %d in %d", firsts, kept, wantFirsts, wantKept)
		}
		if !slices.IsSortedFunc(in.msgs, func(a, b inboxMsg) int { return a.src - b.src }) {
			t.Error("the kept records are not in sender order")
		}
		var got [][]byte
		for _, msg := range in.msgs {
			if len(msg.payload) == 0 {
				t.Error("a message with no kept record was not released")
			}
			for rest := msg.payload; len(rest) > 0; rest = rest[kmer.SuperKmerRecordLen(rest):] {
				got = append(got, rest[:kmer.SuperKmerRecordLen(rest)])
			}
		}
		if !slices.EqualFunc(got, want, bytes.Equal) {
			t.Errorf("the screen kept %d records, the oracle finds first sightings in %d (or their order differs)", len(got), len(want))
		}
		flagged := 0
		for _, word := range in.first {
			flagged += bits.OnesCount64(word)
		}
		if len(in.first) != (kept+63)/64 || flagged != firsts {
			t.Errorf("bitmap of %d words with %d bits set for %d kept windows, %d first sightings", len(in.first), flagged, kept, firsts)
		}

		stores, clock := team.RankStats(0).LocalStores, r.ClockNs()
		table.OwnShard(r, func(own dht.Owned[kmer.Kmer, KmerData]) {
			if n := in.replay(k, own, r); n != kept {
				t.Errorf("replay decoded %d windows, the screen kept %d", n, kept)
			}
		})
		if got := team.RankStats(0).LocalStores - stores; got != int64(firsts) {
			t.Errorf("replay charged %d local stores for %d first sightings", got, firsts)
		}
		if got, want := r.ClockNs()-clock, float64(firsts)*xrt.LocalOpNs; got != want {
			t.Errorf("replay advanced the clock %v ns, %d local stores cost %v", got, firsts, want)
		}
	})
	after := tableCounts(&Result{Table: table})
	for km, c := range truth {
		if d, ok := after[km]; ok != (c >= 2) || ok && d.Count != c {
			t.Fatalf("k-mer occurring %d times: admitted %v, counted %d", c, ok, d.Count)
		}
	}

	// DisableBloom: every window is "seen".
	in, _ = fill()
	table = NewTable(team, 0, 0, 0, k, m)
	team.Run(func(r *xrt.Rank) {
		var firsts, kept int
		table.OwnShard(r, func(own dht.Owned[kmer.Kmer, KmerData]) {
			firsts, kept, _ = in.screen(k, 0, own, func(_, _ int, _ uint64) bool { return true })
		})
		if firsts != 0 || kept != 0 || len(in.msgs) != 0 || len(in.first) != 0 {
			t.Errorf("with every window seen the screen kept %d windows in %d messages, %d first sightings", kept, len(in.msgs), firsts)
		}
		clock := r.ClockNs()
		table.OwnShard(r, func(own dht.Owned[kmer.Kmer, KmerData]) {
			if n := in.replay(k, own, r); n != 0 {
				t.Errorf("replay of an empty inbox decoded %d windows", n)
			}
		})
		if r.ClockNs() != clock {
			t.Error("replay of an empty inbox charged")
		}
	})
	after = tableCounts(&Result{Table: table})
	if len(after) != len(truth) {
		t.Fatalf("with every window seen the table has %d k-mers, the reads %d", len(after), len(truth))
	}
	for km, c := range truth {
		if after[km].Count != c {
			t.Fatalf("with every window seen a k-mer occurring %d times counts %d", c, after[km].Count)
		}
	}

	// A read sent by sender 0, then the same sequence as a pseudo-read of
	// weight 3 by sender 1: the read's windows are screened second.
	const weight = 3
	in = &inbox{}
	var buf []byte
	for src, w := range []int{0, weight} {
		forEachSuperKmer(recs[0], w, k, m, newHeavySet(nil, k, m), nil,
			func(_ uint64, record []byte, _ int) { in.deliver(src, record) }, &buf)
	}
	table = NewTable(team, 0, 0, 0, k, m)
	clear(hashes)
	team.Run(func(r *xrt.Rank) {
		table.OwnShard(r, func(own dht.Owned[kmer.Kmer, KmerData]) {
			if firsts, kept, _ := in.screen(k, 0, own, seen); firsts != 0 || kept != 0 {
				t.Errorf("a read behind a pseudo-read of its k-mers left %d first sightings in %d windows", firsts, kept)
			}
		})
	})
	after = tableCounts(&Result{Table: table})
	kmer.ForEachCanonical(recs[0].Seq, k, func(_ int, canon kmer.Kmer, _ bool) {
		if got := after[canon].Count; got != weight+1 {
			t.Fatalf("a k-mer of a read and a weight-%d pseudo-read counts %d", weight, got)
		}
	})
}

// TestSuperKmersReduceCommunication: stage 1's transport ships at most
// 1.7 remote bytes per k-mer window and at most 0.12 messages per
// thousand windows on human-like reads at 8 ranks — a per-item store record
// is 26 bytes — and the saved-bytes counter covers the records' framing.
func TestSuperKmersReduceCommunication(t *testing.T) {
	const k, p = 31, 8
	rng := xrt.NewPrng(6)
	g := genome.HumanLike(rng, 120000)
	recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 12,
		Lib:      genome.Library{Name: "h", ReadLen: 101, InsertMean: 300, InsertSD: 20},
		Err:      genome.DefaultErrorModel(),
	})
	team := xrt.NewTeam(xrt.Config{Ranks: p, RanksPerNode: 4})
	res := Run(team, splitReads(recs, p), Options{K: k, MinCount: 2, HeavyHitters: true})
	comm := team.AggStats()
	if got := float64(comm.Bytes()) / float64(res.TotalKmers); got > 1.7 {
		t.Errorf("%.3f remote bytes per window, want ≤ 1.7", got)
	}
	if got := 1000 * float64(comm.Msgs()) / float64(res.TotalKmers); got > 0.12 {
		t.Errorf("%.3f messages per thousand windows, want ≤ 0.12", got)
	}
	if res.CommBytesSaved <= 0 {
		t.Fatal("CommBytesSaved not accounted")
	}
	if res.SuperKmerBases <= res.SuperKmers {
		t.Fatalf("SuperKmerBases %d inconsistent with %d records",
			res.SuperKmerBases, res.SuperKmers)
	}
	avgRun := float64(res.SuperKmerBases) / float64(res.SuperKmers)
	if avgRun < float64(k)+1 {
		t.Errorf("average super-k-mer run %.1f bases barely exceeds k=%d — binning is not compressing", avgRun, k)
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
