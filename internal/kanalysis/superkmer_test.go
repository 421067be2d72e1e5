package kanalysis

import (
	"bytes"
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
// reads, with and without heavy hitters in play. One read pair is 70 000
// bases of poly-A: a single minimizer run longer than a record frames,
// which travels as two.
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
	for _, opt := range []Options{{}, {HeavyHitters: true}} {
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

// TestOwnerCountMatchesOracle drives one owner's inbox through the count
// pass by hand. Three senders interleave read records with weighted
// pseudo-read records, five to a message. Every k-mer that clears MinCount
// must reach the shard with the exact count and extension evidence of an
// oracle that counts the same sequences serially, and no other k-mer. The
// pass must decode every window sent, report the distinct k-mers, charge
// one local store per entry stored and nothing else, and empty the inbox.
func TestOwnerCountMatchesOracle(t *testing.T) {
	const k, senders, batch, weight = 21, 3, 5, 3
	_, recs := simReads(t, 13, 6000, 8, genome.DefaultErrorModel())
	m := kmer.ClampMinimizerLen(k, 0)

	// The oracle: read windows count once with their quality-filtered
	// evidence, pseudo-read windows (every 7th read's bases, no quality)
	// count weight times with all of theirs.
	oracle := make(map[kmer.Kmer]KmerData)
	offer := func(rec fastq.Record, w uint32) {
		kmer.ForEachCanonical(rec.Seq, k, func(pos int, canon kmer.Kmer, flipped bool) {
			d := oracle[canon]
			d.add(occurrenceAt(rec.Seq, rec.Qual, pos, k, canon, flipped), w)
			oracle[canon] = d
		})
	}
	in, windows := &inbox{}, 0
	var pending [senders][]byte
	sent := make([]int, senders)
	var buf []byte
	for i, rec := range recs {
		src := senders - 1 - i%senders
		send := func(rec fastq.Record, w int) {
			windows += forEachSuperKmer(rec, w, k, m, newHeavySet(nil, k, m), nil,
				func(_ uint64, record []byte, _ int) {
					pending[src] = append(pending[src], record...)
					if sent[src]++; sent[src]%batch == 0 {
						in.deliver(src, pending[src])
						pending[src] = pending[src][:0]
					}
				}, &buf)
		}
		send(rec, 0)
		offer(rec, 1)
		if i%7 == 0 {
			pseudo := fastq.Record{Seq: rec.Seq}
			send(pseudo, weight)
			offer(pseudo, weight)
		}
	}
	for src, p := range pending {
		in.deliver(src, p)
	}
	want := make(map[kmer.Kmer]KmerData)
	for km, d := range oracle {
		if d.Count >= 2 {
			d.ExtL, d.ExtR = callExt(d.LeftCnt, minExtCount), callExt(d.RightCnt, minExtCount)
			want[km] = d
		}
	}
	if len(want) == 0 || len(want) == len(oracle) {
		t.Fatalf("%d of %d k-mers clear MinCount: the test checks no filter", len(want), len(oracle))
	}

	team := xrt.NewTeam(xrt.Config{Ranks: 1})
	table := NewTable(team, 0, 0, 0, k, m)
	team.Run(func(r *xrt.Rank) {
		stores, clock := team.RankStats(0).LocalStores, r.ClockNs()
		var scratch tally
		table.OwnShard(r, func(own dht.Owned[kmer.Kmer, KmerData]) {
			decoded, distinct := in.count(k, m, 2, &scratch, own, r)
			if decoded != windows || distinct != len(oracle) {
				t.Errorf("the count decoded %d windows and found %d distinct k-mers; %d were sent, of %d k-mers",
					decoded, distinct, windows, len(oracle))
			}
		})
		if got := team.RankStats(0).LocalStores - stores; got != int64(len(want)) {
			t.Errorf("the count charged %d local stores for %d entries", got, len(want))
		}
		if got, cost := r.ClockNs()-clock, float64(len(want))*xrt.LocalOpNs; got != cost {
			t.Errorf("the count advanced the clock %v ns, its local stores cost %v", got, cost)
		}
		if in.msgs != nil || scratch.counts.Len() != 0 || len(scratch.seen) != 0 {
			t.Errorf("the count left %d messages and %d scratch entries", len(in.msgs), scratch.counts.Len())
		}
	})
	got := tableCounts(&Result{Table: table})
	if len(got) != len(want) {
		t.Fatalf("the shard holds %d k-mers, the oracle keeps %d", len(got), len(want))
	}
	for km, d := range want {
		if got[km] != d {
			t.Fatalf("k-mer %s: stored %+v, the oracle counts %+v", km.String(k), got[km], d)
		}
	}
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
