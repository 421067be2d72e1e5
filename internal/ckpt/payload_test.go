package ckpt_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"hipmer/internal/ckpt"
	"hipmer/internal/contig"
	"hipmer/internal/gapclose"
	"hipmer/internal/genome"
	"hipmer/internal/kanalysis"
	"hipmer/internal/kmer"
	"hipmer/internal/scaffold"
	"hipmer/internal/xrt"
)

func team3() *xrt.Team {
	return xrt.NewTeam(xrt.Config{Ranks: 3, RanksPerNode: 3, Seed: 11})
}

// kmerResult stores the given entries in a frozen table on team.
func kmerResult(team *xrt.Team, k, m int, kms []kmer.Kmer) *kanalysis.Result {
	table := kanalysis.NewTable(team, int64(len(kms)), 0, 0, k, m)
	team.Run(func(r *xrt.Rank) {
		if r.ID == 0 {
			for i, km := range kms {
				n := uint32(i)
				table.Put(r, km, kanalysis.KmerData{
					Count: 2 + n, LeftCnt: [4]uint32{n, 1, 0, 7}, RightCnt: [4]uint32{0, n, 2, 0},
					ExtL: "ACGTFX"[i%6], ExtR: "XFTGCA"[i%6],
				})
			}
		}
		table.Flush(r)
		r.Barrier()
		table.Freeze(r)
	})
	return &kanalysis.Result{
		Table: table, HeavyHitters: 3, Kept: int64(len(kms)),
		PeakEntries: 99, TotalKmers: 1234, SuperKmers: 56, SuperKmerBases: 789, CommBytesSaved: -1,
	}
}

// syntheticContigs is a contig result on 3 partitions that no ID deal
// would produce: IDs descending, uneven lists, an empty partition, a
// contig with an empty sequence.
func syntheticContigs() *contig.Result {
	return &contig.Result{
		NumContigs: 3, UUKmers: 41, Claimed: 5, Completed: 3, Aborted: 2, Rounds: 6,
		Contigs: [][]*contig.Contig{
			{
				{ID: 9, Seq: []byte("ACGTACGTTTGA"), TermL: 'F', TermR: 'X',
					NbrL: kmer.Kmer{W: [2]uint64{1, 2}}, NbrR: kmer.Kmer{W: [2]uint64{^uint64(0), 3}},
					HasNbrL: true, SumCount: 99, PseudoWeight: 7},
				{ID: 4, TermL: 'X', TermR: 'X'},
			},
			{},
			{{ID: 2, Seq: []byte("TTTTGGGG"), TermL: 'X', TermR: 'R', HasNbrR: true, SumCount: 1 << 33}},
		},
	}
}

func syntheticScaffold() *scaffold.Result {
	at := func(id int64, start int32) scaffold.Placement {
		return scaffold.Placement{ContigID: id, CStart: start, CEnd: start + 98, ContigLen: 4000 + int32(id)}
	}
	var none scaffold.Placement
	return &scaffold.Result{
		ContigsByRank: [][]*scaffold.SContig{
			{{ID: 3, Seq: []byte("GATTACA"), Members: []int64{3, 8, 1}}},
			nil,
			{{ID: 1}, {ID: 2, Seq: []byte("CC"), Members: []int64{2}}},
		},
		Scaffolds: []*scaffold.Scaffold{
			{ID: 1, Members: []scaffold.Member{{ContigID: 3}, {ContigID: 2, Flipped: true, GapBefore: -40}}},
			{ID: 2},
		},
		Links: []scaffold.Link{
			{A: 3, B: 2, EndA: 'R', EndB: 'L', Gap: -40.5, GapSD: 3.25, Splints: 4, Spans: 0},
			{A: 2, B: 1, EndA: 'L', EndB: 'L', Gap: 812, GapSD: 30, Spans: 9},
		},
		InsertMean: []float64{395.5, 4200},
		InsertSD:   []float64{30.25, 300},
		Bubbles:    3,
		Placements: [][][]scaffold.Placement{
			{
				{at(3, -3), none},
				{},
				{none, at(1, 3990), none, at(-7, 1<<30)},
			},
			{{}, {at(2, 0), none}, {}},
		},
	}
}

// syntheticPayloads encodes hand-built results of every payload shape —
// 3 partitions, 2 libraries, empty lists in every position — so the
// multi-partition layouts the 1-rank segment golden cannot reach are
// pinned byte for byte.
func syntheticPayloads() map[string][]byte {
	kms := []kmer.Kmer{
		{W: [2]uint64{9, 1}}, {W: [2]uint64{2, 7}}, {W: [2]uint64{2, 3}},
		{W: [2]uint64{^uint64(0), 0}}, {W: [2]uint64{0, 1 << 63}},
	}
	// Bin weights of every uvarint length up to kanalysis.MaxBinWeight's,
	// and a zero.
	binned := kmerResult(team3(), 33, 15, kms[:2])
	binned.BinWeights = make([]int64, kanalysis.Bins)
	for i := range binned.BinWeights {
		binned.BinWeights[i] = int64(i) << (i % 43)
	}
	return map[string][]byte{
		"kmer":           ckpt.EncodeKmerStage(kmerResult(team3(), 21, 0, kms), 21, 0),
		"kmer-minimizer": ckpt.EncodeKmerStage(binned, 33, 15),
		"kmer-empty":     ckpt.EncodeKmerStage(kmerResult(team3(), 21, 11, nil), 21, 11),
		"contig":         ckpt.EncodeContigStage(syntheticContigs()),
		"contig-empty":   ckpt.EncodeContigStage(&contig.Result{Contigs: make([][]*contig.Contig, 3)}),
		"cleaning": ckpt.EncodeCleaningStage(syntheticContigs(),
			contig.CleanStats{TipsClipped: 5, BubblesPopped: 2, BasesRemoved: 640, Survivors: 3}),
		"carry": ckpt.EncodeCarryStage(syntheticContigs().All(),
			contig.MergeStats{Carried: 3, Represented: 1, PoppedOld: 2, Rescued: 1, Total: 7}),
		"carry-empty":    ckpt.EncodeCarryStage(nil, contig.MergeStats{}),
		"scaffold":       ckpt.EncodeScaffoldStage(syntheticScaffold()),
		"scaffold-empty": ckpt.EncodeScaffoldStage(&scaffold.Result{ContigsByRank: make([][]*scaffold.SContig, 3)}),
		"gapclose": ckpt.EncodeGapcloseStage(&gapclose.Result{
			Gaps: 7, Closed: 5, BySpanning: 2, ByWalking: 2, ByPatching: 1, Verified: 4, Checked: 5,
			ScaffoldSeqs: [][]byte{[]byte("ACGTNNNNACGT"), {}, []byte("G")},
		}),
		"gapclose-empty": ckpt.EncodeGapcloseStage(&gapclose.Result{}),
	}
}

// TestSyntheticPayloadBytesGolden: the digests in
// testdata/synthetic_payloads.json were produced by the encoders of the
// commit before every record's layout was restated as a single walk,
// except the scaffold one, regenerated when its contigs lost their mean
// depth and termination metadata (hipmer-ckpt/v6) and again with
// PoppedOut (v7) and again when every alignment of every read became one
// placement per read (v9), and the k-mer ones, regenerated when their
// header gained the bin weights (v7) and again when it lost the distinct
// estimate (v8);
// regenerate only for an intended format change (-update-golden).
func TestSyntheticPayloadBytesGolden(t *testing.T) {
	got := map[string]string{}
	for name, b := range syntheticPayloads() {
		sum := sha256.Sum256(b)
		got[name] = hex.EncodeToString(sum[:])
	}
	var want map[string]string
	if !golden(t, "synthetic_payloads.json", got, &want) {
		return
	}
	if !reflect.DeepEqual(got, want) {
		for name := range got {
			if got[name] != want[name] {
				t.Errorf("%s: payload sha256 %s, golden %s", name, got[name], want[name])
			}
		}
		t.Errorf("%d payloads, golden has %d", len(got), len(want))
	}
}

// TestKmerPayloadKeepsPlacement: a k-mer payload decoded at the rank
// count that wrote it places every key on the rank the live table did, and
// at any other count on the rank BinOwners maps the key's bin to there.
func TestKmerPayloadKeepsPlacement(t *testing.T) {
	const k, p = 31, 6
	rng := xrt.NewPrng(71)
	recs, _ := genome.SimulatePairs(rng, genome.HumanLike(rng, 12000), genome.SimOptions{
		Coverage: 10,
		Lib:      genome.Library{Name: "h", ReadLen: 100, InsertMean: 300, InsertSD: 20},
		Err:      genome.DefaultErrorModel(),
	})
	res := kanalysis.Run(xrt.NewTeam(xrt.Config{Ranks: p, RanksPerNode: 3}), xrt.DealPairs(recs, p),
		kanalysis.Options{K: k, HeavyHitters: true})
	m := kanalysis.EffectiveMinimizerLen(k, 0, false)
	b := ckpt.EncodeKmerStage(res, k, m)
	for _, q := range []int{p, 1, 4, 11} {
		got, err := ckpt.DecodeKmerStage(xrt.NewTeam(xrt.Config{Ranks: q, RanksPerNode: 3}), b, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.BinWeights, res.BinWeights) {
			t.Fatalf("at %d ranks the payload's weights are not the run's", q)
		}
		owner := kanalysis.BinOwners(res.BinWeights, q)
		n := 0
		got.Table.RangeAll(func(km kmer.Kmer, _ kanalysis.KmerData) bool {
			want := int(owner[kmer.MinimizerHash(km.Minimizer(k, m))%kanalysis.Bins])
			if q == p && want != res.Table.Owner(km) {
				t.Fatalf("the live table places %s on %d, its bin's owner is %d", km.String(k), res.Table.Owner(km), want)
			}
			if o := got.Table.Owner(km); o != want {
				t.Fatalf("at %d ranks %s is placed on %d, its bin's owner is %d", q, km.String(k), o, want)
			}
			n++
			return true
		})
		if int64(n) != res.Kept {
			t.Fatalf("at %d ranks %d entries decoded, %d kept", q, n, res.Kept)
		}
	}
}

// TestPayloadsReencodeIdentically: every stage payload of real 3-rank
// runs — all six shapes, the k-mer table through a team — decodes and
// encodes back to the bytes it was read from.
func TestPayloadsReencodeIdentically(t *testing.T) {
	shapes := map[string]bool{}
	for _, st := range realStages() {
		shape, _, _ := strings.Cut(st.name, "-k")
		var again []byte
		var err error
		switch shape {
		case "kmer-analysis":
			k := 21
			if _, ks, multi := strings.Cut(st.name, "-k"); multi {
				k, _ = strconv.Atoi(ks)
			}
			var res *kanalysis.Result
			if res, err = ckpt.DecodeKmerStage(team3(), st.b, 0); err == nil {
				again = ckpt.EncodeKmerStage(res, k, kanalysis.EffectiveMinimizerLen(k, 0, false))
			}
		case "contig-generation":
			var res *contig.Result
			if res, err = ckpt.DecodeContigStage(team3(), st.b); err == nil {
				again = ckpt.EncodeContigStage(res)
			}
		case "tip-clip", "bubble-pop":
			shape = "cleaning"
			var res *contig.Result
			var stats contig.CleanStats
			if res, stats, err = ckpt.DecodeCleaningStage(st.b, 3); err == nil {
				again = ckpt.EncodeCleaningStage(res, stats)
			}
		case "pseudo-merge":
			var carried []*contig.Contig
			var stats contig.MergeStats
			if carried, stats, err = ckpt.DecodeCarryStage(st.b); err == nil {
				again = ckpt.EncodeCarryStage(carried, stats)
			}
		case "scaffolding":
			var res *scaffold.Result
			if res, err = ckpt.DecodeScaffoldStage(team3(), st.b); err == nil {
				again = ckpt.EncodeScaffoldStage(res)
			}
		case "gap-closing":
			var res *gapclose.Result
			if res, err = ckpt.DecodeGapcloseStage(st.b); err == nil {
				again = ckpt.EncodeGapcloseStage(res)
			}
		default:
			t.Fatalf("stage %s has no codec in this test", st.name)
		}
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if !bytes.Equal(again, st.b) {
			t.Errorf("%s: %d bytes decoded and re-encoded to %d different ones", st.name, len(st.b), len(again))
		}
		shapes[shape] = true
	}
	if len(shapes) != 6 {
		t.Fatalf("the runs wrote payloads of shapes %v, want all six", shapes)
	}
}

// TestDecodeOntoKeepsOrDeals is the one load rule: a contig or cleaning
// payload decoded onto the rank count it was written at keeps its per-rank
// lists exactly as written; onto any other it is the ID-ordered round-robin
// deal of the same contigs.
func TestDecodeOntoKeepsOrDeals(t *testing.T) {
	type codec struct {
		onto   func(b []byte, n int) (*contig.Result, contig.CleanStats, error)
		encode func(*contig.Result, contig.CleanStats) []byte
	}
	contigs := codec{
		func(b []byte, n int) (*contig.Result, contig.CleanStats, error) {
			res, err := ckpt.DecodeContigStageReshard(b, n)
			return res, contig.CleanStats{}, err
		},
		func(res *contig.Result, _ contig.CleanStats) []byte { return ckpt.EncodeContigStage(res) },
	}
	cleaning := codec{ckpt.DecodeCleaningStageReshard, ckpt.EncodeCleaningStage}
	ids := func(lists [][]*contig.Contig) string {
		var sb strings.Builder
		for _, cs := range lists {
			sb.WriteByte('|')
			for _, c := range cs {
				sb.WriteString(strconv.FormatInt(c.ID, 10) + " ")
			}
		}
		return sb.String()
	}
	// check decodes b, written at 3 ranks, and returns the ID layout kept.
	check := func(name string, b []byte, cd codec) string {
		kept, stats, err := cd.onto(b, 3)
		if err != nil {
			t.Fatalf("%s onto 3: %v", name, err)
		}
		// The encoding is order-sensitive: equal bytes, same lists.
		if !bytes.Equal(cd.encode(kept, stats), b) {
			t.Errorf("%s onto 3: the lists are not the written ones", name)
		}
		for _, n := range []int{1, 2, 7} {
			res, _, err := cd.onto(b, n)
			if err != nil {
				t.Fatalf("%s onto %d: %v", name, n, err)
			}
			// All returns the result's own contigs in ID order, so the deal
			// must match pointer for pointer.
			if want := xrt.Deal(res.All(), n); !reflect.DeepEqual(res.Contigs, want) || len(res.Contigs) != n {
				t.Errorf("%s onto %d: layout %s, the deal is %s", name, n, ids(res.Contigs), ids(want))
			}
			if got, all := len(res.All()), len(kept.All()); got != all {
				t.Errorf("%s onto %d: %d contigs, payload holds %d", name, n, got, all)
			}
		}
		for _, n := range []int{0, -1} {
			if _, _, err := cd.onto(b, n); err == nil {
				t.Errorf("%s onto %d ranks accepted", name, n)
			}
		}
		return ids(kept.Contigs)
	}
	// The hand-built layout is one no deal produces, so "kept" is told
	// apart from "dealt again onto the same count".
	const written = "|9 4 ||2 "
	syn := syntheticContigs()
	if got := check("synthetic contig", ckpt.EncodeContigStage(syn), contigs); got != written {
		t.Errorf("synthetic contig onto 3: layout %s, written %s", got, written)
	}
	if got := check("synthetic cleaning", ckpt.EncodeCleaningStage(syn, contig.CleanStats{Survivors: 3}), cleaning); got != written {
		t.Errorf("synthetic cleaning onto 3: layout %s, written %s", got, written)
	}
	real := 0
	for _, st := range realStages() {
		switch shape, _, _ := strings.Cut(st.name, "-k"); shape {
		case "contig-generation":
			check(st.name, st.b, contigs)
		case "tip-clip", "bubble-pop":
			check(st.name, st.b, cleaning)
		default:
			continue
		}
		real++
	}
	if real < 4 {
		t.Fatalf("only %d real contig and cleaning payloads checked", real)
	}
}
