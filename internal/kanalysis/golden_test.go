package kanalysis_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"hipmer/internal/ckpt"
	"hipmer/internal/fastq"
	"hipmer/internal/genome"
	"hipmer/internal/kanalysis"
	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from this tree's results")

// golden is what one analysis of a fixed input must reproduce exactly: the
// input-determined Result fields, a digest of the frozen table as the
// checkpoint codec serializes it (every (k-mer, KmerData) pair, sorted),
// and a digest of every charge the three phases made, rank by rank.
type golden struct {
	TotalKmers     int64
	HeavyHitters   int
	Kept           int64
	SuperKmers     int64
	SuperKmerBases int64
	CommBytesSaved int64
	PseudoKmers    int64
	Table          string // sha256 of ckpt.EncodeKmerStage (header counters, then sorted entries)
	Charges        string // sha256 over the sketch/partition/count span records
}

type goldenCase struct {
	name  string
	ranks int
	perNd int
	reads []fastq.Record
	opt   kanalysis.Options
}

func goldenReads(kind string, seed int64, n int, cov float64) []fastq.Record {
	rng := xrt.NewPrng(seed)
	var g []byte
	switch kind {
	case "wheat":
		g = genome.WheatLike(rng, n)
	case "human":
		g = genome.HumanLike(rng, n)
	default:
		g = genome.Random(rng, n)
	}
	recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: cov,
		Lib:      genome.Library{Name: kind, ReadLen: 100, InsertMean: 280, InsertSD: 15},
		Err:      genome.DefaultErrorModel(),
	})
	// an N and a lower-case stretch, which every scanner must treat alike
	recs[0].Seq[40] = 'N'
	for i := 10; i < 30; i++ {
		recs[1].Seq[i] |= 0x20
	}
	return recs
}

// goldenPseudo cuts weighted pseudo-reads out of the reads themselves, the
// shape the iterative-k outer loop feeds back (error-free contigs with a
// depth-derived weight).
func goldenPseudo(recs []fastq.Record, ranks int) [][]kanalysis.PseudoRead {
	out := make([][]kanalysis.PseudoRead, ranks)
	for i := 0; i < len(recs); i += 37 {
		out[(i/37)%ranks] = append(out[(i/37)%ranks], kanalysis.PseudoRead{
			Seq: recs[i].Seq, Weight: uint32(i % 5), // weight 0 counts as 1
		})
	}
	return out
}

func goldenCases() []goldenCase {
	human := goldenReads("human", 11, 30000, 10)
	wheat := goldenReads("wheat", 12, 30000, 10)
	cases := []goldenCase{
		{"human-k31-superk", 6, 3, human, kanalysis.Options{K: 31, HeavyHitters: true}},
		{"wheat-k21-hh-superk", 7, 3, wheat, kanalysis.Options{K: 21, HeavyHitters: true, Theta: 2000, HHMinCount: 100}},
		{"human-k31-1rank-superk", 1, 1, human[:len(human)/4], kanalysis.Options{K: 31, HeavyHitters: true}},
	}
	// the iterative-k ladder: every round after the first carries
	// pseudo-reads, and k = 33 and 55 take the two-word k-mer paths.
	for _, k := range []int{21, 33, 55} {
		c := goldenCase{"multik-k" + strconv.Itoa(k) + "-superk", 5, 2, human, kanalysis.Options{K: k, HeavyHitters: true}}
		if k > 21 {
			c.opt.PseudoByRank = goldenPseudo(human, c.ranks)
		}
		cases = append(cases, c)
	}
	return cases
}

func runGolden(c goldenCase) golden {
	team := xrt.NewTeam(xrt.Config{Ranks: c.ranks, RanksPerNode: c.perNd, Seed: 1})
	res := kanalysis.Run(team, kanalysis.SplitReads(c.reads, c.ranks), c.opt)
	g := golden{
		TotalKmers: res.TotalKmers, HeavyHitters: res.HeavyHitters,
		Kept: res.Kept, SuperKmers: res.SuperKmers, SuperKmerBases: res.SuperKmerBases,
		CommBytesSaved: res.CommBytesSaved, PseudoKmers: res.PseudoKmers,
	}
	sum := sha256.Sum256(ckpt.EncodeKmerStage(res, c.opt.K, kanalysis.EffectiveMinimizerLen(c.opt.K, 0, false)))
	g.Table = hex.EncodeToString(sum[:])

	// Every charge of the three phases: per span and rank the full
	// CommStats delta, plus the span's virtual duration and each rank's
	// busy time.
	h := sha256.New()
	put := func(v any) { binary.Write(h, binary.LittleEndian, v) }
	for _, sp := range team.Spans() {
		h.Write([]byte(sp.Path))
		put(int64(sp.VirtualNs))
		for _, rd := range sp.Ranks {
			put(int64(rd.WorkNs))
			put(rd.Comm)
		}
	}
	g.Charges = hex.EncodeToString(h.Sum(nil))
	return g
}

// TestGoldenTablesAndCharges pins the stage's observable behaviour to
// goldens generated before the flat-shard / rolling-scanner rewrite: the
// frozen table byte for byte, the transport counters, and — the
// one-for-one charge rule — every rank's charges in every phase. A change
// to a cost constant or a charge site fails the Charges digest.
// Some entries are younger. multik-k33-superk and multik-k55-superk were
// regenerated when pseudo-reads moved onto weighted super-k-mer records:
// their transport counters, PeakEntries and Charges moved, and the table
// entries did not (Table digests the header counters too). Every Table
// digest moved when the checkpoint header gained the minimizer bins'
// weights (the entries did not: the payload without them is the previous
// one), and the multi-rank cases' PeakEntries and Charges when bins came to
// be placed by those weights: per-(owner, stripe) Bloom filters then see
// other key sets, so their false-positive admissions differ, and Kept does
// not. Every case's HeavyHitters, PeakEntries, Charges and Table moved
// again when heavy hitters came to be found in a one-in-eight read sample
// and the cardinality sketch moved into the segment scan: another heavy
// set splits other windows out of the records, which moves the bin
// weights, the placement and the Bloom admissions; Kept did not move. The
// per-item transport's cases went with that transport. Every case's
// PeakEntries, Charges and Table moved once more when each owner's Bloom
// filters came to be sized for the windows its bins carry and the
// HyperLogLog went: fewer false positives are admitted, the segment scan
// charges no cardinality work, and the header lost the distinct estimate
// (the Distinct field with it); the sorted entries are the previous ones.
// Every case's PeakEntries and Charges moved once more when owners came to
// count their bins exactly instead of screening them through Bloom filters
// and replaying first sightings: the table peaks at Kept, the count span
// bills one local store per kept k-mer instead of the replay, the finalize
// pass went, and the bloom-screen span became the partition span; Table
// did not move, and the PeakEntries field left the golden, since it is
// Kept. Every case's Charges moved once more when clocks came to count
// whole nanoseconds, each charge rounded once; Table did not move. Every
// case's Table moved when the payload format did (hipmer-ckpt/v10): an
// entry lost its extension evidence, which the table no longer holds, and
// the header its PeakEntries slot; every entry's count and codes, and every
// rank's slot order, are the previous ones, and Charges did not move.
func TestGoldenTablesAndCharges(t *testing.T) {
	path := filepath.Join("testdata", "golden.json")
	got := make(map[string]golden)
	for _, c := range goldenCases() {
		got[c.name] = runGolden(c)
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading goldens (regenerate with -update-golden): %v", err)
	}
	want := make(map[string]golden)
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, test has %d", len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no golden", name)
		} else if g != w {
			t.Errorf("%s:\n got  %+v\n want %+v", name, g, w)
		}
	}
}

// TestOwnerWindowsBalanced: with minimizer bins placed by their window
// counts, the busiest owner of the golden human reads at 32 ranks counts
// at most 5 % more windows than the mean owner.
func TestOwnerWindowsBalanced(t *testing.T) {
	const k, ranks = 31, 32
	human := goldenReads("human", 11, 30000, 10)
	team := xrt.NewTeam(xrt.Config{Ranks: ranks, RanksPerNode: 8, Seed: 1})
	team.BeginSpan("kmer-analysis")
	res := kanalysis.Run(team, kanalysis.SplitReads(human, ranks), kanalysis.Options{K: k, HeavyHitters: true})
	busiest := team.EndSpan().Counters["owner_windows_max"]
	windows := res.SuperKmerBases - (k-1)*res.SuperKmers
	if busiest*ranks < windows {
		t.Fatalf("the busiest owner counted %d windows, fewer than the mean of %d over %d ranks", busiest, windows, ranks)
	}
	if skew := float64(busiest*ranks) / float64(windows); skew > 1.05 {
		t.Errorf("windows per owner: max/mean %.3f, want ≤ 1.05", skew)
	}
}

// TestCountIgnoresSchedule: the k-mers kept, the count span's
// virtual time, and the checkpoint payload carrying the table are the same
// under every schedule perturbation, with and without pseudo-reads. So is
// the order of every rank's slot arrays: each insertion of the analysis is
// made by an owner's count pass, bin by bin in (sender, send order) from a
// scratch table of its own, or by the owner's own heavy-hitter fold.
func TestCountIgnoresSchedule(t *testing.T) {
	human := goldenReads("human", 11, 30000, 10)
	type outcome struct {
		kept    int64
		countNs float64
		segment [sha256.Size]byte
		slots   [sha256.Size]byte // every rank's LocalRange order, rank by rank
	}
	for _, ranks := range []int{6, 32} {
		for _, pseudo := range []bool{false, true} {
			opt := kanalysis.Options{K: 31, HeavyHitters: true}
			if pseudo {
				opt.K, opt.PseudoByRank = 33, goldenPseudo(human, ranks)
			}
			var first outcome
			for i, seed := range []int64{1, 2, 3, 17} {
				team := xrt.NewTeam(xrt.Config{Ranks: ranks, RanksPerNode: 3, Seed: 1,
					Inject: xrt.Inject{PerturbSeed: seed}})
				res := kanalysis.Run(team, kanalysis.SplitReads(human, ranks), opt)
				got := outcome{kept: res.Kept,
					segment: sha256.Sum256(ckpt.EncodeKmerStage(res, opt.K, kanalysis.EffectiveMinimizerLen(opt.K, 0, false)))}
				for _, sp := range team.Spans() {
					if sp.Name == "count" {
						got.countNs = sp.VirtualNs
					}
				}
				order := make([][]byte, ranks)
				team.Run(func(r *xrt.Rank) {
					h := sha256.New()
					res.Table.LocalRange(r, func(km kmer.Kmer, _ kanalysis.KmerData) bool {
						binary.Write(h, binary.LittleEndian, km.W)
						return true
					})
					order[r.ID] = h.Sum(nil)
				})
				got.slots = sha256.Sum256(bytes.Join(order, nil))
				if i == 0 {
					first = got
				} else if got != first {
					t.Errorf("%d ranks, pseudo-reads %v: perturb seed %d gives %d kept, count span %v ns, segment %x, slot order %x; seed 1 gave %d, %v, %x, %x",
						ranks, pseudo, seed, got.kept, got.countNs, got.segment[:4], got.slots[:4], first.kept, first.countNs, first.segment[:4], first.slots[:4])
				}
			}
		}
	}
}
