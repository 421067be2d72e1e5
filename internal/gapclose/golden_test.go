package gapclose

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"hipmer/internal/contig"
	"hipmer/internal/fastq"
	"hipmer/internal/genome"
	"hipmer/internal/kanalysis"
	"hipmer/internal/kmer"
	"hipmer/internal/scaffold"
	"hipmer/internal/xrt"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from this tree's results")

const goldenK = 31

// roundGolden is what one gap-closing round over a fixed scaffolding
// result must reproduce exactly.
type roundGolden struct {
	Gaps, Closed                      int
	BySpanning, ByWalking, ByPatching int
	Verified, Checked                 int
	// NFlanks counts gaps with a non-ACGT base in a flank (later rounds'
	// contigs are earlier scaffolds and keep the Ns of unclosed gaps).
	NFlanks  int
	Closures string // sha256 over (scaffold, member, method, closure bytes) of every gap
	Seqs     string // sha256 over the final scaffold sequences
	Charges  string // sha256 over the project-reads and close span records
}

type goldenCase struct {
	name         string
	kind         string
	ranks, perNd int
	rounds       int
	genomeLen    int
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, kind := range []string{"human", "wheat"} {
		for _, ranks := range []int{1, 8, 96} {
			perNd := 24
			if ranks < perNd {
				perNd = (ranks + 1) / 2
			}
			cases = append(cases, goldenCase{name: fmt.Sprintf("%s-%dranks", kind, ranks),
				kind: kind, ranks: ranks, perNd: perNd, rounds: 1, genomeLen: 80000})
		}
	}
	// the wheat_scaffold shape: four scaffolding rounds, the later ones over
	// N-bearing contigs
	cases = append(cases,
		goldenCase{name: "wheat-4rounds-96ranks", kind: "wheat", ranks: 96, perNd: 24, rounds: 4, genomeLen: 50000},
		goldenCase{name: "wheat-4rounds-8ranks", kind: "wheat", ranks: 8, perNd: 4, rounds: 4, genomeLen: 50000})
	return cases
}

// goldenLibs samples the libraries of the benchmark's human and wheat
// workloads from a fixed genome.
func goldenLibs(kind string, n int) (libs []genome.Library, recs [][]fastq.Record) {
	rng := xrt.NewPrng(map[string]int64{"human": 31, "wheat": 32}[kind])
	var g []byte
	var covs []float64
	if kind == "wheat" {
		g = genome.WheatLike(rng, n)
		libs = []genome.Library{
			{Name: "wheat500", ReadLen: 150, InsertMean: 500, InsertSD: 40},
			{Name: "wheat1k", ReadLen: 100, InsertMean: 1000, InsertSD: 80},
			{Name: "wheat4k", ReadLen: 100, InsertMean: 4200, InsertSD: 300},
		}
		covs = []float64{17.5, 5, 2.5}
	} else {
		g = genome.HumanLike(rng, n)
		libs = []genome.Library{{Name: "human395", ReadLen: 101, InsertMean: 395, InsertSD: 30}}
		covs = []float64{25}
	}
	for i, lib := range libs {
		r, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
			Coverage: covs[i], Lib: lib, Err: genome.DefaultErrorModel(),
		})
		recs = append(recs, r)
	}
	// an N and a lower-case stretch, which every scanner must treat alike
	recs[0][0].Seq[40] = 'N'
	for i := 10; i < 30; i++ {
		recs[0][1].Seq[i] |= 0x20
	}
	return libs, recs
}

func dealPairs(recs []fastq.Record, ranks int) [][]fastq.Record {
	out := make([][]fastq.Record, ranks)
	for i := 0; i+1 < len(recs); i += 2 {
		r := (i / 2) % ranks
		out[r] = append(out[r], recs[i], recs[i+1])
	}
	return out
}

func hasNonACGT(s []byte) bool {
	for _, b := range s {
		if _, ok := kmer.BaseCode(b); !ok {
			return true
		}
	}
	return false
}

// runGolden assembles contigs from the reads, re-deals them by ID (which
// rank a traversal leaves a contig on is schedule-dependent; its ID is
// not), and runs the scaffolding / gap-closing rounds as the pipeline does.
// It returns the team too, for its span records.
func runGolden(c goldenCase) ([]roundGolden, *xrt.Team) {
	libSpecs, recs := goldenLibs(c.kind, c.genomeLen)
	team := xrt.NewTeam(xrt.Config{Ranks: c.ranks, RanksPerNode: c.perNd, Seed: 1})
	var libs []scaffold.ReadLib
	var all []fastq.Record
	for i, spec := range libSpecs {
		libs = append(libs, scaffold.ReadLib{Name: spec.Name, ReadsByRank: dealPairs(recs[i], c.ranks), InsertHint: spec.InsertMean})
		all = append(all, recs[i]...)
	}
	kres := kanalysis.Run(team, dealPairs(all, c.ranks), kanalysis.Options{K: goldenK, HeavyHitters: c.kind == "wheat"})
	cres := contig.Run(team, kres.Table, contig.Options{K: goldenK})
	var ctgs []*contig.Contig
	for _, cs := range cres.Contigs {
		ctgs = append(ctgs, cs...)
	}
	sort.Slice(ctgs, func(i, j int) bool { return ctgs[i].ID < ctgs[j].ID })
	ctgRes := contig.ResultFromContigs(team, ctgs)

	var out []roundGolden
	for round := 1; round <= c.rounds; round++ {
		sres := scaffold.Run(team, ctgRes, kres.Table, libs, scaffold.Options{K: goldenK, DisableBubbles: round > 1})
		first := len(team.Spans())
		opt := Options{K: goldenK, KmerTable: kres.Table}
		res := &Result{}
		gaps := collectGaps(team, sres, libs)
		res.Gaps = len(gaps)
		closures := closeGaps(team, gaps, opt, res)
		res.ScaffoldSeqs = splice(sres, gaps, closures)

		g := roundGolden{Gaps: res.Gaps, Closed: res.Closed, BySpanning: res.BySpanning,
			ByWalking: res.ByWalking, ByPatching: res.ByPatching, Verified: res.Verified, Checked: res.Checked}
		h := sha256.New()
		put := func(v any) { binary.Write(h, binary.LittleEndian, v) }
		for i, gp := range gaps {
			if hasNonACGT(gp.left) || hasNonACGT(gp.right) {
				g.NFlanks++
			}
			put([]int64{int64(gp.id.scaf), int64(gp.id.mem), int64(closures[i].method), int64(len(closures[i].seq))})
			h.Write(closures[i].seq)
		}
		g.Closures = hex.EncodeToString(h.Sum(nil))
		h.Reset()
		for _, s := range res.ScaffoldSeqs {
			put(int64(len(s)))
			h.Write(s)
		}
		g.Seqs = hex.EncodeToString(h.Sum(nil))
		h.Reset()
		// Times go in as hundredths of a nanosecond (every cost constant
		// is a multiple of 0.05 ns), not as bits: the spans open at a
		// clock value the traversal before them left, so the last bit of
		// a delta is the schedule's, not the input's.
		centiNs := func(ns float64) int64 { return int64(math.Round(ns * 100)) }
		for _, sp := range team.Spans()[first:] {
			h.Write([]byte(sp.Path))
			put(centiNs(sp.VirtualNs))
			for _, rd := range sp.Ranks {
				put(centiNs(rd.WorkNs))
				put(rd.Comm)
			}
		}
		g.Charges = hex.EncodeToString(h.Sum(nil))
		out = append(out, g)

		// the next round scaffolds this round's sequences
		ctgRes = &contig.Result{Contigs: make([][]*contig.Contig, c.ranks)}
		for i, seq := range res.ScaffoldSeqs {
			ctgRes.Contigs[i%c.ranks] = append(ctgRes.Contigs[i%c.ranks], &contig.Contig{ID: int64(i + 1), Seq: seq})
			ctgRes.NumContigs++
		}
	}
	return out, team
}

// TestClosePhasesSumToSpan: the close span's scan_ns, ladder_ns and
// settle_ns account for all of its virtual time on every golden case.
// Each is a whole-ns Duration of its phases, so the sum falls short of the
// span by the fractions of a nanosecond those drop: less than one per
// phase, the scan, each ladder wave and the settle.
func TestClosePhasesSumToSpan(t *testing.T) {
	for _, c := range goldenCases() {
		_, team := runGolden(c)
		closes := 0
		for _, sp := range team.Spans() {
			if sp.Name != "close" {
				continue
			}
			closes++
			sum := sp.Counters["scan_ns"] + sp.Counters["ladder_ns"] + sp.Counters["settle_ns"]
			phases := 2 + sp.Counters["ladder_waves"]
			if d := sp.VirtualNs - float64(sum); d < 0 || d >= float64(phases) {
				t.Errorf("%s %s: scan %d + ladder %d + settle %d ns = %d, the span took %.2f over %d phases", c.name, sp.Path,
					sp.Counters["scan_ns"], sp.Counters["ladder_ns"], sp.Counters["settle_ns"], sum, sp.VirtualNs, phases)
			}
		}
		if closes != c.rounds {
			t.Fatalf("%s: %d close spans for %d rounds", c.name, closes, c.rounds)
		}
	}
}

// TestGoldenClosuresAndCharges pins gap closing to goldens generated at
// the commit before its inner loops moved onto packed k-mers and per-rank
// scratch (there, with Run split into collectGaps / closeGaps / splice by
// pure code motion so that the per-gap outcomes can be hashed): method and
// closure bytes of every gap, the final sequences, and every rank's
// charges — the work formula and the verification lookups, in order.
// The Charges were regenerated when stage 1 came to place minimizer bins
// by weight, which moves the owners the verification lookups reach, and
// the wheat cases' again when stage 1 came to find heavy hitters in a read
// sample: another heavy set moves the bin weights, and with them owners.
// Regenerate with -update-golden only for an intended behaviour change.
func TestGoldenClosuresAndCharges(t *testing.T) {
	path := filepath.Join("testdata", "golden.json")
	got := make(map[string][]roundGolden)
	for _, c := range goldenCases() {
		got[c.name], _ = runGolden(c)
	}
	nFlanks := 0
	for _, rounds := range got {
		for _, g := range rounds[1:] {
			nFlanks += g.NFlanks
		}
	}
	if nFlanks == 0 {
		t.Error("no later-round gap has an N-bearing flank: the cases no longer cover the non-ACGT rule")
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
	want := make(map[string][]roundGolden)
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, test has %d", len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no golden", name)
		} else if !reflect.DeepEqual(g, w) {
			t.Errorf("%s:\n got  %+v\n want %+v", name, g, w)
		}
	}
}
