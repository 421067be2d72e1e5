package pipeline

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hipmer/internal/fastq"
	"hipmer/internal/genome"
	"hipmer/internal/metrics"
	"hipmer/internal/seqdb"
	"hipmer/internal/stats"
	"hipmer/internal/verify"
	"hipmer/internal/xrt"
)

func readGolden(t *testing.T, name string, into any) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, into); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// place is these tests' reference check — the oracle's placement engine
// at anchor length 31 — and pins its piece counts to
// testdata/validate_parent.json: Placed and Unplaced on the calling
// test's assembly as package stats' validator counted them at commit
// 268b93e, the last to have that second engine. The two told chimeras
// apart differently but anchored pieces alike.
func place(t *testing.T, seqs [][]byte, ref []byte) *verify.Report {
	t.Helper()
	rep := verify.Place(seqs, ref)
	var parent map[string]struct{ Placed, Unplaced int }
	readGolden(t, "validate_parent.json", &parent)
	want, ok := parent[t.Name()]
	if !ok {
		t.Fatalf("no parent placement recorded for %s", t.Name())
	}
	if rep.Placed != want.Placed || rep.Unplaced != want.Unplaced {
		t.Fatalf("placed %d / unplaced %d, parent engine %d / %d",
			rep.Placed, rep.Unplaced, want.Placed, want.Unplaced)
	}
	return rep
}

func TestEndToEndReconstructsGenome(t *testing.T) {
	rng := xrt.NewPrng(1)
	g := genome.Random(rng, 30000)
	recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 35,
		Lib:      genome.Library{Name: "e2e", ReadLen: 100, InsertMean: 350, InsertSD: 25},
		Err:      genome.DefaultErrorModel(),
	})
	team := xrt.NewTeam(xrt.Config{Ranks: 8, RanksPerNode: 4})
	res, err := Run(team, []Library{{Name: "e2e", Records: recs, InsertHint: 350}},
		Config{K: 31, MinCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FinalSeqs) == 0 {
		t.Fatal("no output sequences")
	}
	v := place(t, res.FinalSeqs, g)
	if v.CoveredFrac < 0.95 {
		t.Fatalf("assembly covers only %.3f of the reference", v.CoveredFrac)
	}
	if v.IdentityFrac < 0.999 {
		t.Fatalf("assembly identity %.5f too low", v.IdentityFrac)
	}
	if v.Misassemblies > 0 {
		t.Fatalf("%d misassemblies", v.Misassemblies)
	}
	s := stats.Compute(res.FinalSeqs)
	if s.N50 < 10000 {
		t.Fatalf("N50 %d too fragmented for a clean 30k genome", s.N50)
	}
}

func TestTimingsRecorded(t *testing.T) {
	rng := xrt.NewPrng(2)
	g := genome.Random(rng, 8000)
	recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 20,
		Lib:      genome.Library{Name: "t", ReadLen: 100, InsertMean: 300, InsertSD: 20},
	})
	team := xrt.NewTeam(xrt.Config{Ranks: 4})
	res, err := Run(team, []Library{{Name: "t", Records: recs, InsertHint: 300}},
		Config{K: 21})
	if err != nil {
		t.Fatal(err)
	}
	var sum, top int64
	for _, st := range res.Metrics.Stages {
		if st.Depth == 0 {
			sum += st.VirtualNs
			top++
		}
	}
	for _, path := range []string{"io", "kmer-analysis", "contig-generation",
		"scaffolding", "scaffolding/merAligner", "gap-closing"} {
		if res.Metrics.Stage(path) == nil {
			t.Fatalf("missing stage span %q", path)
		}
		// gap-closing may be free when the assembly has no gaps; everything
		// else must consume time
		if path != "gap-closing" && res.Metrics.Time(path) <= 0 {
			t.Fatalf("stage %q has no virtual time", path)
		}
	}
	if top != 5 {
		t.Fatalf("%d top-level spans, want the five stages", top)
	}
	if res.Metrics.Time("scaffolding/merAligner") > res.Metrics.Time("scaffolding") {
		t.Fatal("merAligner sub-span exceeds its stage")
	}
	// The total is the team's clock, and the stages tile it.
	if res.Metrics.VirtualNs != sum {
		t.Fatalf("total %d != sum of stages %d", res.Metrics.VirtualNs, sum)
	}
	if res.Metrics.Time("no-such-stage") != 0 || (*metrics.Report)(nil).Time("io") != 0 {
		t.Fatal("absent span or nil report has a time")
	}
}

// TestStageTimesMatchParent: testdata/timings_parent.json holds every
// (name, virtual ns) of the per-stage timing list Result carried at
// commit 268b93e, the last to have one, for three run shapes at one rank
// (with more, traversal and depths times follow the Go scheduler) — except
// the k-mer analysis entries and the totals that sum them, moved by exactly
// the count-pass time the owner's screen stopped charging for screened-out
// records, meta's kmer-analysis-k33 and total again when pseudo-reads
// moved onto weighted super-k-mer records, and wheat's gap-closing-round2
// and total when a patch came to be billed only for the DP rows
// aligner.BestOverlap computes, every scaffolding entry and total when
// depth came to be measured for bubble candidates only, and meta's
// kmer-analysis-k33 and total when owners came to screen pseudo-read
// records before read records (fewer first sightings to replay), and every
// contig-generation entry and total when the graph came to be built in
// place, the traversal's quiescence tally to read a free-vertex count
// instead of a scan, and the contig-ID marking puts were deleted, and
// every k-mer analysis entry and total when the sketch pass came to scan
// a one-in-eight read sample and the cardinality sketch the segment scan,
// and again when the sketch left stage 1 (each owner's Bloom filters sized
// from the windows its bins carry), and wheat's gap-closing entries and
// total when gap closing's mini-graph came to hold one entry per canonical
// k-mer and its walks to stop looking up bases once they circle, and every
// k-mer analysis entry and total when owners came to count their bins
// exactly (no replay of first sightings, no finalize pass), and wheat's io,
// first scaffolding round and merAligner by 1 ns each when clocks came to
// count whole nanoseconds, each charge rounded once. Each is read back
// from Metrics exactly, and the run's total, which is the team's clock, is
// that list's sum of stages plus the checkpoint spans the sum left out.
func TestStageTimesMatchParent(t *testing.T) {
	var parent map[string][]struct {
		Name      string
		VirtualNs int64 `json:"virtual_ns"`
	}
	readGolden(t, "timings_parent.json", &parent)
	_, human := SimulatedHuman(7, 20000, 20)
	_, wheat := SimulatedWheat(7, 20000, 25)
	meta := SimulatedMetagenome(7, 30000, 6, 3000)
	for _, c := range []struct {
		name string
		libs []Library
		cfg  Config
	}{
		{"human", human, Config{K: 31, MinCount: 3}},
		{"wheat", wheat, Config{K: 31, MinCount: 3, ScaffoldRounds: 2, CkptDir: t.TempDir()}},
		{"meta", meta, Config{KmerLens: []int{21, 33}, ContigsOnly: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, err := Run(xrt.NewTeam(xrt.Config{Ranks: 1}), c.libs, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var ckpt int64 // checkpoint spans' time
			stages := 0
			for _, st := range res.Metrics.Stages {
				if st.Depth != 0 {
					continue
				}
				if strings.HasPrefix(st.Name, "checkpoint-") {
					ckpt += st.VirtualNs
				} else {
					stages++
				}
			}
			if (ckpt > 0) != (c.cfg.CkptDir != "") {
				t.Fatalf("checkpoint spans total %d ns with CkptDir %q", ckpt, c.cfg.CkptDir)
			}
			for _, want := range parent[c.name] {
				switch want.Name {
				case "total":
					if res.Metrics.VirtualNs != want.VirtualNs+ckpt {
						t.Errorf("total %d, parent %d + checkpoint spans %d", res.Metrics.VirtualNs, want.VirtualNs, ckpt)
					}
				case "merAligner":
					if got := int64(res.Metrics.Time("scaffolding/merAligner")); got != want.VirtualNs {
						t.Errorf("scaffolding/merAligner %d, parent %d", got, want.VirtualNs)
					}
				default:
					stages--
					if got := int64(res.Metrics.Time(want.Name)); got != want.VirtualNs {
						t.Errorf("%s %d, parent %d", want.Name, got, want.VirtualNs)
					}
				}
			}
			if stages != 0 {
				t.Errorf("%d stage spans have no entry in the parent's list", stages)
			}
		})
	}
}

func TestContigsOnlyMode(t *testing.T) {
	libs := SimulatedMetagenome(3, 60000, 10, 4000)
	team := xrt.NewTeam(xrt.Config{Ranks: 4})
	res, err := Run(team, libs, Config{K: 21, ContigsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scaffold != nil || res.Gapclose != nil {
		t.Fatal("scaffolding ran in contigs-only mode")
	}
	if len(res.FinalSeqs) == 0 {
		t.Fatal("no contigs emitted")
	}
}

func TestFromFastqFile(t *testing.T) {
	rng := xrt.NewPrng(4)
	g := genome.Random(rng, 12000)
	recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 30,
		Lib:      genome.Library{Name: "f", ReadLen: 100, InsertMean: 320, InsertSD: 20},
		Err:      genome.DefaultErrorModel(),
	})
	path := filepath.Join(t.TempDir(), "reads.fastq")
	if err := os.WriteFile(path, fastq.Format(recs), 0o644); err != nil {
		t.Fatal(err)
	}
	team := xrt.NewTeam(xrt.Config{Ranks: 5})
	res, err := Run(team, []Library{{Name: "f", Path: path, InsertHint: 320}},
		Config{K: 31, MinCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	v := place(t, res.FinalSeqs, g)
	if v.CoveredFrac < 0.93 {
		t.Fatalf("file-based run covers only %.3f", v.CoveredFrac)
	}
	if res.Metrics.Stage("io").Comm.IOBytes == 0 {
		t.Fatal("no I/O bytes charged for file input")
	}
}

func TestMissingFileErrors(t *testing.T) {
	team := xrt.NewTeam(xrt.Config{Ranks: 2})
	_, err := Run(team, []Library{{Name: "x", Path: "/nonexistent/reads.fastq"}},
		Config{K: 21})
	if err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestRepairPairs(t *testing.T) {
	mk := func(id string) fastq.Record {
		return fastq.Record{ID: []byte(id), Seq: []byte("A"), Qual: []byte("I")}
	}
	parts := [][]fastq.Record{
		{mk("p0/1"), mk("p0/2"), mk("p1/1")},
		{mk("p1/2"), mk("p2/1"), mk("p2/2")},
	}
	repairPairs(parts)
	if len(parts[0]) != 4 || len(parts[1]) != 2 {
		t.Fatalf("repair failed: %d/%d", len(parts[0]), len(parts[1]))
	}
	if string(parts[0][3].ID) != "p1/2" {
		t.Fatalf("wrong record moved: %s", parts[0][3].ID)
	}
}

func TestMultiLibraryWheat(t *testing.T) {
	g, libs := SimulatedWheat(5, 40000, 25)
	team := xrt.NewTeam(xrt.Config{Ranks: 6})
	res, err := Run(team, libs, Config{K: 31, MinCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.KAnalysis.HeavyHitters == 0 {
		t.Fatal("wheat dataset produced no heavy hitters")
	}
	// Repeats collapse to one contig per family, so only one copy of each
	// repeat region is covered; the bar reflects unique sequence plus one
	// copy per family.
	v := place(t, res.FinalSeqs, g)
	if v.CoveredFrac < 0.30 {
		t.Fatalf("wheat assembly covers only %.3f (repetitive, but too low)", v.CoveredFrac)
	}
	if v.IdentityFrac < 0.99 {
		t.Fatalf("wheat assembly identity %.4f too low", v.IdentityFrac)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	rng := xrt.NewPrng(6)
	g := genome.Random(rng, 10000)
	recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 25,
		Lib:      genome.Library{Name: "d", ReadLen: 100, InsertMean: 300, InsertSD: 20},
	})
	run := func() string {
		team := xrt.NewTeam(xrt.Config{Ranks: 4})
		res, err := Run(team, []Library{{Name: "d", Records: recs, InsertHint: 300}},
			Config{K: 21})
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, s := range res.FinalSeqs {
			out += string(s) + "|"
		}
		return out
	}
	if run() != run() {
		t.Fatal("pipeline output not deterministic")
	}
}

func TestMultiRoundScaffolding(t *testing.T) {
	// a dataset whose long-insert library can only be exploited once the
	// short-insert round has built intermediate scaffolds
	rng := xrt.NewPrng(21)
	g := genome.Random(rng, 40000)
	short, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 25,
		Lib:      genome.Library{Name: "pe300", ReadLen: 100, InsertMean: 300, InsertSD: 20},
		Err:      genome.DefaultErrorModel(),
	})
	long, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 8,
		Lib:      genome.Library{Name: "mp3k", ReadLen: 100, InsertMean: 3000, InsertSD: 200},
		Err:      genome.DefaultErrorModel(),
	})
	libs := []Library{
		{Name: "pe300", Records: short, InsertHint: 300},
		{Name: "mp3k", Records: long, InsertHint: 3000},
	}
	run := func(rounds int) *Result {
		team := xrt.NewTeam(xrt.Config{Ranks: 6})
		res, err := Run(team, libs, Config{K: 31, MinCount: 3, ScaffoldRounds: rounds})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(1)
	two := run(2)
	s1 := stats.Compute(one.FinalSeqs)
	s2 := stats.Compute(two.FinalSeqs)
	if s2.Sequences > s1.Sequences {
		t.Fatalf("round 2 increased scaffold count: %d -> %d", s1.Sequences, s2.Sequences)
	}
	if s2.N50 < s1.N50 {
		t.Fatalf("round 2 reduced N50: %d -> %d", s1.N50, s2.N50)
	}
	if two.Metrics.Time("scaffolding-round2") <= 0 {
		t.Fatal("round-2 timing not recorded")
	}
	// quality must not degrade
	v := place(t, two.FinalSeqs, g)
	if v.IdentityFrac < 0.999 || v.Misassemblies > 0 {
		t.Fatalf("multi-round degraded quality: %+v", v)
	}
}

func TestFromSeqDBFile(t *testing.T) {
	rng := xrt.NewPrng(30)
	g := genome.Random(rng, 12000)
	recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 30,
		Lib:      genome.Library{Name: "s", ReadLen: 100, InsertMean: 320, InsertSD: 20},
		Err:      genome.DefaultErrorModel(),
	})
	path := filepath.Join(t.TempDir(), "reads.seqdb")
	if err := seqdb.WriteFile(path, recs); err != nil {
		t.Fatal(err)
	}
	file := []Library{{Name: "s", Path: path, InsertHint: 320}}

	// 3 600 reads fill 4 blocks, yet io gives each of 5 ranks its share
	// of pairs
	env := &stageEnv{team: xrt.NewTeam(xrt.Config{Ranks: 5}), libs: file, res: &Result{}}
	if err := runIO(env); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 0, 5)
	for _, part := range env.readLibs[0].ReadsByRank {
		counts = append(counts, len(part))
	}
	if slices.Max(counts)-slices.Min(counts) > 2 {
		t.Fatalf("per-rank read counts %v differ by more than one pair", counts)
	}

	res, err := Run(xrt.NewTeam(xrt.Config{Ranks: 5}), file, Config{K: 31, MinCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	v := place(t, res.FinalSeqs, g)
	if v.CoveredFrac < 0.93 {
		t.Fatalf("seqdb-based run covers only %.3f", v.CoveredFrac)
	}
	if res.Metrics.Stage("io").Comm.IOBytes == 0 {
		t.Fatal("no I/O bytes charged")
	}

	// the contigs do not depend on where the reads came from
	cfg := Config{K: 31, MinCount: 3, ContigsOnly: true}
	fromFile, err := Run(xrt.NewTeam(xrt.Config{Ranks: 5}), file, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inMemory, err := Run(xrt.NewTeam(xrt.Config{Ranks: 5}),
		[]Library{{Name: "s", Records: recs, InsertHint: 320}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(fromFile.FinalSeqs, inMemory.FinalSeqs, bytes.Equal) {
		t.Fatalf("contigs from the file (%d) differ from the same records in memory (%d)",
			len(fromFile.FinalSeqs), len(inMemory.FinalSeqs))
	}
}

func TestLargeKFullPipeline(t *testing.T) {
	// k=51 is the paper's wheat k-mer length and exercises the two-word
	// packed k-mer representation through every stage
	rng := xrt.NewPrng(40)
	g := genome.Random(rng, 20000)
	recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 30,
		Lib:      genome.Library{Name: "k51", ReadLen: 150, InsertMean: 400, InsertSD: 25},
		Err:      genome.DefaultErrorModel(),
	})
	team := xrt.NewTeam(xrt.Config{Ranks: 6})
	res, err := Run(team, []Library{{Name: "k51", Records: recs, InsertHint: 400}},
		Config{K: 51, MinCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	v := place(t, res.FinalSeqs, g)
	if v.CoveredFrac < 0.93 || v.IdentityFrac < 0.999 {
		t.Fatalf("k=51 assembly poor: %+v", v)
	}
	if v.Misassemblies > 0 {
		t.Fatalf("k=51: %d misassemblies", v.Misassemblies)
	}
}

// spanRecords returns the team's span records whose path passes keep,
// with WallNs, the one field that is not a function of the input, zeroed.
func spanRecords(team *xrt.Team, keep func(path string) bool) []xrt.SpanRecord {
	var out []xrt.SpanRecord
	for _, sp := range team.Spans() {
		if keep(sp.Path) {
			rec := *sp
			rec.WallNs = 0
			out = append(out, rec)
		}
	}
	return out
}

// TestStageIgnoresStartClock: what a stage does and reports is a function
// of its input, not of the clock it starts at. The same run, started after
// rank 0 was charged 0, 1 µs, 1 ms, 230 ms or 230 ms and a fraction of a
// nanosecond, records equal spans — virtual times, every rank's work and
// comm, communication statistics and counters — traversal's virtual-time
// order included.
func TestStageIgnoresStartClock(t *testing.T) {
	_, libs := SimulatedHuman(7, 15000, 20)
	var first []xrt.SpanRecord
	for _, off := range []float64{0, 1e3, 1e6, 230e6, 230e6 + 0.37} {
		team := xrt.NewTeam(xrt.Config{Ranks: 16, RanksPerNode: 4})
		team.Run(func(r *xrt.Rank) {
			if r.ID == 0 {
				r.Charge(off)
			}
		})
		if _, err := Run(team, libs, Config{K: 31, MinCount: 3}); err != nil {
			t.Fatal(err)
		}
		recs := spanRecords(team, func(string) bool { return true })
		if first == nil {
			first = recs
			continue
		}
		if len(recs) != len(first) {
			t.Fatalf("start %.2f ns: %d spans, %d from clock 0", off, len(recs), len(first))
		}
		for i := range recs {
			if !reflect.DeepEqual(recs[i], first[i]) {
				t.Errorf("start %.2f ns: span %s differs from the run started at 0", off, recs[i].Path)
			}
		}
	}
}
