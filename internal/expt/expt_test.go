package expt

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"hipmer/internal/pipeline"
	"hipmer/internal/verify"
	"hipmer/internal/xrt"
)

var update = flag.Bool("update", false, "rewrite testdata/exhibits_tiny/*.txt and EXPERIMENTS.md's measured blocks from what this run computes")

// golden holds the text a shape test has just computed to the committed
// testdata/exhibits_tiny/<name>.txt: every printed digit is a function of
// the input, so any difference is a changed charge, not noise.
func golden(t *testing.T, name, text string) {
	t.Helper()
	path := filepath.Join("testdata", "exhibits_tiny", name+".txt")
	if *update {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if text != string(want) {
		t.Errorf("%s differs from %s (regenerate with -update if the change is intended)\ngot:\n%swant:\n%s", name, path, text, want)
	}
}

// tinyScale keeps the experiment suite fast enough for unit testing while
// preserving every qualitative effect.
func tinyScale() Scale {
	return Scale{
		Cores:           []int{8, 16, 32},
		RanksPerNode:    4,
		Seed:            7,
		K:               21,
		HumanLen:        30000,
		HumanCov:        25,
		WheatLen:        40000,
		WheatCov:        20,
		MetaLen:         40000,
		MetaSpecies:     12,
		MetaPairs:       6000,
		OracleFragments: 96,
		IOSatCores:      12,
		Fig6WheatLen:    90000,
	}
}

func TestFig6ShapeHeavyHittersWin(t *testing.T) {
	skipIfShort(t)
	sc := tinyScale()
	rows, text := Fig6(sc)
	if len(rows) != len(sc.Cores) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.HeavyHitters == 0 {
			t.Fatalf("no heavy hitters identified at %d cores", r.Cores)
		}
		if r.HeavyHitSec >= r.DefaultSec {
			t.Fatalf("HH slower at %d cores: %.3f vs %.3f",
				r.Cores, r.HeavyHitSec, r.DefaultSec)
		}
	}
	// the default version's advantage gap should widen with concurrency
	// (comm fraction grows), as in the paper (2.4x at the top end)
	first := rows[0].DefaultSec / rows[0].HeavyHitSec
	last := rows[len(rows)-1].DefaultSec / rows[len(rows)-1].HeavyHitSec
	if last < first {
		t.Logf("note: HH advantage did not widen (%.2fx -> %.2fx)", first, last)
	}
	golden(t, "fig6", text)
}

func TestTables12Shape(t *testing.T) {
	skipIfShort(t)
	sc := tinyScale()
	rows, text := Tables12(sc)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		// Every column is a function of the input (the traversal resolves
		// claims in virtual-time order), so the paper's shapes are asserted
		// outright: the 4x vector misplaces fewer k-mers than the 1x one,
		// both oracles cut the off-node share and speed the traversal up,
		// and the larger vector does no worse on either.
		if r.O1Collisions == 0 || r.O4Collisions >= r.O1Collisions {
			t.Fatalf("oracle-4 vector collides no less than oracle-1: %d vs %d",
				r.O4Collisions, r.O1Collisions)
		}
		if r.OffPctO1 >= r.OffPctNo {
			t.Fatalf("oracle-1 did not reduce off-node lookups: %.1f%% vs %.1f%%",
				r.OffPctO1, r.OffPctNo)
		}
		if r.OffPctO4 > r.OffPctO1 {
			t.Fatalf("oracle-4 off-node %.1f%% above oracle-1 %.1f%%",
				r.OffPctO4, r.OffPctO1)
		}
		if r.ReductionO4 < 30 {
			t.Fatalf("oracle-4 off-node reduction only %.1f%%", r.ReductionO4)
		}
		if r.SpeedupO1 <= 1 || r.SpeedupO4 < r.SpeedupO1 {
			t.Fatalf("oracle speed-ups %.2fx / %.2fx: want > 1 and oracle-4 no slower than oracle-1",
				r.SpeedupO1, r.SpeedupO4)
		}
		if r.O4MemBytes != 4*r.O1MemBytes {
			t.Fatalf("oracle-4 memory should be 4x oracle-1: %d vs %d",
				r.O4MemBytes, r.O1MemBytes)
		}
	}
	golden(t, "table1", text)
}

func TestSweepScalesAndBreaksDown(t *testing.T) {
	skipIfShort(t)
	sc := tinyScale()
	rows, err := NewRunner(sc).RunSweep("human")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(sc.Cores) {
		t.Fatalf("got %d rows", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	if last.TotalSec >= first.TotalSec {
		t.Fatalf("no end-to-end strong scaling: %.3f -> %.3f", first.TotalSec, last.TotalSec)
	}
	for _, r := range rows {
		if r.ScafSec <= 0 || r.KmerSec <= 0 || r.ContigSec <= 0 {
			t.Fatalf("missing stage time: %+v", r)
		}
	}
	// §5.3: merAligner is a dominant scaffolding component. At tiny scale
	// the depth-lookup module is of comparable size, so require merAligner
	// to be within 2x of the rest rather than strictly larger.
	if first.AlignerSec*2 < first.RestScafSec {
		t.Fatalf("merAligner unexpectedly cheap at %d cores: %+v",
			first.Cores, first)
	}
	golden(t, "fig7-human", Fig7Format(rows))
	golden(t, "fig8-human", Fig8Format(rows))
}

func TestTable3MetagenomeScales(t *testing.T) {
	skipIfShort(t)
	sc := tinyScale()
	rows, text, err := NewRunner(sc).Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// doubling cores should reduce the non-I/O stages but not I/O
	if rows[1].KmerSec >= rows[0].KmerSec {
		t.Fatalf("k-mer analysis did not scale: %.3f -> %.3f",
			rows[0].KmerSec, rows[1].KmerSec)
	}
	if rows[1].IOSec < rows[0].IOSec*0.9 {
		t.Fatalf("saturated I/O should stay flat: %.3f -> %.3f",
			rows[0].IOSec, rows[1].IOSec)
	}
	golden(t, "table3", text)
}

func TestCompareShape(t *testing.T) {
	skipIfShort(t)
	sc := tinyScale()
	rows, text, err := Compare(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d assemblers", len(rows))
	}
	if rows[0].Name != "HipMer" {
		t.Fatalf("first row should be HipMer: %s", rows[0].Name)
	}
	for _, r := range rows[1:] {
		if r.VsHipMer <= 1.0 {
			t.Fatalf("%s should be slower than HipMer (%.2fx)", r.Name, r.VsHipMer)
		}
	}
	golden(t, "compare", text)
}

// TestCompareBaselines holds the §5.6 comparison on a 15 kbp human-like
// genome at 16 ranks: serial Meraculous well behind HipMer, most of all in
// scaffolding, both assemblies sound, and each derived row slower than
// HipMer. It also checks the derivation's premises: a contigs-only run
// records exactly HipMer's first three stages, and serial's io stage is
// one read of the whole input at single-stream bandwidth. The subtests
// share one HipMer run and one serial run.
func TestCompareBaselines(t *testing.T) {
	g, libs := pipeline.SimulatedHuman(1, 15000, 25)
	pcfg := pipeline.Config{K: 31, MinCount: 3}
	cfg := xrt.Config{Ranks: 16, RanksPerNode: 4}
	rows, hip, serial, err := runComparison(cfg, libs, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || rows[0].Name != "HipMer" || rows[1].Name != "Ray-like" ||
		rows[2].Name != "ABySS-like" || rows[3].Name != "Meraculous-serial" {
		t.Fatalf("rows %+v", rows)
	}

	t.Run("HipMerBeatsSerial", func(t *testing.T) {
		if rows[3].VsHipMer < 3 {
			t.Fatalf("HipMer speedup over serial only %.2fx at 16 ranks", rows[3].VsHipMer)
		}
		for _, res := range []*pipeline.Result{hip, serial} {
			// Alu-like repeats collapse, so ~12% of the reference is covered
			// by a single repeat copy
			if cov := verify.Place(res.FinalSeqs, g).CoveredFrac; cov < 0.78 {
				t.Fatalf("%d ranks cover only %.3f", res.Metrics.Ranks, cov)
			}
		}
	})

	t.Run("AbyssLikeScaffoldingDominates", func(t *testing.T) {
		if rows[2].VsHipMer <= 1 {
			t.Fatalf("ABySS-like should be slower than HipMer (%.2fx)", rows[2].VsHipMer)
		}
		scaffolding := func(r *pipeline.Result) time.Duration {
			return r.Metrics.Time("scaffolding") + r.Metrics.Time("gap-closing")
		}
		if scaffolding(serial).Seconds() < 2*scaffolding(hip).Seconds() {
			t.Fatalf("serial scaffolding (%v) should be well behind HipMer's (%v)",
				scaffolding(serial), scaffolding(hip))
		}
	})

	t.Run("RayLikeSlower", func(t *testing.T) {
		if rows[1].VsHipMer <= 1 {
			t.Fatalf("Ray-like should be slower than HipMer (%.2fx)", rows[1].VsHipMer)
		}
	})

	// ABySS-like's distributed part is HipMer's first three stages.
	t.Run("ContigsOnlyIsHipMersFirstStages", func(t *testing.T) {
		only := pcfg
		only.ContigsOnly = true
		contigs, err := pipeline.Run(xrt.NewTeam(cfg), libs, only)
		if err != nil {
			t.Fatal(err)
		}
		got, want := contigs.Metrics.ZeroWall(), hip.Metrics.ZeroWall()
		var top []string
		for _, st := range got.Stages {
			if st.Depth == 0 {
				top = append(top, st.Path)
			}
			if w := want.Stage(st.Path); !reflect.DeepEqual(&st, w) {
				t.Errorf("contigs-only %s differs from HipMer's:\n%+v\n%+v", st.Path, st, w)
			}
		}
		if fmt.Sprint(top) != "[io kmer-analysis contig-generation]" {
			t.Errorf("contigs-only stages %v", top)
		}
	})

	// Ray-like's serial read is serial's io stage.
	t.Run("SerialIOIsOneSingleStreamRead", func(t *testing.T) {
		var bytes int64
		for _, lib := range libs {
			for _, rec := range lib.Records {
				bytes += int64(len(rec.ID) + len(rec.Seq) + len(rec.Qual) + 6)
			}
		}
		c := xrt.DefaultCostModel()
		if got, want := serial.Metrics.Time("io"), time.Duration(c.IOLatencyNs+float64(bytes)/c.IORankBytesPerSec*1e9); got != want {
			t.Errorf("serial io %v, one single-stream read of %d bytes %v", got, bytes, want)
		}
	})
}

func TestAblationBloomReproducesMemorySaving(t *testing.T) {
	skipIfShort(t)
	sc := tinyScale()
	rows, text := AblationBloom(sc)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		// §3.1 claims up to 85%; error k-mers dominate a table admitting
		// every k-mer, so the exact count's saving must be substantial
		if r.PeakExact <= 0 || r.SavedPct < 40 {
			t.Fatalf("%s: the exact count peaks at %d of %d entries, saving only %.1f%%",
				r.Dataset, r.PeakExact, r.PeakAdmitAll, r.SavedPct)
		}
	}
	golden(t, "ablation-bloom", text)
}

func TestAblationAggStoresMonotone(t *testing.T) {
	skipIfShort(t)
	sc := tinyScale()
	rows, text := AblationAggStores(sc)
	if len(rows) < 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Msgs > rows[i-1].Msgs {
			t.Fatalf("messages grew with buffer size: %+v", rows)
		}
	}
	first, last := rows[0], rows[len(rows)-1]
	if first.Msgs < 20*last.Msgs {
		t.Fatalf("aggregation reduced messages only %dx", first.Msgs/max(last.Msgs, 1))
	}
	if last.TimeSec >= first.TimeSec {
		t.Fatalf("aggregation did not reduce time: %.4f vs %.4f", last.TimeSec, first.TimeSec)
	}
	golden(t, "ablation-aggstores", text)
}

func TestAblationOracleMemoryTradeoff(t *testing.T) {
	skipIfShort(t)
	sc := tinyScale()
	rows, text := AblationOracleMemory(sc)
	if rows[0].SlotsPerKmer != 0 {
		t.Fatal("first row should be the no-oracle baseline")
	}
	noOracle := rows[0].OffPct
	biggest := rows[len(rows)-1]
	if biggest.OffPct > noOracle/2 {
		t.Fatalf("largest oracle only reduced off-node from %.1f%% to %.1f%%",
			noOracle, biggest.OffPct)
	}
	// memory grows linearly with the multiplier
	if biggest.MemMB <= rows[1].MemMB {
		t.Fatal("memory did not grow with slots")
	}
	golden(t, "ablation-oracle", text)
}
