package hipmer

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// validate is Result.Validate pinned to testdata/validate_parent.json:
// Placed and Unplaced on the calling test's assembly as package stats'
// validator, the second reference engine the tree had until commit
// 268b93e, counted them.
func validate(t *testing.T, res *Result, ref []byte) *VerifyReport {
	t.Helper()
	b, err := os.ReadFile("testdata/validate_parent.json")
	if err != nil {
		t.Fatal(err)
	}
	var parent map[string]struct{ Placed, Unplaced int }
	if err := json.Unmarshal(b, &parent); err != nil {
		t.Fatal(err)
	}
	want, ok := parent[t.Name()]
	if !ok {
		t.Fatalf("no parent placement recorded for %s", t.Name())
	}
	v := res.Validate(ref)
	if v.Placed != want.Placed || v.Unplaced != want.Unplaced {
		t.Fatalf("placed %d / unplaced %d, parent engine %d / %d",
			v.Placed, v.Unplaced, want.Placed, want.Unplaced)
	}
	return v
}

func TestAssembleInMemory(t *testing.T) {
	g := RandomGenome(1, 20000)
	lib := SimReads(2, g, 30, 100, 350, 25)
	res, err := Assemble([]Library{lib}, Options{K: 31, MinCount: 3, Ranks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalLen < 18000 {
		t.Fatalf("assembled only %d bases of a 20k genome", res.Stats.TotalLen)
	}
	v := validate(t, res, g)
	if v.CoveredFrac < 0.95 || v.IdentityFrac < 0.999 {
		t.Fatalf("poor assembly: %+v", v)
	}
	if res.Metrics.VirtualNs <= 0 || res.Metrics.Time("contig-generation") <= 0 {
		t.Fatal("no stage times in Metrics")
	}
}

func TestAssembleRejectsEvenK(t *testing.T) {
	if _, err := Assemble(nil, Options{K: 30}); err == nil {
		t.Fatal("even k accepted")
	}
}

func TestHumanLikeDiploid(t *testing.T) {
	ref, lib := SimHumanLike(3, 25000, 35)
	res, err := Assemble([]Library{lib}, Options{K: 31, MinCount: 4, Ranks: 8})
	if err != nil {
		t.Fatal(err)
	}
	v := validate(t, res, ref)
	if v.CoveredFrac < 0.7 {
		t.Fatalf("diploid assembly covers only %.3f", v.CoveredFrac)
	}
}

func TestWheatLikeHeavyHitters(t *testing.T) {
	_, libs := SimWheatLike(4, 40000, 25)
	res, err := Assemble(libs, Options{K: 31, MinCount: 3, Ranks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.HeavyHitters == 0 {
		t.Fatal("wheat-like data produced no heavy hitters")
	}
}

func TestMetagenomeContigsOnly(t *testing.T) {
	lib := SimMetagenome(5, 50000, 10, 5000)
	res, err := Assemble([]Library{lib}, Options{K: 21, Ranks: 8, ContigsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ContigCount == 0 || len(res.Scaffolds) == 0 {
		t.Fatal("no contigs from metagenome")
	}
	if res.Gaps != 0 {
		t.Fatal("gap closing should not run in contigs-only mode")
	}
}

func TestWriteFastaAndFastq(t *testing.T) {
	g := RandomGenome(10, 5000)
	lib := SimReads(11, g, 10, 100, 300, 20)
	var fq bytes.Buffer
	if err := WriteFastq(&fq, lib); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(fq.String(), "@") {
		t.Fatal("not FASTQ output")
	}
	res, err := Assemble([]Library{lib}, Options{K: 21, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	var fa bytes.Buffer
	if err := res.WriteFasta(&fa); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(fa.String(), ">scaffold_1") {
		t.Fatalf("bad fasta: %.60s", fa.String())
	}
}

func TestDefaultsApplied(t *testing.T) {
	g := RandomGenome(12, 8000)
	lib := SimReads(13, g, 20, 100, 300, 20)
	res, err := Assemble([]Library{lib}, Options{}) // all defaults
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scaffolds) == 0 {
		t.Fatal("default options produced nothing")
	}
}
