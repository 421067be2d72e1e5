// Metamorphic properties of the assembler: transformations of the input
// that must not change the assembled canonical contig set. These live in
// an external test package because they drive the full pipeline, which
// itself imports verify.
package verify_test

import (
	"fmt"
	"reflect"
	"testing"

	"hipmer/internal/fastq"
	"hipmer/internal/kmer"
	"hipmer/internal/pipeline"
	"hipmer/internal/verify"
	"hipmer/internal/xrt"
)

// contigSet assembles libs in contigs-only mode at the given rank count
// and returns the canonical contig multiset.
func contigSet(t *testing.T, libs []pipeline.Library, ranks int) map[string]int {
	t.Helper()
	team := xrt.NewTeam(xrt.Config{Ranks: ranks, RanksPerNode: 4})
	res, err := pipeline.Run(team, libs, pipeline.Config{K: 21, MinCount: 3, ContigsOnly: true})
	if err != nil {
		t.Fatalf("pipeline at %d ranks: %v", ranks, err)
	}
	return verify.CanonicalSet(res.FinalSeqs)
}

// TestRankCountInvariance asserts R = 1, 4, 16 produce identical
// canonical contig sets on both evaluation datasets: partitioning the
// work differently must not change what is assembled.
func TestRankCountInvariance(t *testing.T) {
	type dataset struct {
		name string
		libs []pipeline.Library
	}
	_, human := pipeline.SimulatedHuman(100, 20000, 25)
	_, wheat := pipeline.SimulatedWheat(101, 15000, 22)
	datasets := []dataset{{"human", human}, {"wheat", wheat}}
	for _, ds := range datasets {
		t.Run(ds.name, func(t *testing.T) {
			base := contigSet(t, ds.libs, 1)
			if len(base) == 0 {
				t.Fatal("no contigs assembled")
			}
			for _, ranks := range []int{4, 16} {
				got := contigSet(t, ds.libs, ranks)
				if !verify.EqualSets(base, got) {
					t.Fatalf("contig set at %d ranks differs from 1 rank: %s",
						ranks, verify.DiffSets(base, got))
				}
			}
		})
	}
}

// rcLibs reverse-complements every read (reversing qualities to keep
// them aligned with the bases).
func rcLibs(libs []pipeline.Library) []pipeline.Library {
	out := make([]pipeline.Library, len(libs))
	for i, lib := range libs {
		out[i] = lib
		out[i].Records = make([]fastq.Record, len(lib.Records))
		for j, rec := range lib.Records {
			q := make([]byte, len(rec.Qual))
			for n := range rec.Qual {
				q[len(q)-1-n] = rec.Qual[n]
			}
			out[i].Records[j] = fastq.Record{ID: rec.ID, Seq: kmer.RevCompString(rec.Seq), Qual: q}
		}
	}
	return out
}

// TestReverseComplementInvariance asserts reverse-complementing every
// read leaves the canonical contig set unchanged: DNA has no canonical
// strand, and neither may the assembler.
func TestReverseComplementInvariance(t *testing.T) {
	_, libs := pipeline.SimulatedHuman(102, 18000, 25)
	base := contigSet(t, libs, 6)
	if len(base) == 0 {
		t.Fatal("no contigs assembled")
	}
	got := contigSet(t, rcLibs(libs), 6)
	if !verify.EqualSets(base, got) {
		t.Fatalf("reverse-complemented reads changed the assembly: %s",
			verify.DiffSets(base, got))
	}
}

// shuffleLibs deterministically permutes read pairs (mates stay
// adjacent and ordered).
func shuffleLibs(libs []pipeline.Library, seed int64) []pipeline.Library {
	rng := xrt.NewPrng(seed)
	out := make([]pipeline.Library, len(libs))
	for i, lib := range libs {
		out[i] = lib
		pairs := len(lib.Records) / 2
		perm := rng.Perm(pairs)
		out[i].Records = make([]fastq.Record, 0, len(lib.Records))
		for _, p := range perm {
			out[i].Records = append(out[i].Records, lib.Records[2*p], lib.Records[2*p+1])
		}
	}
	return out
}

// TestReadShuffleInvariance asserts the order reads arrive in — and
// therefore which rank processes which read — does not change the
// canonical contig set.
func TestReadShuffleInvariance(t *testing.T) {
	_, libs := pipeline.SimulatedHuman(103, 18000, 25)
	base := contigSet(t, libs, 6)
	if len(base) == 0 {
		t.Fatal("no contigs assembled")
	}
	for _, seed := range []int64{1, 2} {
		got := contigSet(t, shuffleLibs(libs, seed), 6)
		if !verify.EqualSets(base, got) {
			t.Fatalf("shuffle seed %d changed the assembly: %s",
				seed, verify.DiffSets(base, got))
		}
	}
}

// TestOracleOnFullPipeline runs the end-to-end pipeline with the oracle
// attached: the report must be clean against the simulated reference.
func TestOracleOnFullPipeline(t *testing.T) {
	ref, libs := pipeline.SimulatedHuman(104, 20000, 30)
	team := xrt.NewTeam(xrt.Config{Ranks: 6, RanksPerNode: 3})
	res, err := pipeline.Run(team, libs, pipeline.Config{
		K: 21, MinCount: 3,
		Verify: &verify.Options{Ref: ref},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verify == nil {
		t.Fatal("no report attached")
	}
	if !res.Verify.OK() {
		t.Fatalf("oracle failed on a real assembly: %s", res.Verify)
	}
	if res.Verify.ContigsChecked == 0 || res.Verify.Placed == 0 {
		t.Fatalf("oracle checked nothing: %s", res.Verify)
	}
	fmt.Println(res.Verify) // visible with -v: what a clean report looks like
}

// TestPlacementIgnoresMapOrder: on repeats and diploid bubbles several
// diagonals tie on votes, and the verdict must not depend on which of
// them a map iteration visits first — the same assembly checked twenty
// times yields the same report, field for field (offsets decide
// identity, coverage and the gap anchors).
func TestPlacementIgnoresMapOrder(t *testing.T) {
	href, human := pipeline.SimulatedHuman(7, 40000, 25)
	wref, wheat := pipeline.SimulatedWheat(7, 40000, 30)
	for _, c := range []struct {
		name string
		ref  []byte
		libs []pipeline.Library
	}{{"human", href, human}, {"wheat", wref, wheat}} {
		t.Run(c.name, func(t *testing.T) {
			res, err := pipeline.Run(xrt.NewTeam(xrt.Config{Ranks: 8}), c.libs, pipeline.Config{K: 31})
			if err != nil {
				t.Fatal(err)
			}
			check := func() *verify.Report {
				return verify.Check(verify.Input{Finals: res.FinalSeqs}, verify.Options{K: 31, Ref: c.ref})
			}
			first := check()
			for i := 1; i < 20; i++ {
				if rep := check(); !reflect.DeepEqual(rep, first) {
					t.Fatalf("check %d of one assembly differs:\n%s\n%s", i, first, rep)
				}
			}
		})
	}
}
