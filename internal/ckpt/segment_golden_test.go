package ckpt_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"hipmer/internal/ckpt"
	"hipmer/internal/genome"
	"hipmer/internal/pipeline"
	"hipmer/internal/xrt"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata/*.json digests from this tree's encoders")

// golden loads testdata/<name> into want; with -update-golden it rewrites
// the file from got instead and reports false (nothing to compare).
func golden(t *testing.T, name string, got, want any) bool {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return false
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, want); err != nil {
		t.Fatal(err)
	}
	return true
}

// segmentDigests assembles libs with checkpoints on and returns the sha256
// of every segment file the manifest lists, by stage name. One rank: the
// contig payloads carry the claim counters and per-rank lists of the
// speculative traversal, which follow the goroutine schedule on more than
// one.
func segmentDigests(t *testing.T, libs []pipeline.Library, cfg pipeline.Config) map[string]string {
	t.Helper()
	cfg.CkptDir = t.TempDir()
	team := xrt.NewTeam(xrt.Config{Ranks: 1, RanksPerNode: 1, Seed: 11})
	if _, err := pipeline.Run(team, libs, cfg); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(cfg.CkptDir, ckpt.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	man, err := ckpt.ParseManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(man.Stages))
	for _, e := range man.Stages {
		seg, err := os.ReadFile(filepath.Join(cfg.CkptDir, e.File))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(seg)
		out[e.Name] = hex.EncodeToString(sum[:])
	}
	return out
}

// TestSegmentBytesGolden pins the on-disk bytes of every stage segment of
// one single-k and one multi-k assembly. testdata/segments.json was
// generated at the commit before the stage encoders were given sized
// buffers and the store a reused frame, and should only ever be
// regenerated for an intended format change (-update-golden). One digest
// is younger: multi-k/kmer-analysis-k33 changed in its PeakEntries field
// (and CRC) when stage 1 began to screen read windows after all pseudo-read
// stores instead of in between, and in its header counters (SuperKmers,
// SuperKmerBases, CommBytesSaved, PeakEntries) when pseudo-reads moved onto
// weighted super-k-mer records; its table entries did not change. The
// scaffolding digest changed when the scaffolding payload's contigs lost
// their mean depth and termination metadata (hipmer-ckpt/v6), again
// when they lost PoppedOut (v7), and again when the payload's alignments
// became one placement per read (v9). Every kmer-analysis digest changed when
// the header gained the minimizer bins' weights (v7), and k33's
// PeakEntries once more when pseudo-read records came to be screened
// before read records. Every kmer-analysis digest changed again in its
// header counters, bin weights and PeakEntries when heavy hitters came to
// be found in a one-in-eight read sample (another heavy set splits other
// windows out of the records), and once more when the header lost the
// distinct estimate and PeakEntries fell with Bloom filters sized from
// each owner's windows (v8); their table entries did not change.
func TestSegmentBytesGolden(t *testing.T) {
	rng := xrt.NewPrng(21)
	g := genome.Random(rng, 12000)
	recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 25,
		Lib:      genome.Library{Name: "ck", ReadLen: 100, InsertMean: 300, InsertSD: 20},
		Err:      genome.DefaultErrorModel(),
	})
	_, meta := pipeline.SimulatedMetagenomeRefs(31, 24000, 8, 4000)
	got := map[string]map[string]string{
		"single-k": segmentDigests(t, []pipeline.Library{{Name: "ck", Records: recs, InsertHint: 300}},
			pipeline.Config{K: 21, MinCount: 2}),
		"multi-k": segmentDigests(t, meta,
			pipeline.Config{KmerLens: []int{21, 33}, MinCount: 2, ContigsOnly: true}),
	}
	var want map[string]map[string]string
	if !golden(t, "segments.json", got, &want) {
		return
	}
	for run, stages := range want {
		if len(got[run]) != len(stages) {
			t.Errorf("%s: %d segments, golden has %d", run, len(got[run]), len(stages))
		}
		for stage, sum := range stages {
			if got[run][stage] != sum {
				t.Errorf("%s/%s: segment sha256 %s, golden %s", run, stage, got[run][stage], sum)
			}
		}
	}
}
