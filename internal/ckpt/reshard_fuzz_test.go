// FuzzReshardDecode lives in an external test package so its seed
// corpus can come from real checkpoints: it runs tiny single-k and
// multi-k pipelines (package pipeline imports ckpt, so an internal test
// would cycle) and feeds every stage payload they wrote to the
// re-sharding decoders under arbitrary target rank counts.
package ckpt_test

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hipmer/internal/ckpt"
	"hipmer/internal/genome"
	"hipmer/internal/pipeline"
	"hipmer/internal/xrt"
)

// stagePayload is one stage's checkpoint payload of a real run.
type stagePayload struct {
	name string
	b    []byte
}

// realStages checkpoints a tiny single-k pipeline and a tiny multi-k
// (round-tagged) pipeline at 3 ranks and returns every stage payload
// written, in stage order, cached across tests and fuzz workers. Failures
// just shrink the corpus — the fuzz targets still run on the synthetic
// seeds.
var realStages = sync.OnceValue(func() []stagePayload {
	rng := xrt.NewPrng(61)
	g := genome.Random(rng, 6000)
	recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 15,
		Lib:      genome.Library{Name: "fz", ReadLen: 100, InsertMean: 300, InsertSD: 20},
		Err:      genome.DefaultErrorModel(),
	})
	singleLibs := []pipeline.Library{{Name: "fz", Records: recs, InsertHint: 300}}
	_, multiLibs := pipeline.SimulatedMetagenomeRefs(62, 8000, 3, 1200)

	var payloads []stagePayload
	for _, run := range []struct {
		libs []pipeline.Library
		cfg  pipeline.Config
	}{
		{singleLibs, pipeline.Config{K: 21, MinCount: 2}},
		{multiLibs, pipeline.Config{KmerLens: []int{21, 33}, MinCount: 2, ContigsOnly: true}},
	} {
		dir, err := os.MkdirTemp("", "reshard-fuzz-corpus")
		if err != nil {
			continue
		}
		run.cfg.CkptDir = dir
		if _, err := pipeline.Run(team3(), run.libs, run.cfg); err == nil {
			// The run's fingerprint is whatever it recorded; reading it
			// back lets Resume open the store it just wrote.
			if mb, err := os.ReadFile(filepath.Join(dir, ckpt.ManifestName)); err == nil {
				if m, err := ckpt.ParseManifest(mb); err == nil {
					if store, err := ckpt.Resume(dir, m.Fingerprint); err == nil {
						for _, e := range store.Stages() {
							if b, err := store.ReadStage(e.Name); err == nil {
								payloads = append(payloads, stagePayload{e.Name, b})
							}
						}
					}
				}
			}
		}
		os.RemoveAll(dir)
	}
	return payloads
})

// FuzzReshardDecode: no stage payload — real or corrupt — may panic a
// re-sharding decoder under any src→target rank mapping; corrupt frames
// and unusable target rank counts must surface as errors.
func FuzzReshardDecode(f *testing.F) {
	for _, st := range realStages() {
		for _, dst := range []int{-1, 0, 1, 2, 3, 7} {
			f.Add(st.b, dst)
		}
	}
	f.Add([]byte{}, 1)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, 4)
	// Quarantine-shaped corpus: the storage-damage forms Scrub moves
	// aside — torn prefixes and single-bit flips of real payloads — so
	// the decoders are fuzzed from exactly what a damaged directory holds.
	for _, st := range realStages() {
		b := st.b
		if len(b) >= 2 {
			f.Add(b[:len(b)/2:len(b)/2], 4)
		}
		flipped := append([]byte(nil), b...)
		flipped[len(flipped)/2] ^= 0x04
		f.Add(flipped, 4)
	}

	f.Fuzz(func(t *testing.T, b []byte, dst int) {
		if res, err := ckpt.DecodeContigStageReshard(b, dst); err == nil {
			if res == nil {
				t.Fatal("contig reshard: nil result with nil error")
			}
			if dst < 1 {
				t.Fatalf("contig reshard accepted %d target ranks", dst)
			}
		}
		if res, _, err := ckpt.DecodeCleaningStageReshard(b, dst); err == nil {
			if res == nil {
				t.Fatal("cleaning reshard: nil result with nil error")
			}
			if dst < 1 {
				t.Fatalf("cleaning reshard accepted %d target ranks", dst)
			}
		}
		if res, src, err := ckpt.DecodeScaffoldStageAny(b); err == nil {
			if res == nil || src < 0 {
				t.Fatalf("scaffold decode: res=%v src=%d with nil error", res, src)
			}
			if err := ckpt.ReshardScaffoldContigs(res, dst); err == nil && dst < 1 {
				t.Fatalf("scaffold reshard accepted %d target ranks", dst)
			}
		}
		// The partition-free decoders must hold up on the same corpus.
		_, _, _ = ckpt.DecodeCarryStage(b)
		_, _ = ckpt.DecodeGapcloseStage(b)
	})
}

// FuzzKmerDecode: the k-mer stage decoder validates the placement
// parameters and the entry count before it sizes a table, so no payload —
// a real one, a torn one, a header promising entries that are not there —
// may panic it or yield a result without a table.
func FuzzKmerDecode(f *testing.F) {
	empty := kmerResult(team3(), 21, 0, nil)
	header := len(ckpt.EncodeKmerStage(empty, 21, 0))
	for _, st := range realStages() {
		if st.name == "kmer-analysis" {
			f.Add(st.b)
			f.Add(st.b[: len(st.b)/2 : len(st.b)/2])
			f.Add(st.b[:header:header])
		}
	}
	f.Add([]byte{})
	syn := syntheticPayloads()
	for _, name := range []string{"kmer", "kmer-minimizer", "kmer-empty", "contig"} {
		f.Add(syn[name])
	}
	team := team3()
	f.Fuzz(func(t *testing.T, b []byte) {
		if res, err := ckpt.DecodeKmerStage(team, b, 0); err == nil && (res == nil || res.Table == nil) {
			t.Fatal("nil result or table with nil error")
		}
	})
}
