package ckpt_test

import (
	"runtime"
	"testing"

	"hipmer/internal/ckpt"
	"hipmer/internal/contig"
	"hipmer/internal/genome"
	"hipmer/internal/kanalysis"
	"hipmer/internal/pipeline"
	"hipmer/internal/xrt"
)

// assembled runs a small single-k assembly at 4 ranks (so every per-rank
// list of every stage result has several partitions) and returns it.
func assembled(tb testing.TB, genomeLen int, cfg pipeline.Config) *pipeline.Result {
	tb.Helper()
	rng := xrt.NewPrng(41)
	recs, _ := genome.SimulatePairs(rng, genome.HumanLike(rng, genomeLen), genome.SimOptions{
		Coverage: 25,
		Lib:      genome.Library{Name: "enc", ReadLen: 100, InsertMean: 300, InsertSD: 20},
		Err:      genome.DefaultErrorModel(),
	})
	team := xrt.NewTeam(xrt.Config{Ranks: 4, RanksPerNode: 2, Seed: 11})
	res, err := pipeline.Run(team, []pipeline.Library{{Name: "enc", Records: recs, InsertHint: 300}}, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestEncodeStagesAllocateOnce: every stage encoder works out its
// payload's length before writing it, so it allocates the payload and
// next to nothing else — no growth steps, no copy of the result on the
// side — and the buffer it returns is exactly full.
func TestEncodeStagesAllocateOnce(t *testing.T) {
	const k = 21
	res := assembled(t, 12000, pipeline.Config{K: k, MinCount: 2})
	m := kanalysis.EffectiveMinimizerLen(k, 0, false)
	for _, st := range []struct {
		name   string
		encode func() []byte
	}{
		{"kmer-analysis", func() []byte { return ckpt.EncodeKmerStage(res.KAnalysis, k, m) }},
		{"contig-generation", func() []byte { return ckpt.EncodeContigStage(res.Contigs) }},
		{"cleaning", func() []byte { return ckpt.EncodeCleaningStage(res.Contigs, contig.CleanStats{Survivors: 1}) }},
		{"carry", func() []byte { return ckpt.EncodeCarryStage(res.Contigs.All(), contig.MergeStats{Total: 1}) }},
		{"scaffolding", func() []byte { return ckpt.EncodeScaffoldStage(res.Scaffold) }},
		{"gap-closing", func() []byte { return ckpt.EncodeGapcloseStage(res.Gapclose) }},
	} {
		var payload []byte
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		payload = st.encode()
		runtime.ReadMemStats(&after)
		if len(payload) < 1000 {
			t.Fatalf("%s: a %d-byte payload says nothing about growth", st.name, len(payload))
		}
		if cap(payload) != len(payload) {
			t.Errorf("%s: %d-byte payload in a %d-byte buffer: the size function and the encoder disagree",
				st.name, len(payload), cap(payload))
		}
		// 10 % for the allocator's size classes, 4 KiB for what a call
		// allocates besides (the boxed sort argument, a page of rounding).
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(payload))*11/10+4096; got > limit {
			t.Errorf("%s: allocated %d bytes for a %d-byte payload (limit %d)", st.name, got, len(payload), limit)
		}
	}
}

// BenchmarkEncodeKmerStage serializes the k-mer table of a 40 kbp
// human-like assembly: the largest payload of a checkpointed run.
func BenchmarkEncodeKmerStage(b *testing.B) {
	const k = 31
	res := assembled(b, 40000, pipeline.Config{K: k, MinCount: 2, ContigsOnly: true})
	m := kanalysis.EffectiveMinimizerLen(k, 0, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.SetBytes(int64(len(ckpt.EncodeKmerStage(res.KAnalysis, k, m))))
	}
}

// BenchmarkEncodeScaffoldStage serializes the scaffolding result of the
// same assembly: the payload with the most records (one list per read).
func BenchmarkEncodeScaffoldStage(b *testing.B) {
	res := assembled(b, 40000, pipeline.Config{K: 31, MinCount: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.SetBytes(int64(len(ckpt.EncodeScaffoldStage(res.Scaffold))))
	}
}

// BenchmarkDecodeScaffoldStage reads that payload back.
func BenchmarkDecodeScaffoldStage(b *testing.B) {
	payload := ckpt.EncodeScaffoldStage(assembled(b, 40000, pipeline.Config{K: 31, MinCount: 2}).Scaffold)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ckpt.DecodeScaffoldStageAny(payload); err != nil {
			b.Fatal(err)
		}
	}
}
