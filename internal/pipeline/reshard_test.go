package pipeline

import (
	"fmt"
	"strings"
	"testing"

	"hipmer/internal/kanalysis"
	"hipmer/internal/kmer"
	"hipmer/internal/scaffold"
	"hipmer/internal/verify"
	"hipmer/internal/xrt"
)

// teamAt builds a team at rank count p with the same seed as ckTeam, so
// a checkpoint written by one fingerprints identically for the other
// (the rank geometry is deliberately outside the fingerprint).
func teamAt(p int) *xrt.Team {
	return xrt.NewTeam(xrt.Config{Ranks: p, RanksPerNode: 2, Seed: 11})
}

// kmerMultiset flattens the distributed k-mer table into its
// partition-independent content: k-mer → counts/extensions.
func kmerMultiset(res *Result) map[kmer.Kmer]kanalysis.KmerData {
	out := map[kmer.Kmer]kanalysis.KmerData{}
	res.KAnalysis.Table.RangeAll(func(k kmer.Kmer, v kanalysis.KmerData) bool {
		out[k] = v
		return true
	})
	return out
}

// contigSet flattens the contig partition into ID → sequence. IDs are
// content hashes, so the set is partition-independent.
func contigSet(res *Result) map[int64]string {
	out := map[int64]string{}
	for _, c := range res.Contigs.All() {
		out[c.ID] = string(c.Seq)
	}
	return out
}

// canonicalChain renders a scaffold as an orientation-independent
// string: the member walk forward and reversed (orientations flipped,
// gaps shifted one slot) describe the same chain, so the
// lexicographically smaller rendering is the canonical one.
func canonicalChain(sc *scaffold.Scaffold) string {
	n := len(sc.Members)
	fwd := make([]string, n)
	rev := make([]string, n)
	for i, m := range sc.Members {
		gap := 0
		if i > 0 {
			gap = m.GapBefore
		}
		fwd[i] = fmt.Sprintf("%d:%t:%d", m.ContigID, m.Flipped, gap)
	}
	for i := 0; i < n; i++ {
		m := sc.Members[n-1-i]
		gap := 0
		if i > 0 {
			gap = sc.Members[n-i].GapBefore
		}
		rev[i] = fmt.Sprintf("%d:%t:%d", m.ContigID, !m.Flipped, gap)
	}
	f, r := strings.Join(fwd, ";"), strings.Join(rev, ";")
	if r < f {
		return r
	}
	return f
}

// scaffoldChains collects the canonical chain multiset.
func scaffoldChains(res *Result) map[string]int {
	out := map[string]int{}
	for _, sc := range res.Scaffold.Scaffolds {
		out[canonicalChain(sc)]++
	}
	return out
}

func assertSameKmers(t *testing.T, label string, want, got map[kmer.Kmer]kanalysis.KmerData) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: k-mer table has %d entries, want %d", label, len(got), len(want))
	}
	for k, wv := range want {
		if gv, ok := got[k]; !ok || gv != wv {
			t.Fatalf("%s: k-mer %v = %+v, want %+v", label, k, gv, wv)
		}
	}
}

func assertSameContigs(t *testing.T, label string, want, got map[int64]string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d contigs, want %d", label, len(got), len(want))
	}
	for id, ws := range want {
		if gs, ok := got[id]; !ok || gs != ws {
			t.Fatalf("%s: contig %d mismatch (have %d bases, want %d)", label, id, len(gs), len(ws))
		}
	}
}

func assertSameChains(t *testing.T, label string, want, got map[string]int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d distinct chains, want %d", label, len(got), len(want))
	}
	for ch, n := range want {
		if got[ch] != n {
			t.Fatalf("%s: chain %q ×%d, want ×%d", label, ch, got[ch], n)
		}
	}
}

// TestReshardFullResume is the single-k metamorphic battery: checkpoint
// a full run at 4 ranks, then for each target rank count resume the
// whole pipeline from the checkpoint and compare every reconstructed
// global state — k-mer multiset, contig set, scaffold chains, final
// assembly — against an independent from-scratch run at that count.
// Partition invariance of the from-scratch pipeline is already pinned
// by the rank-invariance tests; this pins that re-sharding a foreign
// partition lands in the very same state.
func TestReshardFullResume(t *testing.T) {
	libs := smallLibs(41)
	cfg := Config{K: 21, MinCount: 2, CkptDir: t.TempDir()}
	if _, err := Run(ckTeam(), libs, cfg); err != nil {
		t.Fatal(err)
	}

	for _, p := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("ranks=%d", p), func(t *testing.T) {
			scratch, err := Run(teamAt(p), libs, Config{K: 21, MinCount: 2})
			if err != nil {
				t.Fatalf("from scratch at %d ranks: %v", p, err)
			}
			rcfg := cfg
			rcfg.Resume = true
			res, err := Run(teamAt(p), libs, rcfg)
			if err != nil {
				t.Fatalf("resume at %d ranks: %v", p, err)
			}
			assertSameKmers(t, "kmer table", kmerMultiset(scratch), kmerMultiset(res))
			assertSameContigs(t, "contigs", contigSet(scratch), contigSet(res))
			assertSameChains(t, "scaffolds", scaffoldChains(scratch), scaffoldChains(res))
			if !verify.EqualSets(verify.CanonicalSet(scratch.FinalSeqs), verify.CanonicalSet(res.FinalSeqs)) {
				t.Fatal("rescaled assembly differs from from-scratch run")
			}
			// The rescaled resume must actually rehydrate, not recompute.
			assertLoadSpan(t, res.Metrics, "checkpoint-load:kmer-analysis")
			assertLoadSpan(t, res.Metrics, "checkpoint-load:scaffolding")
			assertLoadSpan(t, res.Metrics, "checkpoint-load:gap-closing")
		})
	}
}

// TestReshardCrashResume crashes mid-pipeline at 4 ranks, then resumes
// at a smaller and a larger rank count: the partially-checkpointed
// state re-shards and the completed assembly matches a from-scratch run
// at the target count.
func TestReshardCrashResume(t *testing.T) {
	libs := smallLibs(42)
	for _, p := range []int{2, 8} {
		t.Run(fmt.Sprintf("ranks=%d", p), func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{K: 21, MinCount: 2, CkptDir: dir}
			if _, err := Run(armedTeam(xrt.Inject{FaultSeed: 5, FailStage: "scaffolding"}), libs, cfg); err == nil {
				t.Fatal("injected crash did not fire")
			}

			scratch, err := Run(teamAt(p), libs, Config{K: 21, MinCount: 2})
			if err != nil {
				t.Fatalf("from scratch at %d ranks: %v", p, err)
			}
			rcfg := Config{K: 21, MinCount: 2, CkptDir: dir, Resume: true}
			res, err := Run(teamAt(p), libs, rcfg)
			if err != nil {
				t.Fatalf("resume at %d ranks: %v", p, err)
			}
			if !verify.EqualSets(verify.CanonicalSet(scratch.FinalSeqs), verify.CanonicalSet(res.FinalSeqs)) {
				t.Fatal("crash + rescaled resume diverged from from-scratch run")
			}
			assertLoadSpan(t, res.Metrics, "checkpoint-load:contig-generation")
		})
	}
}

// TestReshardMixedPartitionDir pins that each payload carries its own
// source partition: a crash at 4 ranks leaves entries written at 4; the
// rescaled resume at
// 2 completes the run, appending scaffolding and gap-closing entries
// written at 2 into the same directory; a final resume back at 4 must
// load the mixed-partition directory (4-rank entries same-rank, 2-rank
// entries re-sharded) and still produce the 4-rank assembly.
func TestReshardMixedPartitionDir(t *testing.T) {
	libs := smallLibs(43)
	dir := t.TempDir()
	cfg := Config{K: 21, MinCount: 2, CkptDir: dir}
	if _, err := Run(armedTeam(xrt.Inject{FaultSeed: 5, FailStage: "scaffolding"}), libs, cfg); err == nil {
		t.Fatal("injected crash did not fire")
	}

	mid, err := Run(teamAt(2), libs, Config{K: 21, MinCount: 2, CkptDir: dir, Resume: true})
	if err != nil {
		t.Fatalf("rescaled resume at 2 ranks: %v", err)
	}

	base, err := Run(ckTeam(), libs, Config{K: 21, MinCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ckTeam(), libs, Config{K: 21, MinCount: 2, CkptDir: dir, Resume: true})
	if err != nil {
		t.Fatalf("resume at 4 ranks over mixed partitions: %v", err)
	}
	baseSet := verify.CanonicalSet(base.FinalSeqs)
	if !verify.EqualSets(baseSet, verify.CanonicalSet(mid.FinalSeqs)) {
		t.Fatal("2-rank completion diverged")
	}
	if !verify.EqualSets(baseSet, verify.CanonicalSet(res.FinalSeqs)) {
		t.Fatal("mixed-partition resume diverged")
	}
	assertLoadSpan(t, res.Metrics, "checkpoint-load:scaffolding")
	assertLoadSpan(t, res.Metrics, "checkpoint-load:gap-closing")
}

// TestReshardMultiK runs the iterative-k metagenome pipeline with
// checkpointing at 4 ranks and resumes the round-tagged stage ladder at
// other rank counts: contig set and final assembly match from-scratch.
func TestReshardMultiK(t *testing.T) {
	_, libs := metaLibs(44)
	cfg := multiKCfg()
	cfg.CkptDir = t.TempDir()
	if _, err := Run(ckTeam(), libs, cfg); err != nil {
		t.Fatal(err)
	}

	for _, p := range []int{2, 8} {
		t.Run(fmt.Sprintf("ranks=%d", p), func(t *testing.T) {
			scratch, err := Run(teamAt(p), libs, multiKCfg())
			if err != nil {
				t.Fatalf("from scratch at %d ranks: %v", p, err)
			}
			rcfg := cfg
			rcfg.Resume = true
			res, err := Run(teamAt(p), libs, rcfg)
			if err != nil {
				t.Fatalf("resume at %d ranks: %v", p, err)
			}
			assertSameContigs(t, "contigs", contigSet(scratch), contigSet(res))
			if !verify.EqualSets(verify.CanonicalSet(scratch.FinalSeqs), verify.CanonicalSet(res.FinalSeqs)) {
				t.Fatal("rescaled multi-k assembly differs from from-scratch run")
			}
			for _, name := range []string{"tip-clip-k21", "bubble-pop-k33", "pseudo-merge-k55"} {
				assertLoadSpan(t, res.Metrics, "checkpoint-load:"+name)
			}
		})
	}
}

// TestPairDealRoundTrip is the pure property check on the re-shard
// primitives: un-dealing a record partition and re-dealing it onto any
// target rank count is the identity on global order, and layouts no
// deal could have produced are rejected.
func TestPairDealRoundTrip(t *testing.T) {
	recLib := Library{Name: "mem"}
	pathLib := Library{Name: "file", Path: "reads.fastq"}

	deal := func(global []int, p int) ([][]int, []int) {
		parts := make([][]int, p)
		for j := 0; j+1 < len(global); j += 2 {
			r := (j / 2) % p
			parts[r] = append(parts[r], global[j], global[j+1])
		}
		counts := make([]int, p)
		for r := range parts {
			counts[r] = len(parts[r])
		}
		return parts, counts
	}

	for _, pairs := range []int{0, 1, 3, 7, 16, 31} {
		global := make([]int, 2*pairs)
		for i := range global {
			global[i] = i
		}
		for _, src := range []int{1, 2, 3, 5, 8} {
			parts, _ := deal(global, src)
			got, err := globalOrder(recLib, parts)
			if err != nil {
				t.Fatalf("pairs=%d src=%d: un-deal: %v", pairs, src, err)
			}
			if len(got) != len(global) {
				t.Fatalf("pairs=%d src=%d: un-deal lost records", pairs, src)
			}
			for i := range global {
				if got[i] != global[i] {
					t.Fatalf("pairs=%d src=%d: global[%d] = %d, want %d", pairs, src, i, got[i], global[i])
				}
			}
			for _, dst := range []int{1, 2, 4, 7} {
				wantParts, wantCounts := deal(global, dst)
				redealt, err := dealToPartition(recLib, got, wantCounts)
				if err != nil {
					t.Fatalf("pairs=%d src=%d dst=%d: re-deal: %v", pairs, src, dst, err)
				}
				for r := range wantParts {
					if len(redealt[r]) != len(wantParts[r]) {
						t.Fatalf("pairs=%d dst=%d: rank %d count mismatch", pairs, dst, r)
					}
					for i := range wantParts[r] {
						if redealt[r][i] != wantParts[r][i] {
							t.Fatalf("pairs=%d dst=%d: rank %d slot %d mismatch", pairs, dst, r, i)
						}
					}
				}
			}
		}
	}

	// Path libraries: concatenation is the global order and a sequential
	// split by target counts reproduces any byte-range partition.
	global := []int{0, 1, 2, 3, 4, 5, 6}
	parts, err := dealToPartition(pathLib, global, []int{3, 0, 4})
	if err != nil {
		t.Fatal(err)
	}
	back, err := globalOrder(pathLib, parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range global {
		if back[i] != global[i] {
			t.Fatalf("path round trip: slot %d = %d, want %d", i, back[i], global[i])
		}
	}

	// Invalid layouts must error, never panic.
	if _, err := globalFromPairDeal[int](nil); err == nil {
		t.Fatal("empty partition accepted")
	}
	if _, err := globalOrder(recLib, [][]int{{1, 2, 3}}); err == nil {
		t.Fatal("odd per-rank record count accepted")
	}
	if _, err := globalOrder(recLib, [][]int{{}, {1, 2}}); err == nil {
		t.Fatal("layout no deal produces accepted")
	}
	if _, err := dealToPartition(recLib, []int{1, 2, 3, 4}, []int{4, 2}); err == nil {
		t.Fatal("re-deal count mismatch accepted")
	}
	if _, err := dealToPartition(pathLib, global, []int{3, 3}); err == nil {
		t.Fatal("short path split accepted")
	}
	if _, err := dealToPartition(pathLib, global, []int{5, 5}); err == nil {
		t.Fatal("overlong path split accepted")
	}
}
