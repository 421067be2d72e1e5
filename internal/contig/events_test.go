package contig

import (
	"reflect"
	"runtime"
	"testing"

	"hipmer/internal/dht"
	"hipmer/internal/genome"
	"hipmer/internal/kanalysis"
	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

// TestContentionIsDeterministic targets the claim/link protocol: many
// ranks walk a graph with fork points (so walks collide and meet each
// other's claims). Claims resolve in virtual-time order, so under every
// perturbation seed and GOMAXPROCS the phase is the same phase — contigs,
// owners, outcome counters, virtual time, comm — and in each run every
// contig accounts for exactly len-k+1 UU k-mers and every UU k-mer lands
// in exactly one contig. Run with -race to also catch unsynchronized
// access in the goroutine phases around the event loop.
func TestContentionIsDeterministic(t *testing.T) {
	const k = 21
	rng := xrt.NewPrng(31)
	// shared segments create forks, so several walks meet in the middle
	shared := genome.Random(rng, 300)
	g1 := append(append(genome.Random(rng, 2000), shared...), genome.Random(rng, 2000)...)
	g2 := append(append(genome.Random(rng, 2000), shared...), genome.Random(rng, 2000)...)

	type outcome struct {
		Seqs                              [][]string // per rank, in order
		Claimed, Completed, Aborted, Rnds int64
		Traverse                          xrt.PhaseStats
		Stitch                            xrt.SpanRecord
	}
	run := func(perturbSeed int64) outcome {
		team := xrt.NewTeam(xrt.Config{
			Ranks:        24,
			RanksPerNode: 6,
			Inject:       xrt.Inject{PerturbSeed: perturbSeed},
		})
		kt := tableFromSeqs(team, [][]byte{g1, g2}, k)
		res, stitch := runSpanned(team, kt, k)
		out := outcome{Claimed: res.Claimed, Completed: res.Completed, Aborted: res.Aborted,
			Rnds: res.Rounds, Traverse: res.TraversePhase, Stitch: *stitch}
		out.Traverse.Wall, out.Stitch.WallNs = 0, 0
		covered := 0
		seen := make(map[kmer.Kmer]int)
		for _, cs := range res.Contigs {
			var seqs []string
			for _, c := range cs {
				seqs = append(seqs, string(c.Seq))
				covered += len(c.Seq) - k + 1
				kmer.ForEach(c.Seq, k, func(_ int, km kmer.Kmer) {
					canon, _ := km.Canonical(k)
					seen[canon]++
				})
			}
			out.Seqs = append(out.Seqs, seqs)
		}
		uu := 0
		res.Graph.RangeAll(func(km kmer.Kmer, _ Node) bool {
			uu++
			if seen[km] != 1 {
				t.Errorf("perturb seed %d: UU k-mer in %d contigs, want 1", perturbSeed, seen[km])
				return false
			}
			return true
		})
		if covered != uu {
			t.Fatalf("perturb seed %d: contigs account for %d k-mers, graph has %d", perturbSeed, covered, uu)
		}
		return out
	}

	base := run(0)
	if base.Completed < 3 {
		t.Fatalf("%d contigs, want >= 3 (fork should split)", base.Completed)
	}
	if linked := base.Stitch.Counters["walks_linked"]; linked == 0 || base.Aborted != 0 || base.Claimed != base.Completed {
		t.Fatalf("claims %d, completed %d, linked %d, aborts %d: want links, no aborts and claims = completed",
			base.Claimed, base.Completed, linked, base.Aborted)
	}
	for i, seed := range []int64{1, 2, 3, 4} {
		procs := runtime.GOMAXPROCS(1 + 3*(i%2))
		got := run(seed)
		runtime.GOMAXPROCS(procs)
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("perturb seed %d: traversal differs from the unperturbed run:\n%+v\nvs\n%+v",
				seed, got.Traverse, base.Traverse)
		}
	}
}

// runSpanned is Run inside a span, so that the traversal's counters are
// kept; it returns the result and the stitch span.
func runSpanned(team *xrt.Team, kt *dht.Table[kmer.Kmer, kanalysis.KmerData], k int) (*Result, *xrt.SpanRecord) {
	team.BeginSpan("contig-generation")
	res := Run(team, kt, Options{K: k})
	team.EndSpan()
	for _, s := range team.Spans() {
		if s.Path == "contig-generation/traverse/stitch" {
			return res, s
		}
	}
	panic("no stitch span")
}

// TestSplitChainStitches drives the traversal by hand on a two-rank chain:
// rank 0 owns two vertices at one end and starts first, rank 1 owns the
// rest and seeds its own walks into the chain. No walk gives a claim back,
// so the chain is walked as several fragments that meet at links, and the
// stitch must join them into the contig one rank walks alone.
func TestSplitChainStitches(t *testing.T) {
	const k = 21
	g := genome.Random(xrt.NewPrng(77), 400)
	team := xrt.NewTeam(xrt.Config{Ranks: 2, RanksPerNode: 1})
	kt := tableFromSeqs(team, [][]byte{g}, k)

	// the graph Run would build, placed by hand
	first, _ := kmer.FromString(string(g[1 : 1+k])).Canonical(k)
	second, _ := kmer.FromString(string(g[2 : 2+k])).Canonical(k)
	onZero := map[uint64]bool{graphHash(first): true, graphHash(second): true}
	graph := dht.New[kmer.Kmer, Node](team, dht.Options[kmer.Kmer]{
		Hash: graphHash,
		Place: func(h uint64) int {
			if onZero[h] {
				return 0
			}
			return 1
		},
	}, nil)
	team.Run(func(r *xrt.Rank) {
		kt.LocalRange(r, func(km kmer.Kmer, d kanalysis.KmerData) bool {
			if d.IsUU() {
				graph.Put(r, km, Node{ExtL: d.ExtL, ExtR: d.ExtR, Count: d.Count})
			}
			return true
		})
		graph.Flush(r)
		r.Barrier()
	})

	res := &Result{Graph: graph}
	tr := newTraverser(team, res, kt, k)
	team.RunEvents(tr.step)
	frags := len(tr.walkers[0].frags) + len(tr.walkers[1].frags)
	linked := tr.stitch(team)
	if frags < 2 || linked != int64(frags) {
		t.Fatalf("%d fragments, %d linked: want the chain cut into several, every one stitched", frags, linked)
	}
	if res.Aborted != 0 || res.Claimed != res.Completed {
		t.Fatalf("claims %d, completed %d, aborts %d: want claims = completed and no aborts",
			res.Claimed, res.Completed, res.Aborted)
	}
	got := append(tr.walkers[0].out, tr.walkers[1].out...)
	one := xrt.NewTeam(xrt.Config{Ranks: 1})
	want := Run(one, tableFromSeqs(one, [][]byte{g}, k), Options{K: k}).All()
	if len(got) != 1 || len(want) != 1 {
		t.Fatalf("stitched %d contigs, want the one contig the 1-rank run walks", len(got))
	}
	if got[0].ID = want[0].ID; !reflect.DeepEqual(*got[0], *want[0]) {
		t.Fatalf("stitched %+v, the 1-rank run walks %+v", *got[0], *want[0])
	}
	if canonSeq(got[0].Seq) != canonSeq(g[1:len(g)-1]) {
		t.Fatal("the stitched contig is not the whole chain")
	}
}
