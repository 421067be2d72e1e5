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

// TestSplitChainStitches drives the traversal by hand on a two-rank chain
// whose owners alternate vertex by vertex, so that every run ends after one
// vertex and both ranks' walks are in the chain at once. No walk gives a
// claim back, so the chain is walked as several fragments that meet at
// links, and the stitch must join them into the contig one rank walks
// alone.
func TestSplitChainStitches(t *testing.T) {
	const k = 21
	g := genome.Random(xrt.NewPrng(77), 400)
	team := xrt.NewTeam(xrt.Config{Ranks: 2, RanksPerNode: 1})
	kt := tableFromSeqs(team, [][]byte{g}, k)

	// the graph Run would build, placed by hand: the chain's i-th vertex
	// on rank i mod 2
	owner := map[uint64]int{}
	for i := 0; i+k <= len(g); i++ {
		canon, _ := kmer.FromString(string(g[i : i+k])).Canonical(k)
		owner[graphHash(canon)] = i % 2
	}
	graph := dht.New[kmer.Kmer, Node](team, dht.Options[kmer.Kmer]{
		Hash:  graphHash,
		Place: func(h uint64) int { return owner[h] },
	}, nil)
	team.Run(func(r *xrt.Rank) {
		r.Ordered(func() {
			kt.LocalRange(r, func(km kmer.Kmer, d kanalysis.KmerData) bool {
				if d.IsUU() {
					graph.Put(r, km, Node{ExtL: d.ExtL, ExtR: d.ExtR, Count: d.Count})
				}
				return true
			})
			graph.Flush(r)
		})
		r.Barrier()
	})

	res := &Result{Graph: graph}
	tr := newTraverser(team, res, kt, k, false)
	team.RunEvents(tr.step)
	frags := len(tr.walkers[0].frags) + len(tr.walkers[1].frags)
	linked := tr.stitch(team)
	if len(tr.walkers[0].frags) == 0 || len(tr.walkers[1].frags) == 0 || linked != int64(frags) {
		t.Fatalf("fragments %d and %d, %d linked: want the chain cut by both ranks' walks, every fragment stitched",
			len(tr.walkers[0].frags), len(tr.walkers[1].frags), linked)
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

// TestTraversalOneExchangePerRun: on the co-located layout a walk asks an
// owner once per run of that owner's vertices, so the traversal's messages
// are bounded by the owner changes along the contigs it outputs plus a run
// ending at a link or a true end in each direction of each walk. Billing
// each vertex as its own lookup makes one message per remote vertex.
func TestTraversalOneExchangePerRun(t *testing.T) {
	const k = 21
	g := genome.HumanLike(xrt.NewPrng(12), 20000)
	for _, p := range []int{4, 24} {
		team := xrt.NewTeam(xrt.Config{Ranks: p, RanksPerNode: 2})
		res := Run(team, tableFromSeqs(team, [][]byte{g}, k), Options{K: k})
		changes := 0
		for _, c := range res.All() {
			prev := -1
			kmer.ForEachCanonical(c.Seq, k, func(_ int, canon kmer.Kmer, _ bool) {
				if o := res.Graph.Owner(canon); o != prev {
					if prev >= 0 {
						changes++
					}
					prev = o
				}
			})
		}
		comm := res.TraversePhase.Comm
		msgs := comm.OnNodeMsgs + comm.OffNodeMsgs
		if bound := int64(changes) + 2*res.Claimed; msgs == 0 || msgs > bound {
			t.Fatalf("%d ranks: %d traverse messages, want 1..%d (%d owner changes, %d walks)",
				p, msgs, bound, changes, res.Claimed)
		}
		if remote := comm.OnNodeLookups + comm.OffNodeLookups; remote < 2*msgs {
			t.Fatalf("%d ranks: %d remote lookups in %d messages: runs too short to tell", p, remote, msgs)
		}
	}
}

// TestFreeCountMatchesScan: the quiescence tally's free count is, at every
// tally, what a scan of the rank's shard for unclaimed vertices finds.
func TestFreeCountMatchesScan(t *testing.T) {
	const k = 21
	rng := xrt.NewPrng(31)
	shared := genome.Random(rng, 300)
	g1 := append(append(genome.Random(rng, 2000), shared...), genome.Random(rng, 2000)...)
	g2 := append(append(genome.Random(rng, 2000), shared...), genome.Random(rng, 2000)...)
	for _, p := range []int{1, 4, 24} {
		team := xrt.NewTeam(xrt.Config{Ranks: p, RanksPerNode: 4})
		kt := tableFromSeqs(team, [][]byte{g1, g2}, k)
		res := buildGraph(team, kt, Options{K: k})
		tr := newTraverser(team, res, kt, k, true)
		tallies := 0
		team.RunEvents(func(ev *xrt.Events, r *xrt.Rank) xrt.Status {
			if w := &tr.walkers[r.ID]; w.at == atSeed && w.cursor == len(w.seeds) {
				scan := 0
				res.Graph.RangeAll(func(km kmer.Kmer, n Node) bool {
					if n.Walk == 0 && res.Graph.Owner(km) == r.ID {
						scan++
					}
					return true
				})
				if free := tr.free(r); free != scan {
					t.Fatalf("%d ranks: rank %d round %d counts %d free vertices, a scan finds %d",
						p, r.ID, w.round, free, scan)
				}
				tallies++
			}
			return tr.step(ev, r)
		})
		if tallies < 2*p {
			t.Fatalf("%d ranks: %d tallies, want two rounds or more of every rank", p, tallies)
		}
	}
}
