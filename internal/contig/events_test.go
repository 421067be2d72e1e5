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

// TestContentionIsDeterministic targets the claim/abort protocol: many
// ranks walk a graph with fork points (so walks collide and the
// wait-or-abort arbitration actually fires). Claims resolve in virtual-
// time order, so under every perturbation seed and GOMAXPROCS the phase is
// the same phase — contigs, owners, outcome counters, virtual time, comm —
// and in each run every contig accounts for exactly len-k+1 UU k-mers and
// every UU k-mer lands in exactly one contig. Run with -race to also catch
// unsynchronized access in the goroutine phases around the event loop.
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
	}
	run := func(perturbSeed int64) outcome {
		team := xrt.NewTeam(xrt.Config{
			Ranks:        24,
			RanksPerNode: 6,
			Inject:       xrt.Inject{PerturbSeed: perturbSeed},
		})
		kt := tableFromSeqs(team, [][]byte{g1, g2}, k)
		res := Run(team, kt, Options{K: k})
		out := outcome{Claimed: res.Claimed, Completed: res.Completed, Aborted: res.Aborted,
			Rnds: res.Rounds, Traverse: res.TraversePhase}
		out.Traverse.Wall = 0
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
	if base.Aborted == 0 || base.Claimed != base.Completed+base.Aborted {
		t.Fatalf("claims %d, wins %d, aborts %d: want aborts > 0 and claims = wins + aborts",
			base.Claimed, base.Completed, base.Aborted)
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

// TestOlderWalkWaitsForRelease drives the event loop by hand on a two-rank
// chain: rank 0 owns two vertices at one end and starts first, so its walk
// is the oldest; rank 1 owns the rest and keeps seeding newer walks ahead
// of it. Each time the older walk meets a newer one's claim it must park on
// that vertex, stay parked while the newer walk runs into the older one's
// claims and aborts, and resume no earlier than the clock at which the
// newer walk's rank released the vertex — exactly then, if it had been
// waiting.
func TestOlderWalkWaitsForRelease(t *testing.T) {
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
	var waitedOn kmer.Kmer
	parks, parkedAt, releasedAt := 0, -1.0, -1.0
	team.RunEvents(func(ev *xrt.Events, r *xrt.Rank) xrt.Status {
		w := &tr.walkers[r.ID]
		releasing := r.ID == 1 && parkedAt >= 0 && w.at == atRelease &&
			w.claimed[w.released] == waitedOn
		if r.ID == 0 && parkedAt >= 0 {
			if releasedAt < 0 {
				t.Error("older walk resumed before the vertex it waited on was released")
			} else if got := r.ClockNs(); got != max(parkedAt, releasedAt) {
				t.Errorf("parked at %.0f ns, vertex released at %.0f ns, resumed at %.0f ns", parkedAt, releasedAt, got)
			}
			parkedAt, releasedAt = -1, -1
		}
		st := tr.step(ev, r)
		if releasing {
			releasedAt = r.ClockNs()
		}
		if st == xrt.Parked {
			if r.ID != 0 || len(tr.waiters) != 1 {
				t.Fatalf("rank %d parked with %d vertices waited on; only rank 0's walk is ever the older", r.ID, len(tr.waiters))
			}
			parks++
			parkedAt = r.ClockNs()
			for v := range tr.waiters {
				waitedOn = v
			}
		}
		return st
	})
	if parks == 0 {
		t.Fatal("the older walk never met a newer one's claim")
	}
	if res.Completed != 1 || res.Aborted < int64(parks) || res.Claimed != res.Completed+res.Aborted {
		t.Fatalf("claims %d wins %d aborts %d after %d parks: want one contig and an abort per park",
			res.Claimed, res.Completed, res.Aborted, parks)
	}
	if got := tr.walkers[0].out; len(got) != 1 || canonSeq(got[0].Seq) != canonSeq(g[1:len(g)-1]) {
		t.Fatal("the older walk did not finish the whole chain")
	}
}
