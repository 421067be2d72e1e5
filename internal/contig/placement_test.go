package contig_test

import (
	"bytes"
	"testing"

	"hipmer/internal/ckpt"
	"hipmer/internal/contig"
	"hipmer/internal/dht"
	"hipmer/internal/fastq"
	"hipmer/internal/genome"
	"hipmer/internal/kanalysis"
	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

// TestGraphPlacedLikeKmerTable: without an oracle the graph owns every UU
// k-mer on the rank the k-mer table does — at any rank count, and on a
// table rehydrated from a checkpoint at another rank count, whose minimizer
// bins are placed anew.
func TestGraphPlacedLikeKmerTable(t *testing.T) {
	const k = 21
	g := genome.HumanLike(xrt.NewPrng(2), 20000)
	check := func(label string, team *xrt.Team, kt *dht.Table[kmer.Kmer, kanalysis.KmerData]) {
		res := contig.Run(team, kt, contig.Options{K: k})
		n := 0
		res.Graph.RangeAll(func(km kmer.Kmer, _ contig.Node) bool {
			if res.Graph.Owner(km) != kt.Owner(km) {
				t.Fatalf("%s: a UU k-mer on rank %d of the graph, rank %d of the k-mer table",
					label, res.Graph.Owner(km), kt.Owner(km))
			}
			n++
			return true
		})
		if n == 0 || int64(n) != res.UUKmers {
			t.Fatalf("%s: %d graph vertices, %d UU k-mers", label, n, res.UUKmers)
		}
	}
	for _, p := range []int{1, 4, 24} {
		team := xrt.NewTeam(xrt.Config{Ranks: p})
		kres := analyze(team, g, k)
		if kres.BinWeights == nil {
			t.Fatal("the k-mer table is not placed by minimizer bins")
		}
		check("fresh", team, kres.Table)
		if p != 4 {
			continue
		}
		payload := ckpt.EncodeKmerStage(kres, k, kanalysis.EffectiveMinimizerLen(k, 0, false))
		for _, q := range []int{3, 16} {
			rescaled := xrt.NewTeam(xrt.Config{Ranks: q})
			back, err := ckpt.DecodeKmerStage(rescaled, payload, 0)
			if err != nil {
				t.Fatal(err)
			}
			check("resumed", rescaled, back.Table)
		}
	}
}

// analyze counts g's k-mers, fed twice so the Bloom screen admits all.
func analyze(team *xrt.Team, g []byte, k int) *kanalysis.Result {
	p := team.Config().Ranks
	parts := make([][]fastq.Record, p)
	q := bytes.Repeat([]byte{'I'}, len(g))
	for i := range 2 {
		parts[i%p] = append(parts[i%p], fastq.Record{ID: []byte{'g', byte('0' + i)}, Seq: g, Qual: q})
	}
	return kanalysis.Run(team, parts, kanalysis.Options{K: k, MinCount: 2})
}
