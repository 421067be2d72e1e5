package expt

import (
	"bytes"

	"hipmer/internal/contig"
	"hipmer/internal/dht"
	"hipmer/internal/fastq"
	"hipmer/internal/genome"
	"hipmer/internal/kanalysis"
	"hipmer/internal/xrt"
)

// contigRun builds a k-mer table directly from reference fragments (each
// fed twice so the Bloom screen admits every k-mer) and traverses it —
// the controlled setting of the Table 1/2 experiment, where the paper
// also isolates graph traversal from the rest of the pipeline.
func contigRun(team *xrt.Team, seqs [][]byte, k int, oracle *dht.Oracle) *contig.Result {
	var recs []fastq.Record
	for i, s := range seqs {
		q := bytes.Repeat([]byte{'I'}, len(s))
		id := []byte{byte('f'), byte(i >> 16), byte(i >> 8), byte(i)}
		recs = append(recs, fastq.Record{ID: id, Seq: s, Qual: q},
			fastq.Record{ID: append(id, 'b'), Seq: s, Qual: q})
	}
	p := team.Config().Ranks
	parts := make([][]fastq.Record, p)
	for i, rec := range recs {
		parts[i%p] = append(parts[i%p], rec)
	}
	kres := kanalysis.Run(team, parts, kanalysis.Options{K: k, MinCount: 2})
	return contig.Run(team, kres.Table, contig.Options{K: k, Oracle: oracle})
}

// uniformLayout is the baseline the paper measures its oracle against:
// uniform hashing of graph k-mers, an oracle vector with no slot assigned
// (each key placed by its hash modulo the rank count). Without an oracle
// the graph is placed as the k-mer table is, which is not that baseline.
func uniformLayout(ranks int) *dht.Oracle { return dht.NewOracle(1, ranks) }

// buildOracle constructs the oracle partitioning vector from a previous
// assembly's contigs.
func buildOracle(res *contig.Result, k, ranks, slots int) *dht.Oracle {
	if slots < 64 {
		slots = 64
	}
	return contig.BuildOracle(res.All(), k, ranks, slots)
}

// oracleIndividuals generates the Table 1/2 dataset: chromosome-scale
// fragments of individual 1 and a 0.2%-diverged individual 2 of the same
// species.
func oracleIndividuals(sc Scale) (g1, g2 [][]byte) {
	rng := xrt.NewPrng(sc.Seed + 1)
	for i := 0; i < sc.OracleFragments; i++ {
		c := genome.Random(rng, 300+rng.Intn(500))
		g1 = append(g1, c)
		g2 = append(g2, genome.Mutate(rng, c, 0.002))
	}
	return g1, g2
}
