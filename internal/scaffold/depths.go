package scaffold

import (
	"hipmer/internal/contig"
	"hipmer/internal/dht"
	"hipmer/internal/kanalysis"
	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

// computeDepths implements §4.1: each rank takes its share of the contigs
// and, for every contig, looks up all member k-mers in the distributed
// k-mer count table and averages their depths. The table arrives frozen
// from k-mer analysis, so the lookups are lock-free and remote ones run
// through the per-rank software cache — k-mers shared between contigs
// (repeat copies, bubble arms) are fetched once and then served
// rank-locally. Termination states were recorded by the traversal itself.
func computeDepths(team *xrt.Team, ctgRes *contig.Result,
	kt *dht.Table[kmer.Kmer, kanalysis.KmerData],
	opt Options, res *Result) [][]*SContig {
	p := team.Config().Ranks
	out := make([][]*SContig, p)
	res.DepthPhase = team.Run(func(r *xrt.Rank) {
		for _, c := range ctgRes.Contigs[r.ID] {
			sc := &SContig{
				ID: c.ID, Seq: c.Seq,
				TermL: c.TermL, TermR: c.TermR,
				NbrL: c.NbrL, NbrR: c.NbrR,
				HasNbrL: c.HasNbrL, HasNbrR: c.HasNbrR,
				Members: []int64{c.ID},
			}
			var sum uint64
			var n int
			kmer.ForEachCanonical(c.Seq, opt.K, func(_ int, canon kmer.Kmer, _ bool) {
				if d, ok := kt.Get(r, canon); ok {
					sum += uint64(d.Count)
					n++
				}
			})
			if n > 0 {
				sc.Depth = float64(sum) / float64(n)
			}
			out[r.ID] = append(out[r.ID], sc)
		}
		r.Barrier()
	})
	return out
}
