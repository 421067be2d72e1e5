package expt

import (
	"fmt"

	"hipmer/internal/dht"
	"hipmer/internal/fastq"
	"hipmer/internal/kanalysis"
	"hipmer/internal/kmer"
	"hipmer/internal/pipeline"
	"hipmer/internal/xrt"
)

// AblationBloomRow quantifies the Bloom screen's memory effect (§3.1:
// "memory requirement reductions of up to 85% in human and wheat").
type AblationBloomRow struct {
	Dataset     string
	PeakWith    int64 // hash-table entries after insertion, Bloom on
	PeakWithout int64 // same with the screen disabled
	SavedPct    float64
	Kept        int64 // entries surviving the count filter
}

// AblationBloom measures the hash-table high-water mark with and without
// the Bloom screen on the human-like and wheat-like datasets.
func AblationBloom(sc Scale) ([]AblationBloomRow, string) {
	p := sc.Cores[len(sc.Cores)/2]
	var rows []AblationBloomRow
	for _, ds := range genomes {
		parts := xrt.DealPairs(mergeLibs(sc.dataset(ds).libs), p)
		run := func(disable bool) *kanalysis.Result {
			team := xrt.NewTeam(sc.teamCfg(p))
			return kanalysis.Run(team, parts, kanalysis.Options{
				K: sc.K, MinCount: 2, HeavyHitters: true, DisableBloom: disable,
			})
		}
		with := run(false)
		without := run(true)
		rows = append(rows, AblationBloomRow{
			Dataset:     ds,
			PeakWith:    with.PeakEntries,
			PeakWithout: without.PeakEntries,
			SavedPct:    100 * (1 - float64(with.PeakEntries)/float64(without.PeakEntries)),
			Kept:        with.Kept,
		})
	}
	var tab []string
	for _, r := range rows {
		tab = append(tab, fmt.Sprintf("%s\t%d\t%d\t%.1f%%\t%d", r.Dataset, r.PeakWithout, r.PeakWith, r.SavedPct, r.Kept))
	}
	out := "Ablation — Bloom screen memory effect (§3.1: up to 85% reduction)\n" +
		fmtTable("dataset\tpeak entries (no Bloom)\tpeak (Bloom)\tsaved\tkept after filter", tab)
	return rows, out
}

// AblationAggRow quantifies the aggregating-stores optimization.
type AblationAggRow struct {
	BufSize int
	Msgs    int64
	TimeSec float64
}

// AblationAggStores sweeps the aggregating-stores buffer size while a
// k-mer count table is built from one store per read k-mer: buffer 1 is
// a message per k-mer, the fine-grained messaging the paper attributes to
// Ray and ABySS (the §5.6 comparators do not model it; see Compare);
// the message count and the resulting build time fall with the
// buffer, the optimization HipMer applies to every hash-table construction
// (§4.1, §4.6). Stage 1 ships super-k-mer records, which bypass these
// buffers, so the table here is a bare one of per-item stores placed by
// k-mer hash.
func AblationAggStores(sc Scale) ([]AblationAggRow, string) {
	p := sc.Cores[len(sc.Cores)/2]
	parts := xrt.DealPairs(mergeLibs(sc.dataset("human").libs), p)
	var rows []AblationAggRow
	for _, buf := range []int{1, 8, 64, 512, 4096} {
		team := xrt.NewTeam(sc.teamCfg(p))
		table := kanalysis.NewTable(team, 0, buf, 0, sc.K, 0)
		table.SetApply(func(_, _ int, _ uint64, _ kmer.Kmer, in kanalysis.KmerData, e dht.Entry[kmer.Kmer, kanalysis.KmerData]) {
			d, _ := e.Upsert()
			d.Count += in.Count
		})
		ph := team.Run(func(r *xrt.Rank) {
			n := 0
			for _, rec := range parts[r.ID] {
				kmer.ForEachCanonical(rec.Seq, sc.K, func(_ int, canon kmer.Kmer, _ bool) {
					table.Put(r, canon, kanalysis.KmerData{Count: 1})
					n++
				})
			}
			r.ChargeItems(n)
			table.Flush(r)
			r.Barrier()
		})
		rows = append(rows, AblationAggRow{
			BufSize: buf,
			Msgs:    ph.Comm.OnNodeMsgs + ph.Comm.OffNodeMsgs,
			TimeSec: ph.Virtual.Seconds(),
		})
	}
	var tab []string
	base := rows[0]
	for _, r := range rows {
		tab = append(tab, fmt.Sprintf("%d\t%d\t%.3f\t%.1fx", r.BufSize, r.Msgs, r.TimeSec, base.TimeSec/r.TimeSec))
	}
	out := "Ablation — aggregating stores buffer size (k-mer table construction)\n" +
		fmtTable("buffer\tmessages\ttime(s)\tspeedup vs fine-grained", tab)
	return rows, out
}

// AblationOracleRow sweeps oracle vector sizes, extending Tables 1–2.
type AblationOracleRow struct {
	SlotsPerKmer int
	OffPct       float64
	MemMB        float64
}

// AblationOracleMemory trades oracle memory against residual off-node
// communication — the §3.2 memory/collision trade-off as a curve rather
// than the paper's two points.
func AblationOracleMemory(sc Scale) ([]AblationOracleRow, string) {
	g1, g2 := oracleIndividuals(sc)
	p := sc.Cores[len(sc.Cores)-1]
	team1 := xrt.NewTeam(sc.teamCfg(p))
	res1 := contigRun(team1, g1, sc.K, nil)
	uu := int(res1.UUKmers)

	var rows []AblationOracleRow
	for _, mult := range []int{0, 1, 2, 4, 8, 16} {
		oracle := uniformLayout(p)
		if mult > 0 {
			oracle = buildOracle(res1, sc.K, p, mult*uu)
		}
		team := xrt.NewTeam(sc.teamCfg(p))
		res := contigRun(team, g2, sc.K, oracle)
		row := AblationOracleRow{
			SlotsPerKmer: mult,
			OffPct:       100 * res.TraversePhase.Comm.OffNodeLookupFrac(),
		}
		if mult > 0 {
			row.MemMB = float64(oracle.MemoryBytes()) / 1e6
		}
		rows = append(rows, row)
	}
	var tab []string
	for _, r := range rows {
		label := "none"
		if r.SlotsPerKmer > 0 {
			label = fmt.Sprintf("%dx", r.SlotsPerKmer)
		}
		tab = append(tab, fmt.Sprintf("%s\t%.2f\t%.1f%%", label, r.MemMB, r.OffPct))
	}
	out := "Ablation — oracle vector size vs residual off-node lookups (§3.2)\n" +
		fmtTable("slots/k-mer\tmemory(MB)\toff-node lookups", tab)
	return rows, out
}

func mergeLibs(libs []pipeline.Library) []fastq.Record {
	var recs []fastq.Record
	for _, l := range libs {
		recs = append(recs, l.Records...)
	}
	return recs
}
