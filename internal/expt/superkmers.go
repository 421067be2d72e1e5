package expt

import (
	"fmt"

	"hipmer/internal/fastq"
	"hipmer/internal/kanalysis"
	"hipmer/internal/xrt"
)

// BenchRow is one (dataset, cores) point of the k-mer-analysis
// communication ablation: the minimizer super-k-mer transport next to
// the per-k-mer baseline on identical inputs.
type BenchRow struct {
	Dataset string
	Cores   int

	// Super-k-mer (default) path.
	VirtualSec     float64
	Msgs           int64
	Bytes          int64
	SuperKmers     int64
	SuperKmerBases int64
	CommBytesSaved int64
	Kept           int64

	// Per-k-mer ablation baseline on the same input.
	BaseVirtualSec float64
	BaseMsgs       int64
	BaseBytes      int64
	BaseKept       int64
}

// MsgRatio is the stage-1 message-count reduction factor.
func (r BenchRow) MsgRatio() float64 { return ratio(float64(r.BaseMsgs), float64(r.Msgs)) }

// ByteRatio is the stage-1 remote-byte reduction factor.
func (r BenchRow) ByteRatio() float64 { return ratio(float64(r.BaseBytes), float64(r.Bytes)) }

// VirtualRatio is the super-k-mer path's stage-1 virtual time over the
// per-k-mer baseline's: above 1, the optimisation loses on time.
func (r BenchRow) VirtualRatio() float64 { return ratio(r.VirtualSec, r.BaseVirtualSec) }

// ratio is a/b, 0 for an unmeasured denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// benchPoint runs k-mer analysis twice on one partitioned input — the
// super-k-mer transport and the per-k-mer ablation — and reports both
// sides' stage-1 communication from the team's aggregate counters.
func benchPoint(sc Scale, dataset string, recs []fastq.Record, p int) BenchRow {
	parts := xrt.DealPairs(recs, p)
	row := BenchRow{Dataset: dataset, Cores: p}
	for _, disable := range []bool{false, true} {
		team := xrt.NewTeam(sc.teamCfg(p))
		res := kanalysis.Run(team, parts, kanalysis.Options{
			K: sc.K, MinCount: 2, HeavyHitters: true,
			DisableSuperKmers: disable,
		})
		d := team.AggStats()
		virt := (res.SketchPhase.Virtual + res.BloomPhase.Virtual + res.CountPhase.Virtual).Seconds()
		if disable {
			row.BaseVirtualSec = virt
			row.BaseMsgs = d.Msgs()
			row.BaseBytes = d.Bytes()
			row.BaseKept = res.Kept
		} else {
			row.VirtualSec = virt
			row.Msgs = d.Msgs()
			row.Bytes = d.Bytes()
			row.SuperKmers = res.SuperKmers
			row.SuperKmerBases = res.SuperKmerBases
			row.CommBytesSaved = res.CommBytesSaved
			row.Kept = res.Kept
		}
	}
	return row
}

// AblationSuperKmers sweeps the standard core counts over the
// bench-sized human dataset (Scale.BenchHumanLen: large enough that
// per-destination traffic at the top of the sweep is data, not tail
// flushes) and the end-to-end wheat dataset, measuring minimizer
// super-k-mer binning (MSP, after Li et al.) against the per-k-mer
// aggregated-store baseline in messages, bytes and virtual time. The
// shape to expect on human at the top of the sweep is >=5x fewer
// messages and >=3x fewer bytes; virtual time is shown because it is
// the metric the path currently loses on (ROADMAP item 3).
func AblationSuperKmers(sc Scale) ([]BenchRow, string) {
	sized := sc
	if sc.BenchHumanLen > 0 {
		sized.HumanLen = sc.BenchHumanLen
	}
	var rows []BenchRow
	for _, dataset := range genomes {
		recs := mergeLibs(sized.dataset(dataset).libs)
		for _, p := range sc.Cores {
			rows = append(rows, benchPoint(sc, dataset, recs, p))
		}
	}
	var tab []string
	for _, r := range rows {
		tab = append(tab, fmt.Sprintf("%s\t%d\t%d\t%d\t%.2fx\t%d\t%d\t%.2fx\t%.4f\t%.4f\t%.2fx\t%d",
			r.Dataset, r.Cores, r.BaseMsgs, r.Msgs, r.MsgRatio(), r.BaseBytes, r.Bytes, r.ByteRatio(),
			r.BaseVirtualSec, r.VirtualSec, r.VirtualRatio(), r.SuperKmers))
	}
	return rows, "Ablation — minimizer super-k-mer binning (stage-1 transport) vs per-k-mer stores\n" +
		fmtTable("dataset\tcores\tmsgs(per-kmer)\tmsgs(superk)\tmsg-drop\tbytes(per-kmer)\tbytes(superk)\tbyte-drop\t"+
			"virt(per-kmer)\tvirt(superk)\tvirt-ratio\tsuperkmers", tab)
}
