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
func (r BenchRow) MsgRatio() float64 {
	if r.Msgs == 0 {
		return 0
	}
	return float64(r.BaseMsgs) / float64(r.Msgs)
}

// ByteRatio is the stage-1 remote-byte reduction factor.
func (r BenchRow) ByteRatio() float64 {
	if r.Bytes == 0 {
		return 0
	}
	return float64(r.BaseBytes) / float64(r.Bytes)
}

// VirtualRatio is the super-k-mer path's stage-1 virtual time over the
// per-k-mer baseline's: above 1, the optimisation loses on time.
func (r BenchRow) VirtualRatio() float64 {
	if r.BaseVirtualSec == 0 {
		return 0
	}
	return r.VirtualSec / r.BaseVirtualSec
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
		_, libs, _ := sized.dataset(dataset)
		recs := mergeLibs(libs)
		for _, p := range sc.Cores {
			rows = append(rows, benchPoint(sc, dataset, recs, p))
		}
	}
	var tab [][]string
	for _, r := range rows {
		tab = append(tab, []string{
			r.Dataset,
			fmt.Sprintf("%d", r.Cores),
			fmt.Sprintf("%d", r.BaseMsgs),
			fmt.Sprintf("%d", r.Msgs),
			fmt.Sprintf("%.2fx", r.MsgRatio()),
			fmt.Sprintf("%d", r.BaseBytes),
			fmt.Sprintf("%d", r.Bytes),
			fmt.Sprintf("%.2fx", r.ByteRatio()),
			fmt.Sprintf("%.4f", r.BaseVirtualSec),
			fmt.Sprintf("%.4f", r.VirtualSec),
			fmt.Sprintf("%.2fx", r.VirtualRatio()),
			fmt.Sprintf("%d", r.SuperKmers),
		})
	}
	return rows, "Ablation — minimizer super-k-mer binning (stage-1 transport) vs per-k-mer stores\n" +
		fmtTable([]string{"dataset", "cores", "msgs(per-kmer)", "msgs(superk)", "msg-drop",
			"bytes(per-kmer)", "bytes(superk)", "byte-drop",
			"virt(per-kmer)", "virt(superk)", "virt-ratio", "superkmers"}, tab)
}
