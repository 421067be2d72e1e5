// Package baseline implements the comparison systems of paper §5.6 and
// §6 as architectural analogues, so the "who wins and roughly why" shape
// of the paper's comparison can be regenerated:
//
//   - Serial — the original Meraculous: the identical pipeline confined to
//     a single rank (the paper's 23.8-hour reference point against
//     HipMer's 8.4 minutes).
//   - RayLike — HipMer's pipeline after a serial read: one rank reads the
//     whole input at single-stream bandwidth ("one drawback of Ray is the
//     lack of parallel I/O support"), then the distributed pipeline runs.
//   - AbyssLike — HipMer's distributed contigs, then scaffolding and gap
//     closing on a single rank ("only the first assembly step of contig
//     generation is fully parallelized with MPI").
//
// The paper also credits part of HipMer's lead to aggregated
// communication, against Ray's and ABySS's per-k-mer messages. That is
// not modelled: stage 1 has one transport, super-k-mer blobs, and per-item
// messaging would need a second one. Both baselines therefore send exactly
// HipMer's messages and bytes in every distributed stage.
//
// These are not reimplementations of Ray or ABySS (their algorithms are
// different); they encode the architectural properties the paper's
// comparison attributes the performance gaps to.
package baseline

import (
	"time"

	"hipmer/internal/metrics"
	"hipmer/internal/pipeline"
	"hipmer/internal/xrt"
)

// Outcome reports a baseline run.
type Outcome struct {
	Name    string
	Virtual time.Duration
	// Stage virtual durations where meaningful.
	KmerAnalysis, ContigGen, Scaffolding time.Duration
	FinalSeqs                            [][]byte
	// Metrics is the pipeline run's report; AbyssLike's is its distributed
	// contigs-only run's.
	Metrics *metrics.Report
}

// outcome reads a finished run's times off its metrics report; Virtual is
// the team's clock at the run's end.
func outcome(name string, res *pipeline.Result) *Outcome {
	m := res.Metrics
	return &Outcome{
		Name:         name,
		Virtual:      time.Duration(m.VirtualNs),
		KmerAnalysis: m.Time("kmer-analysis"),
		ContigGen:    m.Time("contig-generation"),
		Scaffolding:  m.Time("scaffolding") + m.Time("gap-closing"),
		FinalSeqs:    res.FinalSeqs,
		Metrics:      m,
	}
}

// RunHipMer runs the full optimized pipeline, for side-by-side comparison.
func RunHipMer(cfg xrt.Config, libs []pipeline.Library, pcfg pipeline.Config) (*Outcome, error) {
	res, err := pipeline.Run(xrt.NewTeam(cfg), libs, pcfg)
	if err != nil {
		return nil, err
	}
	return outcome("HipMer", res), nil
}

// RunSerial runs the identical pipeline on one rank: the original
// Meraculous reference point.
func RunSerial(cost xrt.CostModel, libs []pipeline.Library, pcfg pipeline.Config) (*Outcome, error) {
	res, err := pipeline.Run(xrt.NewTeam(xrt.Config{Ranks: 1, Cost: cost}), libs, pcfg)
	if err != nil {
		return nil, err
	}
	return outcome("Meraculous-serial", res), nil
}

// RunRayLike runs HipMer's pipeline after a serial read: one rank reads
// the whole input at single-stream bandwidth, and that read's time is
// added to the pipeline's. The read is not charged on the pipeline's team,
// because contig traversal's event order, and with it its messages,
// depends on the clock the traversal starts at.
func RunRayLike(cfg xrt.Config, libs []pipeline.Library, pcfg pipeline.Config) (*Outcome, error) {
	team := xrt.NewTeam(cfg)
	res, err := pipeline.Run(team, libs, pcfg)
	if err != nil {
		return nil, err
	}
	var bytes int64
	for _, lib := range libs {
		for _, rec := range lib.Records {
			bytes += int64(len(rec.ID) + len(rec.Seq) + len(rec.Qual) + 6)
		}
	}
	c := team.Cost()
	out := outcome("Ray-like", res)
	out.Virtual += time.Duration(c.IOLatencyNs + float64(bytes)/c.IORankBytesPerSec*1e9)
	return out, nil
}

// RunAbyssLike runs k-mer analysis and contig generation distributed,
// then performs all scaffolding on a single rank, as ABySS 1.x did on one
// shared-memory node.
func RunAbyssLike(cfg xrt.Config, libs []pipeline.Library, pcfg pipeline.Config) (*Outcome, error) {
	pcfgContigs := pcfg
	pcfgContigs.ContigsOnly = true
	res, err := pipeline.Run(xrt.NewTeam(cfg), libs, pcfgContigs)
	if err != nil {
		return nil, err
	}
	out := outcome("ABySS-like", res)

	// Scaffolding on one rank: re-run the pipeline serially and charge
	// only its scaffolding and gap-closing stages to this baseline (the
	// serial k-mer/contig recomputation is just a way to rebuild the
	// stage inputs; ABySS would hand its contigs over directly).
	serial := xrt.NewTeam(xrt.Config{Ranks: 1, Cost: cfg.Cost})
	sres, err := pipeline.Run(serial, libs, pcfg)
	if err != nil {
		return nil, err
	}
	out.Scaffolding = outcome("", sres).Scaffolding
	out.Virtual += out.Scaffolding
	out.FinalSeqs = sres.FinalSeqs
	return out, nil
}
