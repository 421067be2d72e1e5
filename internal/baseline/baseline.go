// Package baseline implements the comparison systems of paper §5.6 and
// §6 as architectural analogues, so the "who wins and roughly why" shape
// of the paper's comparison can be regenerated:
//
//   - Serial — the original Meraculous: the identical pipeline confined to
//     a single rank (the paper's 23.8-hour reference point against
//     HipMer's 8.4 minutes).
//   - RayLike — an end-to-end distributed assembler without HipMer's
//     communication optimizations: fine-grained messages (no aggregating
//     stores; Ray exchanges individual k-mers/reads over MPI) and serial
//     file I/O ("one drawback of Ray is the lack of parallel I/O support").
//   - AbyssLike — distributed k-mer analysis and contig generation with
//     fine-grained messages, but scaffolding confined to a single shared-
//     memory node ("only the first assembly step of contig generation is
//     fully parallelized with MPI").
//
// These are not reimplementations of Ray or ABySS (their algorithms are
// different); they encode the architectural properties the paper's
// comparison attributes the performance gaps to.
package baseline

import (
	"time"

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
}

// outcome reads a finished run's times off its metrics report; Virtual is
// the team's clock, so it includes whatever the baseline charged before
// the pipeline started.
func outcome(name string, res *pipeline.Result) *Outcome {
	m := res.Metrics
	return &Outcome{
		Name:         name,
		Virtual:      time.Duration(m.VirtualNs),
		KmerAnalysis: m.Time("kmer-analysis"),
		ContigGen:    m.Time("contig-generation"),
		Scaffolding:  m.Time("scaffolding") + m.Time("gap-closing"),
		FinalSeqs:    res.FinalSeqs,
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

// RunRayLike runs end-to-end distributed with fine-grained messages and
// serial I/O.
func RunRayLike(cfg xrt.Config, libs []pipeline.Library, pcfg pipeline.Config) (*Outcome, error) {
	team := xrt.NewTeam(cfg)
	// serial I/O: one rank pays for the whole input volume
	var bytes int64
	for _, lib := range libs {
		for _, rec := range lib.Records {
			bytes += int64(len(rec.ID) + len(rec.Seq) + len(rec.Qual) + 6)
		}
	}
	team.Run(func(r *xrt.Rank) {
		if r.ID == 0 {
			// a single reader is limited to single-stream bandwidth
			full := bytes
			c := team.Cost()
			r.Charge(c.IOLatencyNs + float64(full)/c.IORankBytesPerSec*1e9)
		}
		r.Barrier()
	})
	pcfg.AggBufSize = 1 // fine-grained communication throughout
	res, err := pipeline.Run(team, libs, pcfg)
	if err != nil {
		return nil, err
	}
	return outcome("Ray-like", res), nil
}

// RunAbyssLike runs k-mer analysis and contig generation distributed
// (fine-grained), then performs all scaffolding on a single rank, as
// ABySS 1.x did on one shared-memory node.
func RunAbyssLike(cfg xrt.Config, libs []pipeline.Library, pcfg pipeline.Config) (*Outcome, error) {
	pcfgContigs := pcfg
	pcfgContigs.AggBufSize = 1
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
