// Package hipmer is a from-scratch Go reproduction of HipMer, the
// extreme-scale de novo genome assembler of Georganas et al. (SC'15),
// itself a high-performance parallelization of the Meraculous assembler.
//
// The package assembles paired-end short reads into scaffolds through the
// full Meraculous pipeline — k-mer analysis with Bloom-filter error
// exclusion and heavy-hitter handling, de Bruijn contig generation with a
// speculative parallel traversal, the seven scaffolding modules including
// the merAligner read-to-contig aligner, and gap closing — executed over
// a simulated distributed runtime whose ranks, nodes, and communication
// costs stand in for the paper's UPC/Cray XC30 environment. The assembly
// is a function of the reads and the options alone — bit-identical across
// rank counts, schedules, injected faults and resumes.
//
// Quick start:
//
//	res, err := hipmer.Assemble([]hipmer.Library{{
//		Name: "lib1", Path: "reads.fastq", InsertMean: 400,
//	}}, hipmer.Options{K: 31, Ranks: 32})
//
// See the examples directory for runnable scenarios and DESIGN.md for the
// full system layout.
package hipmer

import (
	"errors"
	"fmt"
	"io"

	"hipmer/internal/ckpt"
	"hipmer/internal/fasta"
	"hipmer/internal/fastq"
	"hipmer/internal/genome"
	"hipmer/internal/metrics"
	"hipmer/internal/pipeline"
	"hipmer/internal/seqdb"
	"hipmer/internal/stats"
	"hipmer/internal/verify"
	"hipmer/internal/xrt"
)

// Read is one sequencing read: ID, Seq and Qual (phred+33).
type Read = fastq.Record

// Library is one paired-end read library. Reads come either from a FASTQ
// file (read in parallel with the block reader of paper §3.3) or from
// memory; in-memory reads must be interleaved pairs (elements 2i and 2i+1
// are mates).
type Library struct {
	Name string
	// Path to a FASTQ file (or a ".seqdb" binary container written by
	// WriteSeqDB); takes precedence over Reads.
	Path string
	// Reads are interleaved in-memory pairs.
	Reads []Read
	// InsertMean seeds insert-size estimation on small datasets (the
	// estimator's own value is used whenever enough pairs map).
	InsertMean int
}

// Options configures an assembly.
type Options struct {
	// K is the k-mer length; must be odd, defaults to 31.
	K int
	// KmerLens, when non-empty, runs the MetaHipMer-style iterative-k
	// outer loop instead of a single-k assembly: one round per length
	// (each odd, strictly increasing), with every round's tip-clipped and
	// bubble-popped contigs fed into the next round as weighted
	// pseudo-reads. Overrides K (which becomes the last entry). Stage
	// names gain per-round -k<N> suffixes — see StageNames.
	KmerLens []int
	// MinCount discards k-mers seen fewer times as erroneous (default 2).
	MinCount int
	// Ranks is the simulated processor count (default 16). On a resume
	// it may differ from the rank count the checkpoint was written at —
	// the recorded state is re-sharded onto the new team (elastic
	// rescale) and the assembly is bit-identical to a from-scratch run
	// at the new count. Ranks 0 with Resume adopts the checkpoint's
	// recorded rank count instead.
	Ranks int
	// RanksPerNode groups ranks into simulated nodes (default 24).
	RanksPerNode int
	// Seed is the run's identity (default 1). The assembly does not depend
	// on it: what the value reaches is the Metrics report's seed field and
	// the checkpoint fingerprint, so a Resume under a different Seed is
	// refused.
	Seed int64
	// ContigsOnly stops after contig generation (metagenome mode, §5.4).
	ContigsOnly bool
	// ScaffoldRounds repeats scaffolding + gap closing, feeding scaffolds
	// back in as contigs; the paper's wheat runs used four rounds (§5.3).
	// Default 1.
	ScaffoldRounds int
	// Verify runs the assembly oracle on the output (every contig k-mer
	// must occur in the read set; with VerifyRef also reference placement
	// and gap-size checks) and attaches the report to Result.Verify.
	Verify bool
	// VerifyRef is the reference the reads were simulated from, enabling
	// the oracle's misassembly and gap checks.
	VerifyRef []byte
	// CkptDir, when set, checkpoints every stage's output into that
	// directory as it completes (see internal/ckpt for the format).
	CkptDir string
	// Resume skips stages already recorded complete in CkptDir's
	// manifest and rehydrates their outputs instead of recomputing.
	// Refused when the checkpoint's config/input fingerprint differs
	// from this run's (ckpt.ErrFingerprintMismatch). A different Ranks
	// is never refused: stage state re-shards onto the new rank count.
	// Requires CkptDir.
	Resume bool
	// Inject arms the deterministic injection layers the robustness
	// harnesses drive: schedule perturbation (PerturbSeed), a rank crash
	// (FaultSeed + FailStage; Assemble returns a
	// *pipeline.StageFailedError), a lossy transport (ChaosSeed, DropRate,
	// RetryBudget) and checkpoint damage (DiskFaultSeed + DiskFailStage,
	// requires CkptDir). The assembly must be bit-identical under every
	// one of them. Its fields are promoted: opt.FaultSeed = 9 works.
	xrt.Inject
}

// Stats summarizes an assembly: Sequences, TotalLen, MaxLen, MeanLen, N50,
// N90 and GapBases (N characters).
type Stats = stats.AsmStats

// VerifyReport is the assembly oracle's verdict (Options.Verify, or
// Result.Validate for the reference placement alone): OK() is true when
// every check passed, Summary is a one-line account of what was checked,
// Issues lists the individual failures (capped); MissingKmers counts
// contig k-mers absent from the read set, and Placed, Unplaced,
// Misassemblies, CoveredFrac, IdentityFrac and GapViolations are the
// reference-based figures (zero when no reference was given).
type VerifyReport = verify.Report

// Result is a finished assembly.
type Result struct {
	// Scaffolds are the final assembled sequences (contigs in
	// ContigsOnly mode), longest first.
	Scaffolds [][]byte
	// Stats summarizes the assembly.
	Stats Stats
	// ContigCount and HeavyHitters expose pipeline internals of interest.
	ContigCount  int64
	HeavyHitters int
	Bubbles      int
	GapsClosed   int
	Gaps         int
	// Verify is the oracle report (nil unless Options.Verify was set).
	Verify *VerifyReport
	// Metrics is the per-stage observability report and the one record of
	// stage times: one span per pipeline stage that ran (plus named
	// sub-spans), each with its virtual and wall duration, per-rank
	// communication deltas, virtual busy time, and load-imbalance
	// statistics. Metrics.Time("contig-generation") is a stage's simulated
	// duration ("scaffolding/merAligner" a sub-span's; iterative-k stages
	// carry their -k<N> suffix, later scaffolding rounds -round<N>) and
	// Metrics.VirtualNs the whole run's. Every field except the wall-clock
	// ones is deterministic for a fixed configuration. Serialize it with
	// Metrics.WriteFile (cmd/hipmer -metrics-out) and render it with
	// Metrics.FormatTable (asmstats -report).
	Metrics *metrics.Report
}

// Assemble runs the full pipeline.
func Assemble(libs []Library, opt Options) (*Result, error) {
	if opt.K == 0 {
		opt.K = 31
	}
	if err := opt.Validate(); err != nil {
		return nil, fmt.Errorf("hipmer: %w", err)
	}
	if opt.Resume && opt.CkptDir != "" && opt.Ranks == 0 {
		// Adopt the checkpoint's recorded topology (the CLI's default
		// when -resume is given without an explicit -ranks).
		topo, err := ckpt.ReadTopology(opt.CkptDir)
		if errors.Is(err, ckpt.ErrBadManifest) {
			// As on the -ranks path (pipeline's openStore): an unparsable
			// manifest cannot seed a resume, and scrubbing cannot heal it.
			err = fmt.Errorf("%w: %w", ckpt.ErrUnrecoverableCkpt, err)
		}
		if err != nil {
			return nil, fmt.Errorf("hipmer: adopting checkpoint topology: %w", err)
		}
		opt.Ranks = topo.Ranks
		if opt.RanksPerNode == 0 {
			opt.RanksPerNode = topo.RanksPerNode
		}
	}
	if opt.Ranks <= 0 {
		opt.Ranks = 16
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	var plibs []pipeline.Library
	for _, l := range libs {
		plibs = append(plibs, pipeline.Library{
			Name: l.Name, Path: l.Path, Records: l.Reads, InsertHint: l.InsertMean,
		})
	}
	cfg := opt.pipelineConfig()
	if opt.Verify {
		cfg.Verify = &verify.Options{Ref: opt.VerifyRef}
	}
	team := xrt.NewTeam(xrt.Config{
		Ranks:        opt.Ranks,
		RanksPerNode: opt.RanksPerNode,
		Seed:         opt.Seed,
		Inject:       opt.Inject,
	})
	pres, err := pipeline.Run(team, plibs, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Scaffolds: pres.FinalSeqs,
		Stats:     stats.Compute(pres.FinalSeqs),
		Verify:    pres.Verify,
		Metrics:   pres.Metrics,
	}
	if pres.Contigs != nil {
		res.ContigCount = pres.Contigs.NumContigs
	}
	if pres.KAnalysis != nil {
		res.HeavyHitters = pres.KAnalysis.HeavyHitters
	}
	if pres.Scaffold != nil {
		res.Bubbles = pres.Scaffold.Bubbles
	}
	if pres.Gapclose != nil {
		res.GapsClosed = pres.Gapclose.Closed
		res.Gaps = pres.Gapclose.Gaps
	}
	return res, nil
}

// pipelineConfig is the options' pipeline-level half (the runtime half —
// ranks, seed, injections — goes to the team).
func (opt Options) pipelineConfig() pipeline.Config {
	return pipeline.Config{
		K:              opt.K,
		KmerLens:       append([]int(nil), opt.KmerLens...),
		MinCount:       opt.MinCount,
		ContigsOnly:    opt.ContigsOnly,
		ScaffoldRounds: opt.ScaffoldRounds,
		CkptDir:        opt.CkptDir,
		Resume:         opt.Resume,
	}
}

// Validate checks the run-shape rules Assemble enforces — k and ladder
// parity, range and order, Resume needing CkptDir,
// and the injection pairings and stage names — on the options as given
// (a zero K is out of range here; Assemble fills its default first).
// Errors name each knob by its cmd/hipmer flag.
func (opt Options) Validate() error {
	return opt.pipelineConfig().Validate(opt.Inject)
}

// StageNames returns the pipeline stage names an assembly with these
// options would execute, in order — the legal values for FailStage. In
// iterative-k mode (KmerLens) each round contributes kmer-analysis-k<N>,
// contig-generation-k<N>, tip-clip-k<N>, bubble-pop-k<N>, and
// pseudo-merge-k<N> stages.
func StageNames(opt Options) []string {
	return pipeline.StageNames(opt.pipelineConfig())
}

// Validate places the assembly on a reference sequence: the oracle's
// placement check (each gap-free piece anchored by 31-mer diagonal voting,
// chimeras told from repeats by disjoint support spans) on its own, the
// same engine Options.Verify with VerifyRef runs.
func (r *Result) Validate(ref []byte) *VerifyReport {
	return verify.Place(r.Scaffolds, ref)
}

// WriteFasta writes the scaffolds as FASTA.
func (r *Result) WriteFasta(w io.Writer) error {
	recs := make([]fasta.Record, len(r.Scaffolds))
	for i, seq := range r.Scaffolds {
		recs[i] = fasta.Record{Name: fmt.Sprintf("scaffold_%d len=%d", i+1, len(seq)), Seq: seq}
	}
	return fasta.Write(w, recs)
}

// ---------------------------------------------------------------------
// Synthetic data generation (the evaluation datasets, scaled).

// fromPipeline is the facade's view of a simulated library.
func fromPipeline(pl pipeline.Library) Library {
	return Library{Name: pl.Name, Reads: pl.Records, InsertMean: pl.InsertHint}
}

// SimHumanLike generates a human-like diploid dataset: mostly unique
// sequence, 0.1% heterozygosity, one short-insert library. It returns the
// reference haplotype and the library.
func SimHumanLike(seed int64, genomeLen int, coverage float64) ([]byte, Library) {
	g, plibs := pipeline.SimulatedHuman(seed, genomeLen, coverage)
	lib := fromPipeline(plibs[0])
	lib.Name = "pe395"
	return g, lib
}

// SimWheatLike generates a wheat-like dataset: highly repetitive with
// heavy-hitter k-mers, three libraries including long inserts.
func SimWheatLike(seed int64, genomeLen int, coverage float64) ([]byte, []Library) {
	g, plibs := pipeline.SimulatedWheat(seed, genomeLen, coverage)
	var libs []Library
	for _, pl := range plibs {
		libs = append(libs, fromPipeline(pl))
	}
	return g, libs
}

// SimMetagenome generates a wetlands-like metagenome dataset: many
// species with log-normal abundances.
func SimMetagenome(seed int64, totalLen, species, pairs int) Library {
	return fromPipeline(pipeline.SimulatedMetagenome(seed, totalLen, species, pairs)[0])
}

// SimReads generates paired-end reads from an arbitrary genome.
func SimReads(seed int64, g []byte, coverage float64, readLen, insertMean, insertSD int) Library {
	rng := xrt.NewPrng(seed)
	recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: coverage,
		Lib: genome.Library{Name: "sim", ReadLen: readLen,
			InsertMean: insertMean, InsertSD: insertSD},
		Err: genome.DefaultErrorModel(),
	})
	return Library{Name: "sim", Reads: recs, InsertMean: insertMean}
}

// RandomGenome generates a uniform random genome sequence.
func RandomGenome(seed int64, n int) []byte {
	return genome.Random(xrt.NewPrng(seed), n)
}

// WriteFastq writes a library's reads as a FASTQ file suitable for
// Library.Path input.
func WriteFastq(w io.Writer, lib Library) error {
	return fastq.Write(w, lib.Reads)
}

// WriteSeqDB writes a library's reads in the SeqDB-like binary container
// (2-bit packed, block-indexed for parallel reading); pass the resulting
// path (ending in ".seqdb") as Library.Path. Each rank reads an equal
// share of its read pairs and is charged the encoded bytes from the head
// of the first block its share touches to the end of its last record.
func WriteSeqDB(path string, lib Library) error {
	return seqdb.WriteFile(path, lib.Reads)
}
