// Package pipeline orchestrates the complete HipMer assembly: parallel
// FASTQ input, k-mer analysis, contig generation, scaffolding, and gap
// closing, with per-stage virtual-time and communication accounting —
// the quantities Figures 6–8 and Tables 1–3 of the paper report.
package pipeline

import (
	"fmt"
	"strings"

	"hipmer/internal/ckpt"
	"hipmer/internal/contig"
	"hipmer/internal/fastq"
	"hipmer/internal/gapclose"
	"hipmer/internal/genome"
	"hipmer/internal/kanalysis"
	"hipmer/internal/metrics"
	"hipmer/internal/scaffold"
	"hipmer/internal/seqdb"
	"hipmer/internal/verify"
	"hipmer/internal/xrt"
)

// Library is one input read library: either a file path (FASTQ read with
// the parallel block reader of §3.3, or the SeqDB-like binary container
// when the path ends in ".seqdb") or in-memory records.
type Library struct {
	Name string
	// Path to a FASTQ or .seqdb file; takes precedence over Records.
	Path string
	// Records are interleaved pairs (2i, 2i+1 are mates).
	Records []fastq.Record
	// InsertHint seeds insert-size estimation on small datasets.
	InsertHint int
}

// Config controls the pipeline.
type Config struct {
	// K is the assembly k-mer length (odd; default 31).
	K int
	// KmerLens, when non-empty, runs the MetaHipMer-style iterative-k
	// outer loop instead of a single k-mer round: for each k in order,
	// the pipeline runs k-mer analysis, contig generation, tip clipping,
	// bubble popping, and a pseudo-read merge; the merged contigs of
	// round i feed round i+1's k-mer analysis as depth-weighted pseudo-
	// reads. Values must be odd and strictly increasing (Validate
	// enforces this). K is forced to the last entry — downstream stages
	// (scaffolding, gap closing, verification defaults) operate at the
	// final k, while verification's spectrum check defaults to the
	// smallest k (every k-mer the early rounds contributed is read-
	// supported at that length).
	KmerLens []int
	// MinCount is the k-mer error-exclusion threshold (default 2; 1 keeps
	// every k-mer).
	MinCount int
	// ContigsOnly stops after contig generation (the paper's metagenome
	// mode, §5.4, where single-genome scaffolding logic would mis-join).
	ContigsOnly bool
	// ScaffoldRounds repeats scaffolding + gap closing, feeding each
	// round's scaffolds back in as contigs. The paper's wheat runs used
	// four rounds (§5.3); long-insert libraries join progressively larger
	// pieces each round. Default 1.
	ScaffoldRounds int
	// Verify, when non-nil, runs the assembly oracle on the output
	// (k-mer spectrum containment; with Verify.Ref set, also reference
	// placement and gap-size checks) and attaches the report to
	// Result.Verify. The oracle runs outside the simulated machine and
	// charges no virtual time.
	Verify *verify.Options
	// CkptDir, when set, checkpoints each stage's output into that
	// directory as it completes (segment files + manifest, see
	// internal/ckpt). Checkpoint I/O is charged as virtual collective
	// reads/writes and reported as checkpoint-save/-load spans.
	CkptDir string
	// Resume skips stages already recorded complete in CkptDir's
	// manifest, rehydrating their outputs from the checkpoint instead.
	// The manifest's config/input fingerprint must match this run's; a
	// mismatched resume is refused (ckpt.ErrFingerprintMismatch). The
	// rank count may differ: the fingerprint is rank-independent and
	// every load path re-shards the recorded state onto this team
	// (elastic rescale). Requires CkptDir.
	Resume bool
}

// WithDefaults resolves the documented zero-value defaults: K (the last
// ladder rung, else 31) and MinCount (2).
func (c Config) WithDefaults() Config {
	if len(c.KmerLens) > 0 {
		c.K = c.KmerLens[len(c.KmerLens)-1]
	}
	if c.K <= 0 {
		c.K = 31
	}
	if c.MinCount <= 0 {
		c.MinCount = 2
	}
	return c
}

// Result is the complete pipeline output.
type Result struct {
	KAnalysis *kanalysis.Result
	Contigs   *contig.Result
	Scaffold  *scaffold.Result
	Gapclose  *gapclose.Result
	// FinalSeqs are the assembled scaffold sequences (or contig sequences
	// in ContigsOnly mode).
	FinalSeqs [][]byte
	// Verify is the oracle report (nil unless Config.Verify was set).
	Verify *verify.Report
	// Metrics is the per-stage observability report built from the
	// team's span records, and the one record of stage times: one span
	// per stage that ran (Metrics.Time("contig-generation")), sub-spans by
	// path ("scaffolding/merAligner"), checkpoint-save/-load spans beside
	// them, VirtualNs the total; per-rank comm deltas, busy time and
	// load-imbalance statistics on each. All its fields except the
	// wall-clock ones are deterministic.
	Metrics *metrics.Report
}

// Validate is the one statement of the run-shape rules; hipmer.Assemble,
// hipmerd admission, cmd/hipmer and Run all call it. It judges the values
// as given — resolve defaults first (WithDefaults) where a zero means
// "default" — together with the injections the run would be armed with.
// Each knob is named by its cmd/hipmer flag; ScaffoldRounds, which no
// flag or job-file key sets, is named by its field.
func (c Config) Validate(inj xrt.Inject) error {
	if c.K < 1 || c.K > 64 {
		return fmt.Errorf("-k must be in 1..64, got %d", c.K)
	}
	if c.K%2 == 0 {
		return fmt.Errorf("-k must be odd, got %d", c.K)
	}
	for i, k := range c.KmerLens {
		if k < 1 || k > 64 {
			return fmt.Errorf("-kmer-lens entries must be in 1..64, got %d", k)
		}
		if k%2 == 0 {
			return fmt.Errorf("-kmer-lens entries must be odd, got %d", k)
		}
		if i > 0 && k <= c.KmerLens[i-1] {
			return fmt.Errorf("-kmer-lens must be strictly increasing, got %v", c.KmerLens)
		}
	}
	if c.ScaffoldRounds < 0 {
		return fmt.Errorf("ScaffoldRounds must be >= 0, got %d", c.ScaffoldRounds)
	}
	if c.Resume && c.CkptDir == "" {
		return fmt.Errorf("-resume requires -ckpt-dir")
	}
	return inj.Validate(StageNames(c), c.CkptDir != "")
}

// Run executes the pipeline on the given team. The stage list comes
// from buildStages; with cfg.CkptDir set each stage's output is
// checkpointed as it completes, with cfg.Resume also set the runner
// consults the manifest and skips (rehydrates) stages already recorded
// complete. The team's Config.Inject supplies the two stage-scoped
// injections: an armed crash makes the targeted stage suffer a
// deterministic rank crash (the team arms it on the stage's span, which
// runStage opens; a rehydrated stage opens none, so it is never armed;
// Run returns a *StageFailedError), an armed disk fault damages the
// checkpoint segment the targeted stage writes —
// that run still completes bit-identically, with the manifest entry
// computed from the clean bytes, and a LATER resume detects the damage,
// scrubs it away and recomputes the suffix.
func Run(team *xrt.Team, libs []Library, cfg Config) (*Result, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(team.Config().Inject); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	stages := buildStages(cfg)

	env := &stageEnv{team: team, cfg: cfg, libs: libs, res: &Result{}}
	var store *ckpt.Store
	var fp string
	for _, st := range stages {
		if store != nil && cfg.Resume && st.load != nil && store.Completed(st.name) {
			lerr := loadStage(env, store, st)
			if lerr == nil {
				continue
			}
			if !healableCkptErr(lerr) {
				return nil, lerr
			}
			// Storage damage surfaced mid-rehydration (corrupt or missing
			// segment): scrub the directory — quarantine the damage,
			// truncate the manifest to the longest intact prefix — reopen,
			// and fall through to recompute this stage. Later stages whose
			// entries were dropped recompute too: Completed is now false
			// for everything from the damage onward.
			store, lerr = healCkpt(env, fp)
			if lerr != nil {
				return nil, lerr
			}
		}
		err := runStage(env, st)
		if err != nil {
			return nil, err
		}
		if st.name == "io" && cfg.CkptDir != "" {
			// The store opens only after io: the fingerprint's domain is
			// the parsed read content, so io always reruns.
			if fp, err = runFingerprint(team, cfg, libs, env.readLibs); err != nil {
				return nil, err
			}
			if store, err = openStore(env, fp, cfg.Resume); err != nil {
				return nil, err
			}
		}
		if store != nil && st.save != nil {
			if err := saveStage(env, store, st); err != nil {
				return nil, err
			}
		}
	}

	res := env.res
	if cfg.ContigsOnly {
		for _, c := range res.Contigs.All() {
			res.FinalSeqs = append(res.FinalSeqs, c.Seq)
		}
	}
	res.Metrics = metrics.FromTeam(team)
	res.runVerify(cfg, env.merged)
	return res, nil
}

// runIO is stage 0: parallel FASTQ/SeqDB input, mate-pair repair across
// part boundaries, and the merged per-rank read view that feeds k-mer
// analysis.
func runIO(env *stageEnv) error {
	team := env.team
	p := team.Config().Ranks
	readLibs := make([]scaffold.ReadLib, len(env.libs))
	for li, lib := range env.libs {
		parts := make([][]fastq.Record, p)
		if strings.HasSuffix(lib.Path, ".seqdb") {
			fl, err := seqdb.Open(lib.Path)
			if err != nil {
				return fmt.Errorf("pipeline: opening %s: %w", lib.Path, err)
			}
			var readErr error
			team.Run(func(r *xrt.Rank) {
				recs, nBytes, err := fl.ReadPart(p, r.ID)
				if err != nil {
					readErr = err
					return
				}
				r.ChargeIORead(nBytes)
				parts[r.ID] = recs
			})
			if readErr != nil {
				return fmt.Errorf("pipeline: reading %s: %w", lib.Path, readErr)
			}
			repairPairs(parts)
		} else if lib.Path != "" {
			fl, err := fastq.OpenSplit(lib.Path, p)
			if err != nil {
				return fmt.Errorf("pipeline: opening %s: %w", lib.Path, err)
			}
			var readErr error
			team.Run(func(r *xrt.Rank) {
				recs, err := fl.ReadPart(r.ID)
				if err != nil {
					readErr = err
					return
				}
				r.ChargeIORead(fl.PartBytes(r.ID))
				parts[r.ID] = recs
			})
			fl.Close()
			if readErr != nil {
				return fmt.Errorf("pipeline: reading %s: %w", lib.Path, readErr)
			}
			repairPairs(parts)
		} else {
			var bytes int64
			for _, rec := range lib.Records {
				bytes += int64(len(rec.ID) + len(rec.Seq) + len(rec.Qual) + 6)
			}
			parts = xrt.DealPairs(lib.Records, p)
			team.Run(func(r *xrt.Rank) { r.ChargeIORead(bytes / int64(p)) })
		}
		readLibs[li] = scaffold.ReadLib{
			Name: lib.Name, ReadsByRank: parts, InsertHint: lib.InsertHint,
		}
	}
	env.readLibs = readLibs

	// all libraries feed k-mer analysis together
	merged := make([][]fastq.Record, p)
	for _, rl := range readLibs {
		for r := range merged {
			merged[r] = append(merged[r], rl.ReadsByRank[r]...)
		}
	}
	env.merged = merged
	return nil
}

// runVerify runs the assembly oracle when configured. It sees only raw
// sequences: the contig set, the final scaffolds, and the reads.
func (r *Result) runVerify(cfg Config, merged [][]fastq.Record) {
	if cfg.Verify == nil {
		return
	}
	opt := *cfg.Verify
	if opt.K <= 0 {
		if len(cfg.KmerLens) > 0 {
			// Multi-k output mixes contigs assembled at every k in the
			// sweep; only windows at the smallest k are guaranteed read-
			// supported for all of them.
			opt.K = cfg.KmerLens[0]
		} else {
			opt.K = cfg.K
		}
	}
	in := verify.Input{Finals: r.FinalSeqs}
	for _, part := range merged {
		for _, rec := range part {
			in.Reads = append(in.Reads, rec.Seq)
		}
	}
	if r.Contigs != nil {
		for _, c := range r.Contigs.All() {
			in.Contigs = append(in.Contigs, c.Seq)
		}
	}
	r.Verify = verify.Check(in, opt)
}

// contigResultFromSeqs re-enters scaffolding with a previous round's
// scaffolds as the contig set, dealt round-robin across ranks.
func contigResultFromSeqs(team *xrt.Team, seqs [][]byte) *contig.Result {
	cs := make([]*contig.Contig, len(seqs))
	for i, seq := range seqs {
		cs[i] = &contig.Contig{ID: int64(i + 1), Seq: seq}
	}
	return contig.ResultFromContigs(team, cs)
}

// repairPairs fixes mate pairing broken by byte-range splitting: when a
// part begins with the second read of a pair, that read is moved to the
// previous part.
func repairPairs(parts [][]fastq.Record) {
	for i := 1; i < len(parts); i++ {
		if len(parts[i]) == 0 {
			continue
		}
		first := parts[i][0]
		if !isMate2(first.ID) {
			continue
		}
		// find the previous non-empty part
		j := i - 1
		for j >= 0 && len(parts[j]) == 0 {
			j--
		}
		if j < 0 {
			continue
		}
		last := parts[j][len(parts[j])-1]
		if isMate1(last.ID) && sameBase(last.ID, first.ID) {
			parts[j] = append(parts[j], first)
			parts[i] = parts[i][1:]
		}
	}
}

func isMate1(id []byte) bool {
	return len(id) >= 2 && id[len(id)-2] == '/' && id[len(id)-1] == '1'
}

func isMate2(id []byte) bool {
	return len(id) >= 2 && id[len(id)-2] == '/' && id[len(id)-1] == '2'
}

func sameBase(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	return string(a[:len(a)-1]) == string(b[:len(b)-1])
}

// SimulatedHuman builds the scaled human-like dataset used throughout the
// experiment harness: a diploid genome with one short-insert library.
func SimulatedHuman(seed int64, genomeLen int, coverage float64) ([]byte, []Library) {
	rng := xrt.NewPrng(seed)
	g := genome.HumanLike(rng, genomeLen)
	hap2 := genome.Mutate(rng, g, 0.001)
	recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage:   coverage,
		Lib:        genome.Library{Name: "human395", ReadLen: 101, InsertMean: 395, InsertSD: 30},
		Err:        genome.DefaultErrorModel(),
		Haplotypes: [][]byte{hap2},
	})
	return g, []Library{{Name: "human395", Records: recs, InsertHint: 395}}
}

// SimulatedWheat builds the scaled wheat-like dataset: a highly repetitive
// genome with a short-insert library plus two long-insert libraries, as in
// the paper's wheat runs.
func SimulatedWheat(seed int64, genomeLen int, coverage float64) ([]byte, []Library) {
	rng := xrt.NewPrng(seed)
	g := genome.WheatLike(rng, genomeLen)
	var libs []Library
	specs := []genome.Library{
		{Name: "wheat500", ReadLen: 150, InsertMean: 500, InsertSD: 40},
		{Name: "wheat1k", ReadLen: 100, InsertMean: 1000, InsertSD: 80},
		{Name: "wheat4k", ReadLen: 100, InsertMean: 4200, InsertSD: 300},
	}
	covs := []float64{coverage * 0.7, coverage * 0.2, coverage * 0.1}
	for i, spec := range specs {
		recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
			Coverage: covs[i], Lib: spec, Err: genome.DefaultErrorModel(),
		})
		libs = append(libs, Library{Name: spec.Name, Records: recs, InsertHint: spec.InsertMean})
	}
	return g, libs
}

// SimulatedMetagenome builds the scaled wetlands-like dataset: many
// species, log-normal abundances, flat k-mer histogram.
func SimulatedMetagenome(seed int64, totalLen, species, pairs int) []Library {
	_, libs := SimulatedMetagenomeRefs(seed, totalLen, species, pairs)
	return libs
}

// SimulatedMetagenomeRefs is SimulatedMetagenome, but also returns the
// per-species references (with abundances) so the abundance-aware
// verify oracle can judge per-species recovery.
func SimulatedMetagenomeRefs(seed int64, totalLen, species, pairs int) ([]verify.Species, []Library) {
	rng := xrt.NewPrng(seed)
	gs, ab := genome.Metagenome(rng, totalLen, species)
	recs := genome.SimulateMetagenome(rng, gs, ab, pairs,
		genome.Library{Name: "wetland", ReadLen: 100, InsertMean: 300, InsertSD: 30},
		genome.DefaultErrorModel())
	sp := make([]verify.Species, len(gs))
	for i, g := range gs {
		sp[i] = verify.Species{Name: g.Name, Seq: g.Seq, Abundance: ab[i]}
	}
	return sp, []Library{{Name: "wetland", Records: recs, InsertHint: 300}}
}
