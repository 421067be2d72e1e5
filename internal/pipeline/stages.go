// Explicit stage registry and checkpoint/restart orchestration. The
// pipeline is a list of named stages, each with a run function plus
// optional save/load codecs; the runner walks the list, consults the
// checkpoint manifest on resume (skipping completed stages and
// rehydrating their outputs), and checkpoints each completed stage; the
// span it opens per computed stage is where the team arms an injected
// crash. Stage inputs and outputs flow through a stageEnv, making each
// stage's dependencies explicit: io fills readLibs/merged, k-mer analysis
// reads merged, contig generation reads the k-mer table, scaffolding
// reads contigs + table + readLibs, gap closing reads the scaffold result.
package pipeline

import (
	"errors"
	"fmt"

	"hipmer/internal/ckpt"
	"hipmer/internal/contig"
	"hipmer/internal/fastq"
	"hipmer/internal/gapclose"
	"hipmer/internal/kanalysis"
	"hipmer/internal/scaffold"
	"hipmer/internal/xrt"
)

// StageFailedError reports a pipeline stage aborted by an injected rank
// crash (xrt.Inject.FaultSeed) or a chaos-layer retry exhaustion (an
// armed xrt.Inject.ChaosSeed whose budget ran out): the team unwound
// cleanly, the error names the stage and rank, and — when checkpointing
// was on — every stage before the failed one remains resumable from
// Config.CkptDir.
type StageFailedError struct {
	// Stage is the pipeline stage that was running when the rank died.
	Stage string
	// Rank is the crashed rank (the sender, for a retry exhaustion).
	Rank int
	// Err is the underlying *xrt.FaultError or *xrt.RetryExhaustedError.
	Err error
}

func (e *StageFailedError) Error() string {
	return fmt.Sprintf("pipeline: stage %q failed: rank %d crashed: %v",
		e.Stage, e.Rank, e.Err)
}

func (e *StageFailedError) Unwrap() error { return e.Err }

// stageEnv carries the data flowing between stages of one pipeline run.
type stageEnv struct {
	team *xrt.Team
	cfg  Config
	libs []Library
	res  *Result

	// io outputs
	readLibs []scaffold.ReadLib
	merged   [][]fastq.Record

	// carried is the iterative-k loop's inter-round state: the merged,
	// globally renumbered contig set a pseudo-merge stage produced, fed
	// into the next round's k-mer analysis as pseudo-reads. Both the run
	// and load paths of a pseudo-merge stage set it, so a resume landing
	// at any stage boundary sees the same carried set a straight run
	// would.
	carried []*contig.Contig
	// cleanStat / mergeStat are the counters of the cleaning or merge stage
	// that ran last, for its save codec (a stage is saved right after it
	// runs, never after it loads).
	cleanStat contig.CleanStats
	mergeStat contig.MergeStats
}

// stage is one registry entry. save/load are nil for stages that cannot
// be checkpointed (io: its output is the input fingerprint's domain, so
// it always reruns). round tags the iterative-k round the stage belongs
// to (0 outside the multi-k loop) and is recorded in the checkpoint
// manifest.
type stage struct {
	name  string
	round int
	run   func(env *stageEnv) error
	save  func(env *stageEnv) []byte
	load  func(env *stageEnv, payload []byte) error
}

// buildStages assembles the registry for a config: io, then either the
// classic single-k pair (k-mer analysis, contig generation — the ladder's
// round constructors at cfg.K, under their unsuffixed names) or — when
// KmerLens is set — the iterative-k loop (per round: k-mer analysis,
// contig generation, tip clipping, bubble popping, pseudo-read merge),
// then (unless ContigsOnly) scaffolding and gap closing, with one extra
// scaffolding/gap-closing pair per additional ScaffoldRounds round.
func buildStages(cfg Config) []stage {
	saveKmer := func(k int) func(env *stageEnv) []byte {
		return func(env *stageEnv) []byte {
			return ckpt.EncodeKmerStage(env.res.KAnalysis, k, kanalysis.EffectiveMinimizerLen(k, 0, false))
		}
	}
	// Every load lands its payload on this team whatever rank count wrote
	// it: the k-mer decoder places entries by the team's owner function,
	// the contig-shaped decoders keep or re-deal their per-rank lists (see
	// the ckpt package comment), the payload itself saying which.
	loadKmer := func(env *stageEnv, payload []byte) (err error) {
		env.res.KAnalysis, err = ckpt.DecodeKmerStage(env.team, payload, 0)
		return err
	}
	saveContig := func(env *stageEnv) []byte {
		return ckpt.EncodeContigStage(env.res.Contigs)
	}
	loadContig := func(env *stageEnv, payload []byte) (err error) {
		// The de Bruijn graph is not checkpointed (nothing
		// downstream reads it); Result.Graph stays nil on resume.
		env.res.Contigs, err = ckpt.DecodeContigStageReshard(payload, env.team.Config().Ranks)
		return err
	}

	sts := []stage{{name: "io", run: runIO}}
	if len(cfg.KmerLens) == 0 {
		sts = append(sts,
			stage{name: "kmer-analysis", run: runKmerAnalysisRound(cfg.K, false),
				save: saveKmer(cfg.K), load: loadKmer},
			stage{name: "contig-generation", run: runContigRound(cfg.K),
				save: saveContig, load: loadContig},
		)
	} else {
		mergeK := cfg.KmerLens[0]
		for i, k := range cfg.KmerLens {
			round, k, usePseudo := i+1, k, i > 0
			sts = append(sts,
				stage{name: fmt.Sprintf("kmer-analysis-k%d", k), round: round,
					run: runKmerAnalysisRound(k, usePseudo), save: saveKmer(k), load: loadKmer},
				stage{name: fmt.Sprintf("contig-generation-k%d", k), round: round,
					run: runContigRound(k), save: saveContig, load: loadContig},
				stage{name: fmt.Sprintf("tip-clip-k%d", k), round: round,
					run: runTipClip(k), save: saveClean, load: loadClean},
				stage{name: fmt.Sprintf("bubble-pop-k%d", k), round: round,
					run: runBubblePop(k), save: saveClean, load: loadClean},
				stage{name: fmt.Sprintf("pseudo-merge-k%d", k), round: round,
					run: runPseudoMerge(mergeK, k), save: saveCarry, load: loadCarry},
			)
		}
	}
	if cfg.ContigsOnly {
		return sts
	}
	saveScaffold := func(env *stageEnv) []byte {
		return ckpt.EncodeScaffoldStage(env.res.Scaffold)
	}
	loadScaffold := func(env *stageEnv, payload []byte) error {
		// The seed index is not checkpointed (gap closing reads one
		// placement per read, never the index); Result.Index stays nil
		// on resume.
		sr, writtenAt, err := ckpt.DecodeScaffoldStageAny(payload)
		if err == nil && writtenAt != env.team.Config().Ranks {
			err = reshardScaffold(env, sr)
		}
		env.res.Scaffold = sr
		return err
	}
	saveGapclose := func(env *stageEnv) []byte {
		return ckpt.EncodeGapcloseStage(env.res.Gapclose)
	}
	loadGapclose := func(env *stageEnv, payload []byte) error {
		gr, err := ckpt.DecodeGapcloseStage(payload)
		if err != nil {
			return err
		}
		env.res.Gapclose = gr
		env.res.FinalSeqs = gr.ScaffoldSeqs
		return nil
	}
	sts = append(sts,
		stage{name: "scaffolding", run: runScaffolding,
			save: saveScaffold, load: loadScaffold},
		stage{name: "gap-closing", run: runGapClosing,
			save: saveGapclose, load: loadGapclose},
	)
	for round := 2; round <= cfg.ScaffoldRounds; round++ {
		sts = append(sts,
			stage{
				name: fmt.Sprintf("scaffolding-round%d", round),
				run:  runScaffoldingRound,
				save: saveScaffold, load: loadScaffold,
			},
			stage{
				name: fmt.Sprintf("gap-closing-round%d", round),
				run:  runGapClosing,
				save: saveGapclose, load: loadGapclose,
			},
		)
	}
	return sts
}

// StageNames returns the pipeline's stage names for a config, in
// execution order — the legal targets for xrt.Inject.FailStage.
func StageNames(cfg Config) []string {
	sts := buildStages(cfg.WithDefaults())
	names := make([]string, len(sts))
	for i, st := range sts {
		names[i] = st.name
	}
	return names
}

// ---------------------------------------------------------------------
// stage run functions
//
// Each ladder round's five stages are closures over that round's k (the
// single-k pipeline is the one-round case of the first two): the
// cleaning stages mutate env.res.Contigs in place; the pseudo-merge folds
// the previous round's carried set into the current survivors and
// renumbers. All inter-stage state lives in env.res.Contigs /
// env.carried and every stage has a codec, so a crash at any stage
// boundary resumes exactly.

// runKmerAnalysisRound is k-mer analysis at a specific k; ladder rounds
// after the first also ingest the previous round's carried contigs as
// depth-weighted pseudo-reads. Every run has heavy hitters on and uses the
// super-k-mer transport at the default minimizer length: the per-item
// transport and the other kanalysis switches are the exhibits' ablations.
func runKmerAnalysisRound(k int, usePseudo bool) func(env *stageEnv) error {
	return func(env *stageEnv) error {
		opt := kanalysis.Options{
			K:            k,
			MinCount:     env.cfg.MinCount,
			HeavyHitters: true,
		}
		if usePseudo {
			opt.PseudoByRank = pseudoByRank(env.team.Config().Ranks, env.carried)
		}
		env.res.KAnalysis = kanalysis.Run(env.team, env.merged, opt)
		return nil
	}
}

// pseudoByRank deals the carried contigs round-robin into per-rank
// pseudo-read lists. carried is globally renumbered and sorted, so the
// deal is deterministic and independent of rank count only in content —
// per-rank placement varies with p, but k-mer analysis results are
// placement-invariant (counts are commutative sums).
func pseudoByRank(p int, carried []*contig.Contig) [][]kanalysis.PseudoRead {
	prs := make([]kanalysis.PseudoRead, len(carried))
	for i, c := range carried {
		prs[i] = kanalysis.PseudoRead{Seq: c.Seq, Weight: c.PseudoWeight}
	}
	return xrt.Deal(prs, p)
}

func runContigRound(k int) func(env *stageEnv) error {
	return func(env *stageEnv) error {
		env.res.Contigs = contig.Run(env.team, env.res.KAnalysis.Table, contig.Options{K: k})
		return nil
	}
}

func runTipClip(k int) func(env *stageEnv) error {
	return func(env *stageEnv) error {
		st := contig.ClipTips(env.team, env.res.Contigs, contig.CleanOptions{K: k})
		env.cleanStat = st
		env.team.AddCounter("tips_clipped", st.TipsClipped)
		env.team.AddCounter("clean_bases_removed", st.BasesRemoved)
		return nil
	}
}

func runBubblePop(k int) func(env *stageEnv) error {
	return func(env *stageEnv) error {
		st := contig.PopBubbles(env.team, env.res.Contigs, contig.CleanOptions{K: k})
		env.cleanStat = st
		env.team.AddCounter("bubbles_popped", st.BubblesPopped)
		env.team.AddCounter("clean_bases_removed", st.BasesRemoved)
		return nil
	}
}

// runPseudoMerge folds the previous round's carried contigs into the
// current round's cleaned survivors (localized bubble detection at the
// sweep's smallest k — see contig.MergeRounds) and re-deals the merged
// set as the round's contig result. It runs in round 1 too, where it
// trivially carries everything: every round then ends at the same kind
// of boundary, so resume logic never special-cases the first round.
func runPseudoMerge(mergeK, k int) func(env *stageEnv) error {
	return func(env *stageEnv) error {
		carried, st := contig.MergeRounds(env.team, env.carried, env.res.Contigs, mergeK, k)
		env.carried = carried
		env.res.Contigs = contig.ResultFromContigs(env.team, carried)
		env.mergeStat = st
		env.team.AddCounter("pseudo_carried", st.Carried)
		env.team.AddCounter("pseudo_represented", st.Represented)
		env.team.AddCounter("pseudo_popped_old", st.PoppedOld)
		env.team.AddCounter("pseudo_rescued", st.Rescued)
		return nil
	}
}

func saveClean(env *stageEnv) []byte {
	return ckpt.EncodeCleaningStage(env.res.Contigs, env.cleanStat)
}

func loadClean(env *stageEnv, payload []byte) (err error) {
	env.res.Contigs, _, err = ckpt.DecodeCleaningStageReshard(payload, env.team.Config().Ranks)
	return err
}

func saveCarry(env *stageEnv) []byte {
	return ckpt.EncodeCarryStage(env.carried, env.mergeStat)
}

// loadCarry: the carried set is a global sorted list and ResultFromContigs
// deals it over whatever team is running.
func loadCarry(env *stageEnv, payload []byte) error {
	carried, _, err := ckpt.DecodeCarryStage(payload)
	if err != nil {
		return err
	}
	env.carried = carried
	env.res.Contigs = contig.ResultFromContigs(env.team, carried)
	return nil
}

func runScaffolding(env *stageEnv) error {
	env.res.Scaffold = scaffold.Run(env.team, env.res.Contigs,
		env.res.KAnalysis.Table, env.readLibs, scaffold.Options{K: env.cfg.K})
	return nil
}

// runScaffoldingRound re-enters scaffolding with the previous round's
// final sequences as the contig set (§5.3: wheat uses four rounds).
func runScaffoldingRound(env *stageEnv) error {
	ctgRes := contigResultFromSeqs(env.team, env.res.FinalSeqs)
	sOpt := scaffold.Options{K: env.cfg.K, DisableBubbles: true} // no junction metadata on re-entry
	env.res.Scaffold = scaffold.Run(env.team, ctgRes,
		env.res.KAnalysis.Table, env.readLibs, sOpt)
	return nil
}

func runGapClosing(env *stageEnv) error {
	gcOpt := gapclose.Options{K: env.cfg.K, KmerTable: env.res.KAnalysis.Table} // frozen: lock-free closure verification
	env.res.Gapclose = gapclose.Run(env.team, env.res.Scaffold, env.readLibs, gcOpt)
	env.res.FinalSeqs = env.res.Gapclose.ScaffoldSeqs
	return nil
}

// ---------------------------------------------------------------------
// stage execution, checkpoint save/load, fault recovery

// runStage executes one stage under its span — the per-rank comm and
// busy-time deltas internal/metrics reports, and the stage's time —
// converting a team unwind — an injected rank crash (*xrt.FaultError
// panic) or a chaos-layer retry exhaustion (*xrt.RetryExhaustedError
// panic) — into a typed StageFailedError after unwinding every span the
// dead stage left open.
func runStage(env *stageEnv, st stage) (err error) {
	depth := env.team.OpenSpans()
	defer func() {
		if p := recover(); p != nil {
			var rank int
			switch e := p.(type) {
			case *xrt.FaultError:
				rank = e.Rank
			case *xrt.RetryExhaustedError:
				rank = e.Src
			default:
				panic(p)
			}
			for env.team.OpenSpans() > depth {
				env.team.EndSpan()
			}
			err = &StageFailedError{Stage: st.name, Rank: rank, Err: p.(error)}
		}
	}()
	env.team.BeginSpan(st.name)
	err = st.run(env)
	env.team.EndSpan()
	return err
}

// openStore opens the run's checkpoint directory for this team: created
// fresh, or with resume reopened under the same fingerprint. A resume at
// another rank geometry adopts the directory — the recorded topology now
// names this run's — and every load lands its payload on this team
// whatever count wrote it. The team's Inject is set on every store
// opened, so its disk fault survives a reopen after a heal.
func openStore(env *stageEnv, fp string, resume bool) (*ckpt.Store, error) {
	tc := env.team.Config()
	topo := ckpt.Topology{Ranks: tc.Ranks, RanksPerNode: tc.RanksPerNode}
	var store *ckpt.Store
	var err error
	if !resume {
		store, err = ckpt.Create(env.cfg.CkptDir, fp, topo)
	} else {
		store, err = ckpt.Resume(env.cfg.CkptDir, fp)
		if errors.Is(err, ckpt.ErrBadManifest) {
			// An unparsable manifest cannot seed a resume and Scrub cannot
			// heal it either: there is no trustworthy record of an intact
			// prefix.
			err = fmt.Errorf("%w: %w", ckpt.ErrUnrecoverableCkpt, err)
		}
		if err == nil && store.Topology() != topo {
			err = store.AdoptTopology(topo)
		}
	}
	if err != nil {
		return nil, err
	}
	store.SetDiskFault(tc.Inject)
	return store, nil
}

// saveStage checkpoints a completed stage: serialize, write segment +
// manifest, and charge the virtual write inside a checkpoint-save span
// (the segment bytes divided evenly across ranks, the same collective-
// I/O model the reader uses). An injected ENOSPC refuses the write: no
// segment, no manifest entry. The stage itself succeeded, so the run
// carries on — a later resume simply recomputes the hole — and the
// attempted write is still charged (the payload hit the wire before the
// refusal). A disk fault aimed at this stage damaged its write, whatever
// its kind, and is counted on rank 0.
func saveStage(env *stageEnv, store *ckpt.Store, st stage) error {
	payload := st.save(env)
	entry, err := store.WriteStageRound(st.name, st.round, payload)
	refused := errors.Is(err, ckpt.ErrWriteRefused)
	if err != nil && !refused {
		return fmt.Errorf("pipeline: checkpointing %s: %w", st.name, err)
	}
	inj := env.team.Config().Inject
	fired := inj.Kind() != xrt.DiskFaultNone && inj.DiskFailStage == st.name
	env.team.BeginSpan("checkpoint-save:" + st.name)
	written := int64(len(payload))
	if !refused {
		written = entry.Bytes
		env.team.AddCounter("ckpt_bytes", written)
	}
	share := written/int64(env.team.Config().Ranks) + 1
	env.team.Run(func(r *xrt.Rank) {
		r.ChargeIOWrite(share)
		if fired && r.ID == 0 {
			r.CountDiskFault()
		}
	})
	env.team.EndSpan()
	return nil
}

// loadStage rehydrates a completed stage from its checkpoint inside a
// checkpoint-load span: the segment bytes are charged as a collective
// read, and any table rebuilding (k-mer analysis) runs its own SPMD
// phase under the same span.
func loadStage(env *stageEnv, store *ckpt.Store, st stage) error {
	payload, err := store.ReadStage(st.name)
	if err != nil {
		return fmt.Errorf("pipeline: resuming %s: %w", st.name, err)
	}
	env.team.BeginSpan("checkpoint-load:" + st.name)
	env.team.AddCounter("ckpt_bytes", int64(len(payload)))
	share := int64(len(payload))/int64(env.team.Config().Ranks) + 1
	env.team.Run(func(r *xrt.Rank) { r.ChargeIORead(share) })
	lerr := st.load(env, payload)
	env.team.EndSpan()
	if lerr != nil {
		return fmt.Errorf("pipeline: resuming %s: %w", st.name, lerr)
	}
	return nil
}

// runFingerprint digests everything that shapes stage outputs: the run
// seed, every pipeline knob, and the full read content of every library
// in the partition-independent global order (see reshard.go). The rank
// geometry is deliberately NOT part of the digest — it is recorded
// separately as the manifest's Topology — so a checkpoint resumes on a
// different rank count (elastic rescale) while a different config or
// input is still refused. Computed after io (reads are the fingerprint's
// domain, so io always reruns). Perturb, fault, chaos, and disk-fault
// seeds are likewise excluded: they must not change outputs (schedule
// perturbation, message-level chaos) or represent the failure being
// recovered from (fault injection, retry exhaustion, storage damage),
// so a checkpoint from a crashed or damaged run resumes under any of
// them — including a calmer plan than the one that broke it.
func runFingerprint(team *xrt.Team, cfg Config, libs []Library, readLibs []scaffold.ReadLib) (string, error) {
	f := ckpt.NewFingerprint()
	f.Str(ckpt.Schema)
	f.Int(team.Config().Seed)
	f.Int(int64(cfg.K))
	f.Int(int64(len(cfg.KmerLens)))
	for _, k := range cfg.KmerLens {
		f.Int(int64(k))
	}
	f.Int(int64(cfg.MinCount))
	// A zero word where the aggregating-stores buffer size (zero in every
	// product run) was hashed, so checkpoints written before its removal
	// resume.
	f.Int(0)
	f.Bool(cfg.ContigsOnly)
	f.Int(int64(cfg.ScaffoldRounds))
	for li, rl := range readLibs {
		f.Str(rl.Name)
		f.Int(int64(rl.InsertHint))
		recs, err := globalOrder(libs[li], rl.ReadsByRank)
		if err != nil {
			return "", fmt.Errorf("pipeline: fingerprinting %s: %w", rl.Name, err)
		}
		f.Int(int64(len(recs)))
		for _, rec := range recs {
			f.Bytes(rec.ID)
			f.Bytes(rec.Seq)
			f.Bytes(rec.Qual)
		}
	}
	return f.Hex(), nil
}
