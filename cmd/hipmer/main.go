// Command hipmer assembles paired reads (FASTQ or .seqdb) into scaffolds
// with the full HipMer pipeline on the simulated distributed runtime.
//
// Usage:
//
//	hipmer -reads lib1.fastq[,insert] [-reads lib2.fastq,4200] \
//	       -k 31 -ranks 48 -out assembly.fasta [-contigs-only] [-ref ref.fasta] \
//	       [-kmer-lens 21,33,55] \
//	       [-ckpt-dir run1.ckpt [-resume [-ranks N]]] [-fault-seed N -fail-stage scaffolding] \
//	       [-chaos-seed N -drop-rate 0.05 [-retry-budget 16]] \
//	       [-disk-fault-seed N -disk-fail-stage contig-generation]
//	hipmer -scrub -ckpt-dir run1.ckpt
//
// -kmer-lens runs the MetaHipMer-style iterative-k loop (metagenome
// mode): one assembly round per length, each round's tip-clipped and
// bubble-popped contigs fed into the next as weighted pseudo-reads.
// Stage names gain per-round suffixes (e.g. tip-clip-k33) for
// -fail-stage targeting.
//
// With -ckpt-dir each stage's output is checkpointed as it completes;
// rerunning with -resume skips completed stages after validating the
// checkpoint's config/input fingerprint. A resume may change the rank
// count (elastic rescale): without an explicit -ranks (or with -ranks 0)
// the run adopts the checkpoint's recorded topology; with one, the
// recorded stage state is re-sharded onto the new count and the assembly
// is bit-identical to a from-scratch run at that count.
// -fault-seed/-fail-stage inject a deterministic rank crash for
// crash-resume testing. -chaos-seed arms the unreliable-transport
// simulation: messages are dropped/duplicated per -drop-rate and carried
// by the deterministic retry/backoff/dedup layer; the assembly must be
// bit-identical to the fault-free run.
//
// -disk-fault-seed/-disk-fail-stage inject deterministic storage damage
// into the named stage's checkpoint write (torn write, bit-flip,
// deletion, or refused write — the kind cycles with the seed); the
// faulted run still completes bit-identically, and a later -resume
// detects the damage, scrubs the directory, and recomputes the damaged
// suffix. -scrub runs the same repair offline: it re-validates every
// manifest entry, quarantines damaged segments as *.quarantine, prints
// a per-entry verdict table, and truncates the manifest to the longest
// intact prefix.
//
// Exit codes: 0 success (or verified), 1 runtime/verification error,
// 2 usage error (validateOptions), 3 injected rank crash (resumable with
// -resume), 4 chaos retry budget exhausted (also resumable with -resume),
// 5 checkpoint written by a different config/input (fingerprint
// mismatch), 8 checkpoint unrecoverable — manifest missing or
// unparsable, nothing to heal from (start a fresh -ckpt-dir). A resume
// at another rank count is never refused. Code 7 is hipmerd's (a job
// refused by admission control); cli_test.go runs this contract end to
// end.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"hipmer"
	"hipmer/internal/ckpt"
	"hipmer/internal/fasta"
	"hipmer/internal/pipeline"
	"hipmer/internal/prof"
)

type libFlags []hipmer.Library

func (l *libFlags) String() string { return fmt.Sprintf("%d libraries", len(*l)) }

func (l *libFlags) Set(v string) error {
	parts := strings.SplitN(v, ",", 2)
	lib := hipmer.Library{Name: parts[0], Path: parts[0]}
	if len(parts) == 2 {
		ins, err := strconv.Atoi(parts[1])
		if err != nil {
			return fmt.Errorf("bad insert size %q: %w", parts[1], err)
		}
		lib.InsertMean = ins
	}
	*l = append(*l, lib)
	return nil
}

func main() {
	var libs libFlags
	var opts hipmer.Options
	flag.Var(&libs, "reads", "FASTQ or .seqdb file, optionally with ,insertSize (repeatable)")
	flag.IntVar(&opts.K, "k", 31, "k-mer length (odd)")
	kmerLens := flag.String("kmer-lens", "", "comma-separated iterative-k ladder, e.g. 21,33,55 (odd, strictly increasing); runs one assembly round per length with contig feedback, overriding -k")
	flag.IntVar(&opts.MinCount, "min-count", 2, "minimum k-mer count (error threshold)")
	flag.IntVar(&opts.Ranks, "ranks", 48, "simulated processor count (with -resume: 0 or omitted adopts the checkpoint's recorded rank count; an explicit value re-shards the checkpoint onto it)")
	flag.IntVar(&opts.RanksPerNode, "ranks-per-node", 24, "simulated cores per node")
	flag.Int64Var(&opts.Seed, "seed", 1, "run seed: recorded in the metrics report and the checkpoint fingerprint (a -resume under another seed is refused); the assembly does not depend on it")
	out := flag.String("out", "assembly.fasta", "output FASTA path")
	flag.BoolVar(&opts.ContigsOnly, "contigs-only", false, "stop after contig generation (metagenome mode)")
	refPath := flag.String("ref", "", "optional reference FASTA for validation")
	flag.BoolVar(&opts.Verify, "verify", false, "run the assembly oracle (with -ref: also misassembly and gap checks); exit nonzero on failure")
	flag.Int64Var(&opts.PerturbSeed, "perturb-seed", 0, "schedule-perturbation seed (0 = off); output must not depend on it")
	metricsOut := flag.String("metrics-out", "", "write the per-stage metrics report (JSON) to this path")
	flag.StringVar(&opts.CkptDir, "ckpt-dir", "", "checkpoint each stage's output into this directory")
	flag.BoolVar(&opts.Resume, "resume", false, "skip stages already checkpointed in -ckpt-dir (fingerprint-validated)")
	flag.Int64Var(&opts.FaultSeed, "fault-seed", 0, "deterministic fault-injection seed (requires -fail-stage)")
	flag.StringVar(&opts.FailStage, "fail-stage", "", "pipeline stage the injected rank crash fires in (requires -fault-seed)")
	flag.Int64Var(&opts.ChaosSeed, "chaos-seed", 0, "unreliable-transport seed (0 = off); output must not depend on it")
	flag.Float64Var(&opts.DropRate, "drop-rate", 0, "per-message loss probability in [0,1) (requires -chaos-seed)")
	flag.IntVar(&opts.RetryBudget, "retry-budget", 16, "max retransmissions per message before the run fails (exit 4)")
	flag.Int64Var(&opts.DiskFaultSeed, "disk-fault-seed", 0, "storage fault-injection seed (requires -disk-fail-stage and -ckpt-dir)")
	flag.StringVar(&opts.DiskFailStage, "disk-fail-stage", "", "checkpointable stage whose segment write the storage fault damages")
	profiles := prof.Flags()
	scrub := flag.Bool("scrub", false, "offline checkpoint repair: validate -ckpt-dir, quarantine damaged segments, truncate to the intact prefix, and exit")
	flag.Parse()

	// Every exit below goes through profiles.Exit: os.Exit skips deferred
	// calls, and a profile that is not stopped is not written.
	exit := profiles.Exit
	if err := profiles.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "hipmer: %v\n", err)
		os.Exit(2)
	}

	// A resume defaults to the checkpoint's recorded topology: the flag
	// defaults (48/24) must not silently rescale a checkpoint written at
	// another rank count, so unless the user explicitly set the flag it
	// collapses to the adopt-recorded sentinel (Options.Ranks == 0).
	if opts.Resume {
		ranksSet, rpnSet := false, false
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "ranks":
				ranksSet = true
			case "ranks-per-node":
				rpnSet = true
			}
		})
		if !ranksSet {
			opts.Ranks = 0
		}
		if !rpnSet {
			opts.RanksPerNode = 0
		}
	}

	if *kmerLens != "" {
		for _, s := range strings.Split(*kmerLens, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "hipmer: bad -kmer-lens entry %q\n", s)
				exit(2)
			}
			opts.KmerLens = append(opts.KmerLens, v)
		}
	}

	if err := validateOptions(opts, len(libs), *scrub); err != nil {
		fmt.Fprintf(os.Stderr, "hipmer: %v\n", err)
		flag.Usage()
		exit(2)
	}

	if *scrub {
		rep, err := ckpt.Scrub(opts.CkptDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hipmer: scrubbing %s: %v\n", opts.CkptDir, err)
			if errors.Is(err, ckpt.ErrUnrecoverableCkpt) {
				exit(exitUnrecoverableCkpt)
			}
			exit(1)
		}
		fmt.Print(rep.FormatTable())
		if rep.Healed() {
			fmt.Printf("healed: rerun with -resume to recompute the dropped stages\n")
		}
		exit(0)
	}

	var ref []byte
	if *refPath != "" {
		refs, err := fasta.ReadFile(*refPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hipmer: reading reference: %v\n", err)
			exit(1)
		}
		for _, r := range refs {
			ref = append(ref, r.Seq...)
		}
	}
	if opts.Verify {
		opts.VerifyRef = ref
	}

	res, err := hipmer.Assemble(libs, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hipmer: %v\n", err)
		var sf *pipeline.StageFailedError
		switch code := exitCodeFor(err); code {
		case exitRetryExhausted:
			// Chaos retry budget exhausted: distinct exit code so chaos
			// harnesses can tell transport give-up from a real error.
			if errors.As(err, &sf) && opts.CkptDir != "" {
				fmt.Fprintf(os.Stderr, "hipmer: stages before %q are checkpointed in %s; rerun with -resume (any -chaos-seed)\n",
					sf.Stage, opts.CkptDir)
			}
			exit(code)
		case exitInjectedCrash:
			// Injected crash: distinct exit code so harnesses can tell a
			// planned failure (resumable via -resume) from a real error.
			if errors.As(err, &sf) && opts.CkptDir != "" {
				fmt.Fprintf(os.Stderr, "hipmer: stages before %q are checkpointed in %s; rerun with -resume\n",
					sf.Stage, opts.CkptDir)
			}
			exit(code)
		case exitFingerprintMismatch:
			fmt.Fprintf(os.Stderr, "hipmer: the checkpoint in %s was written by a different config or input; rerun with the original flags and reads, or start a fresh -ckpt-dir\n",
				opts.CkptDir)
			exit(code)
		case exitUnrecoverableCkpt:
			fmt.Fprintf(os.Stderr, "hipmer: the checkpoint in %s is beyond self-healing (manifest missing or unparsable); inspect with -scrub or start a fresh -ckpt-dir\n",
				opts.CkptDir)
			exit(code)
		default:
			exit(code)
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hipmer: %v\n", err)
		exit(1)
	}
	if err := res.WriteFasta(f); err != nil {
		fmt.Fprintf(os.Stderr, "hipmer: writing %s: %v\n", *out, err)
		exit(1)
	}
	f.Close()

	if *metricsOut != "" && res.Metrics != nil {
		var names []string
		for _, lib := range libs {
			names = append(names, lib.Name)
		}
		res.Metrics.Dataset = strings.Join(names, "+")
		if err := res.Metrics.WriteFile(*metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "hipmer: writing metrics: %v\n", err)
			exit(1)
		}
		fmt.Printf("metrics: wrote %s (%d stage spans)\n", *metricsOut, len(res.Metrics.Stages))
	}

	fmt.Printf("assembly: %d sequences, %d bases, N50 %d, max %d, %d gap bases\n",
		res.Stats.Sequences, res.Stats.TotalLen, res.Stats.N50,
		res.Stats.MaxLen, res.Stats.GapBases)
	fmt.Printf("contigs: %d   heavy hitters: %d   bubbles: %d   gaps closed: %d/%d\n",
		res.ContigCount, res.HeavyHitters, res.Bubbles, res.GapsClosed, res.Gaps)
	// Every top-level span of the run — stages, checkpoint saves and loads
	// — plus the aligner's share of each scaffolding round; they add up to
	// the total.
	fmt.Println("stage timings (simulated machine):")
	for _, st := range res.Metrics.Stages {
		if st.Depth == 0 || st.Name == "merAligner" {
			fmt.Printf("  %-18s %12v\n", strings.Repeat("  ", st.Depth)+st.Name, time.Duration(st.VirtualNs))
		}
	}
	fmt.Printf("  %-18s %12v\n", "total", time.Duration(res.Metrics.VirtualNs))

	// One reference verdict: the oracle's when it ran (with -ref it
	// includes the placement), else the placement check alone.
	if res.Verify != nil {
		fmt.Println(res.Verify.Summary)
		for _, is := range res.Verify.Issues {
			fmt.Printf("  %s\n", is)
		}
		if !res.Verify.OK() {
			exit(1)
		}
	} else if len(ref) > 0 {
		v := res.Validate(ref)
		fmt.Printf("validation: %d placed, %d unplaced, %d misassemblies, "+
			"coverage %.2f%%, identity %.4f%%\n",
			v.Placed, v.Unplaced, v.Misassemblies,
			100*v.CoveredFrac, 100*v.IdentityFrac)
	}
	exit(0)
}
