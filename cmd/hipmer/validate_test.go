package main

import (
	"strings"
	"testing"

	"hipmer"
	"hipmer/internal/pipeline"
	"hipmer/internal/sched"
)

func TestValidateOptions(t *testing.T) {
	ok := hipmer.Options{K: 31, MinCount: 2, Ranks: 16, RanksPerNode: 8}
	cases := []struct {
		name    string
		mutate  func(o *hipmer.Options)
		nLibs   int
		scrub   bool
		wantErr string
	}{
		{"valid", func(o *hipmer.Options) {}, 1, false, ""},
		{"no-libs", func(o *hipmer.Options) {}, 0, false, "-reads"},
		{"k-zero", func(o *hipmer.Options) { o.K = 0 }, 1, false, "1..64"},
		{"k-too-big", func(o *hipmer.Options) { o.K = 65 }, 1, false, "1..64"},
		{"k-even", func(o *hipmer.Options) { o.K = 32 }, 1, false, "odd"},
		{"min-count", func(o *hipmer.Options) { o.MinCount = 0 }, 1, false, "-min-count"},
		{"ranks", func(o *hipmer.Options) { o.Ranks = 0 }, 1, false, "-ranks"},
		{"ranks-per-node", func(o *hipmer.Options) { o.RanksPerNode = -1 }, 1, false, "-ranks-per-node"},
		// Ranks 0 is the adopt-recorded-topology sentinel, legal only on
		// a resume; negative counts never are.
		{"ranks-zero-with-resume", func(o *hipmer.Options) {
			o.Ranks = 0
			o.Resume = true
			o.CkptDir = "d"
		}, 1, false, ""},
		{"ranks-per-node-zero-with-resume", func(o *hipmer.Options) {
			o.Ranks = 0
			o.RanksPerNode = 0
			o.Resume = true
			o.CkptDir = "d"
		}, 1, false, ""},
		{"ranks-negative-with-resume", func(o *hipmer.Options) {
			o.Ranks = -3
			o.Resume = true
			o.CkptDir = "d"
		}, 1, false, "-ranks"},
		{"rescale-explicit-ranks-with-resume", func(o *hipmer.Options) {
			o.Ranks = 32
			o.Resume = true
			o.CkptDir = "d"
		}, 1, false, ""},
		{"rounds", func(o *hipmer.Options) { o.ScaffoldRounds = -2 }, 1, false, "ScaffoldRounds must be >= 0, got -2"},
		{"resume-without-dir", func(o *hipmer.Options) { o.Resume = true }, 1, false, "-ckpt-dir"},
		{"resume-with-dir", func(o *hipmer.Options) { o.Resume = true; o.CkptDir = "d" }, 1, false, ""},
		{"fault-seed-alone", func(o *hipmer.Options) { o.FaultSeed = 9 }, 1, false, "together"},
		{"fail-stage-alone", func(o *hipmer.Options) { o.FailStage = "scaffolding" }, 1, false, "together"},
		{"fault-pair", func(o *hipmer.Options) { o.FaultSeed = 9; o.FailStage = "scaffolding" }, 1, false, ""},
		{"fault-stage-gone-in-contigs-only", func(o *hipmer.Options) {
			o.ContigsOnly = true
			o.FaultSeed = 9
			o.FailStage = "scaffolding"
		}, 1, false, "-contigs-only"},
		{"fault-stage-ok-in-contigs-only", func(o *hipmer.Options) {
			o.ContigsOnly = true
			o.FaultSeed = 9
			o.FailStage = "kmer-analysis"
		}, 1, false, ""},
		{"kmer-lens-valid", func(o *hipmer.Options) { o.KmerLens = []int{21, 33, 55} }, 1, false, ""},
		{"kmer-lens-even", func(o *hipmer.Options) { o.KmerLens = []int{21, 32, 55} }, 1, false, "odd"},
		{"kmer-lens-zero", func(o *hipmer.Options) { o.KmerLens = []int{0, 21} }, 1, false, "1..64"},
		{"kmer-lens-too-big", func(o *hipmer.Options) { o.KmerLens = []int{21, 65} }, 1, false, "1..64"},
		{"kmer-lens-decreasing", func(o *hipmer.Options) { o.KmerLens = []int{33, 21} }, 1, false, "strictly increasing"},
		{"kmer-lens-repeated", func(o *hipmer.Options) { o.KmerLens = []int{21, 21} }, 1, false, "strictly increasing"},
		{"fail-stage-round-suffixed", func(o *hipmer.Options) {
			o.KmerLens = []int{21, 33, 55}
			o.FaultSeed = 9
			o.FailStage = "tip-clip-k33"
		}, 1, false, ""},
		{"fail-stage-unsuffixed-in-multi-k", func(o *hipmer.Options) {
			o.KmerLens = []int{21, 33, 55}
			o.FaultSeed = 9
			o.FailStage = "kmer-analysis"
		}, 1, false, "-kmer-lens"},
		{"fail-stage-scaffolding-in-multi-k", func(o *hipmer.Options) {
			o.KmerLens = []int{21, 33, 55}
			o.FaultSeed = 9
			o.FailStage = "scaffolding"
		}, 1, false, ""},
		{"fail-stage-gone-in-multi-k-contigs-only", func(o *hipmer.Options) {
			o.KmerLens = []int{21, 33, 55}
			o.ContigsOnly = true
			o.FaultSeed = 9
			o.FailStage = "scaffolding"
		}, 1, false, "-kmer-lens"},
		{"drop-rate-negative", func(o *hipmer.Options) {
			o.ChaosSeed = 7
			o.RetryBudget = 16
			o.DropRate = -0.1
		}, 1, false, "[0,1)"},
		{"drop-rate-one", func(o *hipmer.Options) {
			o.ChaosSeed = 7
			o.RetryBudget = 16
			o.DropRate = 1.0
		}, 1, false, "[0,1)"},
		{"drop-rate-without-chaos-seed", func(o *hipmer.Options) {
			o.DropRate = 0.05
			o.RetryBudget = 16
		}, 1, false, "-chaos-seed"},
		{"retry-budget-zero-with-chaos", func(o *hipmer.Options) {
			o.ChaosSeed = 7
			o.RetryBudget = 0
		}, 1, false, "-retry-budget"},
		{"chaos-valid", func(o *hipmer.Options) {
			o.ChaosSeed = 7
			o.DropRate = 0.05
			o.RetryBudget = 16
		}, 1, false, ""},
		{"chaos-seed-without-drop-rate", func(o *hipmer.Options) {
			o.ChaosSeed = 7
			o.RetryBudget = 16
		}, 1, false, ""},
		{"disk-fault-seed-alone", func(o *hipmer.Options) {
			o.DiskFaultSeed = 21
			o.CkptDir = "d"
		}, 1, false, "together"},
		{"disk-fail-stage-alone", func(o *hipmer.Options) {
			o.DiskFailStage = "scaffolding"
			o.CkptDir = "d"
		}, 1, false, "together"},
		{"disk-fault-without-ckpt-dir", func(o *hipmer.Options) {
			o.DiskFaultSeed = 21
			o.DiskFailStage = "scaffolding"
		}, 1, false, "-ckpt-dir"},
		{"disk-fault-pair", func(o *hipmer.Options) {
			o.DiskFaultSeed = 21
			o.DiskFailStage = "scaffolding"
			o.CkptDir = "d"
		}, 1, false, ""},
		// io is a real stage name but writes no checkpoint segment, so
		// there is nothing for a disk fault to damage.
		{"disk-fail-stage-io", func(o *hipmer.Options) {
			o.DiskFaultSeed = 21
			o.DiskFailStage = "io"
			o.CkptDir = "d"
		}, 1, false, "checkpointable"},
		{"disk-fail-stage-unknown", func(o *hipmer.Options) {
			o.DiskFaultSeed = 21
			o.DiskFailStage = "no-such-stage"
			o.CkptDir = "d"
		}, 1, false, "checkpointable"},
		{"disk-fail-stage-gone-in-contigs-only", func(o *hipmer.Options) {
			o.ContigsOnly = true
			o.DiskFaultSeed = 21
			o.DiskFailStage = "scaffolding"
			o.CkptDir = "d"
		}, 1, false, "checkpointable"},
		{"disk-fail-stage-round-suffixed", func(o *hipmer.Options) {
			o.KmerLens = []int{21, 33, 55}
			o.DiskFaultSeed = 21
			o.DiskFailStage = "tip-clip-k33"
			o.CkptDir = "d"
		}, 1, false, ""},
		{"scrub-valid", func(o *hipmer.Options) { o.CkptDir = "d" }, 0, true, ""},
		{"scrub-without-ckpt-dir", func(o *hipmer.Options) {}, 0, true, "-ckpt-dir"},
		{"scrub-with-resume", func(o *hipmer.Options) {
			o.CkptDir = "d"
			o.Resume = true
		}, 0, true, "mutually exclusive"},
		{"scrub-with-fault", func(o *hipmer.Options) {
			o.CkptDir = "d"
			o.FaultSeed = 9
		}, 0, true, "fault"},
		{"scrub-with-disk-fault", func(o *hipmer.Options) {
			o.CkptDir = "d"
			o.DiskFaultSeed = 21
		}, 0, true, "fault"},
		{"scrub-with-chaos", func(o *hipmer.Options) {
			o.CkptDir = "d"
			o.ChaosSeed = 7
		}, 0, true, "fault"},
		{"scrub-with-perturb", func(o *hipmer.Options) {
			o.CkptDir = "d"
			o.PerturbSeed = 5
		}, 0, true, "perturbation"},
		{"scrub-with-retry-budget", func(o *hipmer.Options) {
			o.CkptDir = "d"
			o.RetryBudget = 16
		}, 0, true, ""},
		// -scrub takes no reads; libraries are simply ignored, not an
		// error, so `hipmer -scrub -ckpt-dir d` works without -reads.
		{"scrub-ignores-libs", func(o *hipmer.Options) { o.CkptDir = "d" }, 1, true, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := ok
			c.mutate(&o)
			err := validateOptions(o, c.nLibs, c.scrub)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("err = %v, want mention of %q", err, c.wantErr)
			}
		})
	}
}

// TestOneRuleAtEveryEntryPoint: the CLI, the library and hipmerd
// admission reject the same bad run with the same rule, because all
// three call the one Validate. Before it existed only the CLI knew that a
// disk fault needs a checkpointable stage: hipmer.Assemble and hipmerd
// ran such a job to completion with nothing armed and nothing said.
func TestOneRuleAtEveryEntryPoint(t *testing.T) {
	libs := []hipmer.Library{{Name: "none", Reads: []hipmer.Read{}}}
	cases := []struct {
		name   string
		mutate func(o *hipmer.Options)
		rule   string
	}{
		{"k-even", func(o *hipmer.Options) { o.K = 32 }, "-k must be odd"},
		{"ladder-not-increasing", func(o *hipmer.Options) { o.KmerLens = []int{33, 21} }, "strictly increasing"},
		{"scaffold-rounds-negative", func(o *hipmer.Options) { o.ScaffoldRounds = -1 }, "ScaffoldRounds must be >= 0"},
		{"fail-stage-unknown", func(o *hipmer.Options) { o.FaultSeed, o.FailStage = 9, "no-such-stage" }, "not a stage of this run"},
		{"fault-seed-alone", func(o *hipmer.Options) { o.FaultSeed = 9 }, "must be given together"},
		{"disk-fail-stage-unknown", func(o *hipmer.Options) { o.DiskFaultSeed, o.DiskFailStage = 21, "no-such-stage" }, "not a checkpointable stage"},
		{"disk-fail-stage-io", func(o *hipmer.Options) { o.DiskFaultSeed, o.DiskFailStage = 21, "io" }, "not a checkpointable stage"},
		{"drop-rate-one", func(o *hipmer.Options) { o.ChaosSeed, o.DropRate = 7, 1 }, "[0,1)"},
		{"drop-rate-unarmed", func(o *hipmer.Options) { o.DropRate = 0.05 }, "requires -chaos-seed"},
		{"retry-budget-negative", func(o *hipmer.Options) { o.RetryBudget = -1 }, "-retry-budget must be >= 0 (0 = the default, 16)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opt := hipmer.Options{K: 21, MinCount: 2, Ranks: 4, RanksPerNode: 2, CkptDir: t.TempDir()}
			opt.RetryBudget = 16 // the flag's default
			c.mutate(&opt)
			check := func(entry string, got string) {
				t.Helper()
				if !strings.Contains(got, c.rule) {
					t.Errorf("%s: %q, want the rule %q", entry, got, c.rule)
				}
			}
			errText := func(err error) string {
				if err == nil {
					return "<accepted>"
				}
				return err.Error()
			}
			check("cmd/hipmer", errText(validateOptions(opt, len(libs), false)))
			_, err := hipmer.Assemble(libs, opt)
			check("hipmer.Assemble", errText(err))

			s, err := sched.New(sched.Config{Ranks: 4, DefaultQuota: 4}, &sched.PipelineRunner{})
			if err != nil {
				t.Fatal(err)
			}
			out, err := s.Run([]sched.JobSpec{{
				Tenant: "t", Ranks: 4, Inject: opt.Inject,
				Pipeline: pipeline.Config{K: opt.K, KmerLens: opt.KmerLens, ScaffoldRounds: opt.ScaffoldRounds},
			}})
			if err != nil {
				t.Fatal(err)
			}
			if out.Jobs[0].State != sched.StateRejected {
				t.Fatalf("hipmerd admission: job %s, want rejected", out.Jobs[0].State)
			}
			check("hipmerd admission", out.Jobs[0].Reason)
		})
	}
}
