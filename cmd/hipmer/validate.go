package main

import (
	"fmt"

	"hipmer"
	"hipmer/internal/xrt"
)

// validateOptions rejects invalid or conflicting CLI configurations
// before any work starts. Kept separate from flag parsing so tests can
// drive it directly; main exits 2 (usage error) on any returned error.
// The rules about the run itself are hipmer.Options.Validate, shared
// with the library and hipmerd; only what is about flags lives here.
// scrub is the -scrub offline-repair mode: it needs only -ckpt-dir (no
// reads, no assembly flags) and is incompatible with anything that
// would run or perturb an assembly.
func validateOptions(opt hipmer.Options, nLibs int, scrub bool) error {
	if scrub {
		if opt.CkptDir == "" {
			return fmt.Errorf("-scrub requires -ckpt-dir")
		}
		if opt.Resume {
			return fmt.Errorf("-scrub and -resume are mutually exclusive (a healed directory resumes on the next run)")
		}
		// -retry-budget always carries its default, so it is the one
		// injection field a scrub may see set.
		inj := opt.Inject
		inj.RetryBudget = 0
		if inj != (xrt.Inject{}) {
			return fmt.Errorf("-scrub does not take perturbation, fault, chaos, or disk-fault flags")
		}
		return nil
	}
	if nLibs == 0 {
		return fmt.Errorf("at least one -reads library is required")
	}
	// The library reads a zero in these as "use the default". Every flag
	// already carries its default, so a zero (or less) typed on the
	// command line is a mistake, not a request for it.
	if opt.MinCount < 1 {
		return fmt.Errorf("-min-count must be >= 1, got %d", opt.MinCount)
	}
	if opt.ChaosSeed != 0 && opt.RetryBudget < 1 {
		return fmt.Errorf("-retry-budget must be >= 1, got %d", opt.RetryBudget)
	}
	// -ranks 0 is the "adopt the checkpoint's recorded rank count"
	// sentinel and only meaningful on a resume; anything else below 1 is
	// a usage error.
	if opt.Ranks == 0 && opt.Resume {
		// adopted from the checkpoint manifest (elastic rescale)
	} else if opt.Ranks < 1 {
		return fmt.Errorf("-ranks must be >= 1, got %d (0 only with -resume, to adopt the checkpoint's rank count)", opt.Ranks)
	}
	if opt.RanksPerNode == 0 && opt.Resume {
		// adopted from the checkpoint manifest alongside -ranks 0
	} else if opt.RanksPerNode < 1 {
		return fmt.Errorf("-ranks-per-node must be >= 1, got %d", opt.RanksPerNode)
	}
	return opt.Validate()
}
