package main

import (
	"fmt"

	"hipmer/internal/sched"
)

// validateOptions rejects invalid or conflicting service configurations
// before any work starts (the cmd/hipmer validateOptions contract: kept
// separate from flag parsing so tests drive it directly; main exits 2 on
// any returned error). lc is the -loadgen load, nil without -loadgen.
// The scheduler's rules — quota bounds, duplicate tenants, stranded
// capacity — are sched.Config.Validate's and the load generator's are
// sched.LoadConfig.Validate's; this function adds only the job-source
// rule.
func validateOptions(cfg sched.Config, jobsPath string, lc *sched.LoadConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if lc != nil && jobsPath != "" {
		return fmt.Errorf("-jobs and -loadgen are mutually exclusive")
	}
	if lc == nil && jobsPath == "" {
		return fmt.Errorf("a job source is required: -jobs FILE or -loadgen")
	}
	if lc != nil {
		if err := lc.Validate(); err != nil {
			return fmt.Errorf("-lg-* flags: %w", err)
		}
	}
	return nil
}
