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
// capacity — are sched.Config.Validate's. Of the load generator's rules
// (sched.LoadConfig.Validate's) only the two on -lg-jobs and -lg-tenants
// can fail from the command line, so they are checked here by flag name;
// the rest of the load is sched.ServeLoad's.
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
	if lc != nil && lc.Jobs < 1 {
		return fmt.Errorf("-lg-jobs must be >= 1, got %d", lc.Jobs)
	}
	if lc != nil && lc.Tenants < 1 {
		return fmt.Errorf("-lg-tenants must be >= 1, got %d", lc.Tenants)
	}
	return nil
}
