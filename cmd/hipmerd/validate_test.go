package main

import (
	"strings"
	"testing"

	"hipmer/internal/sched"
)

// TestValidateOptions pins the daemon's usage contract: every flag
// combination main would exit 2 on returns an error naming the offending
// flag, and sane configurations pass. Only -lg-jobs and -lg-tenants reach
// the load's shape from the command line; sched.TestLoadConfigValidate
// holds the load generator's other rules.
func TestValidateOptions(t *testing.T) {
	base := func() sched.Config {
		return sched.Config{
			Ranks:        32,
			RanksPerNode: 8,
			Tenants: []sched.TenantConfig{
				{Name: "acme", Quota: 16},
				{Name: "umich", Quota: 16},
			},
		}
	}
	// the -loadgen load of the flags' defaults
	lgOK := loadgenLoad(100, 8, 1)

	cases := []struct {
		name    string
		cfg     func() sched.Config
		jobs    string
		lc      *sched.LoadConfig
		wantErr string
	}{
		{"loadgen-ok", base, "", lgOK, ""},
		{"jobfile-ok", base, "jobs.json", nil, ""},
		{"no-source", base, "", nil, "job source"},
		{"both-sources", base, "jobs.json", lgOK, "mutually exclusive"},
		{"zero-ranks", func() sched.Config { c := base(); c.Ranks = 0; return c },
			"jobs.json", nil, "ranks"},
		{"zero-quota", func() sched.Config {
			c := base()
			c.Tenants[0].Quota = 0
			return c
		}, "jobs.json", nil, "quota"},
		{"quota-over-ranks", func() sched.Config {
			c := base()
			c.Tenants[0].Quota = 64
			return c
		}, "jobs.json", nil, "exceeds cluster ranks"},
		{"duplicate-tenant", func() sched.Config {
			c := base()
			c.Tenants[1].Name = "acme"
			return c
		}, "jobs.json", nil, "duplicate tenant"},
		{"stranded-capacity", func() sched.Config {
			c := base()
			c.Tenants = []sched.TenantConfig{{Name: "acme", Quota: 4}}
			return c
		}, "jobs.json", nil, "unusable"},
		{"zero-lg-jobs", base, "", loadgenLoad(0, 8, 1), "-lg-jobs must be >= 1, got 0"},
		{"zero-lg-tenants", base, "", loadgenLoad(100, 0, 1), "-lg-tenants must be >= 1, got 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateOptions(c.cfg(), c.jobs, c.lc)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}
