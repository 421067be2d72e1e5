package main

import (
	"strings"
	"testing"

	"hipmer/internal/sched"
)

// TestValidateOptions pins the daemon's usage contract: every flag
// combination main would exit 2 on returns an error naming the offending
// flag (a load-generator rule names the sched.LoadConfig field it
// rejects), and sane configurations pass. Only -lg-jobs and -lg-tenants
// reach the load's shape from the command line; the other shape cases
// hold that validateOptions refuses any load sched.LoadConfig.Validate
// refuses.
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
	// lg is the -loadgen load of the flags' defaults, changed by mut.
	lg := func(mut func(*sched.LoadConfig)) *sched.LoadConfig {
		lc := loadgenLoad(100, 8, 1)
		mut(lc)
		return lc
	}
	lgOK := lg(func(*sched.LoadConfig) {})

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
		{"zero-lg-jobs", base, "", lg(func(l *sched.LoadConfig) { l.Jobs = 0 }), "-lg-* flags: Jobs"},
		{"zero-lg-tenants", base, "", lg(func(l *sched.LoadConfig) { l.Tenants = 0 }), "-lg-* flags: Tenants"},
		// A zero gap or burst selects the generator's default, as in the
		// library; only a negative one is refused.
		{"zero-gap", base, "", lg(func(l *sched.LoadConfig) { l.MeanGapNs = 0 }), ""},
		{"negative-gap", base, "", lg(func(l *sched.LoadConfig) { l.MeanGapNs = -1e6 }), "-lg-* flags: MeanGapNs"},
		{"zero-burst", base, "", lg(func(l *sched.LoadConfig) { l.Burst = 0 }), ""},
		{"negative-burst", base, "", lg(func(l *sched.LoadConfig) { l.Burst = -1 }), "-lg-* flags: Burst"},
		{"fault-frac-over-1", base, "", lg(func(l *sched.LoadConfig) { l.FaultFrac = 1.5 }), "-lg-* flags: FaultFrac"},
		{"chaos-frac-negative", base, "", lg(func(l *sched.LoadConfig) { l.ChaosFrac = -0.1 }), "-lg-* flags: ChaosFrac"},
		{"disk-frac-over-1", base, "", lg(func(l *sched.LoadConfig) { l.DiskFrac = 1.2 }), "-lg-* flags: DiskFrac"},
		{"disk-frac-negative", base, "", lg(func(l *sched.LoadConfig) { l.DiskFrac = -0.2 }), "-lg-* flags: DiskFrac"},
		{"disk-frac-ok", base, "", lg(func(l *sched.LoadConfig) { l.DiskFrac = 0.05 }), ""},
		{"negative-priority", base, "", lg(func(l *sched.LoadConfig) { l.MaxPriority = -1 }), "-lg-* flags: MaxPriority"},
		{"oversize-over-jobs", base, "", lg(func(l *sched.LoadConfig) { l.Oversize = 101 }), "-lg-* flags: Oversize"},
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
