package sched

import (
	"reflect"
	"testing"

	"hipmer"
	"hipmer/internal/pipeline"
	"hipmer/internal/xrt"
)

// TestArmingKnobsDeclaredOnce: the eight arming knobs are fields of
// xrt.Inject and of nothing else on the options path. A layer that needs
// them embeds or carries an Inject; re-declaring one is how the layers
// came to disagree on spelling (DiskFaultStage) and coverage (a job file
// that could not arm a disk fault).
func TestArmingKnobsDeclaredOnce(t *testing.T) {
	inject := reflect.TypeOf(xrt.Inject{})
	arming := map[string]bool{}
	for i := 0; i < inject.NumField(); i++ {
		arming[inject.Field(i).Name] = true
	}
	if len(arming) != 8 {
		t.Fatalf("xrt.Inject has %d fields, want the 8 arming knobs", len(arming))
	}
	for _, v := range []any{hipmer.Options{}, pipeline.Config{}, JobSpec{}, Attempt{}, jobFileEntry{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); arming[f.Name] {
				t.Errorf("%s declares %s itself; it belongs to xrt.Inject alone", typ, f.Name)
			}
		}
	}
}

// TestAdmissionRejectsUnarmableInjection: a disk fault aimed at a stage
// that writes no checkpoint segment (io, or a name the job's pipeline
// does not have) used to be admitted and run to completion with nothing
// armed; it is a rejection reason now.
func TestAdmissionRejectsUnarmableInjection(t *testing.T) {
	specs := []JobSpec{
		{Tenant: "a", Name: "typo", Ranks: 4, Inject: xrt.Inject{DiskFaultSeed: 21, DiskFailStage: "no-such-stage"}},
		{Tenant: "a", Name: "io", Ranks: 4, Inject: xrt.Inject{DiskFaultSeed: 21, DiskFailStage: "io"}},
		{Tenant: "a", Name: "fine", Ranks: 4, Inject: xrt.Inject{DiskFaultSeed: 21, DiskFailStage: "scaffolding"}},
	}
	out := runFake(t, Config{Ranks: 16, DefaultQuota: 16}, specs)
	for _, j := range out.Jobs[:2] {
		if j.State != StateRejected || j.Reason == "" {
			t.Errorf("job %s: state %q reason %q, want a rejection", j.Name, j.State, j.Reason)
		}
	}
	if j := out.Jobs[2]; j.State != StateCompleted {
		t.Errorf("job %s: state %q (%s), want completed", j.Name, j.State, j.Reason)
	}
}
