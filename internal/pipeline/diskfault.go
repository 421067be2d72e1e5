// Storage fault injection and self-healing resume. The injector adapts
// an xrt.DiskFaultPlan to the ckpt.Injector write hook; the heal path
// turns a corrupt or missing segment discovered mid-resume into a
// scrub-and-recompute instead of a dead run.
package pipeline

import (
	"errors"
	"io/fs"

	"hipmer/internal/ckpt"
	"hipmer/internal/xrt"
)

// diskInjector adapts the plan to ckpt.Injector and remembers the last
// injected kind so saveStage can count the fault deterministically
// inside the checkpoint-save span (CorruptWrite itself runs on the
// orchestrator, outside any rank goroutine).
type diskInjector struct {
	plan xrt.DiskFaultPlan
	last xrt.DiskFaultKind
}

func (d *diskInjector) CorruptWrite(stage string, seg []byte) ([]byte, bool) {
	out, kind := d.plan.Apply(stage, seg)
	if kind == xrt.DiskFaultNone {
		return seg, false
	}
	d.last = kind
	return out, kind == xrt.DiskFaultWriteRefused
}

// take returns and clears the kind of the injection that fired since
// the last call (DiskFaultNone when nothing did).
func (d *diskInjector) take() xrt.DiskFaultKind {
	k := d.last
	d.last = xrt.DiskFaultNone
	return k
}

// healableCkptErr reports whether a loadStage failure is storage damage
// a scrub pass can heal: a segment that fails validation or is missing
// outright. Everything else (codec bugs, unparsable manifests, I/O
// permission errors) still aborts the run.
func healableCkptErr(err error) bool {
	return errors.Is(err, ckpt.ErrCorruptSegment) || errors.Is(err, fs.ErrNotExist)
}

// healCkpt recovers from storage damage discovered while rehydrating a
// stage: scrub the run directory (re-validate every entry, quarantine
// damaged segments, truncate the manifest to the longest intact
// prefix), reopen the store for this run, and charge the pass as a
// collective re-validation read under a checkpoint-scrub span. The
// caller falls through to recompute the demoted stages. Only a
// manifest with no trustworthy record left is unrecoverable
// (ckpt.ErrUnrecoverableCkpt, from Scrub).
func healCkpt(env *stageEnv, fp string) (*ckpt.Store, error) {
	rep, err := ckpt.Scrub(env.cfg.CkptDir)
	if err != nil {
		return nil, err
	}
	store, err := openStore(env, fp, true)
	if err != nil {
		return nil, err
	}
	team := env.team
	team.BeginSpan("checkpoint-scrub")
	team.AddCounter("scrub_repaired_bytes", rep.RepairedBytes)
	team.AddCounter("scrub_quarantined", int64(rep.Quarantined))
	share := rep.ScannedBytes/int64(team.Config().Ranks) + 1
	team.Run(func(r *xrt.Rank) {
		r.ChargeIORead(share)
		if r.ID == 0 {
			r.CountScrubRepair(rep.RepairedBytes)
		}
	})
	team.EndSpan()
	return store, nil
}
