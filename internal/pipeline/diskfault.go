// Self-healing resume after storage faults: the heal path turns a
// corrupt or missing segment discovered mid-resume into a
// scrub-and-recompute instead of a dead run.
package pipeline

import (
	"errors"
	"io/fs"

	"hipmer/internal/ckpt"
	"hipmer/internal/xrt"
)

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
