package ckpt

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// Scrub: offline checkpoint repair. A run directory that took storage
// damage (torn write, bit-rot, lost segment) is healed back to a
// resumable state by re-validating every manifest entry exactly as
// ReadStage would, renaming damaged segment files to *.quarantine for
// post-mortem, and truncating the manifest to the longest intact
// prefix in pipeline order. The prefix rule is what makes the result
// dependency-closed: every stage's payload is derived from the stages
// before it, so an intact segment AFTER a damaged one may embed state
// the recomputation will legitimately change — it is dropped (its file
// stays, unreferenced, and is replaced by name when the stage reruns).
//
// A parseable manifest always heals: the worst case is an empty intact
// prefix, i.e. a full recompute. Only a missing or unparsable manifest
// is ErrUnrecoverableCkpt — there is no trustworthy record of what the
// directory held.

// QuarantineSuffix is appended to a damaged segment's filename when
// Scrub moves it aside.
const QuarantineSuffix = ".quarantine"

// SegmentVerdict is one manifest entry's scrub outcome.
type SegmentVerdict struct {
	// Stage, File, Bytes mirror the manifest entry.
	Stage string
	File  string
	Bytes int64
	// OK: the segment passed the full ReadStage validation.
	OK bool
	// Kept: the entry survived in the intact prefix. An OK entry after
	// the first damaged one is not kept (see the package comment).
	Kept bool
	// Quarantined: the damaged file was renamed to *.quarantine.
	Quarantined bool
	// Err describes why validation failed ("" when OK).
	Err string
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	// Entries holds per-entry verdicts in manifest (pipeline) order.
	Entries []SegmentVerdict
	// Intact and Dropped count entries kept in / cut from the manifest.
	Intact  int
	Dropped int
	// Quarantined counts damaged segment files moved aside, and
	// QuarantinedBytes their on-disk size.
	Quarantined      int
	QuarantinedBytes int64
	// RepairedBytes sums the manifest Bytes of every dropped entry —
	// the checkpoint state the heal demoted back to recomputation. A
	// deleted segment still counts its manifest size here, so a heal
	// always repairs a nonzero amount.
	RepairedBytes int64
	// ScannedBytes is how much segment data the pass actually read.
	ScannedBytes int64
	// TempsRemoved counts orphaned *.tmp files swept from the directory.
	TempsRemoved int
}

// Healed reports whether the pass changed the directory (dropped
// entries or swept temps).
func (r *ScrubReport) Healed() bool { return r.Dropped > 0 || r.TempsRemoved > 0 }

// FormatTable renders the per-entry verdicts for the CLI.
func (r *ScrubReport) FormatTable() string {
	var buf bytes.Buffer
	w := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "STAGE\tFILE\tBYTES\tVERDICT\tDETAIL")
	for _, v := range r.Entries {
		verdict := "intact"
		detail := ""
		switch {
		case !v.OK && v.Quarantined:
			verdict = "quarantined"
			detail = v.Err
		case !v.OK:
			verdict = "damaged"
			detail = v.Err
		case !v.Kept:
			verdict = "dropped"
			detail = "follows damage; recomputed on resume"
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%s\n", v.Stage, v.File, v.Bytes, verdict, detail)
	}
	w.Flush()
	fmt.Fprintf(&buf, "\n%d intact, %d dropped, %d quarantined (%d bytes), %d bytes repaired, %d temp files swept\n",
		r.Intact, r.Dropped, r.Quarantined, r.QuarantinedBytes, r.RepairedBytes, r.TempsRemoved)
	return buf.String()
}

// Scrub heals a run directory in place (see the package comment above)
// and reports what it found. It returns ErrUnrecoverableCkpt only when
// the manifest itself is missing or unparsable.
func Scrub(dir string) (*ScrubReport, error) {
	rep := &ScrubReport{}
	rep.TempsRemoved = sweepTemps(dir)

	m, err := readManifest(dir)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrUnrecoverableCkpt, err)
	}

	damaged := false
	keep := make(map[string]bool, len(m.Stages))
	for _, e := range m.Stages {
		v := SegmentVerdict{Stage: e.Name, File: e.File, Bytes: e.Bytes}
		path := filepath.Join(dir, e.File)
		b, rerr := os.ReadFile(path)
		rep.ScannedBytes += int64(len(b))
		if rerr != nil {
			v.Err = fmt.Sprintf("reading segment: %v", rerr)
		} else if verr := ValidateSegmentBytes(b, e); verr != nil {
			v.Err = verr.Error()
		} else {
			v.OK = true
		}
		if !v.OK && rerr == nil {
			// The file exists but is damaged: move it aside for
			// post-mortem so the recomputing run starts clean.
			if err := os.Rename(path, path+QuarantineSuffix); err != nil {
				return nil, fmt.Errorf("ckpt: quarantining %s: %w", e.File, err)
			}
			v.Quarantined = true
			rep.Quarantined++
			rep.QuarantinedBytes += int64(len(b))
		}
		if !v.OK {
			damaged = true
		}
		if !damaged {
			v.Kept = true
			keep[e.Name] = true
			rep.Intact++
		} else {
			rep.Dropped++
			rep.RepairedBytes += e.Bytes
		}
		rep.Entries = append(rep.Entries, v)
	}

	if rep.Dropped > 0 {
		if _, err := Truncate(dir, func(stage string) bool { return keep[stage] }); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// sweepTemps removes orphaned *.tmp files left by a crash between
// atomicWrite's temp write and rename; the rename never happened, so
// the temps are dead weight that would otherwise accumulate forever.
// Returns how many were removed. Best-effort: an undeletable temp is
// left behind rather than failing the open.
func sweepTemps(dir string) int {
	matches, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		return 0
	}
	n := 0
	for _, m := range matches {
		if os.Remove(m) == nil {
			n++
		}
	}
	return n
}
