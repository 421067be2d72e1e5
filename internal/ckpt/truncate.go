package ckpt

// Truncate rewrites a run directory's manifest keeping only the stage
// entries the keep predicate admits, preserving order. The scheduler
// uses it to preempt a running job at a stage boundary: the entries of
// stages past the preemption point are dropped, so a later -resume
// recomputes them while the kept prefix rehydrates as usual. Dropped
// segment files stay on disk unreferenced — WriteStageRound replaces them
// by name when the resumed run re-reaches those stages.
//
// The fingerprint and topology are untouched: the truncated directory
// is exactly what a crash inside the first dropped stage would have
// left behind. Returns the number of entries removed.
func Truncate(dir string, keep func(stage string) bool) (int, error) {
	m, err := readManifest(dir)
	if err != nil {
		return 0, err
	}
	kept := m.Stages[:0]
	for _, e := range m.Stages {
		if keep(e.Name) {
			kept = append(kept, e)
		}
	}
	removed := len(m.Stages) - len(kept)
	if removed == 0 {
		return 0, nil
	}
	m.Stages = kept
	if err := writeManifest(dir, m); err != nil {
		return 0, err
	}
	return removed, nil
}
