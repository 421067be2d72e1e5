package ckpt

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scrubFixture creates a three-stage checkpoint directory.
func scrubFixture(t *testing.T) (string, []StageEntry) {
	t.Helper()
	dir := t.TempDir()
	s, err := Create(dir, "fp-scrub", testTopo)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []string{"kmer-analysis", "contig-generation", "scaffolding"} {
		if _, err := s.WriteStageRound(st, 0, []byte("payload for "+st)); err != nil {
			t.Fatal(err)
		}
	}
	return dir, s.Stages()
}

func TestScrubIntactDirIsNoOp(t *testing.T) {
	dir, entries := scrubFixture(t)
	rep, err := Scrub(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healed() {
		t.Fatalf("intact dir reported healed: %+v", rep)
	}
	if rep.Intact != len(entries) || rep.Dropped != 0 || rep.Quarantined != 0 || rep.RepairedBytes != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.ScannedBytes == 0 {
		t.Fatal("scrub read no segment bytes")
	}
	// The directory must still resume.
	if _, err := Resume(dir, "fp-scrub"); err != nil {
		t.Fatalf("resume after no-op scrub: %v", err)
	}
	if !strings.Contains(rep.FormatTable(), "intact") {
		t.Fatalf("table missing verdict:\n%s", rep.FormatTable())
	}
}

// TestScrubQuarantinesBitFlip: damage the MIDDLE stage and check the
// prefix rule — the first stage survives, the damaged one is
// quarantined, and the intact-but-later stage is dropped.
func TestScrubQuarantinesBitFlip(t *testing.T) {
	dir, entries := scrubFixture(t)
	segPath := filepath.Join(dir, "contig-generation.seg")
	b, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x10
	if err := os.WriteFile(segPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Scrub(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healed() || rep.Intact != 1 || rep.Dropped != 2 || rep.Quarantined != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.RepairedBytes != entries[1].Bytes+entries[2].Bytes {
		t.Fatalf("RepairedBytes = %d, want %d", rep.RepairedBytes, entries[1].Bytes+entries[2].Bytes)
	}
	if _, err := os.Stat(segPath + QuarantineSuffix); err != nil {
		t.Fatalf("no quarantine file: %v", err)
	}
	if _, err := os.Stat(segPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("damaged segment still present: %v", err)
	}
	// scaffolding's file stays on disk (unreferenced), only its manifest
	// entry is cut.
	if _, err := os.Stat(filepath.Join(dir, "scaffolding.seg")); err != nil {
		t.Fatalf("dropped-but-intact segment removed: %v", err)
	}

	s, err := Resume(dir, "fp-scrub")
	if err != nil {
		t.Fatalf("resume after scrub: %v", err)
	}
	if !s.Completed("kmer-analysis") || s.Completed("contig-generation") || s.Completed("scaffolding") {
		t.Fatalf("healed manifest stages = %+v", s.Stages())
	}

	tab := rep.FormatTable()
	for _, want := range []string{"intact", "quarantined", "dropped"} {
		if !strings.Contains(tab, want) {
			t.Errorf("table missing %q:\n%s", want, tab)
		}
	}
}

func TestScrubHandlesDeletedSegment(t *testing.T) {
	dir, entries := scrubFixture(t)
	if err := os.Remove(filepath.Join(dir, "kmer-analysis.seg")); err != nil {
		t.Fatal(err)
	}
	rep, err := Scrub(dir)
	if err != nil {
		t.Fatal(err)
	}
	// First stage gone: everything recomputes, nothing to quarantine.
	if rep.Intact != 0 || rep.Dropped != 3 || rep.Quarantined != 0 {
		t.Fatalf("report = %+v", rep)
	}
	var want int64
	for _, e := range entries {
		want += e.Bytes
	}
	if rep.RepairedBytes != want {
		t.Fatalf("RepairedBytes = %d, want %d", rep.RepairedBytes, want)
	}
	s, err := Resume(dir, "fp-scrub")
	if err != nil {
		t.Fatalf("resume after scrub: %v", err)
	}
	if len(s.Stages()) != 0 {
		t.Fatalf("healed manifest not empty: %+v", s.Stages())
	}
}

func TestScrubTornWrite(t *testing.T) {
	dir, _ := scrubFixture(t)
	segPath := filepath.Join(dir, "scaffolding.seg")
	b, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath, b[:len(b)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Scrub(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Intact != 2 || rep.Dropped != 1 || rep.Quarantined != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if _, err := Resume(dir, "fp-scrub"); err != nil {
		t.Fatalf("resume after scrub: %v", err)
	}
}

func TestScrubUnrecoverable(t *testing.T) {
	t.Run("missing-manifest", func(t *testing.T) {
		if _, err := Scrub(t.TempDir()); !errors.Is(err, ErrUnrecoverableCkpt) {
			t.Fatalf("err = %v, want ErrUnrecoverableCkpt", err)
		}
	})
	t.Run("unparsable-manifest", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{nope"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Scrub(dir)
		if !errors.Is(err, ErrUnrecoverableCkpt) || !errors.Is(err, ErrBadManifest) {
			t.Fatalf("err = %v, want ErrUnrecoverableCkpt wrapping ErrBadManifest", err)
		}
	})
	t.Run("segment-damage-is-recoverable", func(t *testing.T) {
		dir, _ := scrubFixture(t)
		if err := os.Remove(filepath.Join(dir, "contig-generation.seg")); err != nil {
			t.Fatal(err)
		}
		if _, err := Scrub(dir); err != nil {
			t.Fatalf("segment damage must heal, got %v", err)
		}
	})
}

// TestStaleTempSweep: orphaned *.tmp files (a crash between temp write
// and rename) are swept by Create, Resume, and Scrub.
func TestStaleTempSweep(t *testing.T) {
	plant := func(t *testing.T, dir string) string {
		t.Helper()
		p := filepath.Join(dir, "contig-generation.seg.123.tmp")
		if err := os.WriteFile(p, []byte("half a segment"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	t.Run("create", func(t *testing.T) {
		dir := t.TempDir()
		p := plant(t, dir)
		if _, err := Create(dir, "fp", testTopo); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("temp survived Create: %v", err)
		}
	})
	t.Run("resume", func(t *testing.T) {
		dir, _ := scrubFixture(t)
		p := plant(t, dir)
		if _, err := Resume(dir, "fp-scrub"); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("temp survived Resume: %v", err)
		}
	})
	t.Run("scrub", func(t *testing.T) {
		dir, _ := scrubFixture(t)
		p := plant(t, dir)
		rep, err := Scrub(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rep.TempsRemoved != 1 || !rep.Healed() {
			t.Fatalf("report = %+v", rep)
		}
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("temp survived Scrub: %v", err)
		}
	})
}

func TestValidateSegmentBytes(t *testing.T) {
	dir, entries := scrubFixture(t)
	e := entries[0]
	b, err := os.ReadFile(filepath.Join(dir, e.File))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSegmentBytes(b, e); err != nil {
		t.Fatalf("clean segment rejected: %v", err)
	}
	short := b[:len(b)-1]
	if err := ValidateSegmentBytes(short, e); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("size mismatch: err = %v", err)
	}
	flip := append([]byte(nil), b...)
	flip[len(flip)/2] ^= 1
	if err := ValidateSegmentBytes(flip, e); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("bit flip: err = %v", err)
	}
}
