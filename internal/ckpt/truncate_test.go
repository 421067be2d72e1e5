package ckpt

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestTruncate(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "fp-abc", testTopo)
	if err != nil {
		t.Fatal(err)
	}
	stages := []string{"io", "kmer-analysis", "contig-generation", "scaffolding"}
	for _, st := range stages {
		if _, err := s.WriteStageRound(st, 0, []byte("payload of "+st)); err != nil {
			t.Fatal(err)
		}
	}

	// Preempt after contig generation: drop scaffolding.
	keep := map[string]bool{"io": true, "kmer-analysis": true, "contig-generation": true}
	removed, err := Truncate(dir, func(st string) bool { return keep[st] })
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("removed = %d, want 1", removed)
	}

	// The truncated directory resumes like a crash in scaffolding would:
	// kept prefix rehydrates, dropped stage reads as absent.
	r, err := Resume(dir, "fp-abc")
	if err != nil {
		t.Fatalf("resume after truncate: %v", err)
	}
	if !r.Completed("contig-generation") || r.Completed("scaffolding") {
		t.Fatal("completion set wrong after truncate")
	}
	got, err := r.ReadStage("kmer-analysis")
	if err != nil || !bytes.Equal(got, []byte("payload of kmer-analysis")) {
		t.Fatalf("kept stage unreadable after truncate: %q, %v", got, err)
	}

	// Truncating to the same set is a no-op (manifest not rewritten).
	before, err := readFile(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	removed, err = Truncate(dir, func(st string) bool { return keep[st] })
	if err != nil || removed != 0 {
		t.Fatalf("idempotent truncate: removed %d, err %v", removed, err)
	}
	after, err := readFile(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("no-op truncate rewrote the manifest")
	}

	// Truncating everything leaves a valid empty-progress manifest.
	if _, err := Truncate(dir, func(string) bool { return false }); err != nil {
		t.Fatal(err)
	}
	r, err = Resume(dir, "fp-abc")
	if err != nil {
		t.Fatalf("resume after full truncate: %v", err)
	}
	for _, st := range stages {
		if r.Completed(st) {
			t.Fatalf("stage %s still recorded complete after full truncate", st)
		}
	}

	// Missing directory errors.
	if _, err := Truncate(filepath.Join(dir, "nope"), func(string) bool { return true }); err == nil {
		t.Fatal("truncate of missing dir accepted")
	}
}

func readFile(t *testing.T, dir string) ([]byte, error) {
	t.Helper()
	return os.ReadFile(filepath.Join(dir, ManifestName))
}
