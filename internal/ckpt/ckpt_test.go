package ckpt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hipmer/internal/contig"
	"hipmer/internal/gapclose"
)

// testTopo is the recorded topology used by store tests that don't care
// about rescale semantics.
var testTopo = Topology{Ranks: 4, RanksPerNode: 2}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "fp-abc", testTopo)
	if err != nil {
		t.Fatal(err)
	}
	pay1 := []byte("kmer payload bytes")
	pay2 := []byte{0, 1, 2, 0xff, 0xfe}
	if _, err := s.WriteStageRound("kmer-analysis", 0, pay1); err != nil {
		t.Fatal(err)
	}
	e2, err := s.WriteStageRound("contig-generation", 0, pay2)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Seq != 1 || e2.File != "contig-generation.seg" {
		t.Fatalf("entry = %+v, want seq 1 file contig-generation.seg", e2)
	}

	// Re-open as a resume and read everything back.
	r, err := Resume(dir, "fp-abc")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed("kmer-analysis") || r.Completed("scaffolding") {
		t.Fatal("Completed() wrong after resume")
	}
	got, err := r.ReadStage("kmer-analysis")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pay1) {
		t.Fatalf("payload mismatch: %q", got)
	}
	if _, err := r.ReadStage("scaffolding"); !errors.Is(err, ErrNoStage) {
		t.Fatalf("missing stage: err = %v, want ErrNoStage", err)
	}

	// Replacing a stage keeps its sequence position and updates the hash.
	old := *s.Entry("kmer-analysis")
	e, err := s.WriteStageRound("kmer-analysis", 0, []byte("new content"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq != old.Seq || e.ContentHash == old.ContentHash {
		t.Fatalf("replace: entry = %+v, old = %+v", e, old)
	}
}

func TestResumeRefusesFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, "fp-1", testTopo); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(dir, "fp-2"); !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("err = %v, want ErrFingerprintMismatch", err)
	}
}

// TestResumeRefusesSchemaMismatch: any other schema is refused, the v4
// manifest — a well-formed one, whose entries carry the per-entry rank
// count v5 dropped and whose fingerprint hashed the words v5 dropped — and
// the v5 one, whose scaffolding payload carries the depth and termination
// metadata v6 dropped, the v6 one, whose k-mer payload carries no bin
// weights, the v7 one, whose k-mer payload carries the distinct estimate
// v8 dropped, the v8 one, whose scaffolding payload carries every
// alignment of every read where v9 carries one placement per read, and the
// v9 one, whose k-mer entries carry the extension evidence and whose header
// carries the PeakEntries slot v10 dropped, included.
func TestResumeRefusesSchemaMismatch(t *testing.T) {
	for _, man := range []string{
		`{"schema":"hipmer-ckpt/v999","fingerprint":"fp","stages":[]}`,
		`{"schema":"hipmer-ckpt/v4","fingerprint":"fp","topology":{"ranks":4,"ranks_per_node":2},"stages":[{"name":"kmer-analysis","file":"kmer-analysis.seg","seq":0,"ranks":4,"bytes":42,"crc32":7,"content_hash":"00"}]}`,
		`{"schema":"hipmer-ckpt/v5","fingerprint":"fp","topology":{"ranks":4,"ranks_per_node":2},"stages":[{"name":"scaffolding","file":"scaffolding.seg","seq":0,"bytes":42,"crc32":7,"content_hash":"00"}]}`,
		`{"schema":"hipmer-ckpt/v6","fingerprint":"fp","topology":{"ranks":4,"ranks_per_node":2},"stages":[{"name":"kmer-analysis","file":"kmer-analysis.seg","seq":0,"bytes":42,"crc32":7,"content_hash":"00"}]}`,
		`{"schema":"hipmer-ckpt/v7","fingerprint":"fp","topology":{"ranks":4,"ranks_per_node":2},"stages":[{"name":"kmer-analysis","file":"kmer-analysis.seg","seq":0,"bytes":42,"crc32":7,"content_hash":"00"}]}`,
		`{"schema":"hipmer-ckpt/v8","fingerprint":"fp","topology":{"ranks":4,"ranks_per_node":2},"stages":[{"name":"scaffolding","file":"scaffolding.seg","seq":0,"bytes":42,"crc32":7,"content_hash":"00"}]}`,
		`{"schema":"hipmer-ckpt/v9","fingerprint":"fp","topology":{"ranks":4,"ranks_per_node":2},"stages":[{"name":"kmer-analysis","file":"kmer-analysis.seg","seq":0,"bytes":42,"crc32":7,"content_hash":"00"}]}`,
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(man), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Resume(dir, "fp"); !errors.Is(err, ErrSchemaMismatch) {
			t.Fatalf("%s: err = %v, want ErrSchemaMismatch", man, err)
		}
	}
}

func TestResumeRefusesTruncatedManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "fp", testTopo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteStageRound("kmer-analysis", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ManifestName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(dir, "fp"); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("err = %v, want ErrBadManifest", err)
	}
}

// TestReadStageDetectsCorruption flips a payload bit and truncates the
// segment file: both must surface ErrCorruptSegment, never a silently
// wrong payload.
func TestReadStageDetectsCorruption(t *testing.T) {
	newStore := func(t *testing.T) (*Store, string) {
		dir := t.TempDir()
		s, err := Create(dir, "fp", testTopo)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.WriteStageRound("scaffolding", 0, []byte("scaffold payload")); err != nil {
			t.Fatal(err)
		}
		return s, filepath.Join(dir, "scaffolding.seg")
	}

	t.Run("bit-flip", func(t *testing.T) {
		s, seg := newStore(t)
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0x01
		if err := os.WriteFile(seg, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ReadStage("scaffolding"); !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("err = %v, want ErrCorruptSegment", err)
		}
	})

	t.Run("truncation", func(t *testing.T) {
		s, seg := newStore(t)
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, b[:len(b)-6], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ReadStage("scaffolding"); !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("err = %v, want ErrCorruptSegment", err)
		}
	})

	t.Run("wrong-stage-name", func(t *testing.T) {
		s, seg := newStore(t)
		// Overwrite with a valid segment framed for a different stage.
		forged := encodeSegment("gap-closing", []byte("scaffold payload"))
		if err := os.WriteFile(seg, forged, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ReadStage("scaffolding"); !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("err = %v, want ErrCorruptSegment", err)
		}
	})
}

func TestParseManifestRejectsTraversalAndDuplicates(t *testing.T) {
	// All cases carry a valid schema and topology (except the topology
	// cases themselves) so ErrBadManifest comes from the asserted defect,
	// not from a check that happens to fire first.
	const topo = `"topology":{"ranks":4,"ranks_per_node":2},`
	cases := []string{
		`{"schema":"hipmer-ckpt/v10",` + topo + `"stages":[{"name":"a","file":"../evil.seg"}]}`,
		`{"schema":"hipmer-ckpt/v10",` + topo + `"stages":[{"name":"a","file":"/abs.seg"}]}`,
		`{"schema":"hipmer-ckpt/v10",` + topo + `"stages":[{"name":"a","file":".hidden"}]}`,
		`{"schema":"hipmer-ckpt/v10",` + topo + `"stages":[{"name":"","file":"x.seg"}]}`,
		`{"schema":"hipmer-ckpt/v10",` + topo + `"stages":[{"name":"a","file":"x.seg"},{"name":"a","file":"y.seg"}]}`,
		`{"schema":"hipmer-ckpt/v10",` + topo + `"stages":[{"name":"a","file":"x.seg","round":-1}]}`,
		// The recorded topology must be usable: a -resume without -ranks
		// adopts it, and missing, zero, or negative rank geometry cannot
		// build a team.
		`{"schema":"hipmer-ckpt/v10","stages":[]}`,
		`{"schema":"hipmer-ckpt/v10","topology":{"ranks":0,"ranks_per_node":2},"stages":[]}`,
		`{"schema":"hipmer-ckpt/v10","topology":{"ranks":4,"ranks_per_node":-1},"stages":[]}`,
	}
	for _, c := range cases {
		if _, err := ParseManifest([]byte(c)); !errors.Is(err, ErrBadManifest) {
			t.Errorf("ParseManifest(%s): err = %v, want ErrBadManifest", c, err)
		}
	}
	// An entry is whole without a rank count: each payload with per-rank
	// lists carries its own.
	ok := `{"schema":"hipmer-ckpt/v10",` + topo + `"stages":[{"name":"a","file":"x.seg"}]}`
	if _, err := ParseManifest([]byte(ok)); err != nil {
		t.Errorf("ParseManifest(%s): %v", ok, err)
	}
}

// TestTopologyRoundTrip: the writer's rank geometry survives the
// manifest round trip, through both a full Resume and the peek-only
// ReadTopology used by the CLI to adopt a checkpoint's rank count.
func TestTopologyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	topo := Topology{Ranks: 16, RanksPerNode: 4}
	s, err := Create(dir, "fp", topo)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Topology(); got != topo {
		t.Fatalf("Create topology = %+v, want %+v", got, topo)
	}
	r, err := Resume(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Topology(); got != topo {
		t.Fatalf("Resume topology = %+v, want %+v", got, topo)
	}
	got, err := ReadTopology(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != topo {
		t.Fatalf("ReadTopology = %+v, want %+v", got, topo)
	}
	if _, err := ReadTopology(t.TempDir()); err == nil {
		t.Fatal("ReadTopology on an empty dir succeeded")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := func() *Fingerprint {
		f := NewFingerprint()
		f.Str("lib1")
		f.Int(31)
		f.Bool(true)
		f.Bytes([]byte("ACGT"))
		return f
	}
	a, b := base().Hex(), base().Hex()
	if a != b {
		t.Fatalf("fingerprint not deterministic: %s vs %s", a, b)
	}
	variants := []func(f *Fingerprint){
		func(f *Fingerprint) { f.Int(0) },
		func(f *Fingerprint) { f.Bool(false) },
		func(f *Fingerprint) { f.Bytes(nil) },
		func(f *Fingerprint) { f.Str("") },
	}
	for i, v := range variants {
		f := base()
		v(f)
		if f.Hex() == a {
			t.Errorf("variant %d did not change the fingerprint", i)
		}
	}
	// Length prefixes keep adjacent fields from aliasing.
	x, y := NewFingerprint(), NewFingerprint()
	x.Str("ab")
	x.Str("c")
	y.Str("a")
	y.Str("bc")
	if x.Hex() == y.Hex() {
		t.Fatal("field boundaries alias")
	}
}

// FuzzManifest: no manifest or segment bytes may panic the parsers, and
// a successful manifest parse must satisfy the documented invariants.
func FuzzManifest(f *testing.F) {
	f.Add([]byte(`{"schema":"hipmer-ckpt/v10","fingerprint":"00","topology":{"ranks":4,"ranks_per_node":2},"stages":[]}`))
	f.Add([]byte(`{"schema":"hipmer-ckpt/v10","topology":{"ranks":1,"ranks_per_node":1},"stages":[{"name":"a","file":"a.seg","round":2}]}`))
	f.Add([]byte(`{"schema":"hipmer-ckpt/v4","fingerprint":"00","topology":{"ranks":4,"ranks_per_node":2},"stages":[{"name":"a","file":"a.seg","ranks":8}]}`))
	f.Add([]byte(`{`))
	f.Add(encodeSegment("kmer-analysis", []byte("payload")))
	f.Add([]byte(segMagic))
	// Quarantine artifacts: a scrubbed manifest (truncated to the intact
	// prefix after storage damage) and the damaged segment shapes Scrub
	// moves aside — a torn prefix and a bit-flipped copy.
	f.Add([]byte(`{"schema":"hipmer-ckpt/v10","fingerprint":"00","topology":{"ranks":4,"ranks_per_node":2},"stages":[{"name":"kmer-analysis","file":"kmer-analysis.seg","seq":0,"bytes":42,"crc32":7,"content_hash":"00"}]}`))
	quarantined := encodeSegment("contig-generation", []byte("quarantined payload"))
	f.Add(quarantined[: len(quarantined)/2 : len(quarantined)/2])
	flipped := append([]byte(nil), quarantined...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, b []byte) {
		if m, err := ParseManifest(b); err == nil {
			if m.Topology.Ranks < 1 || m.Topology.RanksPerNode < 1 {
				t.Fatalf("accepted unusable topology %+v", m.Topology)
			}
			seen := map[string]bool{}
			for _, e := range m.Stages {
				if e.Name == "" || seen[e.Name] || e.File != filepath.Base(e.File) || e.Round < 0 {
					t.Fatalf("accepted invalid manifest entry %+v", e)
				}
				seen[e.Name] = true
			}
		}
		if pay, err := ParseSegment(b, ""); err == nil {
			// A valid segment must round-trip through its own framing.
			if _, err := ParseSegment(encodeSegment("s", pay), "s"); err != nil {
				t.Fatalf("re-encoded valid payload failed to parse: %v", err)
			}
		}
	})
}

func TestWriteStageRoundTagsManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "fp", testTopo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteStageRound("tip-clip-k21", 1, []byte("clean")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteStageRound("io", 0, []byte("reads")); err != nil {
		t.Fatal(err)
	}
	r, err := Resume(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if e := r.Entry("tip-clip-k21"); e == nil || e.Round != 1 {
		t.Fatalf("round tag lost across resume: %+v", e)
	}
	if e := r.Entry("io"); e == nil || e.Round != 0 {
		t.Fatalf("untagged stage gained a round: %+v", e)
	}
}

// TestAdoptTopology: a rescaled resume takes over the directory — the
// recorded topology (what a later -resume without -ranks adopts) names
// the latest run's geometry.
func TestAdoptTopology(t *testing.T) {
	dir := t.TempDir()
	orig := Topology{Ranks: 8, RanksPerNode: 4}
	if _, err := Create(dir, "fp", orig); err != nil {
		t.Fatal(err)
	}
	r, err := Resume(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	rescaled := Topology{Ranks: 2, RanksPerNode: 2}
	if err := r.AdoptTopology(rescaled); err != nil {
		t.Fatal(err)
	}

	r2, err := Resume(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Topology(); got != rescaled {
		t.Fatalf("recorded topology = %+v, want adopted %+v", got, rescaled)
	}
	got, err := ReadTopology(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != rescaled {
		t.Fatalf("ReadTopology = %+v, want adopted %+v", got, rescaled)
	}
	if err := r2.AdoptTopology(Topology{Ranks: 0, RanksPerNode: 1}); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("adopting an unusable topology: err = %v, want ErrBadManifest", err)
	}
}

func testContigResult() *contig.Result {
	return &contig.Result{
		NumContigs: 2, UUKmers: 7, Claimed: 3, Completed: 2, Aborted: 1, Rounds: 4,
		Contigs: [][]*contig.Contig{
			{{ID: 1, Seq: []byte("ACGTACGTACGT"), TermL: 'F', TermR: 'X',
				HasNbrL: true, SumCount: 99, PseudoWeight: 7}},
			{{ID: 2, Seq: []byte("TTTTGGGG"), TermL: 'X', TermR: 'R',
				HasNbrR: true, SumCount: 12}},
		},
	}
}

func TestCleaningStageRoundTrip(t *testing.T) {
	res := testContigResult()
	stats := contig.CleanStats{TipsClipped: 5, BubblesPopped: 2, BasesRemoved: 640, Survivors: 2}
	got, gotStats, err := DecodeCleaningStage(EncodeCleaningStage(res, stats), 2)
	if err != nil {
		t.Fatal(err)
	}
	if gotStats != stats {
		t.Fatalf("stats = %+v, want %+v", gotStats, stats)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("result mismatch:\n got %+v\nwant %+v", got, res)
	}
	if _, _, err := DecodeCleaningStage(EncodeCleaningStage(res, stats), 5); err == nil {
		t.Fatal("wrong rank count accepted")
	}
}

func TestCarryStageRoundTrip(t *testing.T) {
	carried := []*contig.Contig{
		{ID: 1, Seq: []byte("ACGTACGT"), TermL: 'X', TermR: 'X', SumCount: 40, PseudoWeight: 5},
		{ID: 2, Seq: []byte("GGGGCCCCAAAA"), TermL: 'F', TermR: 'C', SumCount: 8, PseudoWeight: 2},
	}
	st := contig.MergeStats{Carried: 2, Represented: 3, PoppedOld: 1, Rescued: 1, Total: 7}
	got, gotSt, err := DecodeCarryStage(EncodeCarryStage(carried, st))
	if err != nil {
		t.Fatal(err)
	}
	if gotSt != st {
		t.Fatalf("stats = %+v, want %+v", gotSt, st)
	}
	if !reflect.DeepEqual(got, carried) {
		t.Fatalf("carried mismatch:\n got %+v\nwant %+v", got, carried)
	}
}

// FuzzCleaningDecode: the cleaning and carry codecs are pure sticky-
// error decoders — any corrupt payload must yield an error, never a
// panic or runaway allocation.
func FuzzCleaningDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeCleaningStage(testContigResult(),
		contig.CleanStats{TipsClipped: 1, Survivors: 2}))
	f.Add(EncodeCarryStage([]*contig.Contig{
		{ID: 1, Seq: []byte("ACGT"), PseudoWeight: 3},
	}, contig.MergeStats{Carried: 1, Total: 1}))
	f.Fuzz(func(t *testing.T, b []byte) {
		if res, _, err := DecodeCleaningStage(b, 0); err == nil && res == nil {
			t.Fatal("cleaning: nil result with nil error")
		}
		// Carry decode shares the contig record format; only safety is
		// asserted here — counters are advisory.
		_, _, _ = DecodeCarryStage(b)
	})
}

// FuzzGapcloseDecode: the pure (team-free) stage codec must reject any
// malformed payload with an error, never a panic or runaway allocation.
func FuzzGapcloseDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeGapcloseStage(&gapclose.Result{
		Gaps: 3, Closed: 2, ScaffoldSeqs: [][]byte{[]byte("ACGTACGT")},
	}))
	f.Fuzz(func(t *testing.T, b []byte) {
		res, err := DecodeGapcloseStage(b)
		if err == nil && res == nil {
			t.Fatal("nil result with nil error")
		}
	})
}

// TestKmerEntryIs22Bytes: a k-mer payload entry is the k-mer's two words,
// its count and its two extension codes — all a table entry holds — at a
// fixed size. A field added back to the walk fails here.
func TestKmerEntryIs22Bytes(t *testing.T) {
	if kmerEntryRec.size != 22 || !kmerEntryRec.fixed {
		t.Fatalf("a k-mer entry record is %d bytes (fixed size: %v), want a fixed 22", kmerEntryRec.size, kmerEntryRec.fixed)
	}
}
