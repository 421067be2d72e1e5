package xrt

import (
	"bytes"
	"math/bits"
	"testing"
)

// TestDiskFaultEnabled: a disk fault is armed only by a seed and a stage
// together.
func TestDiskFaultEnabled(t *testing.T) {
	cases := []struct {
		in   Inject
		want bool
	}{
		{Inject{}, false},
		{Inject{DiskFaultSeed: 7}, false},
		{Inject{DiskFailStage: "contig-generation"}, false},
		{Inject{DiskFaultSeed: 7, DiskFailStage: "contig-generation"}, true},
	}
	for _, c := range cases {
		if got := c.in.Kind() != DiskFaultNone; got != c.want {
			t.Errorf("%+v arms a disk fault = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestDiskFaultKindCycle pins the seed->kind mapping the sweeps rely
// on: four consecutive seeds cover all four damage kinds.
func TestDiskFaultKindCycle(t *testing.T) {
	want := map[int64]DiskFaultKind{
		21: DiskFaultBitFlip,
		22: DiskFaultDelete,
		23: DiskFaultWriteRefused,
		24: DiskFaultTornWrite,
	}
	seen := map[DiskFaultKind]bool{}
	for seed, k := range want {
		p := Inject{DiskFaultSeed: seed, DiskFailStage: "s"}
		if got := p.Kind(); got != k {
			t.Errorf("seed %d: Kind() = %v, want %v", seed, got, k)
		}
		seen[p.Kind()] = true
	}
	if len(seen) != 4 {
		t.Fatalf("seeds 21..24 covered %d kinds, want 4", len(seen))
	}
}

func TestDiskFaultNonTargetPassthrough(t *testing.T) {
	seg := []byte("framed segment bytes")
	p := Inject{DiskFaultSeed: 21, DiskFailStage: "alignment"}
	out, kind := p.Apply("contig-generation", seg)
	if kind != DiskFaultNone {
		t.Fatalf("non-target stage injected %v", kind)
	}
	if !bytes.Equal(out, seg) {
		t.Fatalf("non-target stage altered the segment")
	}
}

func TestDiskFaultApplyDeterministic(t *testing.T) {
	seg := make([]byte, 4096)
	for i := range seg {
		seg[i] = byte(i * 31)
	}
	for seed := int64(21); seed <= 24; seed++ {
		p := Inject{DiskFaultSeed: seed, DiskFailStage: "s"}
		a, ka := p.Apply("s", seg)
		b, kb := p.Apply("s", seg)
		if ka != kb || !bytes.Equal(a, b) {
			t.Errorf("seed %d: Apply is not deterministic", seed)
		}
	}
}

func TestDiskFaultTornWrite(t *testing.T) {
	p := Inject{DiskFaultSeed: 24, DiskFailStage: "s"} // 1 + 24%4 = torn-write
	seg := make([]byte, 1000)
	for i := range seg {
		seg[i] = byte(i)
	}
	orig := append([]byte(nil), seg...)
	out, kind := p.Apply("s", seg)
	if kind != DiskFaultTornWrite {
		t.Fatalf("kind = %v", kind)
	}
	if len(out) < 1 || len(out) >= len(seg) {
		t.Fatalf("torn cut at %d, want in [1, %d)", len(out), len(seg))
	}
	if !bytes.Equal(out, seg[:len(out)]) {
		t.Fatalf("torn prefix differs from the original bytes")
	}
	if !bytes.Equal(seg, orig) {
		t.Fatalf("Apply mutated its input")
	}
	// Degenerate segments cannot be torn meaningfully; they vanish.
	if out, _ := p.Apply("s", []byte{1}); out != nil {
		t.Fatalf("1-byte torn write returned %v, want nil", out)
	}
}

func TestDiskFaultBitFlip(t *testing.T) {
	p := Inject{DiskFaultSeed: 21, DiskFailStage: "s"} // 1 + 21%4 = bit-flip
	seg := make([]byte, 1000)
	orig := append([]byte(nil), seg...)
	out, kind := p.Apply("s", seg)
	if kind != DiskFaultBitFlip {
		t.Fatalf("kind = %v", kind)
	}
	if len(out) != len(seg) {
		t.Fatalf("bit flip changed length: %d != %d", len(out), len(seg))
	}
	flipped := 0
	for i := range out {
		flipped += bits.OnesCount8(out[i] ^ seg[i])
	}
	if flipped != 1 {
		t.Fatalf("flipped %d bits, want exactly 1", flipped)
	}
	if !bytes.Equal(seg, orig) {
		t.Fatalf("Apply mutated its input")
	}
}

func TestDiskFaultDeleteAndRefuse(t *testing.T) {
	seg := []byte("framed segment bytes")
	if out, kind := (Inject{DiskFaultSeed: 22, DiskFailStage: "s"}).Apply("s", seg); kind != DiskFaultDelete || out != nil {
		t.Fatalf("delete: out=%v kind=%v", out, kind)
	}
	if out, kind := (Inject{DiskFaultSeed: 23, DiskFailStage: "s"}).Apply("s", seg); kind != DiskFaultWriteRefused || out != nil {
		t.Fatalf("refuse: out=%v kind=%v", out, kind)
	}
}

func TestDiskFaultKindStrings(t *testing.T) {
	want := map[DiskFaultKind]string{
		DiskFaultNone:         "none",
		DiskFaultTornWrite:    "torn-write",
		DiskFaultBitFlip:      "bit-flip",
		DiskFaultDelete:       "delete",
		DiskFaultWriteRefused: "write-refused",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}
