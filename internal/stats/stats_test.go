package stats

import "testing"

func TestComputeBasics(t *testing.T) {
	seqs := [][]byte{
		make([]byte, 100), make([]byte, 200), make([]byte, 300),
		make([]byte, 400),
	}
	for _, s := range seqs {
		for i := range s {
			s[i] = 'A'
		}
	}
	s := Compute(seqs)
	if s.Sequences != 4 || s.TotalLen != 1000 || s.MaxLen != 400 {
		t.Fatalf("basic stats wrong: %+v", s)
	}
	// N50: sorted desc 400,300,200,100; cumulative 400,700 >= 500 → 300
	if s.N50 != 300 {
		t.Fatalf("N50 = %d, want 300", s.N50)
	}
	// N90: target 900: 400,700,900 → 200
	if s.N90 != 200 {
		t.Fatalf("N90 = %d, want 200", s.N90)
	}
}

func TestGapBasesCounted(t *testing.T) {
	s := Compute([][]byte{[]byte("ACGTNNNNACGT")})
	if s.GapBases != 4 {
		t.Fatalf("gap bases %d, want 4", s.GapBases)
	}
}

func TestNG50(t *testing.T) {
	seqs := [][]byte{make([]byte, 500), make([]byte, 100)}
	// against genome of 2000: target 1000 > 600 → smallest (100)
	if g := NG50(seqs, 2000); g != 100 {
		t.Fatalf("NG50 = %d", g)
	}
	if g := NG50(seqs, 800); g != 500 {
		t.Fatalf("NG50 = %d", g)
	}
}

func TestEmptyInputs(t *testing.T) {
	s := Compute(nil)
	if s.Sequences != 0 || s.N50 != 0 {
		t.Fatalf("empty stats: %+v", s)
	}
}
