package fastq

import (
	"bytes"
	"testing"
)

// FuzzParse throws arbitrary bytes at the record parser and the split-point
// detector. Invariants: no panic; every record a successful parse returns
// passes Validate; parse → Format → parse is the identity whenever the
// fields survive line-based rendering (no '\r', which the line reader
// strips); Splits offsets are monotone and in-bounds.
func FuzzParse(f *testing.F) {
	f.Add([]byte("@r1\nACGT\n+\nIIII\n"))
	f.Add([]byte("@r1/1\nACGTN\n+r1/1\nIIIII\n@r1/2\nTTTT\n+\nJJJJ\n"))
	f.Add([]byte("@a\nAC\r\n+\r\nII\r\n")) // CRLF line endings
	f.Add([]byte("\n\n@b\nGG\n+\nII\n\n")) // blank lines between records
	f.Add([]byte("@q\n@@++\n+\n@+II\n"))   // quality/sequence full of metachars
	f.Add([]byte("@trunc\nACGT\n+"))       // truncated at the separator
	f.Add([]byte("no header at all"))      // malformed from byte 0
	f.Add([]byte("@x\nACGT\n+\nII\n"))     // qual shorter than seq
	f.Add([]byte("@\nA\n+\nI\n"))          // empty ID
	f.Add([]byte("@y\n\n+\n\n"))           // empty sequence
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ParseAll(data)
		if err == nil {
			for _, r := range recs {
				if verr := r.Validate(); verr != nil {
					t.Fatalf("parsed record fails Validate: %v", verr)
				}
			}
			if roundTrippable(recs) {
				recs2, err2 := ParseAll(Format(recs))
				if err2 != nil {
					t.Fatalf("reparse of formatted output failed: %v", err2)
				}
				if len(recs2) != len(recs) {
					t.Fatalf("round trip changed record count: %d -> %d", len(recs), len(recs2))
				}
				for i := range recs {
					if !bytes.Equal(recs[i].ID, recs2[i].ID) ||
						!bytes.Equal(recs[i].Seq, recs2[i].Seq) ||
						!bytes.Equal(recs[i].Qual, recs2[i].Qual) {
						t.Fatalf("round trip changed record %d: %+v -> %+v", i, recs[i], recs2[i])
					}
				}
			}
		}
		// the parallel-read split detector must stay in bounds on any input
		for _, parts := range []int{1, 3} {
			starts, serr := Splits(bytes.NewReader(data), int64(len(data)), parts)
			if serr != nil {
				t.Fatalf("Splits(%d parts): %v", parts, serr)
			}
			if len(starts) != parts+1 || starts[0] != 0 || starts[parts] != int64(len(data)) {
				t.Fatalf("Splits(%d parts) returned bad frame: %v", parts, starts)
			}
			for i := 1; i <= parts; i++ {
				if starts[i] < starts[i-1] {
					t.Fatalf("Splits offsets not monotone: %v", starts)
				}
			}
		}
	})
}

// roundTrippable reports whether recs can be rendered to 4-line FASTQ and
// reparsed without loss: a '\r' at the end of a field would be eaten by the
// CRLF-tolerant line reader on the second pass.
func roundTrippable(recs []Record) bool {
	for _, r := range recs {
		if bytes.ContainsRune(r.ID, '\r') ||
			bytes.ContainsRune(r.Seq, '\r') ||
			bytes.ContainsRune(r.Qual, '\r') {
			return false
		}
	}
	return true
}
