// Package verify is the assembly oracle: it checks pipeline output
// against properties that must hold for any correct Meraculous-style
// assembly of a simulated dataset, without re-running the assembler.
//
// Three check families:
//
//   - Spectrum containment: every k-mer of every contig must occur in the
//     read set. Contigs are built exclusively from k-mers observed at
//     least MinCount times in reads, so a single flipped base anywhere in
//     a contig makes ~k of its k-mers vanish from the read spectrum.
//     (Final scaffolds are exempt: gap closure splices sequences, and the
//     junction k-mers legitimately need not appear in any single read.)
//
//   - Reference placement: against the genome the reads were simulated
//     from, every assembled piece must anchor to one diagonal. Split
//     anchor votes mean a chimeric join (misassembly); mismatched bases
//     at the voted placement bound the per-base error.
//
//   - Gap sizes: an assembled scaffold encodes estimated gap sizes as N
//     runs. Placing the flanking pieces on the reference recovers each
//     gap's true size; estimates must agree within a tolerance.
//
// The package also provides the canonical-set helpers used by the
// metamorphic tests (reverse-complement, read-shuffle, rank-count, and
// schedule-perturbation invariance): assemblies are compared as multisets
// of strand-canonical sequences, the representation in which a correct
// assembler's output is invariant under all of those input transforms.
//
// verify deliberately imports none of the assembler's stages — it sees
// only raw sequences — so it cannot inherit a stage's bugs.
package verify

import (
	"bytes"
	"fmt"
	"sort"

	"hipmer/internal/kmer"
)

// Options configures the oracle.
type Options struct {
	// K is the k-mer length for spectrum and anchoring checks (default 31;
	// the pipeline wires its assembly k here).
	K int
	// Ref is the reference the reads were simulated from. When set, the
	// placement and gap checks run in addition to spectrum containment.
	Ref []byte
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 31
	}
	return o
}

const (
	// gapTolerance is the permitted absolute error, in bases, of each
	// scaffold gap estimate versus the reference distance.
	gapTolerance = 64
	// minIdentity is the minimum acceptable identity of placed bases
	// against the reference.
	minIdentity = 0.97
	// maxIssues caps the recorded issue details; further failures are
	// still counted.
	maxIssues = 20
)

// Issue is one concrete oracle failure.
type Issue struct {
	Check  string // "spectrum", "placement", "gap", "meta-join"
	Detail string
}

func (i Issue) String() string { return i.Check + ": " + i.Detail }

// issueList is the failure list both reports carry: Issues holds the
// first maxIssues details, Dropped counts the failures beyond them.
type issueList struct {
	Issues  []Issue
	Dropped int
}

// OK reports whether no check failed.
func (l *issueList) OK() bool { return len(l.Issues) == 0 }

// failures counts every failed check, recorded or dropped.
func (l *issueList) failures() int { return len(l.Issues) + l.Dropped }

func (l *issueList) issuef(check, format string, args ...any) {
	if len(l.Issues) >= maxIssues {
		l.Dropped++
		return
	}
	l.Issues = append(l.Issues, Issue{Check: check, Detail: fmt.Sprintf(format, args...)})
}

// Report is the oracle's verdict. The zero value reports success over
// nothing checked.
type Report struct {
	// Spectrum containment.
	ContigsChecked int
	KmersChecked   int64
	MissingKmers   int64
	// Reference placement. Placed counts the pieces that anchor at all,
	// Misassemblies those of them whose anchors split across diagonals.
	// CoveredFrac is the fraction of reference positions under a placed
	// piece laid along its winning diagonal; IdentityFrac is 1 - mismatch
	// rate over the bases of the placed pieces that are not misassembled.
	Placed        int
	Unplaced      int
	Misassemblies int
	CoveredFrac   float64
	IdentityFrac  float64
	// Gap estimates.
	GapsChecked   int
	GapViolations int

	issueList
	// Summary is String() as Check left it — the one-line verdict as a
	// value, for callers that hold the report as data (hipmer.Result.Verify).
	Summary string
}

// Err returns nil when the report is clean, or an error summarizing it.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	return fmt.Errorf("verify: %d failed checks (first: %s)", r.failures(), r.Issues[0])
}

// String summarizes the report in one line.
func (r *Report) String() string {
	status := "ok"
	if !r.OK() {
		status = fmt.Sprintf("FAILED (%d issues)", r.failures())
	}
	return fmt.Sprintf(
		"verify %s: %d contigs / %d k-mers spectrum-checked (%d missing), "+
			"%d placed / %d unplaced / %d misassembled, coverage %.4f, identity %.4f, gaps %d/%d ok",
		status, r.ContigsChecked, r.KmersChecked, r.MissingKmers,
		r.Placed, r.Unplaced, r.Misassemblies, r.CoveredFrac, r.IdentityFrac,
		r.GapsChecked-r.GapViolations, r.GapsChecked)
}

// Input is everything the oracle inspects. Any field may be empty; the
// corresponding checks are skipped.
type Input struct {
	// Contigs are the pre-scaffolding contig sequences.
	Contigs [][]byte
	// Finals are the final scaffold sequences (gap runs as Ns).
	Finals [][]byte
	// Reads are the raw read sequences fed to the assembler.
	Reads [][]byte
}

// Check runs every applicable check and returns the combined report.
func Check(in Input, opt Options) *Report {
	opt = opt.withDefaults()
	rep := &Report{}
	if len(in.Contigs) > 0 && len(in.Reads) > 0 {
		CheckSpectrum(rep, in.Contigs, in.Reads, opt.K)
	}
	if len(opt.Ref) > 0 {
		seqs := in.Finals
		if len(seqs) == 0 {
			seqs = in.Contigs
		}
		CheckPlacement(rep, seqs, opt)
		CheckGaps(rep, in.Finals, opt)
	}
	rep.Summary = rep.String()
	return rep
}

// Place is the reference check on its own, for a caller that holds only
// sequences and the reference they should match (hipmer -ref, asmstats
// -ref, hipmer.Result.Validate): CheckPlacement at the default anchor
// length, 31, whatever k the sequences were assembled at.
func Place(seqs [][]byte, ref []byte) *Report {
	rep := &Report{}
	CheckPlacement(rep, seqs, Options{Ref: ref})
	rep.Summary = rep.String()
	return rep
}

// CheckSpectrum verifies k-mer spectrum containment: every (canonical)
// k-mer of every contig occurs somewhere in the read set.
func CheckSpectrum(rep *Report, contigs, reads [][]byte, k int) {
	spectrum := make(map[kmer.Kmer]struct{}, 1<<16)
	for _, r := range reads {
		kmer.ForEach(r, k, func(_ int, km kmer.Kmer) {
			canon, _ := km.Canonical(k)
			spectrum[canon] = struct{}{}
		})
	}
	for i, c := range contigs {
		missing, total := 0, 0
		kmer.ForEach(c, k, func(_ int, km kmer.Kmer) {
			total++
			canon, _ := km.Canonical(k)
			if _, ok := spectrum[canon]; !ok {
				missing++
			}
		})
		rep.KmersChecked += int64(total)
		if missing > 0 {
			rep.MissingKmers += int64(missing)
			rep.issuef("spectrum", "contig %d (len %d): %d/%d k-mers absent from the read set",
				i, len(c), missing, total)
		}
	}
	rep.ContigsChecked += len(contigs)
}

// refIndex maps canonical k-mers of the reference to their positions
// (capped per k-mer, as repeats carry no placement signal anyway).
type refIndex struct {
	k   int
	pos map[kmer.Kmer][]int32
	ref []byte
}

func indexRef(ref []byte, k int) *refIndex {
	ix := &refIndex{k: k, pos: make(map[kmer.Kmer][]int32, len(ref)), ref: ref}
	kmer.ForEach(ref, k, func(p int, km kmer.Kmer) {
		canon, _ := km.Canonical(k)
		if hits := ix.pos[canon]; len(hits) < 8 {
			ix.pos[canon] = append(hits, int32(p))
		}
	})
	return ix
}

// placement is the anchoring verdict for one piece.
type placement struct {
	placed, mis, flipped bool
	off                  int
	// spanLo/spanHi bound the winning diagonal's anchor support in
	// original-orientation piece coordinates; votes counts its anchors.
	spanLo, spanHi, votes int
	// rivals counts other diagonals with non-trivial support — the piece
	// lies in a repeat and its true locus is ambiguous.
	rivals int
}

// place anchors seq on the reference by k-mer diagonal voting on both
// strands — the one reference-placement engine. The winner is the
// greatest diagonal under a total order (votes, then the lower offset,
// then the forward strand), so the verdict is a function of the input,
// never of map iteration order.
//
// The chimera test compares support *spans*, not vote counts: a genuine
// repeat places the whole piece on several diagonals (overlapping
// spans — harmless), while a false join places the left part on one
// diagonal and the right part on another with disjoint spans, and no
// diagonal explains both.
func (ix *refIndex) place(seq []byte) placement {
	type diag struct {
		off  int
		flip bool
	}
	// support span in original-orientation piece coordinates
	type span struct {
		votes  int
		lo, hi int
	}
	votes := make(map[diag]*span)
	for strand := 0; strand < 2; strand++ {
		q := seq
		flip := strand == 1
		if flip {
			q = kmer.RevCompString(seq)
		}
		stride := len(q) / 32
		if stride < 1 {
			stride = 1
		}
		for p := 0; p+ix.k <= len(q); p += stride {
			km, ok := kmer.Pack(q[p:], ix.k)
			if !ok {
				continue
			}
			canon, _ := km.Canonical(ix.k)
			for _, rp := range ix.pos[canon] {
				if string(ix.ref[rp:int(rp)+ix.k]) != km.String(ix.k) {
					continue
				}
				orig := p
				if flip {
					orig = len(seq) - ix.k - p
				}
				d := diag{int(rp) - p, flip}
				s := votes[d]
				if s == nil {
					s = &span{lo: orig, hi: orig}
					votes[d] = s
				}
				s.votes++
				if orig < s.lo {
					s.lo = orig
				}
				if orig > s.hi {
					s.hi = orig
				}
			}
		}
	}
	if len(votes) == 0 {
		return placement{}
	}
	var bestD diag
	var best *span
	for d, s := range votes {
		if best == nil || s.votes > best.votes || s.votes == best.votes &&
			(d.off < bestD.off || d.off == bestD.off && !d.flip) {
			bestD, best = d, s
		}
	}
	// chimeric if some other diagonal supports a region of the piece
	// disjoint from everything the winner explains
	mis := false
	rivals := 0
	for d, s := range votes {
		if d == bestD || s.votes < 2 {
			continue
		}
		rivals++
		if s.lo > best.hi+ix.k || s.hi < best.lo-ix.k {
			mis = true
		}
	}
	return placement{
		placed: true, mis: mis, flipped: bestD.flip, off: bestD.off,
		spanLo: best.lo, spanHi: best.hi, votes: best.votes, rivals: rivals,
	}
}

// CheckPlacement verifies no sequence is chimeric: each gap-free piece of
// each sequence (at least Options.K long) must anchor to a single
// reference diagonal, and the bases at the voted placement must match
// within minIdentity. Scaffolds are split at their N runs first:
// an unclosed gap whose estimate is off by a few bases would otherwise
// shift every downstream column.
func CheckPlacement(rep *Report, seqs [][]byte, opt Options) {
	opt = opt.withDefaults()
	ix := indexRef(opt.Ref, opt.K)
	covered := make([]bool, len(opt.Ref))
	var aligned, mismatched int64
	for si, seq := range seqs {
		for _, pc := range splitAtNs(seq, opt.K) {
			p := ix.place(pc.seq)
			if !p.placed {
				rep.Unplaced++
				continue
			}
			rep.Placed++
			if p.mis {
				rep.Misassemblies++
				rep.issuef("placement", "sequence %d piece at %d (len %d): anchor votes split across diagonals",
					si, pc.start, len(pc.seq))
			}
			q := pc.seq
			if p.flipped {
				q = kmer.RevCompString(q)
			}
			for i := range q {
				rp := p.off + i
				if rp < 0 || rp >= len(opt.Ref) {
					continue
				}
				covered[rp] = true
				if p.mis {
					// what a chimera holds off its winning diagonal is a
					// false join, not base errors
					continue
				}
				aligned++
				if q[i] != opt.Ref[rp] {
					mismatched++
				}
			}
		}
	}
	n := 0
	for _, c := range covered {
		if c {
			n++
		}
	}
	if n > 0 {
		rep.CoveredFrac = float64(n) / float64(len(covered))
	}
	if aligned > 0 {
		rep.IdentityFrac = 1 - float64(mismatched)/float64(aligned)
		if rep.IdentityFrac < minIdentity {
			rep.issuef("placement", "identity %.4f below %.4f (%d mismatches over %d bases)",
				rep.IdentityFrac, minIdentity, mismatched, aligned)
		}
	}
}

// piece is a gap-free run of a scaffold with its start coordinate.
type piece struct {
	start int
	seq   []byte
}

func splitAtNs(seq []byte, minLen int) []piece {
	var out []piece
	start := -1
	for i := 0; i <= len(seq); i++ {
		isN := i == len(seq) || seq[i] == 'N'
		if !isN && start < 0 {
			start = i
		}
		if isN && start >= 0 {
			if i-start >= minLen {
				out = append(out, piece{start: start, seq: seq[start:i]})
			}
			start = -1
		}
	}
	return out
}

// CheckGaps verifies scaffold gap estimates: for each scaffold with
// N-run gaps, the flanking pieces are placed on the reference in the
// orientation that places the most pieces; for consecutive placed
// pieces, the scaffold-coordinate distance (flank + estimated gap) must
// match the reference distance within gapTolerance.
//
// Only pieces that anchor decisively take part: at least 2k long, on one
// diagonal (chimeras are CheckPlacement's job), with the winning
// diagonal's anchors spanning most of the piece. Short inter-gap
// fragments carry too few anchors to distinguish their true locus from
// a repeat copy, and a wrong locus would charge the gap estimate with a
// placement artifact.
func CheckGaps(rep *Report, finals [][]byte, opt Options) {
	opt = opt.withDefaults()
	ix := indexRef(opt.Ref, opt.K)
	for si, seq := range finals {
		if !bytes.ContainsRune(seq, 'N') {
			continue
		}
		type placedPiece struct {
			scafStart int
			refOff    int
		}
		best := []placedPiece(nil)
		for strand := 0; strand < 2; strand++ {
			q := seq
			if strand == 1 {
				q = kmer.RevCompString(seq)
			}
			var cur []placedPiece
			for _, pc := range splitAtNs(q, 2*opt.K) {
				p := ix.place(pc.seq)
				anchored := p.placed && !p.mis && !p.flipped && p.rivals == 0 &&
					2*(p.spanHi-p.spanLo+opt.K) >= len(pc.seq)
				if anchored {
					cur = append(cur, placedPiece{scafStart: pc.start, refOff: p.off})
				}
			}
			if len(cur) > len(best) {
				best = cur
			}
		}
		for i := 1; i < len(best); i++ {
			rep.GapsChecked++
			scafDelta := best[i].scafStart - best[i-1].scafStart
			refDelta := best[i].refOff - best[i-1].refOff
			if d := refDelta - scafDelta; d > gapTolerance || d < -gapTolerance {
				rep.GapViolations++
				rep.issuef("gap", "scaffold %d: gap before piece at %d estimated %+d bases off (tolerance %d)",
					si, best[i].scafStart, scafDelta-refDelta, gapTolerance)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Canonical-set helpers for metamorphic comparisons.

// CanonicalSeq returns the lexicographically smaller of a sequence and
// its reverse complement — the strand-independent identity of a contig.
func CanonicalSeq(s []byte) string {
	rc := kmer.RevCompString(s)
	if bytes.Compare(rc, s) < 0 {
		return string(rc)
	}
	return string(s)
}

// CanonicalSet maps sequences to the multiset of their canonical forms.
func CanonicalSet(seqs [][]byte) map[string]int {
	m := make(map[string]int, len(seqs))
	for _, s := range seqs {
		m[CanonicalSeq(s)]++
	}
	return m
}

// EqualSets reports whether two canonical multisets are identical.
func EqualSets(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for s, n := range a {
		if b[s] != n {
			return false
		}
	}
	return true
}

// DiffSets describes how two canonical multisets differ, for test
// failure messages (at most a few entries each way).
func DiffSets(a, b map[string]int) string {
	var onlyA, onlyB []string
	for s, n := range a {
		if b[s] != n {
			onlyA = append(onlyA, fmt.Sprintf("len %d ×%d (other ×%d)", len(s), n, b[s]))
		}
	}
	for s, n := range b {
		if a[s] != n {
			onlyB = append(onlyB, fmt.Sprintf("len %d ×%d (other ×%d)", len(s), n, a[s]))
		}
	}
	sort.Strings(onlyA)
	sort.Strings(onlyB)
	const cap = 5
	if len(onlyA) > cap {
		onlyA = append(onlyA[:cap], "...")
	}
	if len(onlyB) > cap {
		onlyB = append(onlyB[:cap], "...")
	}
	return fmt.Sprintf("a: %d seqs, b: %d seqs; a-side diffs %v; b-side diffs %v",
		len(a), len(b), onlyA, onlyB)
}
