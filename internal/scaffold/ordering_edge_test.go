package scaffold

import (
	"reflect"
	"testing"

	"hipmer/internal/xrt"
)

// Edge-case inputs for §4.7 ordering and orientation, driven directly
// through orderAndOrient: degenerate link graphs must never panic and must
// place every contig exactly once.

func mkContigs(lens ...int) map[int64]*SContig {
	m := make(map[int64]*SContig)
	for i, n := range lens {
		seq := make([]byte, n)
		for j := range seq {
			seq[j] = "ACGT"[(i+j)&3]
		}
		m[int64(i+1)] = &SContig{ID: int64(i + 1), Seq: seq}
	}
	return m
}

// runOrder invokes the ordering stage on a 1-rank team and checks the
// universal invariants: no contig appears twice, every eligible contig
// appears once, scaffold IDs are 1..n.
func runOrder(t *testing.T, merged map[int64]*SContig, links []Link) *Result {
	t.Helper()
	team := xrt.NewTeam(xrt.Config{Ranks: 1})
	res := &Result{Contigs: merged}
	opt := Options{K: 21}.withDefaults()
	orderAndOrient(team, merged, links, res, opt)

	placed := make(map[int64]int)
	for _, s := range res.Scaffolds {
		if len(s.Members) == 0 {
			t.Fatalf("scaffold %d has no members", s.ID)
		}
		for _, m := range s.Members {
			placed[m.ContigID]++
			if placed[m.ContigID] > 1 {
				t.Fatalf("contig %d placed %d times", m.ContigID, placed[m.ContigID])
			}
		}
	}
	for id, sc := range merged {
		eligible := opt.longEnough(sc)
		if eligible && placed[id] == 0 {
			t.Fatalf("contig %d (len %d) never placed", id, len(sc.Seq))
		}
		if !eligible && placed[id] != 0 {
			t.Fatalf("ineligible contig %d was placed", id)
		}
	}
	for i, s := range res.Scaffolds {
		if s.ID != i+1 {
			t.Fatalf("scaffold IDs not sequential: %d at index %d", s.ID, i)
		}
	}
	return res
}

func TestOrderSingleContigNoLinks(t *testing.T) {
	res := runOrder(t, mkContigs(500), nil)
	if len(res.Scaffolds) != 1 || len(res.Scaffolds[0].Members) != 1 {
		t.Fatalf("single contig should become one singleton scaffold: %v", res.Scaffolds)
	}
	if res.Scaffolds[0].Members[0].Flipped {
		t.Fatal("seed member must keep its own orientation")
	}
}

func TestOrderEmptyInput(t *testing.T) {
	res := runOrder(t, map[int64]*SContig{}, nil)
	if len(res.Scaffolds) != 0 {
		t.Fatalf("no contigs should yield no scaffolds, got %d", len(res.Scaffolds))
	}
}

// TestOrderTieWeightLinks gives the seed two rival ties of identical
// support from the same end. The traversal must pick deterministically (the
// sort breaks ties by partner ID, then entry end) and must not place the
// loser twice or lose it.
func TestOrderTieWeightLinks(t *testing.T) {
	merged := mkContigs(1000, 400, 400)
	links := []Link{
		{A: 1, B: 2, EndA: EndR, EndB: EndL, Gap: 10, Splints: 2, Spans: 1},
		{A: 1, B: 3, EndA: EndR, EndB: EndL, Gap: 10, Splints: 2, Spans: 1},
	}
	res := runOrder(t, merged, links)
	// contig 2 wins the tie (lower ID); whether it joins depends on the
	// mutual-best rule, but the invariant checks in runOrder are the point:
	// all three contigs placed exactly once, no panic. Determinism:
	got1 := res.Scaffolds
	res2 := runOrder(t, mkContigs(1000, 400, 400), []Link{links[1], links[0]})
	if len(got1) != len(res2.Scaffolds) {
		t.Fatalf("link input order changed the result: %d vs %d scaffolds",
			len(got1), len(res2.Scaffolds))
	}
	for i := range got1 {
		if !reflect.DeepEqual(got1[i], res2.Scaffolds[i]) {
			t.Fatalf("link input order changed scaffold %d: %+v vs %+v",
				i, got1[i], res2.Scaffolds[i])
		}
	}
}

// TestOrderSelfLoopLink feeds a link from a contig back to itself (a
// tandem-repeat artifact). The traversal must not loop or duplicate the
// contig.
func TestOrderSelfLoopLink(t *testing.T) {
	merged := mkContigs(800, 600)
	links := []Link{
		{A: 1, B: 1, EndA: EndR, EndB: EndL, Gap: 5, Splints: 3},
		{A: 1, B: 1, EndA: EndR, EndB: EndR, Gap: 5, Splints: 3},
		{A: 1, B: 2, EndA: EndL, EndB: EndR, Gap: 20, Splints: 2},
	}
	res := runOrder(t, merged, links)
	// the self-loop must be ignored; the genuine 2-1 tie may still join
	total := 0
	for _, s := range res.Scaffolds {
		total += len(s.Members)
	}
	if total != 2 {
		t.Fatalf("placed %d members, want 2", total)
	}
}

// TestOrderShortExcluded asserts sub-minimum contigs stay out of
// scaffolds even when links reference them.
func TestOrderShortExcluded(t *testing.T) {
	merged := mkContigs(900, 700, 5) // contig 3 shorter than k
	links := []Link{
		{A: 1, B: 2, EndA: EndR, EndB: EndL, Gap: 10, Splints: 3},
		{A: 1, B: 3, EndA: EndL, EndB: EndR, Gap: 10, Splints: 3},
	}
	res := runOrder(t, merged, links)
	if len(res.Scaffolds) != 1 || len(res.Scaffolds[0].Members) != 2 {
		t.Fatalf("want contigs 1 and 2 joined and contig 3 left out, got %d scaffolds", len(res.Scaffolds))
	}
}
