package scaffold

import (
	"math"
	"sort"

	"hipmer/internal/xrt"
)

// tieRef is one directed view of a link: leaving contig `from` via `exit`
// reaches contig `to`, entering via `entry`.
type tieRef struct {
	from, to    int64
	exit, entry byte
	link        Link
}

type endKey struct {
	id  int64
	end byte
}

// orderAndOrient implements §4.7: links are consolidated into ties and the
// tie graph is traversed serially, seeding with contigs in decreasing
// length order so long contigs are locked together first. The serial
// component is cheap because the tie graph has orders of magnitude fewer
// vertices than the de Bruijn graph (its cost still appears in the phase
// timing, which is why wheat's fragmented assemblies spend relatively more
// time here — §5.3).
func orderAndOrient(team *xrt.Team, merged map[int64]*SContig, links []Link,
	res *Result, opt Options) {
	// directed tie lists
	ties := make(map[endKey][]tieRef)
	for _, l := range links {
		ties[endKey{l.A, l.EndA}] = append(ties[endKey{l.A, l.EndA}],
			tieRef{from: l.A, to: l.B, exit: l.EndA, entry: l.EndB, link: l})
		ties[endKey{l.B, l.EndB}] = append(ties[endKey{l.B, l.EndB}],
			tieRef{from: l.B, to: l.A, exit: l.EndB, entry: l.EndA, link: l})
	}
	for k := range ties {
		ts := ties[k]
		sort.Slice(ts, func(i, j int) bool {
			si, sj := ts[i].link.Support(), ts[j].link.Support()
			if si != sj {
				return si > sj
			}
			if ts[i].to != ts[j].to {
				return ts[i].to < ts[j].to
			}
			return ts[i].entry < ts[j].entry
		})
	}
	// eligible guards the traversal against links that reference contigs
	// excluded from scaffolding (sub-minimum lengths) or unknown IDs (bubble
	// losers, left out of the merged map).
	eligible := func(id int64) bool {
		sc := merged[id]
		return sc != nil && opt.longEnough(sc)
	}
	best := func(k endKey, used map[int64]bool) (tieRef, bool) {
		for _, t := range ties[k] {
			if used[t.to] || !eligible(t.to) {
				continue
			}
			// mutual-best requirement: the partner end's best available tie
			// must point back, otherwise the join is ambiguous
			back := ties[endKey{t.to, t.entry}]
			for _, bt := range back {
				if used[bt.to] && bt.to != t.from {
					continue
				}
				if bt.to == t.from && bt.entry == t.exit {
					return t, true
				}
				break
			}
		}
		return tieRef{}, false
	}

	// seeds in decreasing length order
	type seedRec struct {
		id  int64
		len int
	}
	var seeds []seedRec
	for id, sc := range merged {
		if !opt.longEnough(sc) {
			continue
		}
		seeds = append(seeds, seedRec{id, len(sc.Seq)})
	}
	sort.Slice(seeds, func(i, j int) bool {
		if seeds[i].len != seeds[j].len {
			return seeds[i].len > seeds[j].len
		}
		return seeds[i].id < seeds[j].id
	})

	used := make(map[int64]bool)
	var scaffolds []*Scaffold
	for _, sd := range seeds {
		if used[sd.id] {
			continue
		}
		used[sd.id] = true
		members := []Member{{ContigID: sd.id}}
		// grow rightward
		cur, curFlip := sd.id, false
		for {
			exit := EndR
			if curFlip {
				exit = EndL
			}
			t, ok := best(endKey{cur, exit}, used)
			if !ok {
				break
			}
			flip := t.entry == EndR
			used[t.to] = true
			members = append(members, Member{
				ContigID: t.to, Flipped: flip, GapBefore: roundGap(t.link.Gap),
			})
			cur, curFlip = t.to, flip
		}
		// grow leftward from the seed
		cur, curFlip = sd.id, false
		for {
			exit := EndL
			if curFlip {
				exit = EndR
			}
			t, ok := best(endKey{cur, exit}, used)
			if !ok {
				break
			}
			// traveling leftward: the partner sits before the current head;
			// it is flipped when we enter it through its LEFT end (so that
			// its right end faces the scaffold head... i.e. exit via R).
			flip := t.entry == EndL
			used[t.to] = true
			// the gap belongs between the new member and the previous head
			members[0].GapBefore = roundGap(t.link.Gap)
			members = append([]Member{{ContigID: t.to, Flipped: flip}}, members...)
			cur, curFlip = t.to, flip
		}
		scaffolds = append(scaffolds, &Scaffold{Members: members})
	}

	// order scaffolds by total contig length, longest first
	totalLen := func(s *Scaffold) int {
		n := 0
		for _, m := range s.Members {
			n += len(merged[m.ContigID].Seq)
			if m.GapBefore > 0 {
				n += m.GapBefore
			}
		}
		return n
	}
	sort.Slice(scaffolds, func(i, j int) bool {
		li, lj := totalLen(scaffolds[i]), totalLen(scaffolds[j])
		if li != lj {
			return li > lj
		}
		return scaffolds[i].Members[0].ContigID < scaffolds[j].Members[0].ContigID
	})
	for i, s := range scaffolds {
		s.ID = i + 1
	}
	res.Scaffolds = scaffolds

	// charge the serial traversal (performed identically everywhere; the
	// paper runs it on one processor and broadcasts)
	res.OrderPhase = team.Run(func(r *xrt.Rank) {
		if r.ID == 0 {
			r.ChargeItems(len(links) + len(seeds))
		}
		r.Barrier()
	})
}

func roundGap(g float64) int { return int(math.Round(g)) }
