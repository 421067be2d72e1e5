package gapclose

import (
	"cmp"
	"slices"

	"hipmer/internal/xrt"
)

// Work, in charged items, of the units gap closing is dealt in. Closure
// methods differ in computational intensity by orders of magnitude (§4.8),
// but each unit's cost is known, or bounded, from the gap's read bases and
// estimated size before it runs, which is what lets the units be dealt
// longest first. BenchmarkMiniGraphUnits calibrates the build, walk and
// fill factors against each other: on a 2-core host, three runs each on its
// walk-heavy and repeat-flanked gaps, a built base took 30.3–33.6 and
// 38.3–41.7 ns, a walk step right after the build 81–88 and 91–100 ns
// (2.4–2.8 built bases; its lookup alone 44–54 ns, 1.3–1.5 of them) and a
// filled base 1.9–2.2 and 2.3–2.6 ns (a built base is 15.0–16.3 of them).
const (
	// gapOverhead is charged once per gap, whatever becomes of it.
	gapOverhead = 64
	// buildFactor × read bases is a ladder step's mini-graph build: the one
	// upsert each window makes.
	buildFactor = 1
	// walkFactor × steps walked is a ladder step's two directed walks: a
	// step is a dependent lookup, the choice of the dominant extension and
	// a cycle check, 2.4–2.8 built bases, rounded up.
	walkFactor = 3
	// fillBases bases copied round a cycle (see walk) are billed one item:
	// a built base is worth 15.0–16.3 of them, rounded down.
	fillBases = 15
	// patchFactor × the DP rows it computes is one patching attempt: left
	// flank + left partial walk, at most aligner.OverlapWindow of them.
	patchFactor = 8
	// answerBytes is what a chunk scanned away from home sends back besides
	// its closure: the index of its spanning read.
	answerBytes = 8
)

// gapJob is one gap on its way through closeGaps: what the scheduler needs
// to know of it and what the ranks have found out so far.
type gapJob struct {
	g         *gapState
	anchored  bool // both flanks hold the minOverlap bases every method anchors on
	readBases int
	// home is the rank that scans the gap's first chunk of reads for a
	// spanning one and later reduces its ladder: where the read set lives.
	home int
	// chunks cut the read set for the spanning scan, in read order; chunk 0
	// is scanned on home.
	chunks []*scanChunk
	// steps is the k ladder of an unspanned gap, one entry per k both flanks
	// can anchor (a k a flank is shorter than is no task and costs nothing);
	// steps[:tried] have been dealt to a wave. Entry i is written by the one
	// rank that ran it and read only after that wave's join.
	steps []ladderStep
	tried int
	// Filled in by settle: the steps that ran at a k above the one that
	// closed the gap, and whether the closure was verified and confirmed.
	discarded          int
	checked, confirmed bool
	closure
}

func (j *gapJob) scanCost() int { return j.readBases + gapOverhead }

// stepCost is one ladder step of j, its walks priced at their bound. It is
// the same at every k, so a gap's next k fits under a wave's makespan
// wherever its smallest did.
func (j *gapJob) stepCost() int { return buildFactor*j.readBases + walkFactor*walkBound(j.g) }

// open reports whether the ladder has a step left to run: no k tried so far
// walked across, and a larger one remains.
func (j *gapJob) open() bool {
	at, _, _ := reduceLadder(j.steps[:j.tried])
	return at < 0 && j.tried < len(j.steps)
}

func newJobs(gaps []*gapState) []*gapJob {
	jobs := make([]*gapJob, len(gaps))
	for i, g := range gaps {
		j := &gapJob{g: g}
		jobs[i] = j
		if len(g.left) < minOverlap || len(g.right) < minOverlap {
			continue
		}
		j.anchored = true
		for _, rd := range g.reads {
			j.readBases += len(rd)
		}
	}
	return jobs
}

// ladderLen is the number of ladder steps g can run: the k values of the
// ladder that both flanks are long enough to anchor.
func ladderLen(g *gapState) int {
	n := 0
	for k := walkK; k <= maxWalkK && k <= min(len(g.left), len(g.right)); k += walkKStep {
		n++
	}
	return n
}

// heaviestFirst orders jobs for longest-processing-time dealing: by cost,
// descending, equal costs in gap order.
func heaviestFirst(jobs []*gapJob, cost func(*gapJob) int) []*gapJob {
	out := slices.Clone(jobs)
	slices.SortStableFunc(out, func(a, b *gapJob) int { return cmp.Compare(cost(b), cost(a)) })
	return out
}

// rankLoads is the work dealt to each rank so far.
type rankLoads []int

// least returns the least-loaded rank, the lowest on ties.
func (l rankLoads) least() int {
	at := 0
	for r, v := range l {
		if v < l[at] {
			at = r
		}
	}
	return at
}

// dealSpanning gives every gap a home rank, longest scan first onto the
// least-loaded rank, and returns each rank's gaps. Every scan costs
// something, so the first p gaps land on p different ranks.
func dealSpanning(jobs []*gapJob, p int) [][]*gapJob {
	byHome := make([][]*gapJob, p)
	loads := make(rankLoads, p)
	for _, j := range heaviestFirst(jobs, (*gapJob).scanCost) {
		j.home = loads.least()
		loads[j.home] += j.scanCost()
		byHome[j.home] = append(byHome[j.home], j)
	}
	return byHome
}

// scanChunk is one contiguous run of a gap's reads, scanned for a spanning
// read on one rank. found and seq are its answer, written by that rank and
// read after the scan's join.
type scanChunk struct {
	job   *gapJob
	reads [][]byte
	bases int
	found bool
	seq   []byte
}

// run scans the chunk on r. A chunk away from home fetches its reads and
// sends its answer back; the gap's overhead stays on home.
func (c *scanChunk) run(r *xrt.Rank, pool *scratchPool) {
	j := c.job
	away := j.home != r.ID
	if away {
		r.ChargeLookup(j.home, c.bases)
	}
	if j.anchored {
		s := pool.get()
		c.seq, c.found = s.trySpanning(j.g, c.reads)
		pool.put(s)
	}
	if !away {
		r.ChargeItems(c.bases + gapOverhead)
		return
	}
	r.ChargeItems(c.bases)
	r.ChargeStoreBatch(j.home, 1, answerBytes+len(c.seq))
}

// cut splits j's reads into at most n contiguous chunks of about equal
// bases, at read boundaries, none empty. A gap no method can anchor has
// one chunk and nothing to scan.
func (j *gapJob) cut(n int) []*scanChunk {
	if !j.anchored {
		return []*scanChunk{{job: j}}
	}
	reads := j.g.reads
	chunks := make([]*scanChunk, 0, n)
	lo, at, bases := 0, 0, 0
	for i, rd := range reads {
		at += len(rd)
		bases += len(rd)
		if len(chunks) < n-1 && i+1 < len(reads) && at*n >= (len(chunks)+1)*j.readBases {
			chunks = append(chunks, &scanChunk{job: j, reads: reads[lo : i+1], bases: bases})
			lo, bases = i+1, 0
		}
	}
	return append(chunks, &scanChunk{job: j, reads: reads[lo:], bases: bases})
}

// scanNs is the virtual time of a gap's busiest chunk: chunk 0 with the
// gap's overhead and the other chunks' answers applied on home, any other
// with its fetch and its answer priced off-node, wherever it will run.
func scanNs(chunks []*scanChunk) float64 {
	ns := xrt.ItemNs*float64(chunks[0].bases+gapOverhead) + float64(len(chunks)-1)*xrt.LocalOpNs
	for _, ch := range chunks[1:] {
		ns = max(ns, xrt.ItemNs*float64(ch.bases)+2*xrt.OffNodeMsgNs+float64(ch.bases+answerBytes)*xrt.OffNodeByteNs)
	}
	return ns
}

// finer returns the cut of j's reads into the fewest chunks beyond its
// current ones, at most spare more, that lowers its scanNs; nil if none
// does. Reads are whole, so one chunk more can leave the longest chunk as
// long as it was, and a few more shorten it.
func (j *gapJob) finer(spare int) []*scanChunk {
	now := scanNs(j.chunks)
	for n := len(j.chunks) + 1; n <= len(j.chunks)+spare; n++ {
		if c := j.cut(n); len(c) > len(j.chunks) && scanNs(c) < now {
			return c
		}
	}
	return nil
}

// dealScan plans the spanning scan over p ranks and returns each rank's
// chunks, the home chunks first in dealSpanning's order. Every gap gets its
// home rank by dealSpanning. With fewer gaps than ranks each home holds one
// gap and the other ranks none, and the makespan is the busiest gap's
// scanNs: that gap is cut finer, for as long as that lowers its scanNs and
// the ranks without a gap can take the new chunks. The chunks off home are
// then dealt longest first, one to each such rank in rank order. With as
// many gaps as ranks nothing is cut.
func dealScan(jobs []*gapJob, p int) [][]*scanChunk {
	byHome := dealSpanning(jobs, p)
	idle := make([]int, 0, p)
	for r, js := range byHome {
		if len(js) == 0 {
			idle = append(idle, r)
		}
	}
	for _, j := range jobs {
		j.chunks = j.cut(1)
	}
	for spare := len(idle); spare > 0 && len(jobs) > 0; {
		j := slices.MaxFunc(jobs, func(a, b *gapJob) int {
			return cmp.Compare(scanNs(a.chunks), scanNs(b.chunks))
		})
		more := j.finer(spare)
		if more == nil {
			break
		}
		spare -= len(more) - len(j.chunks)
		j.chunks = more
	}

	byRank := make([][]*scanChunk, p)
	var away []*scanChunk
	for r, js := range byHome {
		for _, j := range js {
			byRank[r] = append(byRank[r], j.chunks[0])
			away = append(away, j.chunks[1:]...)
		}
	}
	slices.SortStableFunc(away, func(a, b *scanChunk) int { return cmp.Compare(b.bases, a.bases) })
	for i, c := range away {
		byRank[idle[i]] = append(byRank[idle[i]], c)
	}
	return byRank
}

// ladderTask is one (gap, k) unit of a wave.
type ladderTask struct {
	job  *gapJob
	step int // index into job.steps; k = walkK + step × walkKStep
	// the bases walked by lookup and by copying, written by the task's rank,
	// read after the wave's join
	steps, filled int
}

// fillItems is the charge for filled bases copied round a walk's cycle.
func fillItems(filled int) int { return (filled + fillBases - 1) / fillBases }

// planWave deals one wave of ladder steps over p ranks and advances each
// job's tried past what it dealt. open lists the gaps with a step left,
// heaviest first. Every open gap's smallest untried k is dealt longest
// first onto the least-loaded rank; that fixes the wave's makespan. The
// ranks left under it — idle until the wave's barrier anyway — then take
// the same gaps' next k values, one ladder depth at a time, as long as one
// fits without raising the makespan: speculation, discarded if a smaller k
// of the gap walks across in the same wave. With many more ranks than gaps
// the whole ladder runs in one wave; with many more gaps than ranks there
// is next to no slack and the waves are the ladder's steps, each gap
// leaving at the first k that closes it.
func planWave(open []*gapJob, p int) [][]ladderTask {
	byRank := make([][]ladderTask, p)
	loads := make(rankLoads, p)
	deal := func(r int, j *gapJob) {
		loads[r] += j.stepCost()
		byRank[r] = append(byRank[r], ladderTask{job: j, step: j.tried})
		j.tried++
	}
	for _, j := range open {
		deal(loads.least(), j)
	}
	makespan := slices.Max(loads)
	for front := open; len(front) > 0; {
		var next []*gapJob
		for _, j := range front {
			if r := loads.least(); j.tried < len(j.steps) && loads[r]+j.stepCost() <= makespan {
				deal(r, j)
				next = append(next, j)
			}
		}
		front = next
	}
	return byRank
}
