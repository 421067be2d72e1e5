package gapclose

import (
	"cmp"
	"slices"
)

// Work, in charged items, of the units gap closing is dealt in. Closure
// methods differ in computational intensity by orders of magnitude (§4.8),
// but each unit's cost is known from the gap's read bases before it runs,
// which is what lets the units be dealt longest first.
const (
	// gapOverhead is charged once per gap, whatever becomes of it.
	gapOverhead = 64
	// stepFactor × read bases is one ladder step: the mini de Bruijn build
	// and two directed walks.
	stepFactor = 3
	// patchFactor × (left flank + left partial walk) is the banded overlap
	// DP of one patching attempt.
	patchFactor = 8
)

// gapJob is one gap on its way through closeGaps: what the scheduler needs
// to know of it and what the ranks have found out so far.
type gapJob struct {
	g         *gapState
	anchored  bool // both flanks hold the minOverlap bases every method anchors on
	readBases int
	// home is the rank that scans the gap's reads for a spanning one and
	// later reduces its ladder: where the read set lives.
	home int
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
func (j *gapJob) stepCost() int { return stepFactor * j.readBases }

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
func ladderLen(g *gapState, opt Options) int {
	n := 0
	for k := opt.WalkK; k <= opt.MaxWalkK && k <= min(len(g.left), len(g.right)); k += walkKStep {
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
// least-loaded rank, and returns each rank's gaps.
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

// ladderTask is one (gap, k) unit of a wave.
type ladderTask struct {
	job  *gapJob
	step int // index into job.steps; k = WalkK + step × walkKStep
}

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
		byRank[r] = append(byRank[r], ladderTask{j, j.tried})
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
