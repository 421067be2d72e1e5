package gapclose

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hipmer/internal/aligner"
	"hipmer/internal/genome"
	"hipmer/internal/xrt"
)

// syntheticGaps builds n gaps of three kinds in turn, over error-free reads
// of a random genome: one a read spans; one wider than a read and tiled
// densely, which the k = 21 walk crosses; and one with a coverage hole in
// the middle, which climbs the whole ladder, is offered to patching and
// stays open. Read counts vary from gap to gap, so costs do.
func syntheticGaps(seed int64, n int) []*gapState {
	rng := xrt.NewPrng(seed)
	const flank, readLen = 200, 100
	var gaps []*gapState
	for i := 0; i < n; i++ {
		gapLen := [3]int{40 + rng.Intn(20), 150 + rng.Intn(100), 300}[i%3]
		seq := genome.Random(rng, 2*flank+gapLen)
		step := 2 + rng.Intn(6)
		var reads [][]byte
		for at := flank - 90; at+readLen <= flank+gapLen+90; at += step {
			if i%3 == 2 && at+readLen > flank+80 && at < flank+gapLen-80 {
				continue // the hole
			}
			reads = append(reads, seq[at:at+readLen])
		}
		gaps = append(gaps, &gapState{id: gapID{i, 1}, left: seq[:flank], right: seq[flank+gapLen:],
			est: gapLen, reads: reads})
	}
	return gaps
}

// closeSpan runs closeGaps on a fresh team of p ranks and returns the
// closures and the close span.
func closeSpan(gaps []*gapState, p int) ([]closure, *xrt.SpanRecord) {
	team := xrt.NewTeam(xrt.Config{Ranks: p, RanksPerNode: min(p, 24)})
	closures := closeGaps(team, gaps, Options{}, &Result{Gaps: len(gaps)})
	spans := team.Spans()
	return closures, spans[len(spans)-1]
}

// checkAgainstOracle requires every closure to be what the whole-gap loop
// produces, and returns how many ladder steps that loop ran per gap.
func checkAgainstOracle(t *testing.T, gaps []*gapState, closures []closure) (ran []int) {
	t.Helper()
	var s scratch
	byMethod := map[Method]int{}
	for i, g := range gaps {
		m, seq, n := closeGapSeq(&s, g, make([]ladderStep, 3))
		if closures[i].method != m || !bytes.Equal(closures[i].seq, seq) {
			t.Fatalf("gap %d: %v closure of %d bases, the whole-gap loop gives %v of %d",
				i, closures[i].method, len(closures[i].seq), m, len(seq))
		}
		byMethod[m]++
		ran = append(ran, n)
	}
	if byMethod[Spanned] == 0 || byMethod[Walked] == 0 || byMethod[Unclosed] == 0 {
		t.Fatalf("precondition: the gap set no longer mixes outcomes: %v", byMethod)
	}
	return ran
}

// checkDeal replays the deal of gaps over p ranks, each gap staying open for
// as many steps as the whole-gap loop ran on it, and requires of every
// wave that no rank's load exceeds the makespan the primary tasks set — no
// speculative task (one above its gap's smallest untried k) outside slack —
// then that the close span's counters are those of the replayed deal. It
// returns the span's counters.
func checkDeal(t *testing.T, gaps []*gapState, ran []int, p int, span *xrt.SpanRecord) map[string]int64 {
	t.Helper()
	needs := map[*gapJob]int{}
	var ladders []*gapJob
	for i, j := range newJobs(gaps) {
		if ran[i] > 0 {
			j.steps = make([]ladderStep, ladderLen(j.g))
			needs[j] = ran[i]
			ladders = append(ladders, j)
		}
	}
	ladders = heaviestFirst(ladders, (*gapJob).stepCost)
	want := map[string]int64{}
	for {
		var open []*gapJob
		smallest := map[*gapJob]int{}
		for _, j := range ladders {
			if j.tried < needs[j] {
				open = append(open, j)
				smallest[j] = j.tried
			}
		}
		if len(open) == 0 {
			break
		}
		want["ladder_waves"]++
		byRank := planWave(open, p)
		makespan := 0 // of the primary tasks
		for _, ts := range byRank {
			load := 0
			for _, tk := range ts {
				if tk.step == smallest[tk.job] {
					load += tk.job.stepCost()
				}
			}
			makespan = max(makespan, load)
		}
		for r, ts := range byRank {
			load := 0
			for _, tk := range ts {
				load += tk.job.stepCost()
				want["ladder_tasks"]++
				if tk.step > smallest[tk.job] {
					want["speculative_tasks"]++
				}
				if tk.step >= needs[tk.job] {
					want["speculative_discarded"]++
				}
			}
			if load > makespan {
				t.Fatalf("wave %d: rank %d holds %d items, the primary tasks' makespan is %d",
					want["ladder_waves"], r, load, makespan)
			}
		}
	}
	for name, v := range want {
		if span.Counters[name] != v {
			t.Errorf("close span counts %d %s, the replayed deal %d", span.Counters[name], name, v)
		}
	}
	return span.Counters
}

// TestLadderScarcity is the regime opposite to every benchmark workload:
// many more gaps than ranks. Dealing (gap, k) tasks must then cost no more
// virtual time than dealing whole gaps round-robin did: the waves are the
// ladder's steps, and next to nothing is run on speculation.
func TestLadderScarcity(t *testing.T) {
	const p = 4
	// The close span of this gap set under the whole-gap round-robin deal,
	// measured at the commit before the split (one ChargeItems(work+64)
	// per gap, gap i on rank i mod p).
	const roundRobinNs = 71_150_040.0

	gaps := syntheticGaps(51, 240)
	closures, span := closeSpan(gaps, p)
	ran := checkAgainstOracle(t, gaps, closures)
	if span.VirtualNs > roundRobinNs {
		t.Errorf("close span %.0f ns, whole gaps dealt round-robin took %.0f", span.VirtualNs, roundRobinNs)
	}
	got := checkDeal(t, gaps, ran, p, span)
	if got["ladder_waves"] != 3 {
		t.Errorf("%d waves: with 60 gaps per rank the waves should be the ladder's three steps", got["ladder_waves"])
	}
	if got["speculative_tasks"]*20 > got["ladder_tasks"] {
		t.Errorf("%d of %d tasks speculative: next to no slack was expected", got["speculative_tasks"], got["ladder_tasks"])
	}
}

// TestClosuresRankInvariant: the deal decides where a ladder step runs,
// never what a gap's closure is — one gap set closes alike on any number of
// ranks, and as the whole-gap loop closes it. Between the extremes (8
// ranks, 29 ladders) some steps run on speculation and some of those are
// discarded; at 96 ranks every ladder runs whole in one wave.
func TestClosuresRankInvariant(t *testing.T) {
	gaps := syntheticGaps(52, 45)
	// a flank too short for k = 41, and one too short to anchor anything
	gaps[2].left = gaps[2].left[len(gaps[2].left)-35:]
	gaps[5].right = gaps[5].right[:10]
	for _, p := range []int{1, 3, 8, 24, 96} {
		t.Run(fmt.Sprint(p, "ranks"), func(t *testing.T) {
			closures, span := closeSpan(gaps, p)
			ran := checkAgainstOracle(t, gaps, closures)
			got := checkDeal(t, gaps, ran, p, span)
			t.Logf("%d ranks: %d waves, %d tasks, %d speculative, %d discarded", p,
				got["ladder_waves"], got["ladder_tasks"], got["speculative_tasks"], got["speculative_discarded"])
			switch p {
			case 1:
				if got["speculative_tasks"] != 0 {
					t.Errorf("%d speculative tasks on one rank, which has no slack", got["speculative_tasks"])
				}
			case 24:
				if got["speculative_tasks"] == 0 || got["speculative_discarded"] == 0 {
					t.Errorf("precondition: no speculative task ran and was discarded: %v", got)
				}
			case 96:
				if got["ladder_waves"] != 1 || got["speculative_discarded"] != 2*15 {
					t.Errorf("%d waves, %d discarded: 29 ladders fit one wave, and 15 of them walk across at k = 21",
						got["ladder_waves"], got["speculative_discarded"])
				}
			}
		})
	}
}

// checkOneRankCharges closes g alone on one rank, where nothing moves, and
// requires the span to run steps ladder tasks and to charge the unit costs
// and nothing else: a scan, each step's build over every read base and its
// walks by the step, and a patch billed for the DP rows BestOverlap
// computes. It returns the patch's left operand length.
func checkOneRankCharges(t *testing.T, g *gapState, steps int) (leftOperand int) {
	t.Helper()
	var s scratch
	ladder := make([]ladderStep, steps)
	walked := 0
	for i := range ladder {
		k := walkK + i*walkKStep
		s.graph.build(g.reads, k)
		walked += s.walkStep(g, k, &ladder[i])
	}
	_, bestL, bestR := reduceLadder(ladder)
	if len(bestL) == 0 || len(bestR) == 0 {
		t.Fatal("precondition: the gap is not offered to patching")
	}
	_, span := closeSpan([]*gapState{g}, 1)
	if n := span.Counters["ladder_tasks"]; n != int64(steps) {
		t.Fatalf("%d ladder tasks, want %d", n, steps)
	}
	if n := span.Counters["walk_steps"]; n != int64(walked) {
		t.Fatalf("%d steps walked, want %d", n, walked)
	}
	readBases := 0
	for _, rd := range g.reads {
		readBases += len(rd)
	}
	leftOperand = len(g.left) + len(bestL)
	items := readBases + gapOverhead + steps*buildFactor*readBases + walkFactor*walked + patchFactor*min(leftOperand, aligner.OverlapWindow)
	if got, want := span.Ranks[0].WorkNs, float64(items)*xrt.ItemNs; got != want {
		t.Fatalf("charged %.0f ns, want %.0f: a scan, %d steps over %d read bases walking %d steps, and a patch over %d rows",
			got, want, steps, readBases, walked, min(leftOperand, aligner.OverlapWindow))
	}
	return leftOperand
}

// TestSkippedStepIsNoTask: a k a flank cannot anchor is not dealt and not
// charged (the whole-gap loop billed it and then skipped it).
func TestSkippedStepIsNoTask(t *testing.T) {
	g := syntheticGaps(53, 3)[2]
	g.left = g.left[len(g.left)-35:] // k = 21 and 31 only
	checkOneRankCharges(t, g, 2)
}

// TestPatchBillsOnlyWindowRows: BestOverlap runs its DP over at most the
// last aligner.OverlapWindow bases of the left operand, so a patch whose
// left flank and partial walk are longer is billed for that many rows.
// The gap is 1 000 bases with a 20-base coverage hole in the middle: the
// walk from the left flank runs about 480 bases into it before it dead-ends.
func TestPatchBillsOnlyWindowRows(t *testing.T) {
	const flank, gapLen, readLen, hole = 200, 1000, 100, 700
	seq := genome.Random(xrt.NewPrng(54), 2*flank+gapLen)
	var reads [][]byte
	for at := flank - 90; at+readLen <= flank+gapLen+90; at += 4 {
		if at+readLen > hole && at < hole+20 {
			continue
		}
		reads = append(reads, seq[at:at+readLen])
	}
	g := &gapState{id: gapID{0, 1}, left: seq[:flank], right: seq[flank+gapLen:], est: gapLen, reads: reads}
	if n := checkOneRankCharges(t, g, 3); n <= aligner.OverlapWindow {
		t.Fatalf("precondition: a left operand of %d bases, want more than %d", n, aligner.OverlapWindow)
	}
}

// TestScratchPoolBoundsAndRecycles: tasks that never overlap share one
// scratch, and however many goroutines want one, no more are ever out —
// or made — than the pool has slots.
func TestScratchPoolBoundsAndRecycles(t *testing.T) {
	pool := newScratchPool()
	a := pool.get()
	pool.put(a)
	if b := pool.get(); b != a {
		t.Fatal("a pool used by one task at a time warmed a second scratch")
	} else {
		pool.put(b)
	}
	var out, most atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8*cap(pool.out); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := pool.get()
				n := out.Add(1)
				for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
				}
				s.walked = append(s.walked[:0], byte(i)) // a data race if two tasks hold one scratch
				runtime.Gosched()
				out.Add(-1)
				pool.put(s)
			}
		}()
	}
	wg.Wait()
	if most.Load() > int64(cap(pool.out)) || len(pool.idle) > cap(pool.out) {
		t.Fatalf("%d scratches out at once and %d made, the pool has %d slots", most.Load(), len(pool.idle), cap(pool.out))
	}
}
