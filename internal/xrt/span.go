// Per-stage observability spans. A span brackets a region of the
// orchestration program (a pipeline stage, or a named sub-phase inside
// one) and records, per rank, the CommStats and busy-time deltas between
// its open and close. Spans nest: stage packages open sub-spans inside
// the pipeline's stage spans, and the full pre-order record sequence is
// consumed by internal/metrics to produce the paper-style per-module
// breakdowns (Figures 6–8, Tables 1–3) and load-imbalance statistics.
//
// Span calls are part of the orchestration program, not the SPMD region:
// BeginSpan/EndSpan must only be called between Team.Run phases, from the
// single orchestrating goroutine. Everything a span records except WallNs
// derives from virtual time and operation counts, so all span fields but
// WallNs are bit-identical across schedule perturbations.
package xrt

import "time"

// RankDelta is one rank's activity during a span.
type RankDelta struct {
	// WorkNs is the rank's charged busy time during the span: virtual-
	// clock advances from its own charges plus foreign charges folded in
	// at synchronization points, excluding barrier synchronization jumps.
	// The spread of WorkNs across ranks is the span's load imbalance.
	WorkNs float64
	// CommNs is the part of WorkNs the rank spent on its own messages and
	// their bytes: lookups, store batches and collectives sent, their
	// retransmissions on a lossy transport, and modelled exchanges charged
	// through ChargeComm. Owner-side applies of items others sent are
	// compute, in WorkNs only. What a rank's clock advanced beyond WorkNs
	// during the span is barrier wait.
	CommNs float64
	// Comm is the rank's communication-statistics delta.
	Comm CommStats
}

// SpanRecord is one completed (or still-open) span. Records are created
// at BeginSpan in pre-order; deltas are filled in at EndSpan.
type SpanRecord struct {
	// Name is the span's own label; Path is the '/'-joined chain of
	// enclosing span names (e.g. "scaffolding/merAligner/align").
	Name string
	Path string
	// Depth is the nesting depth (0 = top-level pipeline stage).
	Depth int
	// VirtualNs is the modelled critical-path duration: the advance of
	// the team's maximum clock between open and close.
	VirtualNs float64
	// WallNs is the physical duration. It is the only nondeterministic
	// field; deterministic-output tests zero it before comparing.
	WallNs int64
	// Ranks holds per-rank deltas, indexed by rank ID.
	Ranks []RankDelta
	// Counters holds named stage counters (heavy hitters, traversal
	// links, ...) accumulated via Team.AddCounter while the span was
	// innermost-open or targeted by path.
	Counters map[string]int64
}

// AggComm sums the per-rank communication deltas.
func (s *SpanRecord) AggComm() CommStats {
	var agg CommStats
	for _, rd := range s.Ranks {
		agg.Add(rd.Comm)
	}
	return agg
}

// openSpan carries the snapshots taken at BeginSpan.
type openSpan struct {
	rec        *SpanRecord
	startClock int64
	startWall  time.Time
	startWork  []int64
	startCommN []int64
	startComm  []CommStats
}

// BeginSpan opens a named span nested under the currently open one (if
// any), snapshotting every rank's clock, work, and communication state.
// A span whose Path is Config.Inject.FailStage arms the injected crash
// (see fault.go). Must be called between Run phases from the
// orchestrating goroutine.
func (t *Team) BeginSpan(name string) {
	path := name
	if n := len(t.open); n > 0 {
		path = t.open[n-1].rec.Path + "/" + name
	}
	rec := &SpanRecord{Name: name, Path: path, Depth: len(t.open)}
	o := &openSpan{
		rec:        rec,
		startClock: t.maxClock(),
		startWall:  time.Now(),
		startWork:  make([]int64, len(t.ranks)),
		startCommN: make([]int64, len(t.ranks)),
		startComm:  make([]CommStats, len(t.ranks)),
	}
	for i, r := range t.ranks {
		o.startWork[i] = r.workNs
		o.startCommN[i] = r.commNs
		o.startComm[i] = r.stats
	}
	t.open = append(t.open, o)
	t.spans = append(t.spans, rec)
	if t.armsCrash(path) {
		t.armFault()
	}
}

// EndSpan closes the innermost open span, fills in its per-rank deltas,
// and returns it; closing the span that armed the crash disarms it unless
// it tripped. Panics if no span is open.
func (t *Team) EndSpan() *SpanRecord {
	n := len(t.open)
	if n == 0 {
		panic("xrt: EndSpan without matching BeginSpan")
	}
	o := t.open[n-1]
	t.open = t.open[:n-1]
	rec := o.rec
	rec.VirtualNs = float64(t.maxClock() - o.startClock)
	rec.WallNs = time.Since(o.startWall).Nanoseconds()
	rec.Ranks = make([]RankDelta, len(t.ranks))
	for i, r := range t.ranks {
		rec.Ranks[i] = RankDelta{
			WorkNs: float64(r.workNs - o.startWork[i]),
			CommNs: float64(r.commNs - o.startCommN[i]),
			Comm:   r.stats.Sub(o.startComm[i]),
		}
	}
	if t.armsCrash(rec.Path) {
		t.disarmFault()
	}
	return rec
}

// AddCounter accumulates a named counter on the innermost open span. A
// no-op when no span is open, so stage packages can record counters
// unconditionally and tests driving a stage directly lose nothing but
// the bookkeeping.
func (t *Team) AddCounter(name string, v int64) {
	n := len(t.open)
	if n == 0 {
		return
	}
	rec := t.open[n-1].rec
	if rec.Counters == nil {
		rec.Counters = make(map[string]int64)
	}
	rec.Counters[name] += v
}

// OpenSpans returns the number of currently open spans, letting error
// paths (an injected crash mid-stage) unwind to a known nesting depth by
// calling EndSpan until the count returns to what it was.
func (t *Team) OpenSpans() int { return len(t.open) }

// Spans returns the span records in pre-order (parents before children).
// Records of still-open spans have empty Ranks. The returned slice is
// shared; callers must not mutate it.
func (t *Team) Spans() []*SpanRecord { return t.spans }
