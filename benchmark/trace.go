package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"

	"hipmer/internal/xrt"
)

// span is one timed call into a layer, recorded from outside the program
// under test. Spans of one operation share op; parent is the id of the
// span that was open when this one began (-1 at the top).
type span struct {
	id, parent int
	op         int
	layer      string // package the call goes into
	name       string
	start, end time.Duration // wall clock since the tracer's epoch
	allocBytes uint64        // runtime TotalAlloc delta over the span
	// rec holds the simulated machine's view of the same interval when the
	// call ran on a team: virtual duration and per-rank work and traffic.
	rec  *xrt.SpanRecord
	args map[string]any
}

func (s *span) wall() time.Duration { return s.end - s.start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []*span
	open  []*span
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// nextOp starts a new operation id for the spans that follow.
func (t *tracer) nextOp() { t.op++ }

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func (t *tracer) begin(layer, name string) *span {
	s := &span{id: len(t.spans), parent: -1, op: t.op, layer: layer, name: name}
	if n := len(t.open); n > 0 {
		s.parent = t.open[n-1].id
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, s)
	s.allocBytes = totalAlloc()
	s.start = time.Since(t.epoch)
	return s
}

func (t *tracer) finish(s *span) {
	s.end = time.Since(t.epoch)
	s.allocBytes = totalAlloc() - s.allocBytes
	if n := len(t.open); n == 0 || t.open[n-1] != s {
		panic("benchmark: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
}

// call times fn as one span.
func (t *tracer) call(layer, name string, fn func()) *span {
	s := t.begin(layer, name)
	fn()
	t.finish(s)
	return s
}

// teamCall times fn as one span and brackets it in a span of the simulated
// team as well, so virtual time, per-rank busy time and traffic are taken
// at the same boundaries as wall time and allocation.
func (t *tracer) teamCall(team *xrt.Team, layer, name string, fn func()) *span {
	s := t.begin(layer, name)
	team.BeginSpan(name)
	fn()
	s.rec = team.EndSpan()
	t.finish(s)
	return s
}

// selfTime is a span's duration minus what its direct children cover.
func (t *tracer) selfTime(s *span) time.Duration {
	d := s.wall()
	for _, c := range t.spans {
		if c.parent == s.id {
			d -= c.wall()
		}
	}
	return d
}

// util is mean over max per-rank busy virtual time, the quantity that
// predicts a phase's virtual duration; summed over several spans it is
// the sum of means over the sum of maxima.
func util(spans []*span) float64 {
	var mean, max float64
	for _, s := range spans {
		if s.rec == nil || len(s.rec.Ranks) == 0 {
			continue
		}
		var sum, mx float64
		for _, rd := range s.rec.Ranks {
			sum += rd.WorkNs
			if rd.WorkNs > mx {
				mx = rd.WorkNs
			}
		}
		mean += sum / float64(len(s.rec.Ranks))
		max += mx
	}
	if max == 0 {
		return 0
	}
	return mean / max
}

// writeChrome writes the spans as Chrome / Perfetto trace-event JSON: one
// complete ("X") event per span on the wall clock, one thread per
// operation, with the span's id, parent and simulated-machine figures in
// args.
func (t *tracer) writeChrome(path, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{
			"id": s.id, "parent": s.parent,
			"alloc_mb": float64(s.allocBytes) / 1e6,
			"self_ms":  ms(t.selfTime(s)),
		}
		if s.rec != nil {
			comm := s.rec.AggComm()
			args["virtual_ms"] = s.rec.VirtualNs / 1e6
			args["msgs"] = comm.Msgs()
			args["remote_mb"] = float64(comm.Bytes()) / 1e6
			args["util"] = util([]*span{s})
			for k, v := range s.rec.Counters {
				args[k] = v
			}
		}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, event{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.wall()) / 1e3,
			Pid: 1, Tid: s.op, Args: args,
		})
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"workload": workload, "clock": "wall"},
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
