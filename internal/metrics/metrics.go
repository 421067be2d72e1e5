// Package metrics turns the runtime's span records (internal/xrt) into
// the per-stage observability reports the paper's evaluation is made of:
// time in k-mer analysis vs. contig generation vs. scaffolding (Figures
// 6–8), communication volume by locality (Table 2), and load imbalance
// across ranks — the quantity the heavy-hitter optimization exists to
// flatten on repetitive genomes.
//
// A report renders two ways: a machine-readable JSON document with a
// stable schema (Schema names the version; changing the shape of the
// document requires bumping it and regenerating the golden file in this
// package's testdata), and a human table mirroring the paper's
// per-module breakdowns (FormatTable).
//
// Every field except the wall-clock ones (Report.WallNs, Stage.WallNs)
// derives from virtual time and deterministic operation counts, so two
// runs with the same configuration — including runs under different
// schedule-perturbation seeds — produce bit-identical reports after
// ZeroWall. The metamorphic tests in this package pin that property.
package metrics

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"hipmer/internal/stats"
	"hipmer/internal/xrt"
)

// Schema is the current report schema identifier. Bump the version
// suffix on any breaking change to the JSON shape.
const Schema = "hipmer-metrics/v1"

// Report is the top-level metrics document for one pipeline run.
type Report struct {
	Schema       string `json:"schema"`
	Dataset      string `json:"dataset,omitempty"`
	Ranks        int    `json:"ranks"`
	RanksPerNode int    `json:"ranks_per_node"`
	Seed         int64  `json:"seed"`
	// VirtualNs is the team's synchronized virtual clock when the report
	// was taken (the end-to-end modelled duration).
	VirtualNs int64 `json:"virtual_ns"`
	// WallNs is the summed physical duration of the top-level stages.
	// Nondeterministic; zeroed by ZeroWall.
	WallNs int64 `json:"wall_ns"`
	// Stages lists every recorded span in pre-order: top-level pipeline
	// stages at depth 0, named sub-spans beneath them.
	Stages []Stage `json:"stages"`
}

// Stage is one span's metrics.
type Stage struct {
	Name  string `json:"name"`
	Path  string `json:"path"`
	Depth int    `json:"depth"`
	// VirtualNs is the stage's modelled critical-path duration.
	VirtualNs int64 `json:"virtual_ns"`
	// WallNs is nondeterministic; zeroed by ZeroWall.
	WallNs int64 `json:"wall_ns"`
	// Comm aggregates the stage's communication over all ranks.
	Comm Comm `json:"comm"`
	// Imbalance summarizes the per-rank busy-time distribution.
	Imbalance stats.Dist `json:"imbalance"`
	// Utilization is mean rank busy time over stage virtual time
	// (0 for an empty stage).
	Utilization float64 `json:"utilization"`
	// PerRank holds one entry per rank, in rank order.
	PerRank []RankMetrics `json:"per_rank"`
	// Counters holds named stage counters (heavy_hitters,
	// walks_linked, ...). Keys marshal in sorted order.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Comm is xrt.CommStats plus derived rates. Rates are defined to be 0
// (never NaN/Inf) when their denominators are 0 so that an empty-stage
// span still marshals. The rate fields shadow the CommStats methods of
// the same names.
type Comm struct {
	xrt.CommStats

	OffNodeLookupFrac float64 `json:"off_node_lookup_frac"`
	CacheHitRate      float64 `json:"cache_hit_rate"`
	BytesPerMsg       float64 `json:"bytes_per_msg"`
}

func commFrom(s xrt.CommStats) Comm {
	return Comm{
		CommStats:         s,
		OffNodeLookupFrac: s.OffNodeLookupFrac(),
		CacheHitRate:      s.CacheHitRate(),
		BytesPerMsg:       s.BytesPerMsg(),
	}
}

// RankMetrics is one rank's contribution to a stage.
type RankMetrics struct {
	Rank int `json:"rank"`
	// WorkNs is the rank's charged busy time (virtual, deterministic).
	WorkNs int64 `json:"work_ns"`
	// Lookups / OffNodeLookups / Msgs / Bytes / IOBytes / CacheHits
	// summarize the rank's communication delta.
	Lookups        int64 `json:"lookups"`
	OffNodeLookups int64 `json:"off_node_lookups"`
	Msgs           int64 `json:"msgs"`
	Bytes          int64 `json:"bytes"`
	IOBytes        int64 `json:"io_bytes"`
	CacheHits      int64 `json:"cache_hits"`
	// Retries is the rank's retransmission count (chaos runs only).
	Retries int64 `json:"retries"`
}

// FromTeam builds a report from the team's recorded spans. Call after
// the pipeline has closed every span (between phases, never during one).
func FromTeam(team *xrt.Team) *Report {
	cfg := team.Config()
	rep := &Report{
		Schema:       Schema,
		Ranks:        cfg.Ranks,
		RanksPerNode: cfg.RanksPerNode,
		Seed:         cfg.Seed,
		VirtualNs:    int64(team.VirtualNow()),
	}
	for _, sp := range team.Spans() {
		st := stageFrom(sp)
		if st.Depth == 0 {
			rep.WallNs += st.WallNs
		}
		rep.Stages = append(rep.Stages, st)
	}
	return rep
}

func stageFrom(sp *xrt.SpanRecord) Stage {
	st := Stage{
		Name:      sp.Name,
		Path:      sp.Path,
		Depth:     sp.Depth,
		VirtualNs: int64(sp.VirtualNs),
		WallNs:    sp.WallNs,
		Comm:      commFrom(sp.AggComm()),
	}
	work := make([]float64, len(sp.Ranks))
	for i, rd := range sp.Ranks {
		work[i] = rd.WorkNs
		st.PerRank = append(st.PerRank, RankMetrics{
			Rank:           i,
			WorkNs:         int64(rd.WorkNs),
			Lookups:        rd.Comm.Lookups(),
			OffNodeLookups: rd.Comm.OffNodeLookups,
			Msgs:           rd.Comm.Msgs(),
			Bytes:          rd.Comm.Bytes(),
			IOBytes:        rd.Comm.IOBytes,
			CacheHits:      rd.Comm.CacheHits,
			Retries:        rd.Comm.Retries,
		})
	}
	st.Imbalance = stats.NewDist(work)
	if sp.VirtualNs > 0 {
		st.Utilization = st.Imbalance.Mean / sp.VirtualNs
	}
	if len(sp.Counters) > 0 {
		st.Counters = make(map[string]int64, len(sp.Counters))
		for k, v := range sp.Counters {
			st.Counters[k] = v
		}
	}
	return st
}

// Stage returns the first stage whose path matches (nil if absent).
func (r *Report) Stage(path string) *Stage {
	for i := range r.Stages {
		if r.Stages[i].Path == path {
			return &r.Stages[i]
		}
	}
	return nil
}

// Time is the way to read a stage time: the virtual duration of the span
// at path — a pipeline stage by its name ("kmer-analysis-k33",
// "scaffolding-round2"), a sub-span by its '/'-joined path
// ("scaffolding/merAligner"). Zero when the run had no such span (a
// resume loads a completed stage instead of running it) or the report is
// nil. The run's total is Report.VirtualNs.
func (r *Report) Time(path string) time.Duration {
	if r == nil {
		return 0
	}
	if st := r.Stage(path); st != nil {
		return time.Duration(st.VirtualNs)
	}
	return 0
}

// ZeroWall returns a deep copy of the report with every wall-clock field
// zeroed — the canonical form for golden files and bit-identity
// comparisons across schedule perturbations.
func (r *Report) ZeroWall() *Report {
	cp := *r
	cp.WallNs = 0
	cp.Stages = make([]Stage, len(r.Stages))
	for i, st := range r.Stages {
		st.WallNs = 0
		st.PerRank = append([]RankMetrics(nil), st.PerRank...)
		if st.Counters != nil {
			m := make(map[string]int64, len(st.Counters))
			for k, v := range st.Counters {
				m[k] = v
			}
			st.Counters = m
		}
		cp.Stages[i] = st
	}
	return &cp
}

// MarshalIndent renders the report as stable, indented JSON.
func (r *Report) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the report (or, via WriteFileAll, several) as JSON.
func (r *Report) WriteFile(path string) error {
	b, err := r.MarshalIndent()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// WriteFileAll writes several reports as a JSON array.
func WriteFileAll(path string, reports []*Report) error {
	b, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadFile parses a report written by WriteFile. A file holding a JSON
// array (WriteFileAll) yields its reports in order.
func ReadFile(path string) ([]*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// Try single-report form first, then the array form.
	var one Report
	if err := json.Unmarshal(b, &one); err == nil && one.Schema != "" {
		return []*Report{&one}, nil
	}
	var many []*Report
	if err := json.Unmarshal(b, &many); err != nil {
		return nil, fmt.Errorf("metrics: %s is neither a report nor a report array: %w", path, err)
	}
	for _, r := range many {
		if r == nil || r.Schema == "" {
			return nil, fmt.Errorf("metrics: %s contains a non-report entry", path)
		}
	}
	return many, nil
}
