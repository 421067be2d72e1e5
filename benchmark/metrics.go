package main

import (
	"fmt"
	"sort"
	"strings"

	"hipmer/internal/stats"
)

// metricDef declares one metric: the single source of truth for
// BENCHMARK.json (-manifest prints it), for the units the program emits,
// and for the bounds -compare applies.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd lists what a user of the assembler or the service sees. Every
// metric is defined on every workload and is never zero. Bounds are the
// share of the parent's median a metric may worsen by; they were sized
// from the spread of ten seeds on the 2-core host (see README.md).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "virtual_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer lists the single-layer metrics of the traced run; the prefix
// before the dot is the package the number belongs to. A layer that does
// no work on a workload reports 0 there.
var perLayer = layerMetrics()

func layerMetrics() []metricDef {
	var out []metricDef
	add := func(layer, better string, nameUnit ...string) {
		for i := 0; i < len(nameUnit); i += 2 {
			out = append(out, metricDef{Name: layer + "." + nameUnit[i], Unit: nameUnit[i+1], Better: better})
		}
	}
	for _, l := range stageLayers {
		add(l, "lower", "wall_ms", "ms", "virtual_ms", "ms", "alloc_mb", "MB", "msgs", "count", "remote_mb", "MB")
		add(l, "higher", "util", "ratio")
	}
	add("kanalysis", "lower", "kept_kmers", "count", "peak_entries", "count", "superkmers", "count", "heavy_hitters", "count")
	add("kanalysis", "higher", "comm_saved_mb", "MB")
	add("contig", "lower", "build_virtual_ms", "ms", "traverse_virtual_ms", "ms", "abort_frac", "ratio",
		"rounds", "count", "contigs", "count", "clean_wall_ms", "ms")
	add("contig", "higher", "cache_hit_rate", "ratio")
	add("scaffold", "lower", "depths_virtual_ms", "ms", "bubble_virtual_ms", "ms", "align_virtual_ms", "ms",
		"splintspan_virtual_ms", "ms", "order_virtual_ms", "ms")
	add("scaffold", "higher", "cache_hit_rate", "ratio", "links", "count")
	add("aligner", "lower", "index_wall_ms", "ms", "align_wall_ms", "ms", "virtual_ms", "ms")
	add("aligner", "higher", "align_kreads_per_s", "kreads/s", "aligned_frac", "ratio")
	add("gapclose", "higher", "closed_frac", "ratio", "verified_frac", "ratio")
	add("kmer", "higher", "foreach_mbases_per_s", "Mbases/s", "scan_mbases_per_s", "Mbases/s",
		"encode_mbases_per_s", "Mbases/s", "decode_mkmers_per_s", "Mkmers/s")
	add("kmer", "lower", "bytes_per_kmer", "bytes", "superkmers_per_read", "count", "minimizer_ns", "ns")
	add("bloom", "higher", "add_mops", "Mops/s")
	add("hll", "higher", "add_mops", "Mops/s")
	add("mg", "higher", "offer_mops", "Mops/s")
	add("mg", "lower", "merge_ms", "ms", "new_kb", "KB")
	add("dht", "lower", "new_mb", "MB", "freeze_ms", "ms", "msgs_per_kput", "count", "virtual_ns_per_get", "ns", "bytes_per_entry", "bytes")
	add("dht", "higher", "put_mops", "Mops/s", "putblob_mb_per_s", "MB/s", "mutate_mops", "Mops/s",
		"get_frozen_mops", "Mops/s", "get_cached_mops", "Mops/s", "cache_hit_rate", "ratio")
	add("xrt", "lower", "team_run_us", "us", "barrier_us", "us", "allreduce_us", "us", "charge_ns", "ns", "newteam_kb", "KB")
	add("fastq", "lower", "read_ms", "ms")
	add("fastq", "higher", "parse_mb_per_s", "MB/s")
	add("seqdb", "lower", "read_ms", "ms")
	add("ckpt", "lower", "encode_ms", "ms", "write_ms", "ms", "virtual_ms", "ms", "bytes_mb", "MB",
		"read_ms", "ms", "decode_ms", "ms", "reshard_ms", "ms", "scrub_ms", "ms")
	add("pipeline", "lower", "io_ms", "ms", "io_virtual_ms", "ms", "glue_ms", "ms",
		"traced_wall_ms", "ms", "traced_virtual_ms", "ms", "trace_overhead_frac", "ratio")
	add("pipeline", "higher", "scaling_eff_4x", "ratio", "mbases_per_s", "Mbases/s")
	add("sched", "higher", "jobs_per_s", "1/s", "attempt_success_frac", "ratio", "utilization", "ratio")
	add("sched", "lower", "self_ms", "ms", "attempts", "count", "run_wall_p50_ms", "ms", "run_wall_p95_ms", "ms",
		"preempt_wall_ms", "ms", "alloc_mb_per_job", "MB", "queue_wait_p95_ms", "ms",
		"turnaround_p50_ms", "ms", "turnaround_p95_ms", "ms", "requeues", "count", "preemptions", "count",
		"rescales", "count", "rejected", "count", "bill_error_p50", "ratio")
	add("stats", "higher", "n50_bp", "bp", "covered_frac", "ratio")
	add("stats", "lower", "sequences", "count")
	add("verify", "lower", "misassemblies", "count", "gap_violations", "count", "missing_kmers", "count", "meta_cross_joins", "count")
	add("verify", "higher", "meta_mean_frac", "ratio")
	add("host", "lower", "calib_ms", "ms", "wall_per_calib", "ratio", "noisy", "bool")
	return out
}

// stageLayers are the four pipeline stage packages; each gets the same six
// span-derived metrics, summed over rounds.
var stageLayers = []string{"kanalysis", "contig", "scaffold", "gapclose"}

// sample is one reported number. N is how many measurements it summarises
// (0: the layer did no work on this workload and the value is a filler 0).
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// results collects the metrics of one run of one workload, keyed by name.
// Setting a name that no table declares, or setting one twice, is a bug in
// the benchmark and panics, so every emitted metric has its declared unit
// and appears once.
type results struct {
	defs map[string]metricDef
	m    map[string]sample
}

func newResults(defs []metricDef) *results {
	r := &results{defs: make(map[string]metricDef, len(defs)), m: make(map[string]sample, len(defs))}
	for _, d := range defs {
		r.defs[d.Name] = d
	}
	return r
}

// set records a single measured value.
func (r *results) set(name string, v float64) { r.setDist(name, []float64{v}) }

// setDist records the median of vs with its range and count.
func (r *results) setDist(name string, vs []float64) { r.record(name, vs, median) }

// setMean records the mean of vs with its range and count: for quantities
// that vary with the dataset but have no host-noise outliers, where the
// mean is the steadier centre.
func (r *results) setMean(name string, vs []float64) {
	r.record(name, vs, func(vs []float64) float64 {
		var sum float64
		for _, v := range vs {
			sum += v
		}
		return sum / float64(len(vs))
	})
}

func (r *results) record(name string, vs []float64, centre func(vs []float64) float64) {
	d, ok := r.defs[name]
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	if _, dup := r.m[name]; dup {
		panic("benchmark: metric set twice: " + name)
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	r.m[name] = sample{Value: centre(s), Unit: d.Unit, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// fillIdle gives every declared metric that was not measured the value 0:
// its layer did no work on this workload.
func (r *results) fillIdle() {
	for name, d := range r.defs {
		if _, ok := r.m[name]; !ok {
			r.m[name] = sample{Unit: d.Unit}
		}
	}
}

// table renders one "workload  metric  value  unit" line per metric, in
// name order, with the range and count of multi-sample metrics.
func (r *results) table(workload string) string {
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		s := r.m[n]
		fmt.Fprintf(&b, "%-15s %-32s %14.6g  %-9s", workload, n, s.Value, s.Unit)
		switch {
		case s.N == 0:
			b.WriteString(" (layer idle)")
		case s.N > 1:
			fmt.Fprintf(&b, " min %.6g max %.6g n=%d", s.Min, s.Max, s.N)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// median is the type-7 median the rest of the repository reports.
func median(vs []float64) float64 { return stats.Quantile(vs, 0.5) }
