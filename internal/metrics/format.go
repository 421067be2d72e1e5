package metrics

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// FormatTable renders the report as the paper-style per-module
// breakdown: one row per stage (sub-spans indented beneath their stage),
// with virtual time, share of total, load-imbalance factors, and
// communication locality — the layout of the paper's per-stage tables.
func (r *Report) FormatTable() string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "per-stage breakdown — %d ranks", r.Ranks)
	if r.RanksPerNode > 0 {
		nodes := (r.Ranks + r.RanksPerNode - 1) / r.RanksPerNode
		fmt.Fprintf(&buf, " (%d nodes)", nodes)
	}
	fmt.Fprintf(&buf, ", seed %d", r.Seed)
	if r.Dataset != "" {
		fmt.Fprintf(&buf, ", dataset %s", r.Dataset)
	}
	fmt.Fprintf(&buf, "\ntotal virtual time %v\n\n", time.Duration(r.VirtualNs))

	w := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "%s\n", "stage\tvirtual\t%total\timb\tgini\tutil\toff-node%\tcache%\tmsgs\ttraffic\tretx")
	for _, st := range r.Stages {
		name := strings.Repeat("  ", st.Depth) + st.Name
		pct := 0.0
		if r.VirtualNs > 0 {
			pct = 100 * float64(st.VirtualNs) / float64(r.VirtualNs)
		}
		fmt.Fprintf(w, "%s\t%v\t%.1f\t%.2f\t%.3f\t%.2f\t%.1f\t%s\t%d\t%s\t%s\n",
			name,
			time.Duration(st.VirtualNs),
			pct,
			st.Imbalance.MaxOverMean,
			st.Imbalance.Gini,
			st.Utilization,
			100*st.Comm.OffNodeLookupFrac,
			cachePct(st.Comm),
			st.Comm.OnNodeMsgs+st.Comm.OffNodeMsgs,
			humanBytes(st.Comm.OnNodeBytes+st.Comm.OffNodeBytes),
			retxFmt(st.Comm),
		)
	}
	w.Flush()

	var withCounters []*Stage
	for i := range r.Stages {
		if len(r.Stages[i].Counters) > 0 {
			withCounters = append(withCounters, &r.Stages[i])
		}
	}
	if len(withCounters) > 0 {
		fmt.Fprintf(&buf, "\nstage counters\n")
		cw := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
		for _, st := range withCounters {
			keys := make([]string, 0, len(st.Counters))
			for k := range st.Counters {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, len(keys))
			for i, k := range keys {
				parts[i] = fmt.Sprintf("%s=%d", k, st.Counters[k])
			}
			fmt.Fprintf(cw, "%s\t%s\n", st.Path, strings.Join(parts, " "))
		}
		cw.Flush()
	}
	return buf.String()
}

// retxFmt renders the reliability-layer activity as retries/dups plus
// the redelivered volume, or "-" outside chaos runs (no Inject.ChaosSeed
// or a stage with no retransmissions).
func retxFmt(c Comm) string {
	if c.Drops == 0 && c.Retries == 0 && c.Dups == 0 {
		return "-"
	}
	return fmt.Sprintf("%d/%d (%s)", c.Retries, c.Dups, humanBytes(c.RedeliveredBytes))
}

// cachePct renders the contig cache's hit rate, or "-" when the stage
// fetched no contig.
func cachePct(c Comm) string {
	if c.CacheHits+c.CacheMisses == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", 100*c.CacheHitRate)
}

func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
