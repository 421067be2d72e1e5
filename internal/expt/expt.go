// Package expt regenerates every table and figure of the paper's
// evaluation (§5) on scaled-down synthetic datasets: Figure 6 (heavy-
// hitter k-mer analysis scaling on wheat), Tables 1–2 (communication-
// avoiding traversal), Figure 7 (scaffolding strong scaling), Table 3
// (metagenome k-mer analysis + contig generation), Figure 8 (end-to-end
// strong scaling), and the §5.6 assembler comparison. Absolute times are
// not comparable to the paper's Cray XC30 — the reproduced quantities are
// the shapes: who wins, by what factor, and where scaling saturates.
package expt

import (
	"bytes"
	"fmt"
	"text/tabwriter"
	"time"

	"hipmer/internal/dht"
	"hipmer/internal/genome"
	"hipmer/internal/kanalysis"
	"hipmer/internal/metrics"
	"hipmer/internal/pipeline"
	"hipmer/internal/verify"
	"hipmer/internal/xrt"
)

// Scale parameterizes the experiment suite.
type Scale struct {
	// Cores is the simulated-core sweep (strong scaling).
	Cores []int
	// RanksPerNode mirrors Edison's 24 cores/node.
	RanksPerNode int
	// Seed makes every dataset reproducible.
	Seed int64
	// K is the assembly k-mer length.
	K int

	HumanLen int
	HumanCov float64
	WheatLen int
	WheatCov float64

	MetaLen     int
	MetaSpecies int
	MetaPairs   int

	// Fig6WheatLen sizes the wheat dataset for the k-mer-analysis-only
	// Figure 6 run (larger than the end-to-end wheat genome, so the
	// heavy-hitter k-mers reach the extreme counts of real wheat).
	Fig6WheatLen int

	// OracleFragments is the number of chromosome-scale pieces in the
	// Table 1/2 same-species dataset.
	OracleFragments int
	// IOSatCores positions the file-system saturation point: the
	// aggregate bandwidth equals IOSatCores x the single-rank bandwidth,
	// so I/O time stops improving beyond that concurrency (Edison's
	// Lustre saturated near 960 cores; scale it with the sweep).
	IOSatCores int
}

// SmallScale is the default configuration: minutes of wall time on a
// laptop, with every phenomenon of the paper still visible.
func SmallScale() Scale {
	return Scale{
		Cores:           []int{24, 48, 96, 192},
		RanksPerNode:    24,
		Seed:            20151115, // SC'15 conference date
		K:               31,
		HumanLen:        250000,
		HumanCov:        30,
		WheatLen:        150000,
		WheatCov:        25,
		MetaLen:         150000,
		MetaSpecies:     40,
		MetaPairs:       25000,
		Fig6WheatLen:    400000,
		OracleFragments: 768,
		IOSatCores:      48,
	}
}

func (sc Scale) teamCfg(p int) xrt.Config {
	cost := xrt.DefaultCostModel()
	if sc.IOSatCores > 0 {
		cost.IOAggBytesPerSec = cost.IORankBytesPerSec * float64(sc.IOSatCores)
	}
	return xrt.Config{Ranks: p, RanksPerNode: sc.RanksPerNode, Seed: sc.Seed, Cost: cost}
}

// dataset is one generated input: its libraries and what it is judged
// against — the reference of a single genome, the species of the
// metagenome.
type dataset struct {
	ref     []byte
	species []verify.Species
	libs    []pipeline.Library
	err     error // unknown name: every leg on it fails
}

// dataset generates the named dataset ("human", "wheat" or "meta").
// Callers that pass one of those three literals ignore err.
func (sc Scale) dataset(name string) (d dataset) {
	switch name {
	case "human":
		d.ref, d.libs = pipeline.SimulatedHuman(sc.Seed+2, sc.HumanLen, sc.HumanCov)
	case "wheat":
		d.ref, d.libs = pipeline.SimulatedWheat(sc.Seed+3, sc.WheatLen, sc.WheatCov)
	case "meta":
		d.species, d.libs = pipeline.SimulatedMetagenomeRefs(sc.Seed+4, sc.MetaLen, sc.MetaSpecies, sc.MetaPairs)
	default:
		d.err = fmt.Errorf("expt: unknown dataset %q", name)
	}
	return d
}

// commPct is the paper's "percentage of communication", measured on a
// span: the share of its critical path that its bounding rank — the one
// with the most charged work — spent on its own messages (CommNs) or
// waiting at barriers (the span's time beyond that rank's work). The wait
// is where receiver-side load imbalance shows, which is what the
// heavy-hitter optimization removes.
func commPct(sp *xrt.SpanRecord) float64 {
	if sp.VirtualNs <= 0 {
		return 0
	}
	b := sp.Ranks[0]
	for _, rd := range sp.Ranks[1:] {
		if rd.WorkNs > b.WorkNs {
			b = rd
		}
	}
	return 100 * (b.CommNs + sp.VirtualNs - b.WorkNs) / sp.VirtualNs
}

// fmtTable aligns tab-separated lines — the header and one per row — into
// columns.
func fmtTable(header string, rows []string) string {
	var buf bytes.Buffer
	w := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, header)
	for _, row := range rows {
		fmt.Fprintln(w, row)
	}
	w.Flush()
	return buf.String()
}

// ---------------------------------------------------------------------
// Figure 6: strong scaling of k-mer analysis on wheat, Default vs Heavy
// Hitters.

// Fig6Row is one concurrency point of Figure 6.
type Fig6Row struct {
	Cores          int
	IOSec          float64
	DefaultSec     float64 // k-mer analysis time without the HH optimization
	HeavyHitSec    float64 // with it
	DefaultCommPct float64
	HeavyHitPct    float64
	HeavyHitters   int
}

// Fig6 regenerates Figure 6.
func Fig6(sc Scale) ([]Fig6Row, string) {
	rng := xrt.NewPrng(sc.Seed)
	wlen := sc.Fig6WheatLen
	if wlen == 0 {
		wlen = 3 * sc.WheatLen
	}
	g := genome.WheatLike(rng, wlen)
	recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: sc.WheatCov,
		Lib:      genome.Library{Name: "wheat", ReadLen: 150, InsertMean: 500, InsertSD: 40},
		Err:      genome.DefaultErrorModel(),
	})
	var inputBytes int64
	for _, r := range recs {
		inputBytes += int64(len(r.ID) + len(r.Seq) + len(r.Qual) + 6)
	}

	var rows []Fig6Row
	for _, p := range sc.Cores {
		row := Fig6Row{Cores: p}
		parts := xrt.DealPairs(recs, p)
		for _, hh := range []bool{false, true} {
			team := xrt.NewTeam(sc.teamCfg(p))
			io := team.Run(func(r *xrt.Rank) { r.ChargeIORead(inputBytes / int64(p)) })
			team.BeginSpan("kmer-analysis")
			res := kanalysis.Run(team, parts, kanalysis.Options{
				K: sc.K, MinCount: 2, HeavyHitters: hh,
			})
			pct := commPct(team.EndSpan())
			elapsed := res.SketchPhase.Virtual + res.PartitionPhase.Virtual + res.CountPhase.Virtual
			if !hh {
				row.DefaultSec = (elapsed + io.Virtual).Seconds()
				row.DefaultCommPct = pct
			} else {
				row.HeavyHitSec = (elapsed + io.Virtual).Seconds()
				row.HeavyHitPct = pct
				row.HeavyHitters = res.HeavyHitters
			}
			if row.IOSec == 0 {
				row.IOSec = io.Virtual.Seconds()
			}
		}
		rows = append(rows, row)
	}

	var tab []string
	for _, r := range rows {
		tab = append(tab, fmt.Sprintf("%d\t%.3f\t%.3f\t%.2fx\t%.0f%%\t%.0f%%\t%.3f\t%d",
			r.Cores, r.DefaultSec, r.HeavyHitSec, r.DefaultSec/r.HeavyHitSec,
			r.DefaultCommPct, r.HeavyHitPct, r.IOSec, r.HeavyHitters))
	}
	out := "Figure 6 — k-mer analysis strong scaling on wheat-like data\n" +
		"(Default = owner-computes only; HH = Misra-Gries heavy hitters, θ=32000)\n" +
		fmtTable("cores\tdefault(s)\tHH(s)\tspeedup\tcomm%(def)\tcomm%(HH)\tI/O(s)\t#HH", tab)
	return rows, out
}

// ---------------------------------------------------------------------
// Tables 1 and 2: communication-avoiding de Bruijn graph traversal.

// OracleRow is one concurrency point of Tables 1/2. "No oracle" is the
// paper's baseline, uniform hashing; CoLoc is the default layout, the graph
// placed as the k-mer table.
type OracleRow struct {
	Cores                        int
	NoOracleSec, O1Sec, O4Sec    float64
	SpeedupO1, SpeedupO4         float64
	OffPctNo, OffPctO1, OffPctO4 float64
	ReductionO1, ReductionO4     float64
	CoLocSec, OffPctCoLoc        float64
	O1MemBytes, O4MemBytes       int64
	// Oracle-vector slot collisions: k-mers of individual 1 the vector
	// leaves on a wrong rank.
	O1Collisions, O4Collisions int64
}

// Tables12 regenerates Table 1 (traversal times and speedups) and
// Table 2 (off-node communication and its reduction) in one sweep: the
// first assembly of individual 1 provides the oracle used to traverse
// individual 2 of the same species (0.2% diverged). Speed-ups and
// reductions are against uniform hashing, as in the paper; the co-located
// columns are the default layout's time and off-node share beside them.
func Tables12(sc Scale) ([]OracleRow, string) {
	g1, g2 := oracleIndividuals(sc)
	// use multi-node concurrencies: a single-node team has no off-node
	// traffic to avoid (the paper's 480 and 1920 cores are 20 and 80 nodes)
	concurrencies := []int{sc.Cores[len(sc.Cores)/2], sc.Cores[len(sc.Cores)-1]}

	var rows []OracleRow
	for _, p := range concurrencies {
		row := OracleRow{Cores: p}
		// individual 1 assembly provides contigs for the oracle
		team1 := xrt.NewTeam(sc.teamCfg(p))
		res1 := contigRun(team1, g1, sc.K, nil)
		uu := int(res1.UUKmers)
		o1 := buildOracle(res1, sc.K, p, 2*uu)
		o4 := buildOracle(res1, sc.K, p, 8*uu)
		row.O1MemBytes, row.O4MemBytes = o1.MemoryBytes(), o4.MemoryBytes()
		row.O1Collisions, row.O4Collisions = o1.Collisions(), o4.Collisions()

		// one traversal of individual 2 per layout: its time and off-node share
		measure := func(oracle *dht.Oracle) (sec, offPct float64) {
			ph := contigRun(xrt.NewTeam(sc.teamCfg(p)), g2, sc.K, oracle).TraversePhase
			return ph.Virtual.Seconds(), 100 * ph.Comm.OffNodeLookupFrac()
		}
		row.NoOracleSec, row.OffPctNo = measure(uniformLayout(p))
		row.CoLocSec, row.OffPctCoLoc = measure(nil)
		row.O1Sec, row.OffPctO1 = measure(o1)
		row.O4Sec, row.OffPctO4 = measure(o4)
		row.SpeedupO1 = row.NoOracleSec / row.O1Sec
		row.SpeedupO4 = row.NoOracleSec / row.O4Sec
		row.ReductionO1 = 100 * (1 - row.OffPctO1/row.OffPctNo)
		row.ReductionO4 = 100 * (1 - row.OffPctO4/row.OffPctNo)
		rows = append(rows, row)
	}

	var t1, t2 []string
	for _, r := range rows {
		t1 = append(t1, fmt.Sprintf("%d\t%.3f\t%.3f\t%.3f\t%.1fx\t%.1fx\t%.3f",
			r.Cores, r.NoOracleSec, r.O1Sec, r.O4Sec, r.SpeedupO1, r.SpeedupO4, r.CoLocSec))
		t2 = append(t2, fmt.Sprintf("%d\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%",
			r.Cores, r.OffPctNo, r.OffPctO1, r.OffPctO4, r.ReductionO1, r.ReductionO4, r.OffPctCoLoc))
	}
	return rows, "Table 1 — communication-avoiding traversal speedup (same-species oracle)\n" +
		fmtTable("cores\tno-oracle(s)\toracle-1(s)\toracle-4(s)\tspeedup-1\tspeedup-4\tco-located(s)", t1) +
		"\nTable 2 — off-node lookups and reduction via oracle hash functions\n" +
		fmtTable("cores\toff-node(no)\toff-node(o1)\toff-node(o4)\treduction-1\treduction-4\toff-node(co-located)", t2)
}

// ---------------------------------------------------------------------
// Figures 7 and 8 share one strong-scaling sweep of the full pipeline.

// SweepRow is one (dataset, concurrency) pipeline execution.
type SweepRow struct {
	Dataset   string
	Cores     int
	IOSec     float64
	KmerSec   float64
	ContigSec float64
	// Scaffolding decomposition (Figure 7).
	AlignerSec  float64
	GapCloseSec float64
	RestScafSec float64
	ScafSec     float64 // aligner + rest + gap closing
	TotalSec    float64
}

// RunSweep reads the stage times of the end-to-end pipeline over the core
// sweep for one dataset.
func (m *Runner) RunSweep(dataset string) ([]SweepRow, error) {
	legs, err := m.sweep(dataset, fullMode, m.sc.Cores)
	if err != nil {
		return nil, err
	}
	var rows []SweepRow
	for i, l := range legs {
		sec := func(path string) float64 { return l.report.Time(path).Seconds() }
		rows = append(rows, SweepRow{
			Dataset:     dataset,
			Cores:       m.sc.Cores[i],
			IOSec:       sec("io"),
			KmerSec:     sec("kmer-analysis"),
			ContigSec:   sec("contig-generation"),
			AlignerSec:  sec("scaffolding/merAligner"),
			GapCloseSec: sec("gap-closing"),
			RestScafSec: sec("scaffolding") - sec("scaffolding/merAligner"),
			ScafSec:     sec("scaffolding") + sec("gap-closing"),
			TotalSec:    l.virtualSec,
		})
	}
	return rows, nil
}

// MetricsReports returns the per-stage metrics report of the human and
// wheat runs at the top of that sweep — the artifact `benchsuite
// -metrics-out` writes for offline analysis (`asmstats -report`).
func (m *Runner) MetricsReports() ([]*metrics.Report, error) {
	var reports []*metrics.Report
	for _, dataset := range genomes {
		l, err := m.faultFree(dataset, fullMode, m.sc.Cores[len(m.sc.Cores)-1])
		if err != nil {
			return nil, err
		}
		rep := *l.report
		rep.Dataset = dataset
		reports = append(reports, &rep)
	}
	return reports, nil
}

// Fig7Format renders the Figure 7 view (scaffolding breakdown) of a sweep.
func Fig7Format(rows []SweepRow) string {
	var tab []string
	base := rows[0]
	for _, r := range rows {
		eff := base.ScafSec / r.ScafSec * float64(base.Cores) / float64(r.Cores)
		tab = append(tab, fmt.Sprintf("%d\t%.3f\t%.3f\t%.3f\t%.3f\t%.2f",
			r.Cores, r.AlignerSec, r.GapCloseSec, r.RestScafSec, r.ScafSec, eff))
	}
	return fmt.Sprintf("Figure 7 — scaffolding strong scaling (%s)\n", rows[0].Dataset) +
		fmtTable("cores\tmerAligner(s)\tgap-closing(s)\trest-scaffolding(s)\toverall(s)\tefficiency", tab)
}

// Fig8Format renders the Figure 8 view (end-to-end breakdown) of a sweep.
func Fig8Format(rows []SweepRow) string {
	var tab []string
	base := rows[0]
	for _, r := range rows {
		tab = append(tab, fmt.Sprintf("%d\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.1fx",
			r.Cores, r.KmerSec, r.ContigSec, r.ScafSec, r.IOSec, r.TotalSec, base.TotalSec/r.TotalSec))
	}
	return fmt.Sprintf("Figure 8 — end-to-end strong scaling (%s)\n", rows[0].Dataset) +
		fmtTable("cores\tkmer(s)\tcontig(s)\tscaffold(s)\tio(s)\ttotal(s)\tspeedup", tab)
}

// ---------------------------------------------------------------------
// Table 3: metagenome k-mer analysis + contig generation.

// Table3Row is one concurrency point of Table 3.
type Table3Row struct {
	Cores     int
	KmerSec   float64
	ContigSec float64
	IOSec     float64
}

// Table3 regenerates Table 3 on the synthetic wetlands metagenome,
// running only through contig generation as the paper does.
func (m *Runner) Table3() ([]Table3Row, string, error) {
	cores := m.sc.Cores[len(m.sc.Cores)-2:]
	legs, err := m.sweep("meta", Mode{MinCount: 2, ContigsOnly: true}, cores)
	if err != nil {
		return nil, "", err
	}
	var rows []Table3Row
	for i, l := range legs {
		rows = append(rows, Table3Row{
			Cores:     cores[i],
			KmerSec:   l.report.Time("kmer-analysis").Seconds(),
			ContigSec: l.report.Time("contig-generation").Seconds(),
			IOSec:     l.report.Time("io").Seconds(),
		})
	}
	var tab []string
	for _, r := range rows {
		tab = append(tab, fmt.Sprintf("%d\t%.3f\t%.3f\t%.3f", r.Cores, r.KmerSec, r.ContigSec, r.IOSec))
	}
	out := "Table 3 — metagenome k-mer analysis and contig generation\n" +
		"(I/O reported separately; it is saturated at both concurrencies)\n" +
		fmtTable("cores\tk-mer analysis(s)\tcontig generation(s)\tfile I/O(s)", tab)
	return rows, out, nil
}

// ---------------------------------------------------------------------
// §5.6: competing assemblers.

// CompareRow is one assembler outcome in the §5.6 comparison.
type CompareRow struct {
	Name     string
	TotalSec float64
	VsHipMer float64
}

// Compare regenerates the §5.6 comparison at one concurrency. Its rows are
// HipMer, then the paper's comparators as architectural analogues: not
// reimplementations of Ray or ABySS (their algorithms differ), but the
// properties the paper's comparison attributes the gaps to.
//
//   - Ray-like: HipMer's pipeline after a serial read ("one drawback of Ray
//     is the lack of parallel I/O support"): one rank reads the whole input
//     at single-stream bandwidth, then the distributed pipeline runs.
//   - ABySS-like: HipMer's distributed contigs, then scaffolding and gap
//     closing on a single rank, as ABySS 1.x did on one shared-memory node
//     ("only the first assembly step of contig generation is fully
//     parallelized with MPI"). Its assembly is the serial run's.
//   - Meraculous-serial: the identical pipeline confined to one rank (the
//     paper's 23.8-hour reference point against HipMer's 8.4 minutes).
//
// The paper also credits part of HipMer's lead to aggregated
// communication, against Ray's and ABySS's per-k-mer messages. That is
// not modelled: stage 1 has one transport, super-k-mer blobs, and per-item
// messaging would need a second one. So the analogues send exactly
// HipMer's messages in every distributed stage, and both are read off two
// pipeline runs (runComparison) instead of running their own.
func Compare(sc Scale) ([]CompareRow, string, error) {
	_, libs := pipeline.SimulatedHuman(sc.Seed+5, sc.HumanLen, sc.HumanCov)
	p := sc.Cores[len(sc.Cores)/2]
	rows, _, _, err := runComparison(sc.teamCfg(p), libs, pipeline.Config{K: sc.K, MinCount: 3})
	if err != nil {
		return nil, "", fmt.Errorf("expt: assembler comparison: %w", err)
	}
	var tab []string
	for _, r := range rows {
		tab = append(tab, fmt.Sprintf("%s\t%.3f\t%.1fx", r.Name, r.TotalSec, r.VsHipMer))
	}
	out := fmt.Sprintf("§5.6 — competing assemblers at %d cores (human-like dataset)\n", p) +
		fmtTable("assembler\tend-to-end(s)\tvs HipMer", tab)
	return rows, out, nil
}

// runComparison runs HipMer at cfg's rank count and Meraculous-serial at
// one rank, and derives Compare's four rows from their reports. Ray-like
// adds serial's io stage, one rank reading the whole input, to HipMer's
// total. ABySS-like is HipMer's io, k-mer analysis and contig generation
// followed by serial's scaffolding and gap closing.
func runComparison(cfg xrt.Config, libs []pipeline.Library, pcfg pipeline.Config) (rows []CompareRow, hip, serial *pipeline.Result, err error) {
	if hip, err = pipeline.Run(xrt.NewTeam(cfg), libs, pcfg); err != nil {
		return nil, nil, nil, err
	}
	if serial, err = pipeline.Run(xrt.NewTeam(xrt.Config{Ranks: 1, Cost: cfg.Cost}), libs, pcfg); err != nil {
		return nil, nil, nil, err
	}
	h, s := hip.Metrics, serial.Metrics
	total := time.Duration(h.VirtualNs)
	for _, r := range []struct {
		name string
		d    time.Duration
	}{
		{"HipMer", total},
		{"Ray-like", total + s.Time("io")},
		{"ABySS-like", h.Time("io") + h.Time("kmer-analysis") + h.Time("contig-generation") +
			s.Time("scaffolding") + s.Time("gap-closing")},
		{"Meraculous-serial", time.Duration(s.VirtualNs)},
	} {
		rows = append(rows, CompareRow{Name: r.name, TotalSec: r.d.Seconds(), VsHipMer: r.d.Seconds() / total.Seconds()})
	}
	return rows, hip, serial, nil
}
