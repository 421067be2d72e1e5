package expt

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"hipmer/internal/metrics"
	"hipmer/internal/pipeline"
	"hipmer/internal/verify"
	"hipmer/internal/xrt"
)

// The scenario matrix. Every robustness claim of this repository has the
// same shape — a fault-free baseline, a run with something injected,
// optionally a resume from its checkpoint, and the assertion that the
// assembly did not change and the injection really happened. A Cell names
// one such scenario as data; Matrix runs any list of them and judges each
// one by expectations derived from the cell's own fields, so a new
// combination is one more Cell, not a new sweep.

// Mode is the pipeline-configuration axis of a cell.
type Mode struct {
	// KmerLens is the iterative-k ladder; empty means one round at K.
	KmerLens []int
	// K is the single round's k-mer length; 0 means Scale.K.
	K           int
	MinCount    int
	ContigsOnly bool
}

func (m Mode) String() string {
	s := "k"
	if m.K != 0 {
		s += fmt.Sprintf(":%d", m.K)
	}
	for i, k := range m.KmerLens {
		sep := ","
		if i == 0 {
			sep = "="
		}
		s += sep + strconv.Itoa(k)
	}
	s += fmt.Sprintf(",min=%d", m.MinCount)
	if m.ContigsOnly {
		s += ",contigs"
	}
	return s
}

func (m Mode) config(sc Scale) pipeline.Config {
	cfg := pipeline.Config{K: m.K, KmerLens: m.KmerLens, MinCount: m.MinCount, ContigsOnly: m.ContigsOnly}
	if cfg.K == 0 && len(m.KmerLens) == 0 {
		cfg.K = sc.K
	}
	return cfg
}

// stages lists the mode's checkpointable stages in execution order: the
// legal crash and damage targets (io has no save codec and always reruns).
func (m Mode) stages() []string {
	var out []string
	for _, name := range pipeline.StageNames(m.config(Scale{})) {
		if name != "io" {
			out = append(out, name)
		}
	}
	return out
}

// Resume is a cell's optional second leg: a fresh team of Ranks ranks
// (any count — a different one is an elastic rescale) resumes the first
// leg's checkpoint under its own arming (the cells use the schedule
// perturbation and the lossy transport).
type Resume struct {
	Ranks  int
	Inject xrt.Inject
}

// Cell is one scenario: a dataset, a pipeline mode, a rank count, the
// injections armed on the first leg, and an optional resume leg.
type Cell struct {
	// Group labels the table the cell is reported under.
	Group   string
	Dataset string // "human", "wheat" or "meta"
	Mode    Mode
	Ranks   int
	// Versus is the rank count of the fault-free baseline the cell is
	// compared with; 0 means the cell's own final rank count. Only
	// contigs-only modes are rank-invariant, so only they may differ.
	Versus int
	// Oracle additionally judges the cell's assembly against the
	// dataset's reference genome (see oracleGate).
	Oracle bool

	// Inject is what the first leg runs armed with: a schedule
	// perturbation, a lossy transport, a rank crash inside a stage, damage
	// to one stage's checkpoint segment.
	Inject xrt.Inject
	Resume *Resume
}

// firstLeg renders everything that determines the first leg's run and
// hence its checkpoint directory; cells that agree on it share that run.
func (c Cell) firstLeg() string {
	in := c.Inject
	s := fmt.Sprintf("%s %s ranks=%d", c.Dataset, c.Mode, c.Ranks) + scheduleString(in)
	if in.FaultSeed != 0 {
		s += fmt.Sprintf(" crash=%d@%s", in.FaultSeed, in.FailStage)
	}
	if in.DiskFaultSeed != 0 {
		s += fmt.Sprintf(" disk=%d@%s", in.DiskFaultSeed, in.DiskFailStage)
	}
	return s
}

// String is the cell's identity: the line the enumeration test compares
// and the key of its result in the artifact.
func (c Cell) String() string {
	s := c.Group + " " + c.firstLeg()
	if c.Versus != 0 {
		s += fmt.Sprintf(" vs=%d", c.Versus)
	}
	if c.Oracle {
		s += " oracle"
	}
	if r := c.Resume; r != nil {
		s += fmt.Sprintf(" resume=%d", r.Ranks) + scheduleString(r.Inject)
	}
	return s
}

func scheduleString(inj xrt.Inject) string {
	var s string
	if inj.PerturbSeed != 0 {
		s += fmt.Sprintf(" perturb=%d", inj.PerturbSeed)
	}
	if inj.ChaosSeed != 0 {
		s += fmt.Sprintf(" chaos=%d@%g", inj.ChaosSeed, inj.DropRate)
	}
	return s
}

// baselineRanks is the rank count of the fault-free run the cell's
// final assembly must equal.
func (c Cell) baselineRanks() int {
	switch {
	case c.Versus != 0:
		return c.Versus
	case c.Resume != nil:
		return c.Resume.Ranks
	}
	return c.Ranks
}

// baselineKey names that run: dataset, mode and rank count.
func (c Cell) baselineKey() string {
	return fmt.Sprintf("%s %s ranks=%d", c.Dataset, c.Mode, c.baselineRanks())
}

// intactPrefix counts the checkpointable stages strictly before the
// earliest crashed or damaged one: what a resume can still rehydrate.
func (c Cell) intactPrefix() int {
	stages := c.Mode.stages()
	in := c.Inject
	for i, s := range stages {
		if (in.FaultSeed != 0 && s == in.FailStage) || (in.DiskFaultSeed != 0 && s == in.DiskFailStage) {
			return i
		}
	}
	return len(stages)
}

// CellResult is one cell's verdict and the counters it was judged by.
type CellResult struct {
	Cell string `json:"cell"`
	// Fail lists every expectation the cell missed; empty means green.
	Fail []string `json:"fail,omitempty"`
	// Crashed: the armed rank crash actually fired; one that did not
	// fails the cell.
	Crashed bool `json:"crashed,omitempty"`
	// Note carries the oracle's summary for Oracle cells.
	Note string `json:"note,omitempty"`

	// Comm sums the communication and injection counters (drops,
	// retries, dups, disk faults, scrubbed bytes) of the cell's legs.
	Comm          xrt.CommStats `json:"comm"`
	CkptLoadBytes int64         `json:"ckpt_load_bytes,omitempty"`

	// Virtual time and payload traffic (Comm.Bytes) next to the
	// baseline's, filled for single-leg cells at the baseline's rank
	// count: equal to it, or on a lossy transport no less.
	VirtualSec       float64 `json:"virtual_sec,omitempty"`
	BaseVirtualSec   float64 `json:"base_virtual_sec,omitempty"`
	BasePayloadBytes int64   `json:"base_payload_bytes,omitempty"`
}

// Row aggregates the cells of one (group, dataset, mode).
type Row struct {
	Group   string       `json:"group"`
	Dataset string       `json:"dataset"`
	Mode    string       `json:"mode"`
	Cells   []CellResult `json:"cells"`
}

// Fail lists why the row is red: every failure of every cell.
func (r Row) Fail() []string {
	var out []string
	for _, c := range r.Cells {
		for _, f := range c.Fail {
			out = append(out, c.Cell+": "+f)
		}
	}
	return out
}

// OK reports whether the row is green.
func (r Row) OK() bool { return len(r.Fail()) == 0 }

// leg is what the matrix keeps of one pipeline execution. The team's
// aggregate counters survive a crashed run, whose Result does not.
type leg struct {
	err        error
	seqs       [][]byte
	virtualSec float64
	report     *metrics.Report
	oracle     *verify.Report
	comm       xrt.CommStats
	dir        string // checkpoint directory, "" when checkpointing was off
}

// observation is what running a cell produced; final == first for a
// single-leg cell and is nil when the first leg failed for real.
type observation struct {
	first, final *leg
}

// Runner is the one place this package runs the pipeline: every exhibit
// and every matrix cell is a view over its legs. It holds what they share
// — the generated datasets and the fault-free run per (dataset, mode,
// ranks) — so Figures 7 and 8 and -metrics-out read one sweep, and the
// metagenome exhibit's ladder is the meta group's baseline.
type Runner struct {
	sc   Scale
	data map[string]dataset
	base map[string]*leg
}

// NewRunner returns a runner with nothing generated or run yet.
func NewRunner(sc Scale) *Runner {
	return &Runner{sc: sc, data: map[string]dataset{}, base: map[string]*leg{}}
}

func (m *Runner) dataset(name string) dataset {
	d, ok := m.data[name]
	if !ok {
		d = m.sc.dataset(name)
		m.data[name] = d
	}
	return d
}

func (m *Runner) runLeg(c Cell, ranks int, inj xrt.Inject, pcfg pipeline.Config) *leg {
	tcfg := m.sc.teamCfg(ranks)
	tcfg.Inject = inj
	team := xrt.NewTeam(tcfg)
	d := m.dataset(c.Dataset)
	l := &leg{dir: pcfg.CkptDir, err: d.err}
	if l.err != nil {
		return l
	}
	var res *pipeline.Result
	if res, l.err = pipeline.Run(team, d.libs, pcfg); l.err == nil {
		l.seqs, l.report, l.oracle = res.FinalSeqs, res.Metrics, res.Verify
		l.virtualSec = float64(res.Metrics.VirtualNs) / 1e9
	}
	l.comm = team.AggStats()
	return l
}

// baseline is the fault-free run the cell is judged against, run once per
// (dataset, mode, ranks).
func (m *Runner) baseline(c Cell) *leg {
	b, ok := m.base[c.baselineKey()]
	if !ok {
		b = m.runLeg(c, c.baselineRanks(), xrt.Inject{}, c.Mode.config(m.sc))
		m.base[c.baselineKey()] = b
	}
	return b
}

// faultFree is that run for an exhibit: the leg, or why it failed.
func (m *Runner) faultFree(dataset string, mode Mode, ranks int) (*leg, error) {
	l := m.baseline(Cell{Dataset: dataset, Mode: mode, Ranks: ranks})
	if l.err != nil {
		return nil, fmt.Errorf("expt: %s %s at %d ranks: %w", dataset, mode, ranks, l.err)
	}
	return l, nil
}

// sweep is faultFree over a list of rank counts.
func (m *Runner) sweep(dataset string, mode Mode, cores []int) ([]*leg, error) {
	var legs []*leg
	for _, p := range cores {
		l, err := m.faultFree(dataset, mode, p)
		if err != nil {
			return nil, err
		}
		legs = append(legs, l)
	}
	return legs, nil
}

// crashed reports whether the leg ended in the cell's injected crash.
func (c Cell) crashed(l *leg) bool {
	var sf *pipeline.StageFailedError
	return c.Inject.FaultSeed != 0 && errors.As(l.err, &sf)
}

// observe runs the cell's legs. first memoizes the checkpointed first
// legs of the current run by Cell.firstLeg.
func (m *Runner) observe(c Cell, first map[string]*leg) observation {
	pcfg := c.Mode.config(m.sc)
	if c.Oracle {
		pcfg.Verify = &verify.Options{Ref: m.dataset(c.Dataset).ref}
	}
	fcfg := pcfg
	if c.Resume == nil {
		l := m.runLeg(c, c.Ranks, c.Inject, fcfg)
		return observation{first: l, final: l}
	}
	f, ok := first[c.firstLeg()]
	if !ok {
		var err error
		if fcfg.CkptDir, err = os.MkdirTemp("", "hipmer-matrix-*"); err != nil {
			return observation{first: &leg{err: err}}
		}
		f = m.runLeg(c, c.Ranks, c.Inject, fcfg)
		first[c.firstLeg()] = f
	}
	if f.err != nil && !c.crashed(f) {
		return observation{first: f}
	}
	// A resume completes the run and writes entries at its own rank
	// count, so each one works on a private copy of the directory.
	pcfg.Resume = true
	var err error
	if pcfg.CkptDir, err = os.MkdirTemp("", "hipmer-matrix-resume-*"); err != nil {
		return observation{first: f, final: &leg{err: err}}
	}
	defer os.RemoveAll(pcfg.CkptDir)
	if err := copyDir(f.dir, pcfg.CkptDir); err != nil {
		return observation{first: f, final: &leg{err: err}}
	}
	return observation{first: f, final: m.runLeg(c, c.Resume.Ranks, c.Resume.Inject, pcfg)}
}

// copyDir clones a (flat) checkpoint directory.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// judge derives the cell's expectations from its fields and checks the
// observation against them. Only input-determined facts are asserted:
// the assembly equals the baseline's, so does its cost where the cell ran
// the baseline's work, and each armed injection's own counter shows it
// fired.
func judge(c Cell, base *leg, obs observation) CellResult {
	r := CellResult{Cell: c.String()}
	failf := func(format string, args ...any) { r.Fail = append(r.Fail, fmt.Sprintf(format, args...)) }

	first, final := obs.first, obs.final
	r.Crashed = c.crashed(first)
	r.Comm = first.comm
	if final != nil && final != first {
		r.Comm.Add(final.comm)
	}
	switch {
	case base.err != nil:
		failf("baseline: %v", base.err)
	case c.Inject.FaultSeed != 0 && first.err != nil && !r.Crashed:
		failf("no crash: %v", first.err)
	case c.Inject.FaultSeed != 0 && !r.Crashed:
		// The resume would rehydrate a complete checkpoint and prove
		// nothing about recovery.
		failf("no crash: the countdown outlived %s", c.Inject.FailStage)
	case first.err != nil && !r.Crashed:
		failf("first leg: %v", first.err)
	case final == first && r.Crashed:
		failf("crashed with no resume leg")
	case final.err != nil:
		failf("resume: %v", final.err)
	}
	if len(r.Fail) > 0 {
		return r
	}

	// Identity: the same bytes in the same order when every leg ran at
	// the baseline's rank count, the same canonical sequence set when a
	// leg ran at another (the output order follows the partition).
	exact := c.Ranks == c.baselineRanks() && (c.Resume == nil || c.Resume.Ranks == c.Ranks)
	baseSet, finalSet := verify.CanonicalSet(base.seqs), verify.CanonicalSet(final.seqs)
	switch {
	case !verify.EqualSets(baseSet, finalSet):
		failf("assembly differs from the fault-free run at %d ranks: %s", c.baselineRanks(), verify.DiffSets(baseSet, finalSet))
	case exact && !equalSeqs(base.seqs, final.seqs):
		failf("assembly differs from the fault-free run at %d ranks: same sequences, another order", c.baselineRanks())
	}
	if final != first && first.err == nil && exact && !equalSeqs(base.seqs, first.seqs) {
		failf("first leg's assembly differs from the fault-free run")
	}
	// Cost: a single-leg cell at the baseline's rank count ran the
	// baseline's work. A lossy transport can only add to it; anything else
	// armed (a schedule perturbation, or nothing) must not move a
	// nanosecond or a payload byte.
	if final == first && exact {
		r.VirtualSec, r.BaseVirtualSec, r.BasePayloadBytes = final.virtualSec, base.virtualSec, base.comm.Bytes()
		switch lossy := c.Inject.ChaosSeed != 0; {
		case lossy && r.VirtualSec < r.BaseVirtualSec:
			failf("virtual time %.9f s on the lossy transport is below the fault-free run's %.9f s", r.VirtualSec, r.BaseVirtualSec)
		case !lossy && (r.VirtualSec != r.BaseVirtualSec || r.Comm.Bytes() != r.BasePayloadBytes):
			failf("virtual time %.9f s / %d payload bytes differ from the fault-free run's %.9f s / %d",
				r.VirtualSec, r.Comm.Bytes(), r.BaseVirtualSec, r.BasePayloadBytes)
		}
	}

	// Each armed injection must have left its own trace.
	lossy := func(name string, inj xrt.Inject, l *leg) {
		if inj.ChaosSeed != 0 && inj.DropRate > 0 && (l.comm.Drops == 0 || l.comm.Retries == 0 || l.comm.Dups == 0) {
			failf("%s armed with drop rate %g but drops/retries/dups = %d/%d/%d",
				name, inj.DropRate, l.comm.Drops, l.comm.Retries, l.comm.Dups)
		}
	}
	lossy("chaos", c.Inject, first)
	if in := c.Inject; in.DiskFaultSeed != 0 {
		if first.comm.DiskFaults == 0 {
			failf("disk fault at %s was never counted", in.DiskFailStage)
		}
		// A refused write leaves no manifest entry: nothing to scrub.
		if in.Kind() != xrt.DiskFaultWriteRefused && (final == first || final.comm.ScrubRepairedBytes == 0) {
			failf("%s damage at %s was not scrubbed on resume", in.Kind(), in.DiskFailStage)
		}
	}
	if c.Resume != nil {
		lossy("resume chaos", c.Resume.Inject, final)
		r.CkptLoadBytes = ckptLoadBytes(final.report)
		if intact := c.intactPrefix(); intact > 0 && r.CkptLoadBytes == 0 {
			failf("resume loaded no checkpoint bytes though %d stages were intact", intact)
		}
	}
	if c.Oracle {
		r.Note = final.oracle.String()
		if !oracleGate(final.oracle) {
			failf("oracle: %s", r.Note)
		}
	}
	return r
}

// ckptLoadBytes sums the ckpt_bytes counters over every checkpoint-load
// span: the volume a resume rehydrated (and, rescaled, redistributed).
func ckptLoadBytes(rep *metrics.Report) int64 {
	var total int64
	for _, st := range rep.Stages {
		if strings.HasPrefix(st.Name, "checkpoint-load:") {
			total += st.Counters["ckpt_bytes"]
		}
	}
	return total
}

// oracleGate judges a run by the invariants the assembler must always
// satisfy: every contig k-mer present in the reads, near-perfect base
// identity under placement, and at most 1% of placed pieces misassembled.
// Gap-size violations and the exact misassembly count stay visible in the
// summary but do not gate: on repeat-rich genomes at scale the assembler
// — like the real one — occasionally misjoins across a repeat, and a gate
// that is red on every honest run protects nothing. Report.OK() remains
// the strict zero-defect check used on clean datasets.
func oracleGate(rep *verify.Report) bool {
	if rep == nil {
		return false
	}
	return rep.MissingKmers == 0 &&
		rep.IdentityFrac >= 0.99 &&
		rep.Misassemblies*100 <= rep.Placed
}

func equalSeqs(a, b [][]byte) bool { return slices.EqualFunc(a, b, bytes.Equal) }

// Matrix runs the cells in order and returns one row per (group, dataset,
// mode), in order of first appearance, the metrics report of every cell's
// final leg (Dataset set to the cell's identity), and the rendered table.
func (m *Runner) Matrix(cells []Cell) ([]Row, []*metrics.Report, string) {
	// A first leg's checkpoint is kept until its last resume has run.
	uses := map[string]int{}
	for _, c := range cells {
		if c.Resume != nil {
			uses[c.firstLeg()]++
		}
	}
	first := map[string]*leg{}

	var rows []Row
	var reports []*metrics.Report
	index := map[string]int{}
	for _, c := range cells {
		obs := m.observe(c, first)
		res := judge(c, m.baseline(c), obs)
		if c.Resume != nil {
			if uses[c.firstLeg()]--; uses[c.firstLeg()] == 0 {
				os.RemoveAll(obs.first.dir)
				delete(first, c.firstLeg())
			}
		}
		if obs.final != nil && obs.final.report != nil {
			obs.final.report.Dataset = res.Cell
			reports = append(reports, obs.final.report)
		}

		key := c.Group + " " + c.Dataset + " " + c.Mode.String()
		i, ok := index[key]
		if !ok {
			i = len(rows)
			index[key] = i
			rows = append(rows, Row{Group: c.Group, Dataset: c.Dataset, Mode: c.Mode.String()})
		}
		rows[i].Cells = append(rows[i].Cells, res)
	}
	return rows, reports, matrixTable(rows)
}

func matrixTable(rows []Row) string {
	var tab []string
	var notes string
	for _, r := range rows {
		var ok, crashed int
		var sum xrt.CommStats
		var loaded int64
		var dVirt, dBytes float64
		var compared int
		for _, c := range r.Cells {
			if len(c.Fail) == 0 {
				ok++
			}
			if c.Crashed {
				crashed++
			}
			sum.Add(c.Comm)
			loaded += c.CkptLoadBytes
			if c.BaseVirtualSec > 0 && c.BasePayloadBytes > 0 {
				compared++
				dVirt += 100 * (c.VirtualSec - c.BaseVirtualSec) / c.BaseVirtualSec
				dBytes += 100 * float64(c.Comm.Bytes()-c.BasePayloadBytes) / float64(c.BasePayloadBytes)
			}
			if c.Note != "" {
				notes += fmt.Sprintf("  %s: %s\n", c.Cell, c.Note)
			}
		}
		overhead := func(sumPct float64) string {
			if compared == 0 {
				return "-"
			}
			return fmt.Sprintf("%+.1f%%", sumPct/float64(compared))
		}
		verdict := "ok"
		if !r.OK() {
			verdict = "FAILED"
		}
		tab = append(tab, fmt.Sprintf("%s\t%s\t%s\t%d/%d\t%d\t%d/%d/%d\t%d/%d\t%d\t%s\t%s\t%s",
			r.Group, r.Dataset, r.Mode, ok, len(r.Cells), crashed,
			sum.Drops, sum.Retries, sum.Dups, sum.DiskFaults, sum.ScrubRepairedBytes, loaded,
			overhead(dVirt), overhead(dBytes), verdict))
		for _, f := range r.Fail() {
			notes += "  FAILED " + f + "\n"
		}
	}
	return "Scenario matrix (fault-free baseline -> injected run -> resume; assembly identical, every armed injection fired)\n" +
		fmtTable("group\tdataset\tmode\tcells ok\tcrashed\tdrops/retx/dups\t"+
			"disk faults/scrubbed B\tckpt loaded B\tdT(virt)\tdPayload\tverdict", tab) +
		"(dT/dPayload: mean over the row's single-leg cells versus their baseline)\n" +
		notes
}
