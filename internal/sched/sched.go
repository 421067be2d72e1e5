// Package sched is the assembly-as-a-service layer: a multi-tenant job
// scheduler that multiplexes many concurrent assembly pipelines onto one
// shared simulated cluster. It is the production-scale framing of the
// ROADMAP's north star — the substrate built by the earlier PRs
// (checkpointable stage registry, crash and lossy-transport fault
// isolation, hipmer-metrics/v1, elastic rescale) assembled into a
// service:
//
//   - admission control: structurally unsatisfiable jobs (rank request
//     over the tenant quota or the cluster size, unknown tenant) are
//     rejected at submission; a bounded priority queue rejects arrivals
//     when full (ErrAdmissionRejected, CLI exit 7);
//   - per-tenant rank quotas: a tenant's running jobs never hold more
//     ranks than its quota, enforced at every dispatch;
//   - fault isolation: every job runs as its own checkpointable
//     pipeline on its own simulated team with its own ckpt directory —
//     an injected crash (Inject.FaultSeed) or retry-budget exhaustion
//     (Inject.ChaosSeed) fails only that job, which is requeued and
//     resumed from its checkpoint with the fault disarmed;
//   - elastic rescale: a queued resumable job whose requested rank
//     count is not free resumes on the idle capacity instead
//     (`-resume -ranks N` semantics; the re-shard machinery guarantees
//     the output is bit-identical to a from-scratch run at that count);
//   - preemption: a strictly higher-priority arrival may preempt
//     lower-priority running jobs at a stage boundary — the victim's
//     checkpoint is truncated to the stages completed by the preemption
//     time (ckpt.Truncate) and the job is requeued as resumable;
//   - aging: a queued job's effective priority grows with its virtual
//     queue wait, so equal-tenant starvation is impossible.
//
// Determinism contract: scheduler decisions are driven only by job
// virtual time and the seeded PRNG — never by wall clock, map iteration
// order, or goroutine interleaving. Two runs of the same workload at the
// same seed produce bit-identical hipmer-sched/v1 reports (the golden
// test in this package pins it), and every completed job's assembly is
// bit-identical to a solo run of the same spec at the rank count it
// finished at.
package sched

import (
	"container/heap"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hipmer/internal/metrics"
	"hipmer/internal/pipeline"
	"hipmer/internal/xrt"
)

// ErrAdmissionRejected marks a job refused by admission control: an
// unsatisfiable resource request, an unknown tenant, or a full queue.
// The hipmerd CLI maps it (and the cmd/hipmer exit-code taxonomy
// reserves) exit code 7.
var ErrAdmissionRejected = errors.New("sched: job rejected by admission control")

// TenantConfig declares one tenant and its rank quota.
type TenantConfig struct {
	Name string
	// Quota is the maximum number of cluster ranks the tenant's running
	// jobs may hold simultaneously; must be in [1, Config.Ranks].
	Quota int
}

// Config parameterizes the scheduler.
type Config struct {
	// Ranks is the shared simulated cluster size (required, >= 1).
	Ranks int
	// RanksPerNode groups ranks into simulated nodes (default 8).
	RanksPerNode int
	// Seed drives the scheduler's PRNG (tie-breaks); default 1.
	Seed int64
	// QueueCap bounds the admission queue; an arrival finding the queue
	// full is rejected (default 64). Requeued jobs (crash retry,
	// preemption victims) were already admitted and bypass the cap.
	QueueCap int
	// Tenants lists the known tenants and their quotas.
	Tenants []TenantConfig
	// DefaultQuota is assigned to tenants not listed in Tenants; 0
	// rejects jobs from unknown tenants.
	DefaultQuota int
	// CkptRoot hosts the per-job checkpoint directories ("" = a fresh
	// temp directory, removed when the run ends).
	CkptRoot string
	// KeepCkpts leaves per-job checkpoint directories on disk after the
	// job completes (debugging).
	KeepCkpts bool
}

// The scheduling policy: one setting, the one every workload runs.
const (
	// maxRetries caps requeues after retryable failures; a job exceeding
	// it is terminally failed.
	maxRetries = 2
	// maxPreempts caps how many times one job may be preempted before it
	// becomes immune.
	maxPreempts = 1
	// agingNs is the virtual queue wait that raises a queued job's
	// effective priority by one step. Aging orders dispatch but never
	// justifies preemption.
	agingNs = int64(50 * time.Millisecond)
)

// Validate rejects structurally invalid service configurations (the
// CLI-facing validateOptions contract; cmd/hipmerd exits 2 on error).
func (c Config) Validate() error {
	if c.Ranks < 1 {
		return fmt.Errorf("cluster ranks must be >= 1, got %d", c.Ranks)
	}
	if c.RanksPerNode < 0 {
		return fmt.Errorf("ranks-per-node must be >= 0, got %d", c.RanksPerNode)
	}
	if c.QueueCap < 0 {
		return fmt.Errorf("queue-cap must be >= 0, got %d", c.QueueCap)
	}
	if c.DefaultQuota < 0 || c.DefaultQuota > c.Ranks {
		return fmt.Errorf("default-quota must be in 0..ranks (%d), got %d", c.Ranks, c.DefaultQuota)
	}
	seen := make(map[string]bool, len(c.Tenants))
	sum := 0
	for _, t := range c.Tenants {
		if t.Name == "" {
			return fmt.Errorf("tenant with empty name")
		}
		if seen[t.Name] {
			return fmt.Errorf("duplicate tenant %q", t.Name)
		}
		seen[t.Name] = true
		if t.Quota < 1 {
			return fmt.Errorf("tenant %q quota must be >= 1, got %d", t.Name, t.Quota)
		}
		if t.Quota > c.Ranks {
			return fmt.Errorf("tenant %q quota %d exceeds cluster ranks %d", t.Name, t.Quota, c.Ranks)
		}
		sum += t.Quota
	}
	if len(c.Tenants) > 0 && sum < c.Ranks && c.DefaultQuota == 0 {
		// Quota sum below the cluster size strands capacity forever:
		// no admissible workload can ever use the surplus ranks.
		return fmt.Errorf("tenant quota sum %d leaves %d of %d cluster ranks unusable (raise quotas or set a default quota)",
			sum, c.Ranks-sum, c.Ranks)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.RanksPerNode == 0 {
		c.RanksPerNode = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	return c
}

// JobSpec is one submitted assembly job.
type JobSpec struct {
	// Tenant names the submitting tenant (admission requires a known
	// tenant or a nonzero DefaultQuota).
	Tenant string
	// Name labels the job; the load generator uses the dataset template
	// name so solo-run baselines can be memoized per (name, ranks).
	Name string
	// Libs are the job's read libraries (in-memory records or FASTQ /
	// seqdb paths ingested by the block reader).
	Libs []pipeline.Library
	// Pipeline is the job's assembly configuration (K, MinCount, ...).
	// CkptDir / Resume are owned by the scheduler and must be left zero.
	Pipeline pipeline.Config
	// Ranks is the requested team size (>= 1; admission rejects
	// requests above the tenant quota or the cluster size).
	Ranks int
	// Priority orders dispatch (higher first); a strictly higher
	// priority may preempt running lower-priority jobs.
	Priority int
	// Arrival is the job's virtual submission time.
	Arrival time.Duration
	// Seed is the job's team seed (default 1). Solo-run comparisons must
	// use the same seed.
	Seed int64
	// Inject arms the job's injections (fields promoted). PerturbSeed
	// perturbs every attempt's schedule (wall-clock only; never changes
	// virtual time or output). The failure injections are armed until the
	// job's first retryable failure; the requeued attempt runs Disarmed
	// and resumes from the job's checkpoint. What an armed injection does
	// to the job is what it does to the run — a function of the spec and
	// the allocation, nothing is assumed on its behalf:
	//   - FaultSeed / FailStage crash a rank in the named stage once the
	//     victim has made the seed's count of charges there (1..256); a
	//     stage in which it makes fewer completes, and so does the job,
	//     with no requeue.
	//   - ChaosSeed / DropRate / RetryBudget: a message that exhausts its
	//     retry budget fails the attempt at that point; a lossy transport
	//     that never exhausts one costs the job its retransmission
	//     timeouts only.
	//   - DiskFaultSeed / DiskFailStage corrupt the named stage's
	//     checkpoint write on disk (the attempt itself completes
	//     bit-identically). The damage only matters when something sends
	//     the job back to its checkpoint — a crash or chaos failure later
	//     in the same attempt: the requeued attempt's resume scrubs and
	//     recomputes from the damaged stage, and its clock says so.
	xrt.Inject
}

// Job states in JobResult.State.
const (
	StateCompleted = "completed"
	StateFailed    = "failed"
	StateRejected  = "rejected"
)

// JobResult is one job's terminal outcome.
type JobResult struct {
	ID     int
	Tenant string
	Name   string
	// State is completed, failed, or rejected.
	State string
	// Reason explains a rejection (admission control) or failure.
	Reason string
	// Arrival, Start, Done are virtual times; Start is the first
	// dispatch (zero-valued if never dispatched).
	Arrival, Start, Done time.Duration
	// Wait is the queue wait until first dispatch.
	Wait time.Duration
	// Attempts counts runner invocations; Requeues and Preemptions count
	// the re-admissions that caused attempts past the first.
	Attempts, Requeues, Preemptions int
	// RanksRequested is the spec's request; RanksUsed lists each
	// attempt's actual allocation; Rescaled is true when any attempt ran
	// at a different count than requested (elastic rescale).
	RanksRequested int
	RanksUsed      []int
	Rescaled       bool
	// Seqs is the completed assembly (nil otherwise).
	Seqs [][]byte
	// Metrics is the final attempt's hipmer-metrics/v1 report.
	Metrics *metrics.Report
}

// TraceEvent is one scheduling decision.
type TraceEvent struct {
	At     time.Duration
	Kind   string // "start", "done", "requeue", "preempt", "reject"
	JobID  int
	Tenant string
	Ranks  int
	// TenantInUse is the tenant's total held ranks after the event.
	TenantInUse int
	// FreeRanks is the cluster's free capacity after the event.
	FreeRanks int
}

// Outcome is a finished scheduler run.
type Outcome struct {
	// Jobs holds one terminal result per submitted spec, in submission
	// order.
	Jobs []JobResult
	// Report is the hipmer-sched/v1 service-level report.
	Report *Report
	// Trace is the decision log, one event per decision in virtual-time
	// order.
	Trace []TraceEvent
}

// ---------------------------------------------------------------------
// internals

type job struct {
	id   int
	spec JobSpec

	state        string
	rejectReason string

	started bool
	resume  bool
	// inject is what the next attempt runs under: the spec's value until
	// the first retryable failure, its Disarmed form after.
	inject xrt.Inject

	arrival    time.Duration
	firstStart time.Duration
	lastStart  time.Duration
	done       time.Duration

	attempts   int
	requeues   int
	preempts   int
	alloc      int // current allocation while running
	ranksUsed  []int
	rescaled   bool
	ckptDir    string
	wroteCkpt  bool
	outcome    RunOutcome
	completion *event
	seqs       [][]byte
	metrics    *metrics.Report
	failReason string
}

type tenantState struct {
	name  string
	quota int
	inUse int

	submitted, completed, failed, rejected int
	requeues, preempts, rescales           int
	rankNs                                 int64
	waits                                  []float64
}

const (
	evArrival = iota
	evDone
)

type event struct {
	at        time.Duration
	seq       int
	kind      int
	j         *job
	cancelled bool
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Scheduler runs one workload over the shared simulated cluster.
type Scheduler struct {
	cfg    Config
	runner Runner
	prng   *xrt.Prng

	jobs    []*job
	queue   []*job // admitted, waiting; insertion order
	running []*job // dispatched; start order
	events  eventHeap
	evSeq   int

	tenants     map[string]*tenantState
	tenantOrder []string

	freeRanks int
	now       time.Duration
	makespan  time.Duration
	busyNs    int64

	rejections, requeues, preemptions, rescales int

	trace []TraceEvent

	ckptRoot    string
	ownCkptRoot bool
}

// New builds a scheduler over the given runner (use NewPipelineRunner
// for real assemblies; tests may inject a synthetic runner). The config
// is validated.
func New(cfg Config, r Runner) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg:       cfg,
		runner:    r,
		prng:      xrt.NewPrng(cfg.Seed),
		tenants:   make(map[string]*tenantState),
		freeRanks: cfg.Ranks,
	}
	for _, t := range cfg.Tenants {
		s.tenants[t.Name] = &tenantState{name: t.Name, quota: t.Quota}
		s.tenantOrder = append(s.tenantOrder, t.Name)
	}
	return s, nil
}

func (s *Scheduler) tenantFor(name string) *tenantState {
	if t, ok := s.tenants[name]; ok {
		return t
	}
	if s.cfg.DefaultQuota <= 0 {
		return nil
	}
	t := &tenantState{name: name, quota: s.cfg.DefaultQuota}
	s.tenants[name] = t
	s.tenantOrder = append(s.tenantOrder, name)
	return t
}

func (s *Scheduler) pushEvent(at time.Duration, kind int, j *job) *event {
	e := &event{at: at, seq: s.evSeq, kind: kind, j: j}
	s.evSeq++
	heap.Push(&s.events, e)
	return e
}

func (s *Scheduler) record(kind string, j *job, ranks int) {
	var inUse int
	if t := s.tenants[j.spec.Tenant]; t != nil {
		inUse = t.inUse
	}
	s.trace = append(s.trace, TraceEvent{
		At: s.now, Kind: kind, JobID: j.id, Tenant: j.spec.Tenant,
		Ranks: ranks, TenantInUse: inUse, FreeRanks: s.freeRanks,
	})
}

// Run executes the workload to completion and builds the service
// report. It is single-threaded and deterministic: the same specs and
// config produce a bit-identical report.
func (s *Scheduler) Run(specs []JobSpec) (*Outcome, error) {
	if s.jobs != nil {
		return nil, fmt.Errorf("sched: scheduler already ran")
	}
	if s.cfg.CkptRoot != "" {
		if err := os.MkdirAll(s.cfg.CkptRoot, 0o755); err != nil {
			return nil, fmt.Errorf("sched: ckpt root: %w", err)
		}
		s.ckptRoot = s.cfg.CkptRoot
	} else {
		dir, err := os.MkdirTemp("", "hipmerd-ckpt-*")
		if err != nil {
			return nil, fmt.Errorf("sched: ckpt root: %w", err)
		}
		s.ckptRoot = dir
		s.ownCkptRoot = true
	}
	defer func() {
		if s.ownCkptRoot && !s.cfg.KeepCkpts {
			os.RemoveAll(s.ckptRoot)
		}
	}()

	// Submission: structural admission control, then arrival events.
	for i, spec := range specs {
		j := &job{id: i, spec: spec, arrival: spec.Arrival, inject: spec.Inject}
		if j.spec.Seed == 0 {
			j.spec.Seed = 1
		}
		j.ckptDir = filepath.Join(s.ckptRoot, fmt.Sprintf("job%06d", i))
		s.jobs = append(s.jobs, j)
		if reason := s.admit(j); reason != "" {
			s.reject(j, reason)
			continue
		}
		s.tenants[spec.Tenant].submitted++
		s.pushEvent(spec.Arrival, evArrival, j)
	}

	for s.events.Len() > 0 {
		e := heap.Pop(&s.events).(*event)
		if e.cancelled {
			continue
		}
		s.now = e.at
		if e.at > s.makespan {
			s.makespan = e.at
		}
		switch e.kind {
		case evArrival:
			if len(s.queue) >= s.cfg.QueueCap {
				s.reject(e.j, fmt.Sprintf("queue full (cap %d)", s.cfg.QueueCap))
			} else {
				s.queue = append(s.queue, e.j)
			}
		case evDone:
			s.finish(e.j)
		}
		s.dispatch()
	}

	return s.buildOutcome(), nil
}

// admit returns a non-empty rejection reason for structurally
// unsatisfiable jobs (checked at submission, before queueing).
func (s *Scheduler) admit(j *job) string {
	t := s.tenantFor(j.spec.Tenant)
	if t == nil {
		return fmt.Sprintf("unknown tenant %q and no default quota", j.spec.Tenant)
	}
	if j.spec.Ranks < 1 {
		return fmt.Sprintf("requested %d ranks", j.spec.Ranks)
	}
	if j.spec.Ranks > t.quota {
		return fmt.Sprintf("requested %d ranks over tenant quota %d", j.spec.Ranks, t.quota)
	}
	if j.spec.Ranks > s.cfg.Ranks {
		return fmt.Sprintf("requested %d ranks over cluster size %d", j.spec.Ranks, s.cfg.Ranks)
	}
	// The run-shape rules, judged as the job's attempts will run: with
	// defaults resolved and checkpointing into the job's own directory.
	p := j.spec.Pipeline.WithDefaults()
	p.CkptDir = j.ckptDir
	if err := p.Validate(j.spec.Inject); err != nil {
		return err.Error()
	}
	return ""
}

func (s *Scheduler) reject(j *job, reason string) {
	j.state = StateRejected
	j.rejectReason = reason
	s.rejections++
	if t := s.tenants[j.spec.Tenant]; t != nil {
		t.rejected++
	}
	s.record("reject", j, 0)
}

// effPrio is the queued job's aged priority: static priority plus one
// step per agingNs of virtual queue wait. Aging orders dispatch so old
// low-priority jobs cannot starve behind a stream of younger
// high-priority ones; it never justifies preemption (which compares
// static priorities only).
func (s *Scheduler) effPrio(j *job) int {
	age := int64(s.now-j.arrival) / agingNs
	if age < 0 {
		age = 0
	}
	return j.spec.Priority + int(age)
}

// allocFor sizes the job's would-be allocation right now: 0 if it
// cannot start. A fresh job runs only at its requested count; a
// resumable job (crash retry or preemption victim) may elastically
// rescale down onto the free capacity, and may rescale up to at most
// twice its request when it is alone in the queue (idle capacity).
func (s *Scheduler) allocFor(j *job, queued int) int {
	t := s.tenants[j.spec.Tenant]
	lim := t.quota - t.inUse
	if s.freeRanks < lim {
		lim = s.freeRanks
	}
	want := j.spec.Ranks
	if lim < 1 {
		return 0
	}
	if !j.resume {
		if want <= lim {
			return want
		}
		return 0
	}
	if want <= lim {
		if lim > want && queued == 1 {
			up := 2 * want
			if up > lim {
				up = lim
			}
			return up
		}
		return want
	}
	return lim
}

// pickBest selects the queued job to dispatch next: maximum effective
// priority, then earliest arrival; exact ties are broken by the seeded
// PRNG. Returns nil when nothing can start at the current capacity.
func (s *Scheduler) pickBest() (*job, int) {
	var best *job
	bestAlloc := 0
	for _, j := range s.queue {
		a := s.allocFor(j, len(s.queue))
		if a <= 0 {
			continue
		}
		if best == nil {
			best, bestAlloc = j, a
			continue
		}
		pj, pb := s.effPrio(j), s.effPrio(best)
		switch {
		case pj > pb:
			best, bestAlloc = j, a
		case pj == pb && j.arrival < best.arrival:
			best, bestAlloc = j, a
		case pj == pb && j.arrival == best.arrival && s.prng.Intn(2) == 0:
			best, bestAlloc = j, a
		}
	}
	return best, bestAlloc
}

func (s *Scheduler) removeQueued(j *job) {
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

func (s *Scheduler) removeRunning(j *job) {
	for i, r := range s.running {
		if r == j {
			s.running = append(s.running[:i], s.running[i+1:]...)
			return
		}
	}
}

func (s *Scheduler) dispatch() {
	for {
		j, alloc := s.pickBest()
		if j == nil {
			if s.tryPreempt() {
				continue
			}
			return
		}
		s.removeQueued(j)
		s.start(j, alloc)
	}
}

func (s *Scheduler) start(j *job, alloc int) {
	t := s.tenants[j.spec.Tenant]
	j.attempts++
	if !j.started {
		j.started = true
		j.firstStart = s.now
		t.waits = append(t.waits, float64(s.now-j.arrival))
	}
	j.lastStart = s.now
	j.alloc = alloc
	j.ranksUsed = append(j.ranksUsed, alloc)
	if alloc != j.spec.Ranks {
		j.rescaled = true
		s.rescales++
		t.rescales++
	}
	s.freeRanks -= alloc
	t.inUse += alloc
	s.record("start", j, alloc)

	att := Attempt{
		JobID:        j.id,
		Attempt:      j.attempts,
		Ranks:        alloc,
		RanksPerNode: s.cfg.RanksPerNode,
		Resume:       j.resume,
		CkptDir:      j.ckptDir,
		Inject:       j.inject,
	}
	j.outcome = s.runner.Run(j.spec, att)
	j.wroteCkpt = true
	s.running = append(s.running, j)
	j.completion = s.pushEvent(s.now+j.outcome.Virtual, evDone, j)
}

// release returns a job's allocation to the cluster, charging the busy
// time it actually held (elapsed may be shorter than the attempt's full
// duration when preempted).
func (s *Scheduler) release(j *job, elapsed time.Duration) {
	t := s.tenants[j.spec.Tenant]
	t.inUse -= j.alloc
	s.freeRanks += j.alloc
	busy := int64(j.alloc) * int64(elapsed)
	s.busyNs += busy
	t.rankNs += busy
	j.alloc = 0
	s.removeRunning(j)
}

func (s *Scheduler) finish(j *job) {
	out := j.outcome
	s.release(j, out.Virtual)
	t := s.tenants[j.spec.Tenant]
	switch {
	case out.Fatal:
		j.state = StateFailed
		j.failReason = out.Err
		t.failed++
		s.cleanupJob(j)
	case out.Failed:
		if j.requeues >= maxRetries {
			j.state = StateFailed
			j.failReason = fmt.Sprintf("retry budget exhausted after %d attempts: %s", j.attempts, out.Err)
			t.failed++
			s.cleanupJob(j)
			break
		}
		// Requeue and resume from the job's own checkpoint. Retries run
		// clean: the armed failure has happened and message chaos is
		// disarmed (the transport is declared unhealthy for the job), so
		// the resumed attempt recovers instead of re-dying. The
		// checkpoint fingerprint excludes fault and chaos seeds, so the
		// calmer resume is accepted.
		j.resume = true
		j.inject = j.inject.Disarmed()
		j.requeues++
		s.requeues++
		t.requeues++
		s.record("requeue", j, 0)
		s.queue = append(s.queue, j)
	default:
		j.state = StateCompleted
		j.done = s.now
		j.seqs = out.Seqs
		j.metrics = out.Metrics
		t.completed++
		s.cleanupJob(j)
	}
	s.record("done", j, 0)
}

func (s *Scheduler) cleanupJob(j *job) {
	if !s.cfg.KeepCkpts && j.wroteCkpt {
		os.RemoveAll(j.ckptDir)
	}
}

// tryPreempt serves the highest-priority queued job that is blocked
// purely by rank shortage (its tenant quota has room) by preempting
// strictly lower-priority running jobs at a stage boundary. Victims are
// drained lowest static priority first, most recently started first;
// each victim's checkpoint is truncated to its completed stages and the
// job is requeued as resumable. Returns true if anything was preempted.
func (s *Scheduler) tryPreempt() bool {
	// The contender: best queued job whose quota allows its full request.
	var cand *job
	for _, j := range s.queue {
		t := s.tenants[j.spec.Tenant]
		if j.spec.Ranks > t.quota-t.inUse {
			continue
		}
		if cand == nil || s.effPrio(j) > s.effPrio(cand) ||
			(s.effPrio(j) == s.effPrio(cand) && j.arrival < cand.arrival) {
			cand = j
		}
	}
	if cand == nil {
		return false
	}
	need := cand.spec.Ranks - s.freeRanks
	if need <= 0 {
		return false
	}
	// Victim set: strictly lower static priority, preemptable, and not
	// already failing (a failing attempt has no completed-stage marks
	// and is about to release its ranks and requeue anyway).
	var victims []*job
	for _, r := range s.running {
		if r.spec.Priority < cand.spec.Priority && r.preempts < maxPreempts &&
			!r.outcome.Failed && !r.outcome.Fatal {
			victims = append(victims, r)
		}
	}
	sort.SliceStable(victims, func(i, k int) bool {
		if victims[i].spec.Priority != victims[k].spec.Priority {
			return victims[i].spec.Priority < victims[k].spec.Priority
		}
		if victims[i].lastStart != victims[k].lastStart {
			return victims[i].lastStart > victims[k].lastStart
		}
		return victims[i].id > victims[k].id
	})
	freed := 0
	var take []*job
	for _, v := range victims {
		if freed >= need {
			break
		}
		take = append(take, v)
		freed += v.alloc
	}
	if freed < need {
		return false
	}
	for _, v := range take {
		s.preempt(v)
	}
	return true
}

func (s *Scheduler) preempt(v *job) {
	v.completion.cancelled = true
	elapsed := s.now - v.lastStart
	// Stages completed by the preemption boundary: prefix of the
	// attempt's stage marks with end <= elapsed.
	var completed []string
	for _, m := range v.outcome.Stages {
		if m.End <= elapsed {
			completed = append(completed, m.Stage)
		}
	}
	if err := s.runner.Preempt(v.id, v.ckptDir, completed); err != nil {
		// A truncation failure degrades to a full rerun: drop the whole
		// checkpoint prefix rather than resume from a future state.
		os.RemoveAll(v.ckptDir)
		v.resume = false
	} else {
		v.resume = true
	}
	s.release(v, elapsed)
	v.preempts++
	s.preemptions++
	s.tenants[v.spec.Tenant].preempts++
	s.record("preempt", v, 0)
	s.queue = append(s.queue, v)
}

func (s *Scheduler) buildOutcome() *Outcome {
	out := &Outcome{Trace: s.trace}
	for _, j := range s.jobs {
		r := JobResult{
			ID:             j.id,
			Tenant:         j.spec.Tenant,
			Name:           j.spec.Name,
			State:          j.state,
			Arrival:        j.arrival,
			Start:          j.firstStart,
			Done:           j.done,
			Attempts:       j.attempts,
			Requeues:       j.requeues,
			Preemptions:    j.preempts,
			RanksRequested: j.spec.Ranks,
			RanksUsed:      j.ranksUsed,
			Rescaled:       j.rescaled,
			Seqs:           j.seqs,
			Metrics:        j.metrics,
		}
		if j.started {
			r.Wait = j.firstStart - j.arrival
		}
		switch j.state {
		case StateRejected:
			r.Reason = j.rejectReason
		case StateFailed:
			r.Reason = j.failReason
		}
		out.Jobs = append(out.Jobs, r)
	}
	out.Report = s.buildReport()
	return out
}
