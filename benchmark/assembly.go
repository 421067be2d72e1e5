package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"hipmer"
	"hipmer/internal/fastq"
	"hipmer/internal/genome"
	"hipmer/internal/seqdb"
	"hipmer/internal/verify"
	"hipmer/internal/xrt"
)

// genomeSeed fixes every reference genome. The run seed draws only the
// reads sampled from it: how much work an assembly is depends mostly on
// the genome's repeat structure, so a seeded genome would make each seed a
// different workload (wheat virtual time spans 68–116 ms across genome
// seeds, see README.md) and no bound could tell a regression from a draw.
const genomeSeed = 20151115

// asmInput is one assembly job: the libraries as hipmer.Assemble receives
// them, the same reads in memory for the stage driver and the replays, and
// the reference they were sampled from.
type asmInput struct {
	name  string
	libs  []hipmer.Library
	reads [][]fastq.Record // per library, file order
	opt   hipmer.Options
	// ckpt checkpoints every stage into a fresh directory per operation.
	ckpt    bool
	ref     []byte           // single-genome reference, nil for a metagenome
	species []verify.Species // metagenome references
	dir     string           // scratch directory for checkpoints
	ops     int              // operations started, names checkpoint directories
}

func (in *asmInput) bases() int64 {
	var n int64
	for _, recs := range in.reads {
		for _, r := range recs {
			n += int64(len(r.Seq))
		}
	}
	return n
}

// k is the assembly k-mer length (the last of an iterative-k ladder).
func (in *asmInput) k() int {
	if n := len(in.opt.KmerLens); n > 0 {
		return in.opt.KmerLens[n-1]
	}
	return in.opt.K
}

// assemble is one hipmer.Assemble call with the input's options.
func (in *asmInput) assemble(opt hipmer.Options) (*hipmer.Result, error) {
	if in.ckpt {
		// Created and removed inside the operation, as a service would.
		in.ops++
		opt.CkptDir = filepath.Join(in.dir, fmt.Sprintf("%s-ckpt-%d", in.name, in.ops))
		defer os.RemoveAll(opt.CkptDir)
	}
	return hipmer.Assemble(in.libs, opt)
}

// outcome is what one operation produced, as far as the harness cares.
type outcome struct {
	virtualMs float64
	digest    string
	attempted int
	failed    int
	detail    any // scenario-specific, handed back to validate
}

func (in *asmInput) op() (outcome, error) {
	res, err := in.assemble(in.opt)
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		virtualMs: float64(res.Metrics.VirtualNs) / 1e6,
		digest:    digestSeqs(res.Scaffolds),
		attempted: 1,
	}, nil
}

func (in *asmInput) warm() error {
	_, err := in.op()
	return err
}

// validate is the untimed correctness pass: the same assembly with the
// oracle on. A contig k-mer that no read contains, or an output that
// differs from the timed operations', is a failure; the other oracle
// counts are quality figures, reported beside the speed numbers.
func (in *asmInput) validate(last outcome, res *results) error {
	opt := in.opt
	opt.Verify = true
	opt.VerifyRef = in.ref
	r, err := in.assemble(opt)
	if err != nil {
		return err
	}
	if d := digestSeqs(r.Scaffolds); d != last.digest {
		return fmt.Errorf("validation assembly digest %s differs from the timed operations' %s", d, last.digest)
	}
	if r.Verify.MissingKmers > 0 {
		return fmt.Errorf("verify: %d contig k-mers occur in no read (%s)", r.Verify.MissingKmers, r.Verify.Summary)
	}
	if res == nil {
		return nil
	}
	res.set("stats.n50_bp", float64(r.Stats.N50))
	res.set("stats.sequences", float64(r.Stats.Sequences))
	res.set("verify.missing_kmers", float64(r.Verify.MissingKmers))
	if in.ref != nil {
		res.set("stats.covered_frac", r.Validate(in.ref).CoveredFrac)
		res.set("verify.misassemblies", float64(r.Verify.Misassemblies))
		res.set("verify.gap_violations", float64(r.Verify.GapViolations))
		return nil
	}
	k := in.opt.K
	if len(in.opt.KmerLens) > 0 {
		k = in.opt.KmerLens[0]
	}
	mr := verify.CheckMeta(r.Scaffolds, in.species, verify.Options{K: k})
	var mean float64
	for _, s := range mr.PerSpecies {
		mean += s.Fraction / float64(len(mr.PerSpecies))
	}
	res.set("stats.covered_frac", mean)
	res.set("verify.meta_mean_frac", mean)
	res.set("verify.meta_cross_joins", float64(mr.CrossJoins))
	return nil
}

// digestSeqs is the SHA-256 of the output sequences in order.
func digestSeqs(seqs [][]byte) string {
	h := sha256.New()
	for _, s := range seqs {
		fmt.Fprintf(h, "%d:", len(s))
		h.Write(s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ---------------------------------------------------------------------
// The paper's three datasets, scaled to the sandbox.

func toReads(recs []fastq.Record) []hipmer.Read {
	out := make([]hipmer.Read, len(recs))
	for i, r := range recs {
		out[i] = hipmer.Read{ID: r.ID, Seq: r.Seq, Qual: r.Qual}
	}
	return out
}

// humanReads samples one short-insert library from a human-like diploid
// genome of n bases (pipeline.SimulatedHuman with the genome fixed).
func humanReads(readSeed int64, n int, coverage float64) (ref []byte, recs []fastq.Record) {
	rng := xrt.NewPrng(genomeSeed)
	g := genome.HumanLike(rng, n)
	hap2 := genome.Mutate(rng, g, 0.001)
	recs, _ = genome.SimulatePairs(xrt.NewPrng(readSeed), g, genome.SimOptions{
		Coverage:   coverage,
		Lib:        genome.Library{Name: "human395", ReadLen: 101, InsertMean: 395, InsertSD: 30},
		Err:        genome.DefaultErrorModel(),
		Haplotypes: [][]byte{hap2},
	})
	return g, recs
}

// wheatReads samples the three wheat libraries (pipeline.SimulatedWheat
// with the genome fixed).
func wheatReads(readSeed int64, n int, coverage float64) (ref []byte, names []string, inserts []int, recs [][]fastq.Record) {
	g := genome.WheatLike(xrt.NewPrng(genomeSeed), n)
	rng := xrt.NewPrng(readSeed)
	specs := []genome.Library{
		{Name: "wheat500", ReadLen: 150, InsertMean: 500, InsertSD: 40},
		{Name: "wheat1k", ReadLen: 100, InsertMean: 1000, InsertSD: 80},
		{Name: "wheat4k", ReadLen: 100, InsertMean: 4200, InsertSD: 300},
	}
	covs := []float64{coverage * 0.7, coverage * 0.2, coverage * 0.1}
	for i, spec := range specs {
		r, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
			Coverage: covs[i], Lib: spec, Err: genome.DefaultErrorModel(),
		})
		names = append(names, spec.Name)
		inserts = append(inserts, spec.InsertMean)
		recs = append(recs, r)
	}
	return g, names, inserts, recs
}

// metaReads samples pairs from a fixed community of species with
// log-normal abundances (pipeline.SimulatedMetagenomeRefs with the
// community fixed).
func metaReads(readSeed int64, totalLen, species, pairs int) ([]verify.Species, []fastq.Record) {
	gs, ab := genome.Metagenome(xrt.NewPrng(genomeSeed), totalLen, species)
	recs := genome.SimulateMetagenome(xrt.NewPrng(readSeed), gs, ab, pairs,
		genome.Library{Name: "wetland", ReadLen: 100, InsertMean: 300, InsertSD: 30},
		genome.DefaultErrorModel())
	sp := make([]verify.Species, len(gs))
	for i, g := range gs {
		sp[i] = verify.Species{Name: g.Name, Seq: g.Seq, Abundance: ab[i]}
	}
	return sp, recs
}

func humanInput(e *env, j int) (scenario, error) {
	ref, recs := humanReads(e.readSeed(j), e.size(100_000), 25)
	path := filepath.Join(e.dir, fmt.Sprintf("human-%d.fastq", j))
	if err := os.WriteFile(path, fastq.Format(recs), 0o644); err != nil {
		return nil, err
	}
	return &asmInput{
		name:  "human",
		libs:  []hipmer.Library{{Name: "human395", Path: path, InsertMean: 395}},
		reads: [][]fastq.Record{recs},
		opt:   hipmer.Options{K: 31, Ranks: 32, RanksPerNode: 8},
		ref:   ref, dir: e.dir,
	}, nil
}

func wheatInput(e *env, j int) (scenario, error) {
	ref, names, inserts, recs := wheatReads(e.readSeed(j), e.size(75_000), 25)
	in := &asmInput{
		name:  fmt.Sprintf("wheat-%d", j),
		reads: recs,
		opt:   hipmer.Options{K: 31, Ranks: 96, RanksPerNode: 24, ScaffoldRounds: 4},
		ckpt:  true,
		ref:   ref, dir: e.dir,
	}
	for i := range recs {
		in.libs = append(in.libs, hipmer.Library{Name: names[i], Reads: toReads(recs[i]), InsertMean: inserts[i]})
	}
	return in, nil
}

func metaInput(e *env, j int) (scenario, error) {
	total := e.size(40_000)
	species, recs := metaReads(e.readSeed(j), total, 15, total*3/20)
	path := filepath.Join(e.dir, fmt.Sprintf("meta-%d.seqdb", j))
	if err := seqdb.WriteFile(path, recs); err != nil {
		return nil, err
	}
	return &asmInput{
		name:    "meta",
		libs:    []hipmer.Library{{Name: "wetland", Path: path, InsertMean: 300}},
		reads:   [][]fastq.Record{recs},
		opt:     hipmer.Options{KmerLens: []int{21, 33, 55}, ContigsOnly: true, Ranks: 32, RanksPerNode: 8},
		species: species, dir: e.dir,
	}, nil
}
