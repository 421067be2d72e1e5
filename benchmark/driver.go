package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hipmer/internal/ckpt"
	"hipmer/internal/contig"
	"hipmer/internal/fastq"
	"hipmer/internal/gapclose"
	"hipmer/internal/kanalysis"
	"hipmer/internal/scaffold"
	"hipmer/internal/seqdb"
	"hipmer/internal/xrt"
)

// driven is what one run of the stage driver leaves behind for the layer
// metrics and the replays.
type driven struct {
	team      *xrt.Team
	finalSeqs [][]byte
	readLibs  []scaffold.ReadLib
	kan       *kanalysis.Result // last k-mer analysis (the table every later stage reads)
	kanAll    []*kanalysis.Result
	contigs   *contig.Result   // contig set handed to scaffolding (or the final one)
	ctgRuns   []*contig.Result // every contig.Run result, for claim/abort counts
	scafs     []*scaffold.Result
	gaps      []*gapclose.Result
	ckptDir   string // "" unless the input checkpoints
	ckptBytes int64
	root      *span
}

// drive is the traced operation: internal/pipeline/stages.go re-enacted
// through the public functions of each stage package, one span per call.
// It must produce the same sequences as hipmer.Assemble — the caller
// compares digests — which keeps the mirror honest.
func (in *asmInput) drive(tr *tracer, ckptDir string) (*driven, error) {
	opt := in.opt
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	team := xrt.NewTeam(xrt.Config{Ranks: opt.Ranks, RanksPerNode: opt.RanksPerNode, Seed: seed})
	d := &driven{team: team, ckptDir: ckptDir}
	d.root = tr.begin("pipeline", "assemble:"+in.name)
	defer tr.finish(d.root) // every return below happens between child spans

	var merged [][]fastq.Record
	var ioErr error
	tr.teamCall(team, "io", "io", func() { merged, ioErr = in.dealReads(d) })
	if ioErr != nil {
		return nil, ioErr
	}

	var store *ckpt.Store
	if ckptDir != "" {
		// The run fingerprint (a digest of every read) is glue that only
		// hipmer.Assemble pays; the driver's store needs just a name.
		var err error
		store, err = ckpt.Create(ckptDir, "benchmark-stage-driver", ckpt.Topology{
			Ranks: opt.Ranks, RanksPerNode: team.Config().RanksPerNode,
		})
		if err != nil {
			return nil, err
		}
	}
	// save mirrors pipeline.saveStage: encode, write segment + manifest,
	// charge the collective write on the simulated machine.
	save := func(stage string, round int, encode func() []byte) error {
		if store == nil {
			return nil
		}
		var payload []byte
		tr.call("ckpt", "encode:"+stage, func() { payload = encode() })
		var entry ckpt.StageEntry
		var err error
		tr.call("ckpt", "write:"+stage, func() { entry, err = store.WriteStageRound(stage, round, payload) })
		if err != nil {
			return fmt.Errorf("checkpointing %s: %w", stage, err)
		}
		d.ckptBytes += entry.Bytes
		share := entry.Bytes/int64(opt.Ranks) + 1
		tr.teamCall(team, "ckpt", "checkpoint-save:"+stage, func() {
			team.AddCounter("ckpt_bytes", entry.Bytes)
			team.Run(func(r *xrt.Rank) { r.ChargeIOWrite(share) })
		})
		return nil
	}

	kmerStage := func(name string, round, k int, pseudo [][]kanalysis.PseudoRead) error {
		tr.teamCall(team, "kanalysis", name, func() {
			d.kan = kanalysis.Run(team, merged, kanalysis.Options{
				K: k, MinCount: 2, HeavyHitters: true, PseudoByRank: pseudo,
			})
		})
		d.kanAll = append(d.kanAll, d.kan)
		return save(name, round, func() []byte {
			return ckpt.EncodeKmerStage(d.kan, k, kanalysis.EffectiveMinimizerLen(k, 0, false))
		})
	}
	contigStage := func(name string, round, k int) error {
		tr.teamCall(team, "contig", name, func() {
			d.contigs = contig.Run(team, d.kan.Table, contig.Options{K: k})
		})
		d.ctgRuns = append(d.ctgRuns, d.contigs)
		return save(name, round, func() []byte { return ckpt.EncodeContigStage(d.contigs) })
	}

	k := in.k()
	if len(opt.KmerLens) == 0 {
		if err := kmerStage("kmer-analysis", 0, k, nil); err != nil {
			return nil, err
		}
		if err := contigStage("contig-generation", 0, k); err != nil {
			return nil, err
		}
	} else {
		var carried []*contig.Contig
		mergeK := opt.KmerLens[0]
		for i, rk := range opt.KmerLens {
			round := i + 1
			var pseudo [][]kanalysis.PseudoRead
			if i > 0 {
				pseudo = make([][]kanalysis.PseudoRead, opt.Ranks)
				for ci, c := range carried {
					pseudo[ci%opt.Ranks] = append(pseudo[ci%opt.Ranks], kanalysis.PseudoRead{Seq: c.Seq, Weight: c.PseudoWeight})
				}
			}
			if err := kmerStage(fmt.Sprintf("kmer-analysis-k%d", rk), round, rk, pseudo); err != nil {
				return nil, err
			}
			if err := contigStage(fmt.Sprintf("contig-generation-k%d", rk), round, rk); err != nil {
				return nil, err
			}
			var tips, bubbles contig.CleanStats
			var merge contig.MergeStats
			name := fmt.Sprintf("tip-clip-k%d", rk)
			tr.teamCall(team, "contig", name, func() {
				tips = contig.ClipTips(team, d.contigs, contig.CleanOptions{K: rk})
			})
			if err := save(name, round, func() []byte { return ckpt.EncodeCleaningStage(d.contigs, tips) }); err != nil {
				return nil, err
			}
			name = fmt.Sprintf("bubble-pop-k%d", rk)
			tr.teamCall(team, "contig", name, func() {
				bubbles = contig.PopBubbles(team, d.contigs, contig.CleanOptions{K: rk})
			})
			if err := save(name, round, func() []byte { return ckpt.EncodeCleaningStage(d.contigs, bubbles) }); err != nil {
				return nil, err
			}
			name = fmt.Sprintf("pseudo-merge-k%d", rk)
			tr.teamCall(team, "contig", name, func() {
				carried, merge = contig.MergeRounds(team, carried, d.contigs, mergeK, rk)
				d.contigs = contig.ResultFromContigs(team, carried)
			})
			if err := save(name, round, func() []byte { return ckpt.EncodeCarryStage(carried, merge) }); err != nil {
				return nil, err
			}
		}
	}

	if opt.ContigsOnly {
		for _, c := range d.contigs.All() {
			d.finalSeqs = append(d.finalSeqs, c.Seq)
		}
		return d, nil
	}

	rounds := opt.ScaffoldRounds
	if rounds < 1 {
		rounds = 1
	}
	ctgs := d.contigs
	for round := 1; round <= rounds; round++ {
		sName, gName := "scaffolding", "gap-closing"
		sOpt := scaffold.Options{K: k}
		if round > 1 {
			sName, gName = fmt.Sprintf("scaffolding-round%d", round), fmt.Sprintf("gap-closing-round%d", round)
			// Re-entry: the previous round's scaffolds are the contigs,
			// dealt round-robin, with no junction metadata for bubbles.
			ctgs = &contig.Result{Contigs: make([][]*contig.Contig, opt.Ranks)}
			for i, seq := range d.finalSeqs {
				ctgs.Contigs[i%opt.Ranks] = append(ctgs.Contigs[i%opt.Ranks], &contig.Contig{ID: int64(i + 1), Seq: seq})
				ctgs.NumContigs++
			}
			sOpt.DisableBubbles = true
		}
		var sr *scaffold.Result
		tr.teamCall(team, "scaffold", sName, func() {
			sr = scaffold.Run(team, ctgs, d.kan.Table, d.readLibs, sOpt)
		})
		d.scafs = append(d.scafs, sr)
		if err := save(sName, 0, func() []byte { return ckpt.EncodeScaffoldStage(sr) }); err != nil {
			return nil, err
		}
		var gr *gapclose.Result
		tr.teamCall(team, "gapclose", gName, func() {
			gr = gapclose.Run(team, sr, d.readLibs, gapclose.Options{K: k, KmerTable: d.kan.Table})
		})
		d.gaps = append(d.gaps, gr)
		d.finalSeqs = gr.ScaffoldSeqs
		if err := save(gName, 0, func() []byte { return ckpt.EncodeGapcloseStage(gr) }); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// dealReads is stage 0 (pipeline.runIO): parallel FASTQ / SeqDB input or a
// round-robin deal of in-memory pairs, mate repair across part
// boundaries, and the merged per-rank view k-mer analysis reads.
func (in *asmInput) dealReads(d *driven) ([][]fastq.Record, error) {
	team := d.team
	p := team.Config().Ranks
	for li, lib := range in.libs {
		parts := make([][]fastq.Record, p)
		errs := make([]error, p)
		switch {
		case strings.HasSuffix(lib.Path, ".seqdb"):
			fl, err := seqdb.Open(lib.Path)
			if err != nil {
				return nil, err
			}
			team.Run(func(r *xrt.Rank) {
				recs, n, err := fl.ReadPart(p, r.ID)
				if err != nil {
					errs[r.ID] = err
					return
				}
				r.ChargeIORead(n)
				parts[r.ID] = recs
			})
			repairPairs(parts)
		case lib.Path != "":
			fl, err := fastq.OpenSplit(lib.Path, p)
			if err != nil {
				return nil, err
			}
			team.Run(func(r *xrt.Rank) {
				recs, err := fl.ReadPart(r.ID)
				if err != nil {
					errs[r.ID] = err
					return
				}
				r.ChargeIORead(fl.PartBytes(r.ID))
				parts[r.ID] = recs
			})
			fl.Close()
			repairPairs(parts)
		default:
			recs := in.reads[li]
			var bytes int64
			for _, rec := range recs {
				bytes += int64(len(rec.ID) + len(rec.Seq) + len(rec.Qual) + 6)
			}
			for i := 0; i+1 < len(recs); i += 2 {
				r := (i / 2) % p
				parts[r] = append(parts[r], recs[i], recs[i+1])
			}
			team.Run(func(r *xrt.Rank) { r.ChargeIORead(bytes / int64(p)) })
		}
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("reading %s: %w", lib.Path, err)
			}
		}
		d.readLibs = append(d.readLibs, scaffold.ReadLib{Name: lib.Name, ReadsByRank: parts, InsertHint: lib.InsertMean})
	}
	merged := make([][]fastq.Record, p)
	for _, rl := range d.readLibs {
		for r := range merged {
			merged[r] = append(merged[r], rl.ReadsByRank[r]...)
		}
	}
	return merged, nil
}

// repairPairs moves a part's leading "/2" read back to the part holding
// its "/1" mate, as the pipeline does after a byte-range split.
func repairPairs(parts [][]fastq.Record) {
	mate := func(id []byte, n byte) bool {
		return len(id) >= 2 && id[len(id)-2] == '/' && id[len(id)-1] == n
	}
	for i := 1; i < len(parts); i++ {
		if len(parts[i]) == 0 || !mate(parts[i][0].ID, '2') {
			continue
		}
		j := i - 1
		for j >= 0 && len(parts[j]) == 0 {
			j--
		}
		if j < 0 {
			continue
		}
		first, last := parts[i][0], parts[j][len(parts[j])-1]
		if mate(last.ID, '1') && len(last.ID) == len(first.ID) &&
			string(last.ID[:len(last.ID)-1]) == string(first.ID[:len(first.ID)-1]) {
			parts[j] = append(parts[j], first)
			parts[i] = parts[i][1:]
		}
	}
}

// trace runs the traced operation and the layer replays on this input.
// untracedWallMs and untracedVirtualMs are the medians of the untraced
// operations on the same input.
func (in *asmInput) trace(tr *tracer, e *env, untracedWallMs, untracedVirtualMs float64, res *results) error {
	tracedWallMs, err := in.traceLayers(tr, e, untracedWallMs, untracedVirtualMs, res)
	if err != nil {
		return err
	}
	res.set("pipeline.trace_overhead_frac", (tracedWallMs-untracedWallMs)/untracedWallMs)
	return nil
}

// traceLayers runs the stage driver once, derives the stage-layer metrics
// from its spans, measures strong scaling, then replays each low-level
// layer on the data the operation produced. It returns the traced
// operation's wall time.
func (in *asmInput) traceLayers(tr *tracer, e *env, untracedWallMs, untracedVirtualMs float64, res *results) (float64, error) {
	ckptDir := ""
	if in.ckpt {
		ckptDir = filepath.Join(in.dir, in.name+"-ckpt-traced")
		defer os.RemoveAll(ckptDir)
	}
	tr.nextOp()
	d, err := in.drive(tr, ckptDir)
	if err != nil {
		return 0, fmt.Errorf("stage driver: %w", err)
	}
	want, err := in.op()
	if err != nil {
		return 0, err
	}
	if got := digestSeqs(d.finalSeqs); got != want.digest {
		return 0, fmt.Errorf("stage driver output %s differs from hipmer.Assemble's %s: the mirror of internal/pipeline/stages.go is stale", got, want.digest)
	}
	in.stageMetrics(tr, d, untracedWallMs, res)

	// Strong scaling, the paper's headline figure: the same input on four
	// times the ranks, in virtual time.
	big := in.opt
	big.Ranks *= 4
	r4, err := in.assemble(big)
	if err != nil {
		return 0, fmt.Errorf("4x-rank run: %w", err)
	}
	if dg := digestSeqs(r4.Scaffolds); dg != want.digest {
		// Reported, not failed: the benchmark's operations all run at one
		// rank count, and rank-count invariance has its own tests.
		fmt.Printf("%-15s note: the assembly at %d ranks differs from the one at %d ranks\n", in.name, big.Ranks, in.opt.Ranks)
	}
	res.set("pipeline.scaling_eff_4x", untracedVirtualMs/(4*float64(r4.Metrics.VirtualNs)/1e6))
	res.set("pipeline.mbases_per_s", float64(in.bases())/1e6/(untracedWallMs/1e3))

	return ms(d.root.wall()), in.replays(d, e, res)
}

// stageMetrics turns the traced operation's spans into per-layer numbers.
func (in *asmInput) stageMetrics(tr *tracer, d *driven, untracedWallMs float64, res *results) {
	byLayer := map[string][]*span{}
	var topWall, ioVirtual, ckptVirtual float64
	for _, s := range tr.spans {
		if s.parent != d.root.id {
			continue
		}
		byLayer[s.layer] = append(byLayer[s.layer], s)
		topWall += ms(s.wall())
		if s.rec != nil {
			switch s.layer {
			case "io":
				ioVirtual += s.rec.VirtualNs / 1e6
			case "ckpt":
				ckptVirtual += s.rec.VirtualNs / 1e6
			}
		}
	}
	for _, layer := range stageLayers {
		spans := byLayer[layer]
		if len(spans) == 0 {
			continue
		}
		var wall, virt, alloc, remote float64
		var msgs int64
		for _, s := range spans {
			comm := s.rec.AggComm()
			wall += ms(s.wall())
			virt += s.rec.VirtualNs / 1e6
			alloc += float64(s.allocBytes) / 1e6
			msgs += comm.Msgs()
			remote += float64(comm.Bytes()) / 1e6
		}
		res.set(layer+".wall_ms", wall)
		res.set(layer+".virtual_ms", virt)
		res.set(layer+".alloc_mb", alloc)
		res.set(layer+".msgs", float64(msgs))
		res.set(layer+".remote_mb", remote)
		res.set(layer+".util", util(spans))
	}

	var kept, peak, superk, saved, hh float64
	for _, ka := range d.kanAll {
		kept += float64(ka.Kept)
		peak += float64(ka.PeakEntries)
		superk += float64(ka.SuperKmers)
		saved += float64(ka.CommBytesSaved) / 1e6
		hh += float64(ka.HeavyHitters)
	}
	res.set("kanalysis.kept_kmers", kept)
	res.set("kanalysis.peak_entries", peak)
	res.set("kanalysis.superkmers", superk)
	res.set("kanalysis.comm_saved_mb", saved)
	res.set("kanalysis.heavy_hitters", hh)

	var build, traverse, claimed, aborted, rounds, cleanWall float64
	var hits, misses int64
	for _, cr := range d.ctgRuns {
		build += ms(cr.BuildPhase.Virtual)
		traverse += ms(cr.TraversePhase.Virtual)
		claimed += float64(cr.Claimed)
		aborted += float64(cr.Aborted)
		rounds += float64(cr.Rounds)
	}
	for _, s := range byLayer["contig"] {
		comm := s.rec.AggComm()
		hits += comm.CacheHits
		misses += comm.CacheMisses
		if !strings.HasPrefix(s.name, "contig-generation") {
			cleanWall += ms(s.wall())
		}
	}
	res.set("contig.build_virtual_ms", build)
	res.set("contig.traverse_virtual_ms", traverse)
	res.set("contig.abort_frac", ratio(aborted, claimed))
	res.set("contig.rounds", rounds)
	res.set("contig.cache_hit_rate", ratio(float64(hits), float64(hits+misses)))
	res.set("contig.contigs", float64(d.contigs.NumContigs))
	res.set("contig.clean_wall_ms", cleanWall)

	if len(d.scafs) > 0 {
		var depths, bubble, align, splint, order, links float64
		hits, misses = 0, 0
		for _, sr := range d.scafs {
			depths += ms(sr.DepthPhase.Virtual)
			bubble += ms(sr.BubblePhase.Virtual)
			align += ms(sr.AlignPhase.Virtual)
			splint += ms(sr.SplintSpanPhase.Virtual)
			order += ms(sr.OrderPhase.Virtual)
			links += float64(len(sr.Links))
		}
		for _, s := range byLayer["scaffold"] {
			comm := s.rec.AggComm()
			hits += comm.CacheHits
			misses += comm.CacheMisses
		}
		res.set("scaffold.depths_virtual_ms", depths)
		res.set("scaffold.bubble_virtual_ms", bubble)
		res.set("scaffold.align_virtual_ms", align)
		res.set("scaffold.splintspan_virtual_ms", splint)
		res.set("scaffold.order_virtual_ms", order)
		res.set("scaffold.cache_hit_rate", ratio(float64(hits), float64(hits+misses)))
		res.set("scaffold.links", links)

		var gaps, closed, verified, checked float64
		for _, gr := range d.gaps {
			gaps += float64(gr.Gaps)
			closed += float64(gr.Closed)
			verified += float64(gr.Verified)
			checked += float64(gr.Checked)
		}
		res.set("gapclose.closed_frac", ratio(closed, gaps))
		res.set("gapclose.verified_frac", ratio(verified, checked))
	}

	if d.ckptDir != "" {
		var enc, wr float64
		for _, s := range byLayer["ckpt"] {
			switch {
			case strings.HasPrefix(s.name, "encode:"):
				enc += ms(s.wall())
			case strings.HasPrefix(s.name, "write:"):
				wr += ms(s.wall())
			}
		}
		res.set("ckpt.encode_ms", enc)
		res.set("ckpt.write_ms", wr)
		res.set("ckpt.virtual_ms", ckptVirtual)
		res.set("ckpt.bytes_mb", float64(d.ckptBytes)/1e6)
	}

	res.set("pipeline.io_ms", ms(byLayer["io"][0].wall()))
	res.set("pipeline.io_virtual_ms", ioVirtual)
	res.set("pipeline.traced_wall_ms", ms(d.root.wall()))
	res.set("pipeline.traced_virtual_ms", ms(d.team.VirtualNow()))
	// What hipmer.Assemble pays beyond the stage calls: record
	// conversion, the run fingerprint, metrics.FromTeam, team set-up.
	res.set("pipeline.glue_ms", untracedWallMs-topWall)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
