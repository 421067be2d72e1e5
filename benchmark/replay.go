package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"hipmer/internal/aligner"
	"hipmer/internal/bloom"
	"hipmer/internal/ckpt"
	"hipmer/internal/dht"
	"hipmer/internal/fastq"
	"hipmer/internal/hll"
	"hipmer/internal/kanalysis"
	"hipmer/internal/kmer"
	"hipmer/internal/mg"
	"hipmer/internal/scaffold"
	"hipmer/internal/seqdb"
	"hipmer/internal/xrt"
)

// Layer replays: each low-level layer's public functions timed on the
// workload's own data — its reads, the k-mers that survived its k-mer
// analysis, its contigs, its checkpoint segments — so a layer's number
// moves when that layer's code does, whatever the stages around it do.

// sink keeps the compiler from discarding replayed computations. Rank
// goroutines count locally and fold in with atomic.AddUint64.
var sink uint64

// repeat runs pass, which times its own measured part, until the measured
// time reaches budget (or three budgets of real time have gone into
// untimed preparation); it always runs once. It returns the units of work
// done and the measured seconds.
func repeat(budget time.Duration, pass func() (units int64, d time.Duration)) (units, secs float64) {
	start := time.Now()
	for {
		n, d := pass()
		units += float64(n)
		secs += d.Seconds()
		if secs >= budget.Seconds() || time.Since(start) >= 3*budget {
			return units, secs
		}
	}
}

// timed is a pass whose whole body is measured.
func timed(fn func() int64) func() (int64, time.Duration) {
	return func() (int64, time.Duration) {
		t := time.Now()
		n := fn()
		return n, time.Since(t)
	}
}

// repeatErr is repeat for a wholly measured pass that can fail; it reports
// the first error.
func repeatErr(budget time.Duration, pass func() (int64, error)) (units, secs float64, err error) {
	units, secs = repeat(budget, timed(func() int64 {
		n, perr := pass()
		if err == nil {
			err = perr
		}
		return n
	}))
	return units, secs, err
}

// allocPer is the bytes allocated by one call of fn, averaged over n calls.
func allocPer(n int, fn func()) float64 {
	before := totalAlloc()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(totalAlloc()-before) / float64(n)
}

func (in *asmInput) replays(d *driven, e *env, res *results) error {
	k := in.k()
	m := kmer.ClampMinimizerLen(k, 0)
	var reads []fastq.Record
	for _, recs := range in.reads {
		reads = append(reads, recs...)
	}
	replayKmer(reads, k, m, e.replay, res)
	replaySketches(reads, k, in.opt.Ranks, e.replay, res)
	in.replayDHT(d, k, m, e.replay, res)
	replayXRT(in.opt.Ranks, in.opt.RanksPerNode, e.replay, res)
	if err := in.replayIO(e.replay, res); err != nil {
		return err
	}
	if len(d.scafs) > 0 {
		in.replayAligner(d, k, res)
	}
	if d.ckptDir != "" {
		if err := in.replayCkpt(d, e.replay, res); err != nil {
			return err
		}
	}
	return nil
}

// replayKmer times the k-mer scan, the super-k-mer codec and the
// minimizer over every read.
func replayKmer(reads []fastq.Record, k, m int, budget time.Duration, res *results) {
	const qualThresh = 19
	units, secs := repeat(budget, timed(func() int64 {
		var n int64
		for _, rec := range reads {
			kmer.ForEach(rec.Seq, k, func(_ int, km kmer.Kmer) {
				canon, _ := km.Canonical(k)
				sink ^= canon.Hash(0xc0ffee)
			})
			n += int64(len(rec.Seq))
		}
		return n
	}))
	res.set("kmer.foreach_mbases_per_s", units/1e6/secs)

	type run struct{ read, start, length int }
	var runs []run
	units, secs = repeat(budget, timed(func() int64 {
		runs = runs[:0]
		var n int64
		for i, rec := range reads {
			kmer.ScanSuperKmers(rec.Seq, k, m, func(start, nwin int, _ uint64) {
				runs = append(runs, run{i, start, nwin + k - 1})
			})
			n += int64(len(rec.Seq))
		}
		return n
	}))
	res.set("kmer.scan_mbases_per_s", units/1e6/secs)
	res.set("kmer.superkmers_per_read", ratio(float64(len(runs)), float64(len(reads))))

	var payload []byte
	units, secs = repeat(budget, timed(func() int64 {
		payload = payload[:0]
		var n int64
		for _, r := range runs {
			var ok bool
			payload, ok = kmer.AppendSuperKmer(payload, reads[r.read].Seq, reads[r.read].Qual, r.start, r.length, qualThresh)
			if ok {
				n += int64(r.length)
			}
		}
		return n
	}))
	res.set("kmer.encode_mbases_per_s", units/1e6/secs)

	var windows int
	units, secs = repeat(budget, timed(func() int64 {
		w, err := kmer.DecodeSuperKmers(payload, k, func(km kmer.Kmer, l, r uint8) { sink += km.W[0] + uint64(l+r) })
		if err != nil {
			panic("benchmark: decoding its own super-k-mer payload: " + err.Error())
		}
		windows = w
		return int64(w)
	}))
	res.set("kmer.decode_mkmers_per_s", units/1e6/secs)
	res.set("kmer.bytes_per_kmer", ratio(float64(len(payload)), float64(windows)))

	kms, _ := kmerStream(reads, k, 200_000)
	units, secs = repeat(budget, timed(func() int64 {
		for _, km := range kms {
			sink ^= km.Minimizer(k, m)
		}
		return int64(len(kms))
	}))
	res.set("kmer.minimizer_ns", secs*1e9/units)
}

// kmerStream is the canonical k-mer occurrence stream of the reads with
// its table hashes, capped at limit occurrences.
func kmerStream(reads []fastq.Record, k, limit int) ([]kmer.Kmer, []uint64) {
	var kms []kmer.Kmer
	var hashes []uint64
	for _, rec := range reads {
		if len(kms) >= limit {
			break
		}
		kmer.ForEach(rec.Seq, k, func(_ int, km kmer.Kmer) {
			canon, _ := km.Canonical(k)
			kms = append(kms, canon)
			hashes = append(hashes, canon.Hash(0xc0ffee))
		})
	}
	return kms, hashes
}

// replaySketches times the three stream summaries of k-mer analysis on
// the canonical-hash stream.
func replaySketches(reads []fastq.Record, k, ranks int, budget time.Duration, res *results) {
	const theta = 32000
	kms, hashes := kmerStream(reads, k, 1_000_000)
	n := int64(len(kms))

	units, secs := repeat(budget, timed(func() int64 {
		f := bloom.New(uint64(n), 0.05)
		for _, h := range hashes {
			if f.Add(h, xrt.Splitmix64(h)) {
				sink++
			}
		}
		return n
	}))
	res.set("bloom.add_mops", units/1e6/secs)

	units, secs = repeat(budget, timed(func() int64 {
		s := hll.New(14)
		for _, h := range hashes {
			s.Add(h)
		}
		sink += s.Estimate()
		return n
	}))
	res.set("hll.add_mops", units/1e6/secs)

	units, secs = repeat(budget, timed(func() int64 {
		s := mg.New[kmer.Kmer](theta)
		for _, km := range kms {
			s.Offer(km)
		}
		sink += uint64(s.N())
		return n
	}))
	res.set("mg.offer_mops", units/1e6/secs)

	// One summary per rank over its share of the stream, merged in rank
	// order as k-mer analysis does after its sketch pass.
	parts := make([]*mg.Summary[kmer.Kmer], ranks)
	for r := range parts {
		parts[r] = mg.New[kmer.Kmer](theta)
		for i := r; i < len(kms); i += ranks {
			parts[r].Offer(kms[i])
		}
	}
	units, secs = repeat(budget, timed(func() int64 {
		merged := mg.New[kmer.Kmer](theta)
		for _, p := range parts {
			merged.Merge(p)
		}
		sink += uint64(merged.N())
		return 1
	}))
	res.set("mg.merge_ms", secs*1e3/units)
	res.set("mg.new_kb", allocPer(20, func() { sink += uint64(mg.New[kmer.Kmer](theta).Theta()) })/1e3)
}

// replayDHT times the distributed hash table's write and read paths on a
// kanalysis.NewTable filled with the k-mers that survived the workload's
// k-mer analysis, at the workload's rank count.
func (in *asmInput) replayDHT(d *driven, k, m int, budget time.Duration, res *results) {
	ranks := in.opt.Ranks
	team := xrt.NewTeam(xrt.Config{Ranks: ranks, RanksPerNode: in.opt.RanksPerNode, Seed: 1})

	var keys []kmer.Kmer
	var data []kanalysis.KmerData
	d.kan.Table.RangeAll(func(km kmer.Kmer, v kanalysis.KmerData) bool {
		keys = append(keys, km)
		data = append(data, v)
		return true
	})
	hashes := make([]uint64, len(keys))
	for i, km := range keys {
		hashes[i] = km.Hash(0xc0ffee)
	}
	n := int64(len(keys))
	newTable := func(cacheSlots int) *kmerTable {
		return kanalysis.NewTable(team, n, 0, cacheSlots, k, m)
	}
	fill := func(t *kmerTable) xrt.PhaseStats {
		return team.Run(func(r *xrt.Rank) {
			for i := r.ID; i < len(keys); i += ranks {
				t.PutHashed(r, hashes[i], keys[i], data[i])
			}
			t.Flush(r)
			r.Barrier()
		})
	}

	res.set("dht.new_mb", allocPer(3, func() { sink += uint64(newTable(0).Stripes()) })/1e6)

	// Per-item aggregated stores: PutHashed + Flush.
	var table *kmerTable
	var msgs int64
	units, secs := repeat(budget, func() (int64, time.Duration) {
		table = newTable(0)
		ph := fill(table)
		msgs += ph.Comm.Msgs()
		return n, ph.Wall
	})
	res.set("dht.put_mops", units/1e6/secs)
	res.set("dht.msgs_per_kput", ratio(float64(msgs), units/1e3))

	// Blob stores: the workload's reads as pre-encoded super-k-mer
	// records, shipped with PutBlob and decoded at the owner.
	type blob struct {
		dst, nwin int
		rec       []byte
	}
	blobs := make([][]blob, ranks)
	var blobBytes int64
	for r := 0; r < ranks; r++ {
		for _, rl := range d.readLibs {
			for _, rec := range rl.ReadsByRank[r] {
				kmer.ScanSuperKmers(rec.Seq, k, m, func(start, nwin int, minv uint64) {
					b, ok := kmer.AppendSuperKmer(nil, rec.Seq, rec.Qual, start, nwin+k-1, 19)
					if !ok {
						return
					}
					blobs[r] = append(blobs[r], blob{int(kmer.MinimizerHash(minv) % uint64(ranks)), nwin, b})
					blobBytes += int64(len(b))
				})
			}
		}
	}
	units, secs = repeat(budget, func() (int64, time.Duration) {
		t := newTable(0)
		t.SetBlobApply(func(_, _ int, payload []byte, put func(kmer.Kmer, kanalysis.KmerData)) {
			if _, err := kmer.DecodeSuperKmers(payload, k, func(km kmer.Kmer, _, _ uint8) {
				canon, _ := km.Canonical(k)
				put(canon, kanalysis.KmerData{Count: 1})
			}); err != nil {
				panic("benchmark: corrupt super-k-mer payload: " + err.Error())
			}
		})
		ph := team.Run(func(r *xrt.Rank) {
			for _, b := range blobs[r.ID] {
				t.PutBlob(r, b.dst, b.rec, b.nwin)
			}
			t.Flush(r)
			r.Barrier()
		})
		return blobBytes, ph.Wall
	})
	res.set("dht.putblob_mb_per_s", units/1e6/secs)

	units, secs = repeat(budget, func() (int64, time.Duration) {
		ph := team.Run(func(r *xrt.Rank) {
			for i := r.ID; i < len(keys); i += ranks {
				table.Mutate(r, keys[i], func(v kanalysis.KmerData, _ bool) (kanalysis.KmerData, bool) {
					v.Count++
					return v, true
				})
			}
		})
		return n, ph.Wall
	})
	res.set("dht.mutate_mops", units/1e6/secs)

	units, secs = repeat(budget, func() (int64, time.Duration) {
		ph := team.Run(func(r *xrt.Rank) { table.Freeze(r) })
		team.Run(func(r *xrt.Rank) { table.Thaw(r) })
		return 1, ph.Wall
	})
	res.set("dht.freeze_ms", secs*1e3/units)

	// Frozen lock-free reads with the software cache off: every rank
	// reads a stride of the key set, mostly remote.
	plain := newTable(-1)
	fill(plain)
	team.Run(func(r *xrt.Rank) { plain.Freeze(r) })
	var virtual time.Duration
	units, secs = repeat(budget, func() (int64, time.Duration) {
		ph := team.Run(func(r *xrt.Rank) {
			var found uint64
			for i := (r.ID + 1) % ranks; i < len(keys); i += ranks {
				if _, ok := plain.Get(r, keys[i]); ok {
					found++
				}
			}
			atomic.AddUint64(&sink, found)
		})
		virtual += ph.Virtual
		return n, ph.Wall
	})
	res.set("dht.get_frozen_mops", units/1e6/secs)
	res.set("dht.virtual_ns_per_get", float64(virtual)*float64(ranks)/units)

	// Reads through the software cache with the access pattern of the
	// stages that use it: each rank walks the successive k-mers of its
	// contigs. After one warming pass the hit rate is the steady state of
	// re-reading a rank's working set: the cache's capacity and conflict
	// misses.
	team.Run(func(r *xrt.Rank) { table.Freeze(r) })
	walk := func() xrt.PhaseStats {
		return team.Run(func(r *xrt.Rank) {
			var found uint64
			for _, c := range d.contigs.Contigs[r.ID] {
				kmer.ForEach(c.Seq, k, func(_ int, km kmer.Kmer) {
					canon, _ := km.Canonical(k)
					if _, ok := table.Get(r, canon); ok {
						found++
					}
				})
			}
			atomic.AddUint64(&sink, found)
		})
	}
	walk()
	var hits, misses, gets int64
	units, secs = repeat(budget, func() (int64, time.Duration) {
		ph := walk()
		hits += ph.Comm.CacheHits
		misses += ph.Comm.CacheMisses
		g := ph.Comm.Lookups() + ph.Comm.CacheHits
		gets += g
		return g, ph.Wall
	})
	if gets > 0 {
		res.set("dht.get_cached_mops", units/1e6/secs)
		res.set("dht.cache_hit_rate", ratio(float64(hits), float64(hits+misses)))
	}

	// Resident bytes per stored k-mer: live heap before and after
	// building one more filled table.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	extra := newTable(-1)
	fill(extra)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.set("dht.bytes_per_entry", ratio(float64(m1.HeapAlloc)-float64(m0.HeapAlloc), float64(n)))
	runtime.KeepAlive(extra)
}

// kmerTable is the k-mer count table type of kanalysis.NewTable.
type kmerTable = dht.Table[kmer.Kmer, kanalysis.KmerData]

// replayXRT times the runtime's fixed costs at the workload's rank count:
// what thousands of tiny phases pay on the service workload.
func replayXRT(ranks, ranksPerNode int, budget time.Duration, res *results) {
	team := xrt.NewTeam(xrt.Config{Ranks: ranks, RanksPerNode: ranksPerNode, Seed: 1})
	const inner = 100
	units, secs := repeat(budget, timed(func() int64 {
		for i := 0; i < inner; i++ {
			team.Run(func(*xrt.Rank) {})
		}
		return inner
	}))
	res.set("xrt.team_run_us", secs*1e6/units)

	units, secs = repeat(budget, func() (int64, time.Duration) {
		ph := team.Run(func(r *xrt.Rank) {
			for i := 0; i < inner; i++ {
				r.Barrier()
			}
		})
		return inner, ph.Wall
	})
	res.set("xrt.barrier_us", secs*1e6/units)

	units, secs = repeat(budget, func() (int64, time.Duration) {
		ph := team.Run(func(r *xrt.Rank) {
			var sum int64
			for i := 0; i < inner; i++ {
				sum += r.AllReduceInt64(1, func(a, b int64) int64 { return a + b })
			}
			atomic.AddUint64(&sink, uint64(sum))
		})
		return inner, ph.Wall
	})
	res.set("xrt.allreduce_us", secs*1e6/units)

	// CPU time per remote-lookup charge: all ranks charge at once, so the
	// wall time is divided over the processors actually running them.
	const charges = 20000
	procs := runtime.GOMAXPROCS(0)
	if procs > ranks {
		procs = ranks
	}
	units, secs = repeat(budget, func() (int64, time.Duration) {
		ph := team.Run(func(r *xrt.Rank) {
			dst := (r.ID + 1) % ranks
			for i := 0; i < charges; i++ {
				r.ChargeLookup(dst, 26)
			}
		})
		return int64(charges * ranks), ph.Wall
	})
	res.set("xrt.charge_ns", secs*1e9*float64(procs)/units)
	res.set("xrt.newteam_kb", allocPer(20, func() {
		sink += uint64(xrt.NewTeam(xrt.Config{Ranks: ranks, RanksPerNode: ranksPerNode, Seed: 1}).Config().Ranks)
	})/1e3)
}

// replayIO times the input readers on the workload's own files.
func (in *asmInput) replayIO(budget time.Duration, res *results) error {
	ranks := in.opt.Ranks
	for _, lib := range in.libs {
		switch {
		case strings.HasSuffix(lib.Path, ".seqdb"):
			passes, secs, err := repeatErr(budget, func() (int64, error) {
				fl, err := seqdb.Open(lib.Path)
				if err != nil {
					return 1, err
				}
				for i := 0; i < ranks; i++ {
					recs, _, err := fl.ReadPart(ranks, i)
					if err != nil {
						return 1, err
					}
					sink += uint64(len(recs))
				}
				return 1, nil
			})
			if err != nil {
				return fmt.Errorf("seqdb replay: %w", err)
			}
			res.set("seqdb.read_ms", secs*1e3/passes)
		case lib.Path != "":
			passes, secs, err := repeatErr(budget, func() (int64, error) {
				fl, err := fastq.OpenSplit(lib.Path, ranks)
				if err != nil {
					return 1, err
				}
				defer fl.Close()
				for i := 0; i < ranks; i++ {
					recs, err := fl.ReadPart(i)
					if err != nil {
						return 1, err
					}
					sink += uint64(len(recs))
				}
				return 1, nil
			})
			if err != nil {
				return fmt.Errorf("fastq replay: %w", err)
			}
			res.set("fastq.read_ms", secs*1e3/passes)
			data, err := os.ReadFile(lib.Path)
			if err != nil {
				return err
			}
			bytes, secs, err := repeatErr(budget, func() (int64, error) {
				recs, err := fastq.ParseAll(data)
				sink += uint64(len(recs))
				return int64(len(data)), err
			})
			if err != nil {
				return fmt.Errorf("fastq replay: %w", err)
			}
			res.set("fastq.parse_mb_per_s", bytes/1e6/secs)
		}
	}
	return nil
}

// replayAligner builds the merAligner seed index over the workload's
// contigs and aligns its first library, one full pass.
func (in *asmInput) replayAligner(d *driven, k int, res *results) {
	team := xrt.NewTeam(xrt.Config{Ranks: in.opt.Ranks, RanksPerNode: in.opt.RanksPerNode, Seed: 1})
	t0 := time.Now()
	idx := aligner.BuildIndex(team, d.contigs.Contigs, aligner.Options{SeedLen: k})
	indexWall := time.Since(t0)
	t0 = time.Now()
	alns := aligner.AlignAll(team, idx, d.readLibs[0].ReadsByRank)
	alignWall := time.Since(t0)
	var reads, aligned float64
	for _, byRank := range alns {
		for _, as := range byRank {
			reads++
			if len(as) > 0 {
				aligned++
			}
		}
	}
	res.set("aligner.index_wall_ms", ms(indexWall))
	res.set("aligner.align_wall_ms", ms(alignWall))
	res.set("aligner.align_kreads_per_s", reads/1e3/alignWall.Seconds())
	res.set("aligner.virtual_ms", ms(team.VirtualNow()))
	res.set("aligner.aligned_frac", ratio(aligned, reads))
}

// replayCkpt times the read side of checkpointing on the segments the
// traced operation wrote: validated reads, decoding (including the k-mer
// table rebuild), decoding onto half the ranks, and a scrub pass.
func (in *asmInput) replayCkpt(d *driven, budget time.Duration, res *results) error {
	ranks := in.opt.Ranks
	store, err := ckpt.Resume(d.ckptDir, "benchmark-stage-driver")
	if err != nil {
		return err
	}
	entries := store.Stages()
	payloads := make([][]byte, len(entries))
	passes, secs, err := repeatErr(budget, func() (int64, error) {
		for i, e := range entries {
			if payloads[i], err = store.ReadStage(e.Name); err != nil {
				return 1, err
			}
		}
		return 1, nil
	})
	if err != nil {
		return fmt.Errorf("checkpoint replay: %w", err)
	}
	res.set("ckpt.read_ms", secs*1e3/passes)

	// decodeAll decodes every stage for a team of n ranks; for any n but
	// the writer's it takes the re-sharding codecs.
	decodeAll := func(n int) func() (int64, error) {
		team := xrt.NewTeam(xrt.Config{Ranks: n, RanksPerNode: in.opt.RanksPerNode, Seed: 1})
		same := n == ranks
		return func() (int64, error) {
			for i, e := range entries {
				st, b := e.Name, payloads[i]
				var err error
				switch {
				case strings.HasPrefix(st, "kmer-analysis"):
					_, err = ckpt.DecodeKmerStage(team, b, 0)
				case strings.HasPrefix(st, "contig-generation") && same:
					_, err = ckpt.DecodeContigStage(team, b)
				case strings.HasPrefix(st, "contig-generation"):
					_, err = ckpt.DecodeContigStageReshard(b, n)
				case (strings.HasPrefix(st, "tip-clip") || strings.HasPrefix(st, "bubble-pop")) && same:
					_, _, err = ckpt.DecodeCleaningStage(b, n)
				case strings.HasPrefix(st, "tip-clip"), strings.HasPrefix(st, "bubble-pop"):
					_, _, err = ckpt.DecodeCleaningStageReshard(b, n)
				case strings.HasPrefix(st, "pseudo-merge"):
					_, _, err = ckpt.DecodeCarryStage(b)
				case strings.HasPrefix(st, "scaffolding") && same:
					_, err = ckpt.DecodeScaffoldStage(team, b)
				case strings.HasPrefix(st, "scaffolding"):
					var sr *scaffold.Result
					if sr, _, err = ckpt.DecodeScaffoldStageAny(b); err == nil {
						err = ckpt.ReshardScaffoldContigs(sr, n)
					}
				case strings.HasPrefix(st, "gap-closing"):
					_, err = ckpt.DecodeGapcloseStage(b)
				}
				if err != nil {
					return 1, fmt.Errorf("%s: %w", st, err)
				}
			}
			return 1, nil
		}
	}
	if passes, secs, err = repeatErr(budget, decodeAll(ranks)); err != nil {
		return fmt.Errorf("checkpoint replay: %w", err)
	}
	res.set("ckpt.decode_ms", secs*1e3/passes)
	if passes, secs, err = repeatErr(budget, decodeAll(ranks/2)); err != nil {
		return fmt.Errorf("checkpoint replay: %w", err)
	}
	res.set("ckpt.reshard_ms", secs*1e3/passes)

	passes, secs, err = repeatErr(budget, func() (int64, error) {
		rep, err := ckpt.Scrub(d.ckptDir)
		if err == nil && rep.Dropped > 0 {
			err = fmt.Errorf("scrub dropped %d intact segments", rep.Dropped)
		}
		return 1, err
	})
	if err != nil {
		return fmt.Errorf("checkpoint replay: %w", err)
	}
	res.set("ckpt.scrub_ms", secs*1e3/passes)
	return nil
}
