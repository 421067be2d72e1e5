package pipeline

import (
	"os"
	"path/filepath"
	"testing"

	"hipmer/internal/ckpt"
	"hipmer/internal/metrics"
	"hipmer/internal/verify"
	"hipmer/internal/xrt"
)

func sumCommField(rep *metrics.Report, field func(metrics.Comm) int64) int64 {
	var n int64
	for _, st := range rep.Stages {
		n += field(st.Comm)
	}
	return n
}

// diskKindSeeds maps each damage kind to a seed that selects it
// (Kind() = 1 + seed mod 4), mirroring the sweep's seed choice.
var diskKindSeeds = map[xrt.DiskFaultKind]int64{
	xrt.DiskFaultBitFlip:      21,
	xrt.DiskFaultDelete:       22,
	xrt.DiskFaultWriteRefused: 23,
	xrt.DiskFaultTornWrite:    24,
}

// TestDiskFaultHealsEveryKind is the self-healing contract per damage
// kind: the faulted run itself completes bit-identically (damage lands
// only on disk) and counts the fault; a later disarmed resume detects
// the damage, scrubs (except for a refused write, which left no
// manifest entry to distrust), recomputes the damaged stage, and again
// matches the uninterrupted assembly.
func TestDiskFaultHealsEveryKind(t *testing.T) {
	libs := smallLibs(26)
	const stage = "scaffolding"
	base, err := Run(ckTeam(), libs, Config{K: 21, MinCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	baseSet := verify.CanonicalSet(base.FinalSeqs)

	for kind, seed := range diskKindSeeds {
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			res, err := Run(armedTeam(xrt.Inject{DiskFaultSeed: seed, DiskFailStage: stage}), libs,
				Config{K: 21, MinCount: 2, CkptDir: dir})
			if err != nil {
				t.Fatalf("faulted run failed: %v", err)
			}
			if !verify.EqualSets(baseSet, verify.CanonicalSet(res.FinalSeqs)) {
				t.Fatal("disk fault changed the faulted run's assembly")
			}
			if n := sumCommField(res.Metrics, func(c metrics.Comm) int64 { return c.DiskFaults }); n != 1 {
				t.Fatalf("faulted run counted %d disk faults, want 1", n)
			}

			heal, err := Run(ckTeam(), libs, Config{
				K: 21, MinCount: 2, CkptDir: dir, Resume: true,
			})
			if err != nil {
				t.Fatalf("healing resume failed: %v", err)
			}
			if !verify.EqualSets(baseSet, verify.CanonicalSet(heal.FinalSeqs)) {
				t.Fatal("healed resume diverged from uninterrupted run")
			}
			if heal.Metrics.Stage(stage) == nil {
				t.Fatalf("damaged stage %s was not recomputed", stage)
			}
			scrubbed := sumCommField(heal.Metrics, func(c metrics.Comm) int64 { return c.ScrubRepairedBytes })
			if kind == xrt.DiskFaultWriteRefused {
				// A refused write records no manifest entry: the resume just
				// recomputes; there is nothing to scrub.
				if scrubbed != 0 {
					t.Fatalf("refused write still repaired %d bytes", scrubbed)
				}
			} else {
				if scrubbed <= 0 {
					t.Fatal("healing resume reported no scrub_repaired_bytes")
				}
				st := heal.Metrics.Stage("checkpoint-scrub")
				if st == nil || st.Counters["scrub_repaired_bytes"] <= 0 {
					t.Fatal("missing checkpoint-scrub span with scrub_repaired_bytes")
				}
			}
			// A second resume finds a clean directory: no scrub, everything
			// rehydrates, same assembly.
			again, err := Run(ckTeam(), libs, Config{
				K: 21, MinCount: 2, CkptDir: dir, Resume: true,
			})
			if err != nil {
				t.Fatalf("post-heal resume failed: %v", err)
			}
			if again.Metrics.Stage("checkpoint-scrub") != nil {
				t.Fatal("post-heal resume scrubbed again; the heal did not stick")
			}
			if !verify.EqualSets(baseSet, verify.CanonicalSet(again.FinalSeqs)) {
				t.Fatal("post-heal resume diverged")
			}
		})
	}
}

// TestDiskFaultMultiKHeals runs the same contract inside the
// iterative-k ladder, damaging a middle round's cleaning checkpoint.
func TestDiskFaultMultiKHeals(t *testing.T) {
	_, libs := metaLibs(32)
	cfg := multiKCfg()
	base, err := Run(ckTeam(), libs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseSet := verify.CanonicalSet(base.FinalSeqs)

	dir := t.TempDir()
	fcfg := cfg
	fcfg.CkptDir = dir
	bitFlip := xrt.Inject{DiskFaultSeed: 21, DiskFailStage: "tip-clip-k33"}
	res, err := Run(armedTeam(bitFlip), libs, fcfg)
	if err != nil {
		t.Fatalf("faulted multi-k run failed: %v", err)
	}
	if !verify.EqualSets(baseSet, verify.CanonicalSet(res.FinalSeqs)) {
		t.Fatal("disk fault changed the multi-k assembly")
	}

	rcfg := cfg
	rcfg.CkptDir = dir
	rcfg.Resume = true
	heal, err := Run(ckTeam(), libs, rcfg)
	if err != nil {
		t.Fatalf("healing multi-k resume failed: %v", err)
	}
	if !verify.EqualSets(baseSet, verify.CanonicalSet(heal.FinalSeqs)) {
		t.Fatal("healed multi-k resume diverged")
	}
	if sumCommField(heal.Metrics, func(c metrics.Comm) int64 { return c.ScrubRepairedBytes }) <= 0 {
		t.Fatal("multi-k heal reported no scrub_repaired_bytes")
	}
	if heal.Metrics.Stage("tip-clip-k33") == nil {
		t.Fatal("damaged round stage was not recomputed")
	}
}

// TestByteFlipDetectionCompleteness is the detection-completeness
// property: for every checkpoint segment a real single-k AND multi-k
// run writes, flipping any single byte is detected by the validation a
// resume applies (size + framing CRC + manifest CRC + content hash).
// Large segments are stride-sampled with the header and trailer swept
// exhaustively; CRC32 catches every single-bit error regardless of
// position, so the sample proves the plumbing, not the math.
func TestByteFlipDetectionCompleteness(t *testing.T) {
	type run struct {
		name string
		dir  string
	}
	var runs []run

	dirS := t.TempDir()
	if _, err := Run(ckTeam(), smallLibs(27), Config{K: 21, MinCount: 2, CkptDir: dirS}); err != nil {
		t.Fatal(err)
	}
	runs = append(runs, run{"single-k", dirS})

	dirM := t.TempDir()
	_, libs := metaLibs(33)
	cfgM := multiKCfg()
	cfgM.CkptDir = dirM
	if _, err := Run(ckTeam(), libs, cfgM); err != nil {
		t.Fatal(err)
	}
	runs = append(runs, run{"multi-k", dirM})

	for _, r := range runs {
		store, err := ckpt.Resume(r.dir, readFingerprint(t, r.dir))
		if err != nil {
			t.Fatal(err)
		}
		entries := store.Stages()
		if len(entries) == 0 {
			t.Fatalf("%s: checkpoint recorded no stages", r.name)
		}
		checked := 0
		for _, e := range entries {
			seg, err := os.ReadFile(filepath.Join(r.dir, e.File))
			if err != nil {
				t.Fatal(err)
			}
			for _, off := range flipOffsets(len(seg)) {
				mut := append([]byte(nil), seg...)
				mut[off] ^= 1 << (off % 8)
				if ckpt.ValidateSegmentBytes(mut, e) == nil {
					t.Fatalf("%s: flip at %s byte %d of %d went undetected",
						r.name, e.Name, off, len(seg))
				}
				checked++
			}
		}
		t.Logf("%s: %d flips across %d segments all detected", r.name, checked, len(entries))
	}
}

// readFingerprint recovers the fingerprint a run recorded so the test
// can reopen its checkpoint without recomputing the config hash.
func readFingerprint(t *testing.T, dir string) string {
	t.Helper()
	mb, err := os.ReadFile(filepath.Join(dir, ckpt.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ckpt.ParseManifest(mb)
	if err != nil {
		t.Fatal(err)
	}
	return m.Fingerprint
}

// flipOffsets samples byte offsets: every byte for small segments,
// otherwise the first and last 64 (framing header, payload-length field,
// trailing CRC) plus an even stride through the payload.
func flipOffsets(n int) []int {
	if n <= 2048 {
		offs := make([]int, n)
		for i := range offs {
			offs[i] = i
		}
		return offs
	}
	seen := map[int]bool{}
	var offs []int
	add := func(i int) {
		if i >= 0 && i < n && !seen[i] {
			seen[i] = true
			offs = append(offs, i)
		}
	}
	for i := 0; i < 64; i++ {
		add(i)
		add(n - 1 - i)
	}
	for i := 0; i < n; i += n / 512 {
		add(i)
	}
	return offs
}
