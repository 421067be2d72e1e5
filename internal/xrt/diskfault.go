package xrt

// Storage fault injection. Inject.DiskFaultSeed, with DiskFailStage,
// deterministically damages the checkpoint segment one stage writes,
// standing in for the parallel-file-system failure modes a real
// extreme-scale run sees — torn writes, bit-rot, lost files, and
// ENOSPC-style write refusals.
//
// Determinism contract: like the other injections, a disk fault never
// changes what an assembly computes. The damaged bytes land only on
// disk; the in-memory pipeline state and the manifest entry (computed
// from the clean segment, exactly as if the damage happened after a
// successful write) are untouched, so the faulted run's output is
// bit-identical to a fault-free run. The damage is observed only by a
// LATER resume, which detects it (CRC/content-hash validation), scrubs
// it away, and recomputes — paying virtual time and the DiskFaults/
// ScrubRepairedBytes counters, never correctness.
//
// Every decision (fault kind, torn-write offset, flipped bit) is drawn
// from its own Splitmix64 stream, decoupled from the other injections'
// streams, so arming a disk fault cannot perturb another one's decision.
// The kind cycles with the seed (1 + seed mod 4), so a sweep over four
// consecutive seeds covers all four fault kinds.

// DiskFaultKind names the storage failure mode a disk fault injects.
type DiskFaultKind int

const (
	// DiskFaultNone: the write was not targeted; nothing was damaged.
	DiskFaultNone DiskFaultKind = iota
	// DiskFaultTornWrite truncates the segment at a seeded offset — the
	// classic partial write of a node dying mid-checkpoint.
	DiskFaultTornWrite
	// DiskFaultBitFlip flips one seeded bit of the segment — bit-rot or
	// a corrupted transfer that the file system did not catch.
	DiskFaultBitFlip
	// DiskFaultDelete loses the segment file entirely while the
	// manifest still references it.
	DiskFaultDelete
	// DiskFaultWriteRefused refuses the write outright (ENOSPC): no
	// segment and no manifest entry; the stage is simply not
	// checkpointed.
	DiskFaultWriteRefused
)

func (k DiskFaultKind) String() string {
	switch k {
	case DiskFaultTornWrite:
		return "torn-write"
	case DiskFaultBitFlip:
		return "bit-flip"
	case DiskFaultDelete:
		return "delete"
	case DiskFaultWriteRefused:
		return "write-refused"
	default:
		return "none"
	}
}

// diskFaultSalt decouples the disk-fault decision stream from the other
// injections' seeds.
const diskFaultSalt = 0xd15c0fa17

// Kind returns the failure mode the armed disk fault injects. It depends
// only on the seed (1 + seed mod 4), so harnesses can pick seeds that
// cover specific kinds without knowing the segment contents.
func (in Inject) Kind() DiskFaultKind {
	if in.DiskFaultSeed == 0 || in.DiskFailStage == "" {
		return DiskFaultNone
	}
	return DiskFaultKind(1 + uint64(in.DiskFaultSeed)%4)
}

// Apply damages the framed segment bytes a stage is about to persist.
// It returns the bytes to write in place of seg (nil = write no file)
// and the injected kind; no disk fault or a non-target stage returns seg
// unchanged with DiskFaultNone. Apply never mutates seg.
func (in Inject) Apply(stage string, seg []byte) ([]byte, DiskFaultKind) {
	kind := in.Kind()
	if kind == DiskFaultNone || stage != in.DiskFailStage {
		return seg, DiskFaultNone
	}
	x := Splitmix64(uint64(in.DiskFaultSeed) ^ diskFaultSalt)
	switch kind {
	case DiskFaultTornWrite:
		if len(seg) < 2 {
			return nil, kind
		}
		cut := 1 + int(x%uint64(len(seg)-1))
		return seg[:cut:cut], kind
	case DiskFaultBitFlip:
		if len(seg) == 0 {
			return seg, kind
		}
		out := make([]byte, len(seg))
		copy(out, seg)
		bit := Splitmix64(x) % 8
		out[x%uint64(len(seg))] ^= 1 << bit
		return out, kind
	case DiskFaultDelete:
		return nil, kind
	default: // DiskFaultWriteRefused
		return nil, kind
	}
}
