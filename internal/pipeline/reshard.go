// Re-shard transforms for elastic rescale: a resume may rehydrate a
// checkpoint written at a different rank count, so per-rank state must be
// lifted out of the source partition into a partition-independent global
// order and re-dealt onto the target team. Two partition schemes exist:
//
//   - path libraries (FASTQ / SeqDB byte-range splits): concatenating the
//     per-rank parts in rank order reproduces file order at ANY rank
//     count (repairPairs only moves a record across an adjacent part
//     boundary, preserving the concatenation), so file order IS the
//     global order;
//   - in-memory record libraries: runIO deals pair j to rank j%p
//     (xrt.DealPairs), so the global order is recovered by un-dealing
//     (pair j sits at parts[j%p][2⌊j/p⌋..]) and the target layout by
//     re-dealing with the target p.
//
// Contig-shaped state re-shards by sorting on the globally deterministic
// content-hash IDs and round-robin dealing — the same owner-computes
// layout contig.ResultFromContigs produces, so a rescaled resume lands in
// exactly the partition a from-scratch run at the target rank count
// would compute.
package pipeline

import (
	"fmt"

	"hipmer/internal/ckpt"
	"hipmer/internal/scaffold"
	"hipmer/internal/xrt"
)

// globalFromPairDeal reconstructs the global element order from a
// round-robin pair deal over len(parts) ranks. The layout is validated
// first — a corrupt checkpoint may present per-rank counts no deal could
// have produced, and that must surface as an error, never a panic.
func globalFromPairDeal[T any](parts [][]T) ([]T, error) {
	p := len(parts)
	if p == 0 {
		return nil, fmt.Errorf("empty partition")
	}
	total := 0
	for r, part := range parts {
		if len(part)%2 != 0 {
			return nil, fmt.Errorf("rank %d holds %d records, not whole pairs", r, len(part))
		}
		total += len(part)
	}
	pairs := total / 2
	for r, part := range parts {
		want := pairs / p
		if r < pairs%p {
			want++
		}
		if len(part)/2 != want {
			return nil, fmt.Errorf("rank %d holds %d pairs, want %d in a %d-pair deal over %d ranks",
				r, len(part)/2, want, pairs, p)
		}
	}
	out := make([]T, 0, total)
	for j := 0; j < pairs; j++ {
		r, i := j%p, 2*(j/p)
		out = append(out, parts[r][i], parts[r][i+1])
	}
	return out, nil
}

// globalOrder lifts lib's per-rank parts into the partition-independent
// global order: file order (concatenation) for path libraries, un-dealt
// pair order for in-memory record libraries.
func globalOrder[T any](lib Library, parts [][]T) ([]T, error) {
	if lib.Path != "" {
		var out []T
		for _, part := range parts {
			out = append(out, part...)
		}
		return out, nil
	}
	return globalFromPairDeal(parts)
}

// dealToPartition redistributes global elements onto the target read
// partition, whose per-rank sizes are dstCounts (the re-run io stage's
// layout, which rank-parallel state like placements must match):
// sequential split for path libraries, round-robin pair deal for record
// libraries. Any size mismatch with the target layout is an error.
func dealToPartition[T any](lib Library, global []T, dstCounts []int) ([][]T, error) {
	if lib.Path != "" {
		out := make([][]T, len(dstCounts))
		off := 0
		for r, n := range dstCounts {
			if off+n > len(global) {
				return nil, fmt.Errorf("%d global records cannot fill target partition", len(global))
			}
			out[r] = global[off : off+n : off+n]
			off += n
		}
		if off != len(global) {
			return nil, fmt.Errorf("%d global records vs %d in target partition", len(global), off)
		}
		return out, nil
	}
	if len(global)%2 != 0 {
		return nil, fmt.Errorf("%d global records, not whole pairs", len(global))
	}
	out := xrt.DealPairs(global, len(dstCounts))
	for r, n := range dstCounts {
		if len(out[r]) != n {
			return nil, fmt.Errorf("re-dealt rank %d holds %d records, target io layout holds %d", r, len(out[r]), n)
		}
	}
	return out, nil
}

// reshardScaffold rehydrates a scaffolding result written at a different
// rank count onto the current team: surviving contigs are re-dealt by ID
// (the owner-computes layout downstream phases expect) and each
// library's read placements are lifted out of the source read partition
// and re-dealt parallel to this run's io partition — gap closing walks
// Placements[lib][rank] side by side with ReadsByRank[rank].
func reshardScaffold(env *stageEnv, res *scaffold.Result) error {
	p := env.team.Config().Ranks
	if err := ckpt.ReshardScaffoldContigs(res, p); err != nil {
		return err
	}
	if len(res.Placements) != len(env.readLibs) {
		return fmt.Errorf("checkpoint holds placements for %d libraries, run has %d",
			len(res.Placements), len(env.readLibs))
	}
	for li := range res.Placements {
		lib := env.libs[li]
		global, err := globalOrder(lib, res.Placements[li])
		if err != nil {
			return fmt.Errorf("library %s: %w", lib.Name, err)
		}
		dstCounts := make([]int, p)
		for r, part := range env.readLibs[li].ReadsByRank {
			dstCounts[r] = len(part)
		}
		dealt, err := dealToPartition(lib, global, dstCounts)
		if err != nil {
			return fmt.Errorf("library %s: %w", lib.Name, err)
		}
		res.Placements[li] = dealt
	}
	return nil
}
