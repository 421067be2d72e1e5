package aligner

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hipmer/internal/contig"
	"hipmer/internal/fastq"
	"hipmer/internal/genome"
	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from this tree's results")

// golden is what indexing a fixed contig set and aligning a fixed read set
// must reproduce exactly: every field of every alignment of every read,
// and every charge the two phases made, rank by rank.
type golden struct {
	Reads, Aligned, Alignments int
	Alns                       string // sha256 over every Alignment field, read by read
	Charges                    string // sha256 over the index-build and align span records
}

type goldenCase struct {
	name         string
	kind         string
	ranks, perNd int
	opt          Options
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, kind := range []string{"human", "wheat"} {
		for _, ranks := range []int{1, 8, 96} {
			perNd := 24
			if ranks < perNd {
				perNd = (ranks + 1) / 2
			}
			cases = append(cases, goldenCase{fmt.Sprintf("%s-seed19-%dranks", kind, ranks), kind, ranks, perNd, Options{}})
		}
		// the seed length scaffolding uses (k) and a two-word seed
		cases = append(cases,
			goldenCase{kind + "-seed31-8ranks", kind, 8, 4, Options{SeedLen: 31}},
			goldenCase{kind + "-seed51-8ranks", kind, 8, 4, Options{SeedLen: 51}})
	}
	// a rank's reads span several of AlignAll's chunks, and every seed
	// batch but the local one crosses nodes
	cases = append(cases, goldenCase{"human-seed19-2ranks", "human", 2, 1, Options{}})
	return cases
}

// goldenInput cuts a genome into contigs (uneven pieces separated by small
// gaps, every third one reverse-complemented) and samples error-bearing
// pairs from it. Two reads carry an N and a lower-case stretch.
func goldenInput(kind string) (ctgs []*contig.Contig, recs []fastq.Record) {
	rng := xrt.NewPrng(map[string]int64{"human": 21, "wheat": 22}[kind])
	var g []byte
	if kind == "wheat" {
		g = genome.WheatLike(rng, 30000)
	} else {
		g = genome.HumanLike(rng, 30000)
	}
	for pos, i := 0, 0; pos < len(g); i++ {
		n := 150 + rng.Intn(2500)
		if pos+n > len(g) {
			n = len(g) - pos
		}
		seq := g[pos : pos+n]
		if i%3 == 2 {
			seq = kmer.RevCompString(seq)
		}
		ctgs = append(ctgs, &contig.Contig{ID: int64(i + 1), Seq: seq})
		pos += n + rng.Intn(120)
	}
	recs, _ = genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 6,
		Lib:      genome.Library{Name: kind, ReadLen: 100, InsertMean: 300, InsertSD: 20},
		Err:      genome.DefaultErrorModel(),
	})
	recs[0].Seq[40] = 'N'
	recs[3].Seq[70] = 'N'
	for i := 10; i < 30; i++ {
		recs[1].Seq[i] |= 0x20
		recs[2].Seq[i+50] |= 0x20
	}
	return ctgs, recs
}

func runGolden(c goldenCase) golden {
	ctgs, recs := goldenInput(c.kind)
	team := xrt.NewTeam(xrt.Config{Ranks: c.ranks, RanksPerNode: c.perNd, Seed: 1})
	byRank := make([][]*contig.Contig, c.ranks)
	for i, ctg := range ctgs {
		byRank[i%c.ranks] = append(byRank[i%c.ranks], ctg)
	}
	reads := make([][]fastq.Record, c.ranks)
	for i := 0; i+1 < len(recs); i += 2 {
		r := (i / 2) % c.ranks
		reads[r] = append(reads[r], recs[i], recs[i+1])
	}
	idx := BuildIndex(team, byRank, c.opt)
	alns := AlignAll(team, idx, reads)

	g := golden{}
	h := sha256.New()
	put := func(v any) { binary.Write(h, binary.LittleEndian, v) }
	for _, rr := range alns {
		for _, as := range rr {
			g.Reads++
			if len(as) > 0 {
				g.Aligned++
			}
			g.Alignments += len(as)
			put(int64(len(as)))
			for _, a := range as {
				put([]int64{a.ContigID, int64(a.RStart), int64(a.REnd), int64(a.CStart), int64(a.CEnd),
					int64(a.Matches), int64(a.Score), int64(a.ReadLen), int64(a.ContigLen)})
				put(a.Flipped)
			}
		}
	}
	g.Alns = hex.EncodeToString(h.Sum(nil))
	g.Charges = chargeDigest(team)
	return g
}

// chargeDigest hashes every span the team recorded: its virtual duration
// and, per rank, the busy time and the full CommStats delta.
func chargeDigest(team *xrt.Team) string {
	h := sha256.New()
	put := func(v any) { binary.Write(h, binary.LittleEndian, v) }
	for _, sp := range team.Spans() {
		h.Write([]byte(sp.Path))
		put(int64(sp.VirtualNs))
		for _, rd := range sp.Ranks {
			put(int64(rd.WorkNs))
			put(rd.Comm)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenAlignmentsAndCharges pins the aligner's observable behaviour
// to goldens generated at the commit before its inner loops moved onto
// rolling k-mers and per-rank scratch: every alignment of every read, and
// — the one-for-one charge rule — every rank's seed lookups, contig
// fetches, cache hits and store batches in both phases. The Charges were
// last regenerated when clocks came to count whole nanoseconds, each
// charge rounded once; Alns did not move. Regenerate with -update-golden
// only for an intended behaviour change.
func TestGoldenAlignmentsAndCharges(t *testing.T) {
	path := filepath.Join("testdata", "golden.json")
	got := make(map[string]golden)
	for _, c := range goldenCases() {
		got[c.name] = runGolden(c)
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading goldens (regenerate with -update-golden): %v", err)
	}
	want := make(map[string]golden)
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, test has %d", len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no golden", name)
		} else if g != w {
			t.Errorf("%s:\n got  %+v\n want %+v", name, g, w)
		}
	}
}
