// Package ckpt implements the stage-boundary checkpoint store: each
// pipeline stage's output is serialized into a versioned, checksummed
// segment file under a run directory, and a JSON manifest records the
// schema version, a config/input fingerprint, and a per-stage content
// hash. Resuming validates the fingerprint before trusting anything —
// a checkpoint taken under different inputs or knobs refuses to load —
// and every segment read re-verifies its CRC and content hash, so a
// truncated or bit-flipped file fails loudly instead of resuming into a
// silently wrong assembly.
//
// On-disk layout of a run directory:
//
//	MANIFEST.json      schema, fingerprint, per-stage entries
//	<stage>.seg        one segment per completed stage
//
// Segment format (little-endian):
//
//	magic   [8]byte  "HMCKSEG1" (format version in the last byte)
//	nameLen u32      stage-name length
//	name    []byte   stage name (ties the file to its manifest entry)
//	payLen  u64      payload length
//	payload []byte   stage codec output (see stage_codecs.go)
//	crc     u32      IEEE CRC-32 of everything above
//
// Both the manifest and segments are written to a temp file and renamed
// into place, so a crash mid-checkpoint leaves the previous consistent
// state: the manifest only ever references fully written segments.
package ckpt

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"hipmer/internal/xrt"
)

// Schema is the manifest schema version; a manifest carrying any other
// value refuses to load. v2: the k-mer stage payload gained table
// placement parameters (k, minimizer length) and super-k-mer transport
// counters. v3: stage entries carry an iterative-k round tag, contig
// payloads carry per-contig pseudo-read weights, and the cleaning and
// carry codecs (tip-clip / bubble-pop / pseudo-merge stages) joined the
// format. v4: the manifest records the writing run's topology (rank
// geometry) separately from the config/input fingerprint — which became
// rank-independent — so a resume may rehydrate the checkpoint onto a
// different rank count (elastic rescale) instead of refusing it. v5: stage
// entries no longer record the writing rank count (every payload with
// per-rank lists carries its own), and the fingerprint no longer hashes
// the zero words of removed knobs nor whether an oracle placement ran. v6:
// the scaffolding payload's contigs carry no mean depth and no termination
// metadata — only bubble merging reads them, from the contig stage. v7:
// the k-mer payload's header carries the minimizer bins' weights, which
// place its table (kanalysis.BinOwners at the loading team's rank count).
// v8: the k-mer payload's header drops the HyperLogLog distinct estimate,
// which stage 1 no longer takes. v9: the scaffolding payload carries one
// fixed-size placement per read (the top alignment's contig, interval and
// contig length) instead of every alignment of every read. v10: a k-mer
// payload entry is the k-mer, its count and its two extension codes (22
// bytes) — the eight extension-evidence words, which the table no longer
// holds, are gone — and the k-mer header drops PeakEntries, which is Kept;
// the fingerprint drops the zero word where the aggregating-stores buffer
// size was hashed.
const Schema = "hipmer-ckpt/v10"

// ManifestName is the manifest's filename inside a run directory.
const ManifestName = "MANIFEST.json"

const segMagic = "HMCKSEG1"

// Typed sentinel errors; all loading failures wrap one of these.
var (
	// ErrSchemaMismatch: the manifest was written by an incompatible
	// checkpoint format version.
	ErrSchemaMismatch = errors.New("ckpt: manifest schema mismatch")
	// ErrFingerprintMismatch: the checkpoint belongs to a different
	// config/input combination and must not seed a resume. The
	// fingerprint is rank-independent: a topology difference alone never
	// raises this error (a different rank count re-shards on load).
	ErrFingerprintMismatch = errors.New("ckpt: config/input fingerprint mismatch")
	// ErrCorruptSegment: a segment file failed its structural, CRC, or
	// content-hash validation.
	ErrCorruptSegment = errors.New("ckpt: corrupt segment")
	// ErrBadManifest: the manifest is unparsable or internally invalid.
	ErrBadManifest = errors.New("ckpt: bad manifest")
	// ErrNoStage: the requested stage has no manifest entry.
	ErrNoStage = errors.New("ckpt: stage not checkpointed")
	// ErrWriteRefused: an injected ENOSPC-style storage fault refused the
	// segment write; neither the segment nor a manifest entry exists. The
	// caller treats the stage as simply not checkpointed.
	ErrWriteRefused = errors.New("ckpt: segment write refused")
	// ErrUnrecoverableCkpt: the run directory cannot seed a resume even
	// after scrubbing — the manifest itself is missing or unparsable, so
	// there is no intact prefix to heal back to. Segment damage alone is
	// never unrecoverable (Scrub quarantines it and truncates to the
	// longest intact prefix, worst case a full recompute).
	ErrUnrecoverableCkpt = errors.New("ckpt: unrecoverable checkpoint")
)

// StageEntry is one completed stage's manifest record.
type StageEntry struct {
	Name string `json:"name"`
	// File is the segment's basename inside the run directory.
	File string `json:"file"`
	// Seq is the stage's position in pipeline order, informational.
	Seq int `json:"seq"`
	// Round is the iterative-k round the stage belongs to (1-based);
	// zero for stages outside the multi-k loop.
	Round int `json:"round,omitempty"`
	// Bytes is the full segment file size (header + payload + CRC).
	Bytes int64 `json:"bytes"`
	// CRC32 is the IEEE checksum stored at the segment tail, duplicated
	// here so manifest and segment must agree.
	CRC32 uint32 `json:"crc32"`
	// ContentHash is the FNV-64a of the payload alone: the deterministic
	// identity of the stage output, independent of framing.
	ContentHash string `json:"content_hash"`
}

// Topology records the rank geometry of the run that last wrote a
// checkpoint. It is deliberately kept out of the config/input
// fingerprint: stage payloads are globally canonical (or carry their own
// source partition), so a resume on a different rank count re-shards
// them instead of refusing. The record exists so a CLI resume without an
// explicit -ranks can adopt the geometry.
type Topology struct {
	// Ranks is the simulated processor count of the writing run.
	Ranks int `json:"ranks"`
	// RanksPerNode is the writing run's node grouping (affects only
	// locality accounting, never payload content).
	RanksPerNode int `json:"ranks_per_node"`
}

// Manifest is the run directory's index.
type Manifest struct {
	Schema      string       `json:"schema"`
	Fingerprint string       `json:"fingerprint"`
	Topology    Topology     `json:"topology"`
	Stages      []StageEntry `json:"stages"`
}

// ParseManifest decodes and validates manifest bytes: schema match,
// unique stage names, and segment filenames that cannot escape the run
// directory. It never panics on any input (fuzzed).
func ParseManifest(b []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadManifest, err)
	}
	if m.Schema != Schema {
		return nil, fmt.Errorf("%w: got %q, want %q", ErrSchemaMismatch, m.Schema, Schema)
	}
	if m.Topology.Ranks < 1 || m.Topology.RanksPerNode < 1 {
		return nil, fmt.Errorf("%w: invalid topology %+v", ErrBadManifest, m.Topology)
	}
	seen := make(map[string]bool, len(m.Stages))
	for _, e := range m.Stages {
		if e.Name == "" {
			return nil, fmt.Errorf("%w: entry with empty stage name", ErrBadManifest)
		}
		if seen[e.Name] {
			return nil, fmt.Errorf("%w: duplicate stage %q", ErrBadManifest, e.Name)
		}
		seen[e.Name] = true
		if e.File == "" || e.File != filepath.Base(e.File) ||
			strings.HasPrefix(e.File, ".") {
			return nil, fmt.Errorf("%w: stage %q has invalid segment file %q",
				ErrBadManifest, e.Name, e.File)
		}
		if e.Round < 0 {
			return nil, fmt.Errorf("%w: stage %q has negative round %d",
				ErrBadManifest, e.Name, e.Round)
		}
	}
	return &m, nil
}

// Store is an open checkpoint run directory.
type Store struct {
	dir string
	man Manifest
	// inj arms the storage fault segment writes are put through (see
	// SetDiskFault); the zero value damages nothing.
	inj xrt.Inject
	// frame is the buffer segments are framed in, reused from one stage
	// write to the next (each is on disk before WriteStageRound returns).
	frame []byte
}

// SetDiskFault arms inj's storage fault on the store's segment writes: the
// write of DiskFailStage's segment is damaged as inj.Apply says, or refused
// outright (no file and no manifest entry) on DiskFaultWriteRefused. The
// manifest entry is always computed from the clean segment bytes, so an
// injected corruption is indistinguishable from storage damage after a
// successful write — exactly the failure a later resume must detect.
func (s *Store) SetDiskFault(inj xrt.Inject) { s.inj = inj }

// Create starts a fresh run directory for the given fingerprint and
// topology, creating it if needed and truncating any previous manifest
// (stale segments are simply unreferenced; WriteStageRound replaces them
// by name).
func Create(dir, fingerprint string, topo Topology) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: creating run directory: %w", err)
	}
	sweepTemps(dir)
	s := &Store{dir: dir, man: Manifest{
		Schema: Schema, Fingerprint: fingerprint, Topology: topo,
	}}
	if err := writeManifest(s.dir, &s.man); err != nil {
		return nil, err
	}
	return s, nil
}

// Resume opens an existing run directory, refusing schema or fingerprint
// mismatches: a checkpoint from different inputs or a different config
// must never seed a resume. A topology difference is NOT refused: the
// fingerprint is rank-independent and stage loaders re-shard.
func Resume(dir, fingerprint string) (*Store, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if m.Fingerprint != fingerprint {
		return nil, fmt.Errorf("%w: checkpoint %q, run %q",
			ErrFingerprintMismatch, m.Fingerprint, fingerprint)
	}
	sweepTemps(dir)
	return &Store{dir: dir, man: *m}, nil
}

// AdoptTopology hands the run directory to a resumed run with a
// different rank geometry (elastic rescale): the manifest's topology —
// what ReadTopology reports and a later -resume without -ranks adopts —
// now names the latest run's geometry.
func (s *Store) AdoptTopology(topo Topology) error {
	if topo.Ranks < 1 || topo.RanksPerNode < 1 {
		return fmt.Errorf("%w: invalid topology %+v", ErrBadManifest, topo)
	}
	s.man.Topology = topo
	return writeManifest(s.dir, &s.man)
}

// ReadTopology reads just the recorded topology from a run directory's
// manifest, without opening the store — the CLI uses it to adopt the
// checkpoint's rank geometry before building a team.
func ReadTopology(dir string) (Topology, error) {
	m, err := readManifest(dir)
	if err != nil {
		return Topology{}, err
	}
	return m.Topology, nil
}

// Topology returns the rank geometry the manifest records: the run that
// created the directory's, or the latest adopter's.
func (s *Store) Topology() Topology { return s.man.Topology }

// Stages returns the manifest's stage entries in checkpoint order.
func (s *Store) Stages() []StageEntry { return s.man.Stages }

// Entry returns the named stage's manifest entry, nil when absent.
func (s *Store) Entry(stage string) *StageEntry {
	for i := range s.man.Stages {
		if s.man.Stages[i].Name == stage {
			return &s.man.Stages[i]
		}
	}
	return nil
}

// Completed reports whether the named stage has a checkpoint.
func (s *Store) Completed(stage string) bool { return s.Entry(stage) != nil }

// WriteStageRound persists one stage's payload: segment written
// atomically, then the manifest updated (replace-by-name or append) and
// rewritten atomically. round is the iterative-k round tag recorded in the
// manifest entry (0 for stages outside the multi-k loop). Returns the
// resulting entry.
func (s *Store) WriteStageRound(stage string, round int, payload []byte) (StageEntry, error) {
	seg, crc := appendSegment(s.frame[:0], stage, payload)
	s.frame = seg
	file := segFileName(stage)
	path := filepath.Join(s.dir, file)
	toDisk, kind := s.inj.Apply(stage, seg)
	if kind == xrt.DiskFaultWriteRefused {
		return StageEntry{}, fmt.Errorf("%w: %s", ErrWriteRefused, stage)
	}
	if toDisk == nil {
		// Injected segment loss: the manifest entry below still lands, so
		// the directory looks exactly like a file vanished after a clean
		// write. Any stale segment from a replaced stage must go too.
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return StageEntry{}, fmt.Errorf("ckpt: removing segment for %s: %w", stage, err)
		}
	} else if err := atomicWrite(path, toDisk); err != nil {
		return StageEntry{}, fmt.Errorf("ckpt: writing segment for %s: %w", stage, err)
	}
	entry := StageEntry{
		Name:        stage,
		File:        file,
		Seq:         len(s.man.Stages),
		Round:       round,
		Bytes:       int64(len(seg)),
		CRC32:       crc,
		ContentHash: hashHex(payload),
	}
	replaced := false
	for i := range s.man.Stages {
		if s.man.Stages[i].Name == stage {
			entry.Seq = s.man.Stages[i].Seq
			s.man.Stages[i] = entry
			replaced = true
			break
		}
	}
	if !replaced {
		s.man.Stages = append(s.man.Stages, entry)
	}
	if err := writeManifest(s.dir, &s.man); err != nil {
		return StageEntry{}, err
	}
	return entry, nil
}

// ReadStage loads and fully validates one stage's payload (see
// checkSegment).
func (s *Store) ReadStage(stage string) ([]byte, error) {
	e := s.Entry(stage)
	if e == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoStage, stage)
	}
	b, err := os.ReadFile(filepath.Join(s.dir, e.File))
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading segment for %s: %w", stage, err)
	}
	return checkSegment(b, *e)
}

// checkSegment is the full validation of a segment's bytes against its
// manifest entry — file size, framing and stored CRC, manifest CRC,
// content hash must all agree — and returns the payload.
func checkSegment(b []byte, e StageEntry) ([]byte, error) {
	if int64(len(b)) != e.Bytes {
		return nil, fmt.Errorf("%w: %s: %d bytes on disk, manifest says %d",
			ErrCorruptSegment, e.Name, len(b), e.Bytes)
	}
	payload, err := ParseSegment(b, e.Name)
	if err != nil {
		return nil, err
	}
	if got := crc32.ChecksumIEEE(b[:len(b)-4]); got != e.CRC32 {
		return nil, fmt.Errorf("%w: %s: CRC %08x, manifest says %08x",
			ErrCorruptSegment, e.Name, got, e.CRC32)
	}
	if got := hashHex(payload); got != e.ContentHash {
		return nil, fmt.Errorf("%w: %s: content hash %s, manifest says %s",
			ErrCorruptSegment, e.Name, got, e.ContentHash)
	}
	return payload, nil
}

// ValidateSegmentBytes runs the full ReadStage validation against
// in-memory segment bytes, so property tests can sweep corruptions without
// rewriting files.
func ValidateSegmentBytes(b []byte, e StageEntry) error {
	_, err := checkSegment(b, e)
	return err
}

// appendSegment frames a payload onto b (see the package comment for
// layout) and returns the segment with the CRC stored at its tail.
func appendSegment(b []byte, stage string, payload []byte) ([]byte, uint32) {
	b = slices.Grow(b, len(segMagic)+4+len(stage)+8+len(payload)+4)
	b = append(b, segMagic...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(stage)))
	b = append(b, stage...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	b = append(b, payload...)
	crc := crc32.ChecksumIEEE(b)
	return binary.LittleEndian.AppendUint32(b, crc), crc
}

// ParseSegment validates a segment's framing and embedded CRC and
// returns the payload. wantStage "" skips the name check. Never panics
// on any input (fuzzed).
func ParseSegment(b []byte, wantStage string) ([]byte, error) {
	if len(b) < len(segMagic)+4+8+4 {
		return nil, fmt.Errorf("%w: short segment (%d bytes)", ErrCorruptSegment, len(b))
	}
	if string(b[:len(segMagic)]) != segMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptSegment)
	}
	if got := crc32.ChecksumIEEE(b[:len(b)-4]); got != binary.LittleEndian.Uint32(b[len(b)-4:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptSegment)
	}
	off := len(segMagic)
	nameLen := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if nameLen < 0 || nameLen > len(b)-off-8-4 {
		return nil, fmt.Errorf("%w: bad name length", ErrCorruptSegment)
	}
	name := string(b[off : off+nameLen])
	off += nameLen
	if wantStage != "" && name != wantStage {
		return nil, fmt.Errorf("%w: segment names stage %q, want %q",
			ErrCorruptSegment, name, wantStage)
	}
	payLen := binary.LittleEndian.Uint64(b[off:])
	off += 8
	if payLen != uint64(len(b)-off-4) {
		return nil, fmt.Errorf("%w: bad payload length", ErrCorruptSegment)
	}
	return b[off : len(b)-4], nil
}

// segFileName maps a stage name to its segment basename; stage names are
// pipeline identifiers ([a-z0-9-]), already filesystem-safe.
func segFileName(stage string) string { return stage + ".seg" }

// atomicWrite writes bytes via temp file + rename, so readers never see
// a partially written file.
func atomicWrite(path string, b []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// readManifest reads and validates a run directory's manifest.
func readManifest(dir string) (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading manifest: %w", err)
	}
	return ParseManifest(b)
}

// writeManifest replaces a run directory's manifest atomically.
func writeManifest(dir string, m *Manifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("ckpt: encoding manifest: %w", err)
	}
	if err := atomicWrite(filepath.Join(dir, ManifestName), append(b, '\n')); err != nil {
		return fmt.Errorf("ckpt: writing manifest: %w", err)
	}
	return nil
}

func hashHex(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Fingerprint accumulates the config knobs and input bytes that shape
// stage outputs into a 64-bit FNV-1a digest. Length-prefixing every
// field keeps adjacent fields from aliasing.
type Fingerprint struct {
	h uint64
}

// NewFingerprint starts an empty digest.
func NewFingerprint() *Fingerprint {
	return &Fingerprint{h: 0xcbf29ce484222325} // FNV-64a offset basis
}

func (f *Fingerprint) add(b byte) {
	f.h ^= uint64(b)
	f.h *= 0x100000001b3 // FNV-64a prime
}

// Int folds a signed integer.
func (f *Fingerprint) Int(v int64) {
	for i := 0; i < 8; i++ {
		f.add(byte(uint64(v) >> (8 * i)))
	}
}

// Bool folds a flag.
func (f *Fingerprint) Bool(v bool) {
	if v {
		f.add(1)
	} else {
		f.add(0)
	}
}

// Bytes folds a length-prefixed byte string.
func (f *Fingerprint) Bytes(b []byte) {
	f.Int(int64(len(b)))
	for _, c := range b {
		f.add(c)
	}
}

// Str folds a length-prefixed string.
func (f *Fingerprint) Str(s string) {
	f.Int(int64(len(s)))
	for i := 0; i < len(s); i++ {
		f.add(s[i])
	}
}

// Hex returns the digest as a fixed-width hex string.
func (f *Fingerprint) Hex() string { return fmt.Sprintf("%016x", f.h) }
