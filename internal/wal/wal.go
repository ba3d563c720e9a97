// Package wal is the durability layer of the PPC runtime: an append-only,
// segment-rotated write-ahead log of learner events. A learner logs every
// event — a labeled plan space point, a correction site's new state —
// through the Appender seam before the event takes effect in memory, so a
// crash loses no acknowledged training signal: recovery loads the latest
// checkpoint and replays only the WAL tail (records newer than what the
// checkpoint's learners had applied), and a replica replays the same
// records as they are shipped.
//
// Design constraints, in order:
//
//   - The hot predict path never touches disk. Appends happen under the
//     learner write lock (core.Online.mu), which the lock-free serving path
//     does not take; in steady state only the per-template background
//     applier goroutines reach Append.
//   - A torn tail (crash mid-record) is expected, not exceptional: Scan
//     stops at the first invalid frame of the final segment and reports how
//     many bytes it ignored; Open truncates the tear so the log is clean
//     for the next writer.
//   - Append-path failures degrade durability, never availability: the
//     caller counts the error and keeps applying in memory.
//
// On-disk layout: dir/wal-<firstseq>.log segments, each opened by a magic
// string and a version, followed by length-prefixed, CRC-32C-framed records
// (the same Castagnoli framing convention as the snapshot envelopes in
// persist.go):
//
//	segment: "PPCWAL\x00" u16 version | record*
//	record:  u32 payloadLen | u32 crc32c(payload) | payload
//	payload: u8 kind | u64 seq | u64 epoch | u16 len(template) template | tail
//	tail (kind 1, feedback; epoch = the learner's drift-reset epoch, i64):
//	         i64 plan | f64 cost | u8 selfLabeled | u16 dims | f64*dims
//	tail (kind 2, correction; epoch = the correction epoch after the update):
//	         u32 site | f64 logc | u64 n | f64 ref
//	tail (kind 3, retired: an older build's tunable-LSH re-tune):
//	         bytes, read by the payload length and never interpreted
//
// A record kind is declared once, as an entry of the kinds table: the size
// of its tail's fixed part, the length of the variable part, an encoder, a
// length check and a decoder for the tail. The prefix, the frame, the
// checksum and every length check are written once around the table
// (AppendFrame, checkFrame), and a kind's smallest payload is its own — the
// prefix plus its fixed part — not another kind's. Segment bytes are
// likewise read in one place, readSegment, from a byte offset to an end:
// recovery reads a segment from its start to its end of file, and a
// Follower from where its last poll stopped to where the Log says the
// segment's committed frames end.
//
// Sequence numbers are global, monotonically increasing, and never reused;
// segment file names carry the first sequence number the segment may
// contain, so compaction can drop a fully checkpointed segment without
// reading it.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/obsv"
)

const (
	// segMagic opens every segment file.
	segMagic = "PPCWAL\x00"
	// segVersion is the current segment format version.
	segVersion = 1
	// headerSize is the segment header length in bytes.
	headerSize = len(segMagic) + 2
	// frameOverhead is the per-record framing cost (length + checksum).
	frameOverhead = 8
	// maxPayload bounds a declared record length so a corrupted length
	// field cannot drive a huge allocation during scan.
	maxPayload = 1 << 20
	// minPayload is the prefix every payload opens with, at an empty
	// template name: kind, seq, epoch, name length. A kind's own minimum is
	// this plus its tail's fixed part (kinds).
	minPayload = 1 + 8 + 8 + 2
	// The fixed parts of the live tails (layouts in the package comment).
	feedbackFixed   = 8 + 8 + 1 + 2
	correctionFixed = 4 + 8 + 8 + 8

	// defaultSegmentBytes rotates segments at 4 MiB.
	defaultSegmentBytes = 4 << 20
	// syncInterval is the fsync cadence under SyncInterval.
	syncInterval = 100 * time.Millisecond
)

// walCRC is the Castagnoli polynomial table (the same family as the
// snapshot envelopes in persist.go and internal/core).
var walCRC = crc32.MakeTable(crc32.Castagnoli)

var le = binary.LittleEndian

// Record kinds. The kind byte is first in every payload so the framing is
// shared; unknown kinds stop a scan (they cannot be skipped trustably), so a
// kind no build writes any more stays declared, as retired.
const (
	// RecordFeedback is one labeled plan space point for a learner.
	RecordFeedback uint8 = 1
	// RecordCorrection is one adaptive-statistics correction site update:
	// the absolute post-update EWMA state, so replay is idempotent.
	RecordCorrection uint8 = 2
	// RecordRetiredRetune is retired: the tunable-LSH re-tune event older
	// builds logged. A log or a ship stream may still hold one, so its
	// frames are checksummed and read whole by their length, and replay
	// counts it stale; nothing encodes one, and Append refuses it.
	RecordRetiredRetune uint8 = 3
)

// Record is the one durable form of a learner event: what a writer hands
// the Appender, what a segment frames, what the ship stream carries and what
// core's replay switch consumes. Kind selects which fields are live; a zero
// Kind encodes as RecordFeedback, so pre-correction callers that never set
// it are unchanged. Seq is assigned by Append.
//
// Feedback fields: Epoch is the learner's drift-reset epoch at the point's
// creation, which makes replay reproduce reset semantics (a stale point is
// dropped, a point from a newer epoch implies the resets between).
//
// Correction fields: CorrEpoch is the template's correction epoch after the
// update; Site/LogC/N/Ref are the site's absolute post-update state.
//
// A retired kind's record is its prefix alone, the epoch slot in Epoch: replay
// counts it stale and a ship stream forwards its frame as read, so no reader
// needs its tail.
type Record struct {
	Kind        uint8
	Seq         uint64
	Epoch       int64
	Template    string
	Plan        int64
	Cost        float64
	SelfLabeled bool
	Point       []float64

	CorrEpoch uint64
	Site      uint32
	LogC      float64
	N         uint64
	Ref       float64
}

// MaxTemplateName bounds a template name in bytes: a record frames the name
// under a u16 length, and the wire protocol and the snapshot envelope carry
// it under the same prefix. Register rejects longer names, so encodeFrame
// never wraps the length.
const MaxTemplateName = math.MaxUint16

// Appender is the seam a writer of learner events logs through: core's
// learner and stats' corrections hand it the record they are about to
// apply, under the lock that guards the state the record describes, and
// apply only afterwards — so a checkpoint's applied-sequence watermark never
// claims a record the checkpoint does not contain. *Log is one; the facade
// wraps it to stamp the template name; tests substitute an in-memory one.
type Appender interface {
	// Append assigns rec.Seq and logs the record. Seq 0 with a nil error
	// means the log declined it (an injected dead log). Errors degrade
	// durability, never availability: the caller applies in memory
	// regardless.
	Append(rec *Record) (seq uint64, err error)
	// Commit is the group-commit barrier, called once per apply batch after
	// the writer's lock is released (an fsync must not stall it).
	Commit() error
}

// ByTemplate groups records by template, keeping log order within each
// group — the only order replay depends on, since templates share no
// learned state.
func ByTemplate(recs []Record) map[string][]Record {
	out := make(map[string][]Record)
	for _, r := range recs {
		out[r.Template] = append(out[r.Template], r)
	}
	return out
}

// SyncPolicy selects when Commit calls fsync. The zero value is SyncAlways:
// a durability layer should be durable unless the operator opts out.
type SyncPolicy int

const (
	// SyncAlways fsyncs on every Commit. A template's learner commits once
	// per apply batch — its feedback points and its runs' correction
	// observations together — so group commit amortizes the cost across
	// the batch.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on the first Commit 100ms or more after the
	// previous sync, and a Commit that skips its fsync arms a timer that
	// fsyncs when the 100ms are up, so a batch is durable within 100ms
	// whether or not another Commit follows.
	SyncInterval
)

// String names the policy (flag parsing in cmd/ppcserve round-trips it).
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	}
	return fmt.Sprintf("wal.SyncPolicy(%d)", int(p))
}

// ParsePolicy is the inverse of String.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always or interval)", s)
}

// Options configures a Log.
type Options struct {
	// Dir is the segment directory (created if missing).
	Dir string
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SegmentBytes rotates segments past this size (default 4 MiB).
	SegmentBytes int64
	// Faults optionally injects disk faults (short write, fsync error,
	// torn tail). nil disables injection.
	Faults *faults.Injector
	// Observer counts the log's appends, fsyncs, rotations, compactions
	// and their failures; nil gives the log a private one.
	Observer *obsv.WALObs
}

func (o Options) withDefaults() Options {
	if o.Observer == nil {
		o.Observer = &obsv.WALObs{}
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	return o
}

// Recovery reports what Open (or Scan) found on disk.
type Recovery struct {
	// Records holds every valid record in sequence order.
	Records []Record
	// Segments counts the segment files scanned.
	Segments int
	// LastSeq is the highest valid sequence number found (0 when empty).
	LastSeq uint64
	// TornBytes counts bytes ignored after the last valid record of the
	// final segment — the expected artifact of a crash mid-append.
	TornBytes int64
	// TornSegment names the file whose tail was torn ("" when clean).
	TornSegment string
	// Corrupt is true when damage beyond a torn tail was found (an invalid
	// record in a non-final segment, an unreadable header). Scanning stops
	// at the damage; later segments are quarantined by Open.
	Corrupt bool
	// Reason explains the corruption, empty when Corrupt is false.
	Reason string
	// QuarantinedSegments lists segments renamed aside because they follow
	// mid-log damage and their records can no longer be ordered trustably.
	QuarantinedSegments []string
}

// Log is the append side of the write-ahead log. Safe for concurrent use;
// appends from the per-template appliers serialize on an internal mutex
// (they are already off the serving path, so the lock is uncontended in
// the latency-critical sense).
type Log struct {
	opts Options

	mu   sync.Mutex
	f    *os.File
	size int64  // committed size of the current segment
	seq  uint64 // last assigned sequence number
	// segs names the segments on disk by their first seq, ascending; the
	// last is the current one. Open's scan builds it, a rotation appends to
	// it and Compact trims it, so no reader lists the directory.
	segs     []uint64
	lastSync time.Time
	// tail is armed by a Commit that skipped its fsync under SyncInterval
	// and fsyncs when the interval is up; any sync and Close disarm it.
	tail   *time.Timer
	dead   bool // an injected torn tail "crashed" the log: drop appends
	closed bool

	scratch []byte // reusable frame encode buffer
}

// Open scans dir, truncates a torn tail so the log ends on a record
// boundary, quarantines segments stranded behind mid-log damage, and
// returns the log positioned to append after the last valid record — and
// never below its newest kept segment's name, which a compaction can leave
// empty. The returned Recovery carries the valid records for replay.
func Open(opts Options) (*Log, *Recovery, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("wal: empty directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	rec, names, tornOff, err := scanDir(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	kept := names[:len(names)-len(rec.QuarantinedSegments)]
	// A segment's name is the lowest seq it may hold, so the log has
	// numbered up to one below its newest kept segment's name even when
	// compaction left that segment empty: resume past both.
	seq := rec.LastSeq
	if n := len(kept); n > 0 {
		if first := segFirstSeq(kept[n-1]); first > seq {
			seq = first - 1
		}
	}
	// Physically truncate the torn tail: the next reader must see a log
	// that ends on a record boundary, or it would stop at our garbage. A
	// tear inside the segment header (crash during rotation) leaves nothing
	// recoverable in the file, so remove it rather than strand an empty
	// shell a future scan would misread as mid-log damage.
	if rec.TornSegment != "" {
		tornPath := filepath.Join(opts.Dir, rec.TornSegment)
		if tornOff < int64(headerSize) {
			if err := os.Remove(tornPath); err != nil {
				return nil, nil, fmt.Errorf("wal: remove torn segment %s: %w", tornPath, err)
			}
			kept = kept[:len(kept)-1]
		} else if err := os.Truncate(tornPath, tornOff); err != nil {
			return nil, nil, fmt.Errorf("wal: truncate torn tail of %s: %w", tornPath, err)
		}
	}
	// Segments after mid-log damage are unreachable by a trustworthy scan;
	// move them aside so they cannot shadow future appends.
	if rec.Corrupt {
		for _, name := range rec.QuarantinedSegments {
			src := filepath.Join(opts.Dir, name)
			// A rename failure leaves the segment in place; appends below
			// use sequence numbers past everything scanned, so the stale
			// file can only resurface as reported corruption, never as
			// silently replayed data.
			os.Rename(src, src+".corrupt") //nolint:errcheck
		}
	}
	l := &Log{opts: opts, seq: seq, lastSync: time.Now()}
	for _, name := range kept {
		l.segs = append(l.segs, segFirstSeq(name))
	}
	if err := l.rotateLocked(); err != nil {
		return nil, nil, err
	}
	return l, rec, nil
}

// Scan reads the valid records under dir without opening a writer (used by
// tests and recovery audits). It never modifies the directory.
func Scan(dir string) (*Recovery, error) {
	rec, _, _, err := scanDir(dir)
	return rec, err
}

// segments lists the segment files under dir in sequence order.
func segments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool { return segFirstSeq(names[i]) < segFirstSeq(names[j]) })
	return names, nil
}

// segFirstSeq parses the first sequence number out of a segment file name;
// malformed names sort first and scan as corrupt.
func segFirstSeq(name string) uint64 {
	s := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// segName formats a segment file name from its first sequence number.
func segName(first uint64) string {
	return fmt.Sprintf("wal-%020d.log", first)
}

// scanDir walks the segments in order and collects valid records. It
// returns the recovery report, the segment names it found and, when the
// final segment has a torn tail (rec.TornSegment), the offset Open should
// truncate it at.
func scanDir(dir string) (*Recovery, []string, int64, error) {
	names, err := segments(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	rec := &Recovery{Segments: len(names)}
	tornOff := int64(0)
	for i, name := range names {
		path := filepath.Join(dir, name)
		last := i == len(names)-1
		badReason, badOff, size := scanSegment(path, &rec.Records)
		if badReason == "" {
			continue
		}
		if last {
			// Damage at the tail of the final segment: the expected crash
			// artifact. Everything before the first bad frame is good.
			rec.TornBytes = size - badOff
			rec.TornSegment = name
			tornOff = badOff
		} else {
			// Damage followed by more segments: the stream is no longer
			// trustworthy past this point. Stop and quarantine the rest.
			rec.Corrupt = true
			rec.Reason = fmt.Sprintf("segment %s: %s", name, badReason)
			rec.QuarantinedSegments = append(rec.QuarantinedSegments, names[i+1:]...)
			break
		}
	}
	if n := len(rec.Records); n > 0 {
		rec.LastSeq = rec.Records[n-1].Seq
	}
	return rec, names, tornOff, nil
}

// scanSegment appends the segment's valid records to out. It returns a
// non-empty reason and the offset of the first invalid frame when the
// segment does not end cleanly; I/O errors opening or reading the file are
// reported as badReason too (the caller treats them as damage, not as a
// hard failure — a half-unlinked segment must degrade, not crash, the
// recovery).
func scanSegment(path string, out *[]Record) (badReason string, badOff int64, size int64) {
	seg, err := readSegment(path, 0, -1)
	if err != nil {
		return err.Error(), 0, seg.size
	}
	badReason, badOff = seg.decode(out)
	return badReason, badOff, seg.size
}

// DecodeFrames decodes a run of frames — a segment's bytes after its
// header, or a ship batch, which is the same bytes — with the walk recovery
// makes. It returns the records before the first invalid frame and, when
// there is one, an error naming it.
func DecodeFrames(b []byte) ([]Record, error) {
	var recs []Record
	seg := segTail{buf: b}
	if reason, off := seg.decode(&recs); reason != "" {
		return recs, fmt.Errorf("wal: frame %d at byte %d of %d: %s", len(recs), off, len(b), reason)
	}
	return recs, nil
}

// segTail is the unread remainder of one segment file: the one reader under
// recovery (scanSegment, from byte 0), the ship tail (Follower.Poll, from
// where its last poll stopped) and a replica's batch (DecodeFrames), so all
// three check the same frames and stop at the same frame.
type segTail struct {
	buf  []byte // undecoded bytes
	off  int64  // file offset of buf[0]
	size int64  // bytes of the file seen by the read
}

// readSegment reads path from byte offset off to byte end, or to its end of
// file when end is negative — the only place segment bytes are read. off 0
// reads from the start and checks and skips the header; any other offset
// must sit on a frame boundary of a segment whose header an earlier read
// checked. It reads (and allocates) the bytes in between only, never those
// before off.
func readSegment(path string, off, end int64) (segTail, error) {
	f, err := os.Open(path)
	if err != nil {
		return segTail{}, fmt.Errorf("open: %w", err)
	}
	defer f.Close()
	if end < 0 {
		st, err := f.Stat()
		if err != nil {
			return segTail{}, fmt.Errorf("stat: %w", err)
		}
		end = st.Size()
	}
	seg := segTail{off: off, size: end}
	seg.buf = make([]byte, max(end-off, 0))
	n, err := f.ReadAt(seg.buf, off)
	if err != nil && err != io.EOF {
		return segTail{}, fmt.Errorf("read: %w", err)
	}
	// A file truncated between Stat and ReadAt reads short: what was read
	// is what the segment holds.
	seg.buf, seg.size = seg.buf[:n], off+int64(n)
	if off > 0 {
		return seg, nil
	}
	switch {
	case n < headerSize:
		return seg, errors.New("segment shorter than its header")
	case string(seg.buf[:len(segMagic)]) != segMagic:
		return seg, errors.New("bad segment header")
	}
	if v := le.Uint16(seg.buf[len(segMagic):headerSize]); v != segVersion {
		return seg, fmt.Errorf("unsupported segment version %d", v)
	}
	seg.buf, seg.off = seg.buf[headerSize:], int64(headerSize)
	return seg, nil
}

// decode appends the remainder's records to out, each decoded in place at
// the end of out so it is never copied. It stops at the first invalid frame
// and returns why and its offset; an empty reason means every byte was a
// frame.
func (s *segTail) decode(out *[]Record) (reason string, off int64) {
	for len(s.buf) > 0 {
		frame, reason := s.next()
		if reason != "" {
			return reason, s.off
		}
		*out = append(*out, Record{})
		decodePayload(frame[frameOverhead:], &(*out)[len(*out)-1])
	}
	return "", 0
}

// next checks the frame at the head of the remainder, steps past it and
// returns its bytes, which alias buf. A non-empty reason means the bytes
// there are not a valid frame: the reader stays where it is (off is the
// first invalid byte). Callers stop at len(buf) == 0.
func (s *segTail) next() (frame []byte, reason string) {
	n, reason := checkFrame(s.buf)
	if reason != "" {
		return nil, reason
	}
	frame, s.buf, s.off = s.buf[:n], s.buf[n:], s.off+int64(n)
	return frame, ""
}

// kindSpec declares one record kind: everything the codec knows about it.
// A payload is the shared prefix `u8 kind | u64 seq | u64 epoch | u16
// len(template) template` followed by the kind's tail — fixed bytes, then a
// run of float64s whose count the fixed part states (a retired kind's tail
// is bytes of any length, never read). The prefix, the frame, the checksum
// and the length checks live in AppendFrame and checkFrame; a new kind is
// one entry here plus its arm of core's replay switch.
//
// The funcs take and return Record by value: a pointer handed to a func
// value escapes, which would cost Append its zero-allocation guarantee and
// every decode a third allocation.
type kindSpec struct {
	// fixed is the byte length of the tail's fixed part — with minPayload,
	// the kind's own minimum payload.
	fixed int
	// variable is the byte length of the tail's variable part on encode.
	variable func(r Record) int
	// encode writes the tail (fixed + variable bytes) and returns the value
	// of the prefix's epoch slot.
	encode func(r Record, tail []byte) (epoch uint64)
	// check names a count in the fixed part that disagrees with the tail's
	// length (the tail holds at least fixed bytes); nil takes any length.
	check func(tail []byte) (reason string)
	// decode reads the kind's fields out of the epoch slot and a checked tail.
	decode func(epoch uint64, tail []byte) Record
	// retired marks a kind no build writes any more: it has no encoder, its
	// frames decode to their prefix, and Append refuses it.
	retired bool
}

// kinds is the record-kind table, indexed by the kind byte.
var kinds = [...]kindSpec{
	RecordFeedback: {
		// i64 plan | f64 cost | u8 selfLabeled | u16 dims | f64*dims
		fixed:    feedbackFixed,
		variable: func(r Record) int { return 8 * len(r.Point) },
		encode: func(r Record, p []byte) uint64 {
			le.PutUint64(p[0:], uint64(r.Plan))
			le.PutUint64(p[8:], math.Float64bits(r.Cost))
			p[16] = 0
			if r.SelfLabeled {
				p[16] = 1
			}
			le.PutUint16(p[17:], uint16(len(r.Point)))
			putFloats(p[feedbackFixed:], r.Point)
			return uint64(r.Epoch)
		},
		check: func(p []byte) string {
			if dims := int(le.Uint16(p[17:])); feedbackFixed+8*dims != len(p) {
				return fmt.Sprintf("record dims %d disagree with payload length", dims)
			}
			return ""
		},
		decode: func(epoch uint64, p []byte) (r Record) {
			r.Epoch = int64(epoch)
			r.Plan = int64(le.Uint64(p[0:]))
			r.Cost = math.Float64frombits(le.Uint64(p[8:]))
			r.SelfLabeled = p[16] != 0
			r.Point = floats(p[feedbackFixed:], int(le.Uint16(p[17:])))
			return r
		},
	},
	RecordCorrection: {
		// u32 site | f64 logc | u64 n | f64 ref
		fixed:    correctionFixed,
		variable: func(Record) int { return 0 },
		encode: func(r Record, p []byte) uint64 {
			le.PutUint32(p[0:], r.Site)
			le.PutUint64(p[4:], math.Float64bits(r.LogC))
			le.PutUint64(p[12:], r.N)
			le.PutUint64(p[20:], math.Float64bits(r.Ref))
			return r.CorrEpoch
		},
		check: func(p []byte) string {
			if len(p) != correctionFixed {
				return "correction record payload length disagrees with its template name"
			}
			return ""
		},
		decode: func(epoch uint64, p []byte) (r Record) {
			r.CorrEpoch = epoch
			r.Site = le.Uint32(p[0:])
			r.LogC = math.Float64frombits(le.Uint64(p[4:]))
			r.N = le.Uint64(p[12:])
			r.Ref = math.Float64frombits(le.Uint64(p[20:]))
			return r
		},
	},
	RecordRetiredRetune: {
		// bytes, never read
		decode:  func(epoch uint64, _ []byte) Record { return Record{Epoch: int64(epoch)} },
		retired: true,
	},
}

// specFor returns the table entry for a kind byte, nil when the table
// declares no such kind.
func specFor(kind uint8) *kindSpec {
	if int(kind) >= len(kinds) || kinds[kind].decode == nil {
		return nil
	}
	return &kinds[kind]
}

func putFloats(p []byte, vs []float64) {
	for i, v := range vs {
		le.PutUint64(p[8*i:], math.Float64bits(v))
	}
}

func floats(p []byte, n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = math.Float64frombits(le.Uint64(p[8*i:]))
	}
	return vs
}

// checkFrame validates the framed record at the head of buf without
// decoding it and returns the frame's length. A non-empty reason means the
// frame is invalid (truncated, implausible length, checksum mismatch,
// malformed payload): a scan stops there, and a follower too.
func checkFrame(buf []byte) (int, string) {
	if len(buf) < frameOverhead {
		return 0, fmt.Sprintf("truncated frame header (%d bytes)", len(buf))
	}
	payLen := le.Uint32(buf[0:4])
	sum := le.Uint32(buf[4:8])
	if payLen < minPayload || payLen > maxPayload {
		return 0, fmt.Sprintf("implausible record length %d", payLen)
	}
	if len(buf) < frameOverhead+int(payLen) {
		return 0, fmt.Sprintf("truncated record (%d of %d payload bytes)", len(buf)-frameOverhead, payLen)
	}
	payload := buf[frameOverhead : frameOverhead+int(payLen)]
	if got := crc32.Checksum(payload, walCRC); got != sum {
		return 0, fmt.Sprintf("record checksum mismatch: got %08x want %08x", got, sum)
	}
	spec := specFor(payload[0])
	if spec == nil {
		return 0, fmt.Sprintf("unknown record kind %d", payload[0])
	}
	tl := int(le.Uint16(payload[17:]))
	if minPayload+tl+spec.fixed > len(payload) {
		return 0, fmt.Sprintf("kind %d record payload shorter than its template name and %d-byte tail", payload[0], spec.fixed)
	}
	if spec.check != nil {
		if reason := spec.check(payload[minPayload+tl:]); reason != "" {
			return 0, reason
		}
	}
	return frameOverhead + int(payLen), ""
}

// decodePayload decodes a checked record body: the shared prefix here, the
// tail by the kind's table entry.
func decodePayload(p []byte, rec *Record) {
	tl := int(le.Uint16(p[17:]))
	r := kinds[p[0]].decode(le.Uint64(p[9:]), p[minPayload+tl:])
	r.Kind, r.Seq, r.Template = p[0], le.Uint64(p[1:]), string(p[minPayload:minPayload+tl])
	*rec = r
}

// AppendFrame appends rec's framed encoding (the exact on-disk segment
// frame: u32 len | u32 crc32c | payload) to dst and returns the extended
// slice; rec.Seq is encoded as-is. A kind the table does not declare, or a
// retired one, is a bug in the caller: records are built by the
// constructors beside core's replay switch, and a frame read is forwarded
// as it lies, never re-encoded.
func AppendFrame(dst []byte, rec *Record) []byte {
	kind := rec.Kind
	if kind == 0 {
		kind = RecordFeedback
	}
	spec := specFor(kind)
	if spec == nil || spec.retired {
		panic(fmt.Sprintf("wal: encode of undeclared or retired record kind %d", kind))
	}
	tailOff := minPayload + len(rec.Template)
	payLen := tailOff + spec.fixed + spec.variable(*rec)
	start := len(dst)
	dst = slices.Grow(dst, frameOverhead+payLen)[:start+frameOverhead+payLen]
	frame := dst[start:]
	le.PutUint32(frame[0:4], uint32(payLen))
	p := frame[frameOverhead:]
	p[0] = kind
	le.PutUint64(p[1:], rec.Seq)
	le.PutUint64(p[9:], spec.encode(*rec, p[tailOff:]))
	le.PutUint16(p[17:], uint16(len(rec.Template)))
	copy(p[minPayload:], rec.Template)
	le.PutUint32(frame[4:8], crc32.Checksum(p, walCRC))
	return dst
}

// Append assigns rec the next sequence number and writes its frame to the
// current segment, rotating first if the segment is full. The write lands
// in the OS page cache; durability is Commit's job. On failure the segment
// is truncated back to the last good record boundary so the log stays
// well-formed, and the error is returned for the caller to count — the
// in-memory learner keeps going either way. A record of a retired kind is
// refused with an error and nothing is written.
func (l *Log) Append(rec *Record) (uint64, error) {
	if spec := specFor(rec.Kind); spec != nil && spec.retired {
		return 0, fmt.Errorf("wal: append of retired record kind %d", rec.Kind)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: append on closed log")
	}
	if l.dead {
		// An injected torn tail "crashed" this log: from the disk's point
		// of view the process died mid-record, so nothing after the tear
		// may land. The in-memory system keeps serving.
		l.opts.Observer.WALTearDropped()
		return 0, nil
	}
	if l.size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.opts.Observer.WALAppendError()
			return 0, err
		}
	}
	rec.Seq = l.seq + 1
	l.scratch = AppendFrame(l.scratch[:0], rec)
	frame := l.scratch

	if l.opts.Faults.Should(faults.WALTornTail) && len(frame) > 1 {
		// Simulated power loss mid-append: a prefix of the frame reaches
		// the disk, the rest — and every later append — does not. Replay
		// must truncate the tear and recover everything before it.
		cut := 1 + l.opts.Faults.Intn(len(frame)-1)
		l.f.Write(frame[:cut]) //nolint:errcheck
		l.dead = true
		l.opts.Observer.WALTearDropped()
		return 0, nil
	}
	if l.opts.Faults.Should(faults.WALShortWrite) {
		// Simulated short write: half the frame lands, the write errors.
		// Repair by truncating back to the last record boundary so the
		// segment stays scannable; the record is reported lost.
		l.f.Write(frame[:len(frame)/2]) //nolint:errcheck
		if err := l.repairLocked(); err != nil {
			return 0, err
		}
		l.opts.Observer.WALAppendError()
		return 0, fmt.Errorf("wal: short write: %w", faults.ErrInjected)
	}

	n, err := l.f.Write(frame)
	if err != nil || n != len(frame) {
		if rerr := l.repairLocked(); rerr != nil {
			return 0, rerr
		}
		l.opts.Observer.WALAppendError()
		if err == nil {
			err = io.ErrShortWrite
		}
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.seq = rec.Seq
	l.size += int64(len(frame))
	l.opts.Observer.WALAppend(len(frame))
	return rec.Seq, nil
}

// repairLocked truncates the current segment back to the last committed
// record boundary after a failed or partial write.
func (l *Log) repairLocked() error {
	if err := l.f.Truncate(l.size); err != nil {
		l.dead = true
		l.opts.Observer.WALAppendError()
		return fmt.Errorf("wal: repair truncate: %w", err)
	}
	if _, err := l.f.Seek(l.size, io.SeekStart); err != nil {
		l.dead = true
		l.opts.Observer.WALAppendError()
		return fmt.Errorf("wal: repair seek: %w", err)
	}
	return nil
}

// Commit is the group-commit barrier the applier calls once per apply
// batch: under SyncAlways it fsyncs now, under SyncInterval it fsyncs when
// the interval has elapsed and otherwise leaves a timer to fsync when it
// does.
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch l.opts.Sync {
	case SyncAlways:
		return l.syncLocked()
	case SyncInterval:
		since := time.Since(l.lastSync)
		if since >= syncInterval {
			return l.syncLocked()
		}
		if l.tail == nil && !l.closed {
			var t *time.Timer
			t = time.AfterFunc(syncInterval-since, func() {
				l.mu.Lock()
				defer l.mu.Unlock()
				if l.tail == t {
					// A failure is counted by the observer; the next Commit,
					// or Close, syncs again.
					l.syncLocked() //nolint:errcheck
				}
			})
			l.tail = t
		}
	}
	return nil
}

// Sync fsyncs unconditionally (shutdown flushes and explicit barriers).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	l.disarmLocked()
	if l.closed || l.dead || l.f == nil {
		return nil
	}
	if err := l.opts.Faults.Fail(faults.WALFsyncError); err != nil {
		l.opts.Observer.WALSyncError()
		return fmt.Errorf("wal: fsync: %w", err)
	}
	t0 := time.Now()
	if err := l.f.Sync(); err != nil {
		l.opts.Observer.WALSyncError()
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.lastSync = time.Now()
	l.opts.Observer.WALSync(time.Since(t0))
	return nil
}

// disarmLocked stops the timer a skipped Commit left, if any; a callback
// already waiting for the lock finds it replaced and does nothing.
func (l *Log) disarmLocked() {
	if l.tail != nil {
		l.tail.Stop()
		l.tail = nil
	}
}

// rotateLocked seals the current segment and opens a fresh one named by
// the next sequence number. The sealed segment is fsynced first, through
// syncLocked's fault check and error count: a later segment may exist on
// disk only behind a durable predecessor, or a power loss would turn the
// predecessor's lost tail into mid-log damage that quarantines every later
// segment. A new segment file's directory entry is fsynced before the
// segment is used. On any error the current segment stays live and nothing
// is numbered, so the next append retries the rotation.
func (l *Log) rotateLocked() error {
	if l.f != nil {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	first := l.seq + 1
	path := filepath.Join(l.opts.Dir, segName(first))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close() //nolint:errcheck
		return fmt.Errorf("wal: stat segment: %w", err)
	}
	size := st.Size()
	if size == 0 {
		// Fresh segment: write the header. A non-empty file at this name is
		// the scanned (and repaired) tail segment whose records all predate
		// first — keep appending after them rather than double-writing the
		// header.
		if err := l.initSegment(f); err != nil {
			// Remove the file, so the retry finds no partial header to
			// append after and creates (and fsyncs) it afresh.
			f.Close()       //nolint:errcheck
			os.Remove(path) //nolint:errcheck
			return err
		}
		size = int64(headerSize)
	}
	if l.f != nil {
		l.f.Close() //nolint:errcheck
		l.opts.Observer.WALRotate()
	}
	l.f = f
	l.size = size
	// The segment joins the list with its header on disk, replacing any
	// named at or past it (a header-only segment Open found at this name).
	i, _ := slices.BinarySearch(l.segs, first)
	l.segs = append(l.segs[:i], first)
	return nil
}

// initSegment writes a fresh segment's header and fsyncs the directory
// that now names it; a failed directory fsync counts as a sync error.
func (l *Log) initSegment(f *os.File) error {
	var hdr [headerSize]byte
	copy(hdr[:], segMagic)
	binary.LittleEndian.PutUint16(hdr[len(segMagic):], segVersion)
	if _, err := f.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	if err := SyncDir(l.opts.Dir); err != nil {
		l.opts.Observer.WALSyncError()
		return fmt.Errorf("wal: fsync directory: %w", err)
	}
	return nil
}

// SyncDir fsyncs a directory, making the entries created, renamed or
// removed in it durable: the one directory fsync of the WAL's segment
// creation and of the checkpoint's rename.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Compact deletes segments whose every record is covered by a checkpoint —
// those entirely below minSeq. The segment holding minSeq, anything after
// it, and the live segment always survive. Returns how many were removed.
func (l *Log) Compact(minSeq uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// All records in segs[i] have seq < segs[i+1]; the segment is obsolete
	// when even its last record is <= minSeq. The live segment is last, so
	// it is never a candidate.
	removed, err := 0, error(nil)
	for removed+1 < len(l.segs) && l.segs[removed+1] <= minSeq+1 {
		if err = os.Remove(filepath.Join(l.opts.Dir, segName(l.segs[removed]))); err != nil {
			err = fmt.Errorf("wal: compact: %w", err)
			break
		}
		removed++
	}
	l.segs = l.segs[removed:]
	if removed > 0 {
		l.opts.Observer.WALCompact(removed)
	}
	return removed, err
}

// NumberPast makes the log number its next record past seq, and opens a
// fresh live segment named for that record so the next Open resumes past
// seq too. Recovery calls it when a checkpoint reflects records the log no
// longer holds, so no record is numbered at or below what a restored
// learner has applied. A no-op when the log already numbers past seq.
func (l *Log) NumberPast(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq <= l.seq {
		return nil
	}
	l.seq = seq
	return l.rotateLocked()
}

// LastSeq returns the highest sequence number assigned so far.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Close syncs and closes the current segment. Further appends error.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.disarmLocked()
	if l.f == nil {
		return nil
	}
	var err error
	if !l.dead {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
