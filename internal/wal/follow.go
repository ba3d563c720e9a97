package wal

// Tail-follow support for replication: the leader's ship loop polls a
// Follower to pick up feedback records as the per-template appliers write
// them. Poll decodes each frame into a Record, and the ship loop
// (replica.encodeRecords) re-encodes each through AppendFrame, CRC
// recomputed, into the wire batch. The shipped bytes equal the segment's
// frames only because the encoding is stable (replica's
// TestShippedBatchIsTheSegment pins it), so a replica decodes exactly the
// bytes a crash recovery would. The decode and re-encode are most of the
// ship loop's cost: 26.6 % of the leader's CPU under a /run load with one
// replica attached (ROADMAP item 2).

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
)

// ErrCompacted reports that a follower's position (or a requested resume
// sequence) has been deleted by checkpoint compaction. The only recovery
// is a fresh snapshot: the missing records are covered by a checkpoint the
// follower never saw.
var ErrCompacted = errors.New("wal: position compacted away")

// AppendFrame appends rec's framed encoding (the exact on-disk segment
// frame: u32 len | u32 crc32c | payload) to dst and returns the extended
// slice. rec.Seq is encoded as-is — the caller owns sequence assignment.
func AppendFrame(dst []byte, rec *Record) []byte {
	tail := dst[len(dst):]
	frame := encodeFrame(tail, rec)
	if cap(tail) >= len(frame) {
		// encodeFrame reused dst's spare capacity in place.
		return dst[: len(dst)+len(frame) : len(dst)+cap(tail)]
	}
	return append(dst, frame...)
}

// DecodeFrame decodes one framed record from the head of buf, returning
// the consumed frame length. The error form of the private decodeFrame,
// for callers outside the scan path (wire batch decoding on replicas).
func DecodeFrame(buf []byte) (Record, int, error) {
	var rec Record
	n, reason := decodeFrame(buf, &rec)
	if reason != "" {
		return Record{}, 0, fmt.Errorf("wal: decode frame: %s", reason)
	}
	return rec, n, nil
}

// FirstSeq returns the lowest sequence number still covered by an on-disk
// segment — the name of the oldest segment file. Records below it have
// been compacted away; a follower asking to resume below FirstSeq needs a
// snapshot instead.
func (l *Log) FirstSeq() uint64 {
	l.mu.Lock()
	dir := l.opts.Dir
	live := l.segFirst
	l.mu.Unlock()
	names, err := segments(dir)
	if err != nil || len(names) == 0 {
		return live
	}
	return segFirstSeq(names[0])
}

// Follower tails a WAL directory, delivering records strictly after a
// starting sequence number in order. It reads the segment files directly
// (no coordination with the writing Log beyond the file system), so it
// works both in-process and over a restart. Not safe for concurrent use.
//
// Poll never blocks: it returns whatever complete records are on disk and
// expects the caller to poll again later. A torn frame at the live tail is
// an append in flight and simply ends the batch; the same torn frame with
// a newer segment already present means the history under the follower was
// repaired or compacted, which surfaces as ErrCompacted.
type Follower struct {
	dir      string
	after    uint64 // newest sequence already delivered
	segFirst uint64 // name-seq of the segment being read (0 = unpositioned)
	off      int64  // bytes consumed in the current segment
}

// NewFollower tails dir for records with Seq > afterSeq. afterSeq = 0
// follows from the beginning of history (ErrCompacted if that is gone).
func NewFollower(dir string, afterSeq uint64) *Follower {
	return &Follower{dir: dir, after: afterSeq}
}

// After returns the newest sequence number delivered so far (the resume
// position if the follower is rebuilt).
func (f *Follower) After() uint64 { return f.after }

// Poll returns up to max complete records past the follower's position,
// advancing across sealed segments. An empty batch with a nil error means
// the tail is fully consumed for now. ErrCompacted means the position no
// longer exists on disk and the follower must be replaced by a snapshot.
func (f *Follower) Poll(max int) ([]Record, error) {
	if max <= 0 {
		max = 1 << 10
	}
	var out []Record
	for len(out) < max {
		if f.segFirst == 0 {
			ok, err := f.position()
			if err != nil || !ok {
				return out, err
			}
		}
		name := segName(f.segFirst)
		seg, err := readSegment(filepath.Join(f.dir, name), f.off)
		switch {
		case errors.Is(err, fs.ErrNotExist), errors.Is(err, errShrunk):
			// The segment under us was compacted away, or shrank below bytes
			// already consumed: the history we were tailing was rewritten.
			// Resnapshot.
			f.segFirst = 0
			return out, ErrCompacted
		case errors.Is(err, errShortHeader):
			return out, nil // header still being written; retry later
		case err != nil:
			return out, fmt.Errorf("wal: follow %s: %w", name, err)
		}
		f.off = seg.off
		for len(seg.buf) > 0 && len(out) < max {
			if reason := seg.next(&out); reason != "" {
				// Invalid bytes at the current position. At the live tail
				// this is an append in flight — deliver what we have and let
				// the next poll retry. If the writer has already rotated
				// past this segment the damage is permanent and the records
				// behind it unreachable: force a resnapshot.
				next, nerr := f.nextSegment()
				if nerr != nil {
					return out, nerr
				}
				if next != 0 {
					f.segFirst = 0
					return out, ErrCompacted
				}
				return out, nil
			}
			f.off = seg.off
			if seq := out[len(out)-1].Seq; seq > f.after {
				f.after = seq
			} else {
				out = out[:len(out)-1] // at or below the starting position
			}
		}
		if len(seg.buf) > 0 {
			continue // max reached mid-segment; outer condition ends the loop
		}
		// Clean end of segment: advance only once the writer has rotated,
		// otherwise this is the live tail and we wait for more appends.
		next, err := f.nextSegment()
		if err != nil {
			return out, err
		}
		if next == 0 {
			return out, nil
		}
		f.segFirst, f.off = next, 0
	}
	return out, nil
}

// position picks the segment containing the follower's next sequence: the
// last segment whose name-seq is at or below it. Returns false when the
// directory has no segments yet (keep waiting).
func (f *Follower) position() (bool, error) {
	names, err := segments(f.dir)
	if err != nil {
		return false, err
	}
	if len(names) == 0 {
		return false, nil
	}
	want := f.after + 1
	if segFirstSeq(names[0]) > want {
		return false, ErrCompacted
	}
	pick := names[0]
	for _, n := range names {
		if segFirstSeq(n) <= want {
			pick = n
		}
	}
	f.segFirst, f.off = segFirstSeq(pick), 0
	return true, nil
}

// nextSegment returns the name-seq of the first segment after the current
// one, or 0 when the current segment is still the newest.
func (f *Follower) nextSegment() (uint64, error) {
	names, err := segments(f.dir)
	if err != nil {
		return 0, err
	}
	for _, n := range names {
		if s := segFirstSeq(n); s > f.segFirst {
			return s, nil
		}
	}
	return 0, nil
}
