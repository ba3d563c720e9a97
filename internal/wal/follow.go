package wal

// Tail-follow support for replication: the leader's ship loop polls a
// Follower to pick up feedback records as the per-template appliers write
// them. Poll checks each frame as recovery does (checkFrame, through the
// same segTail reader) and hands back the frames' bytes as the segment
// holds them, which the ship loop writes to the wire unchanged: a replica
// decodes exactly the bytes a crash recovery would, and the leader decodes
// and re-encodes none of them (replica's TestShippedBatchIsTheSegment).

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
// Poll never blocks: it returns whatever complete frames are on disk and
// expects the caller to poll again later. A torn frame at the live tail is
// an append in flight and simply ends the batch; the same torn frame with
// a newer segment already present means the history under the follower was
// repaired or compacted, which surfaces as ErrCompacted.
type Follower struct {
	dir      string
	after    uint64 // newest sequence already delivered
	segFirst uint64 // name-seq of the segment being read (0 = unpositioned)
	off      int64  // bytes consumed in the current segment
	// ahead is the segment's bytes from off on that the last poll read but
	// did not reach before its max: the next poll starts from them instead
	// of reading them again, so a drain reads each byte of a segment once.
	// Only a poll that stopped at max keeps them, and they are a read cache
	// only: their end is where the segment ended when they were read, so a
	// poll that runs out of them reads on from the disk at off.
	ahead []byte
}

// NewFollower tails dir for records with Seq > afterSeq. afterSeq = 0
// follows from the beginning of history (ErrCompacted if that is gone).
func NewFollower(dir string, afterSeq uint64) *Follower {
	return &Follower{dir: dir, after: afterSeq}
}

// After returns the newest sequence number delivered so far (the resume
// position if the follower is rebuilt).
func (f *Follower) After() uint64 { return f.after }

// Poll appends to dst the frames of up to max complete records past the
// follower's position, as the segments hold them (a batch that crosses a
// rotation is both segments' frames, one after the other), and returns the
// extended slice and the number of records appended. A zero count with a
// nil error means the tail is fully consumed for now. ErrCompacted means
// the position no longer exists on disk and the follower must be replaced
// by a snapshot.
func (f *Follower) Poll(dst []byte, max int) ([]byte, int, error) {
	if max <= 0 {
		max = 1 << 10
	}
	n := 0
	for n < max {
		if f.segFirst == 0 {
			ok, err := f.position()
			if err != nil || !ok {
				return dst, n, err
			}
		}
		// The writer may have appended behind the cached bytes since they
		// were read, so running out of them, or into bytes that were not
		// yet a frame, reads on from the disk rather than ending the
		// segment.
		seg, cached := segTail{buf: f.ahead, off: f.off}, len(f.ahead) > 0
		f.ahead = nil
		var next uint64
		if !cached {
			// List the segments before reading: a segment that already had a
			// successor is whole in the read that follows, so moving on past
			// its end skips nothing appended after the read.
			var err error
			if next, err = f.nextSegment(); err != nil {
				return dst, n, err
			}
			name := segName(f.segFirst)
			seg, err = readSegment(filepath.Join(f.dir, name), f.off)
			switch {
			case errors.Is(err, fs.ErrNotExist), errors.Is(err, errShrunk):
				// The segment under us was compacted away, or shrank below
				// bytes already consumed: the history we were tailing was
				// rewritten. Resnapshot.
				f.segFirst = 0
				return dst, n, ErrCompacted
			case errors.Is(err, errShortHeader):
				return dst, n, nil // header still being written; retry later
			case err != nil:
				return dst, n, fmt.Errorf("wal: follow %s: %w", name, err)
			}
		}
		// The frames past the position go out as one run of the segment's
		// bytes; a frame at or below it (a resume inside the segment) moves
		// the run's start past it.
		f.off = seg.off
		run, reason := seg.buf[:0], ""
		for len(seg.buf) > 0 && n < max {
			var frame []byte
			if frame, reason = seg.next(); reason != "" {
				break
			}
			f.off = seg.off
			if seq := le.Uint64(frame[frameOverhead+1:]); seq > f.after {
				run, f.after, n = run[:len(run)+len(frame)], seq, n+1
			} else {
				dst, run = append(dst, run...), seg.buf[:0]
			}
		}
		dst = append(dst, run...)
		switch {
		case len(seg.buf) > 0 && reason == "":
			// max reached mid-segment; outer condition ends the loop.
			f.ahead = seg.buf
			continue
		case cached:
			continue
		}
		// The segment as read is consumed, or its next bytes are not a
		// valid frame. Move on only if the writer had rotated before the
		// read: until then this is the live tail, and invalid bytes are an
		// append in flight for the next poll to retry. Invalid bytes behind
		// a rotation are permanent, and the records past them unreachable:
		// force a resnapshot.
		if next == 0 {
			return dst, n, nil
		}
		if reason != "" {
			f.segFirst = 0
			return dst, n, ErrCompacted
		}
		f.segFirst, f.off = next, 0
	}
	return dst, n, nil
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
