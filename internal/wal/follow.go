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
	"slices"
)

// ErrCompacted reports that a follower's position (or a requested resume
// sequence) has been deleted by checkpoint compaction. The only recovery
// is a fresh snapshot: the missing records are covered by a checkpoint the
// follower never saw.
var ErrCompacted = errors.New("wal: position compacted away")

// FirstSeq returns the lowest sequence number still covered by a segment —
// the name of the oldest one. Records below it have been compacted away; a
// follower asking to resume below FirstSeq needs a snapshot instead.
func (l *Log) FirstSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[0]
}

// Follow returns a Follower of l that delivers the records with Seq >
// after. after = 0 follows from the beginning of history (ErrCompacted if
// that is gone).
func (l *Log) Follow(after uint64) *Follower {
	return &Follower{log: l, after: after}
}

// extent tells a follower, under the lock, what it may read: the segment
// named first — or, when first is 0, the segment holding seq want — and
// where its readable bytes end, which is the committed size of the live
// segment and -1 (its end of file) for a sealed one, with the name of the
// segment after it (0 for the live one). ok is false when that segment has
// been compacted away.
func (l *Log) extent(first, want uint64) (seg uint64, end int64, next uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	key := first
	if key == 0 {
		key = want
	}
	i, found := slices.BinarySearch(l.segs, key)
	switch {
	case found:
	case first == 0 && i > 0:
		i-- // the last segment named below want holds it
	default:
		return 0, 0, 0, false
	}
	if i == len(l.segs)-1 {
		return l.segs[i], l.size, 0, true
	}
	return l.segs[i], -1, l.segs[i+1], true
}

// Follower tails a Log, delivering records strictly after a starting
// sequence number in order. It reads the segment files, but only as far as
// the Log has committed them: a sealed segment to its end, the live one to
// the size its last whole frame ends at. A frame an append is still
// writing, or the part of one a failed append left before its repair, is
// never read. Not safe for concurrent use.
//
// Poll never blocks: it returns the committed frames past its position and
// expects the caller to poll again later. After the Log closes, a follower
// still delivers what the Log committed, and then nothing.
type Follower struct {
	log   *Log
	after uint64 // newest sequence already delivered
	seg   uint64 // name of the segment being read (0 = unpositioned)
	off   int64  // bytes consumed in it
	// ahead is committed bytes of the segment from off on that the last poll
	// read but did not reach before its max: the next poll starts from them
	// instead of reading them again, so a drain reads each byte of a segment
	// once.
	ahead []byte
}

// After returns the newest sequence number delivered so far (the resume
// position if the follower is rebuilt).
func (f *Follower) After() uint64 { return f.after }

// Poll appends to dst the frames of up to max records past the follower's
// position, as the segments hold them (a batch that crosses a rotation is
// both segments' frames, one after the other), and returns the extended
// slice and the number of records appended. A zero count with a nil error
// means the committed tail is fully consumed for now. ErrCompacted means
// the position no longer exists on disk, or committed bytes there are not a
// frame, and the follower must be replaced by a snapshot.
func (f *Follower) Poll(dst []byte, max int) ([]byte, int, error) {
	if max <= 0 {
		max = 1 << 10
	}
	n := 0
	for n < max {
		cached, next := len(f.ahead) > 0, uint64(0)
		if !cached {
			var err error
			if next, err = f.read(); err != nil {
				return dst, n, err
			}
		}
		// The frames past the position go out as one run of the segment's
		// bytes; a frame at or below it (a resume inside the segment) moves
		// the run's start past it.
		seg := segTail{buf: f.ahead, off: f.off}
		run := seg.buf[:0]
		for len(seg.buf) > 0 && n < max {
			frame, reason := seg.next()
			if reason != "" {
				// Committed bytes that are not a frame: the records past them
				// are unreachable. Force a resnapshot.
				f.seg, f.ahead = 0, nil
				return append(dst, run...), n, ErrCompacted
			}
			f.off = seg.off
			if seq := le.Uint64(frame[frameOverhead+1:]); seq > f.after {
				run, f.after, n = run[:len(run)+len(frame)], seq, n+1
			} else {
				dst, run = append(dst, run...), seg.buf[:0]
			}
		}
		dst, f.ahead = append(dst, run...), nil
		switch {
		case len(seg.buf) > 0:
			f.ahead = seg.buf // max reached mid-segment
		case next != 0:
			f.seg, f.off = next, 0 // the sealed segment is consumed
		case !cached:
			return dst, n, nil // and so are the live one's committed frames
		}
	}
	return dst, n, nil
}

// read asks the Log how far the follower's segment is committed —
// positioning the follower first when it has no segment — and reads the
// bytes past off into ahead. It returns the next segment's name when this
// one is sealed, 0 while it is the live one.
func (f *Follower) read() (next uint64, err error) {
	seg, end, next, ok := f.log.extent(f.seg, f.after+1)
	if !ok {
		f.seg = 0
		return 0, ErrCompacted
	}
	if seg != f.seg {
		f.seg, f.off = seg, 0
	}
	if end == f.off {
		return next, nil
	}
	t, err := readSegment(filepath.Join(f.log.opts.Dir, segName(seg)), f.off, end)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Compacted between the Log's answer and the open.
		f.seg = 0
		return 0, ErrCompacted
	case err != nil:
		return 0, fmt.Errorf("wal: follow %s: %w", segName(seg), err)
	}
	f.off, f.ahead = t.off, t.buf
	return next, nil
}
