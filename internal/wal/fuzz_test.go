package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeFrame throws arbitrary bytes at DecodeFrames, the decoder of a
// run of frames. The invariants under fuzz: never panic, never over-read,
// the records returned re-encode to a prefix of the input (decode and
// encode are exact inverses), and the error is nil exactly when that prefix
// is the whole input — otherwise the bytes after it do not start a frame.
func FuzzDecodeFrame(f *testing.F) {
	seedRecs := []*Record{
		{Seq: 1, Epoch: 0, Template: "Q1", Plan: 7, Cost: 1.5, Point: []float64{0.1, 0.9}},
		{Seq: 42, Epoch: 3, Template: "", Plan: -1, Cost: 0, SelfLabeled: true, Point: nil},
		{Seq: 1<<63 + 9, Epoch: -5, Template: "a-very-long-template-name", Plan: 1 << 40,
			Cost: -2.25, Point: []float64{0, 0, 0, 0, 0, 0, 0, 0}},
		{Kind: RecordCorrection, Seq: 2, CorrEpoch: 3, Template: "Q1", Site: 2, LogC: -0.5, N: 11, Ref: 0.25},
		{Kind: RecordCorrection, Seq: 3},
	}
	var run []byte
	for _, r := range seedRecs {
		f.Add(AppendFrame(nil, r))
		run = AppendFrame(run, r)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	// A frame with a valid checksum over a malformed payload.
	bad := make([]byte, frameOverhead+minPayload)
	binary.LittleEndian.PutUint32(bad[0:4], minPayload)
	bad[frameOverhead] = 99 // unknown kind
	binary.LittleEndian.PutUint32(bad[4:8], crc32.Checksum(bad[frameOverhead:], walCRC))
	f.Add(bad)
	// Runs: every seed record's frame, then the same ending in a torn frame.
	f.Add(run)
	f.Add(run[:len(run)-3])
	// A segment header where a frame should start, and a kind-3 frame with a
	// valid checksum, as a version-1 segment could hold: both stop the decode.
	f.Add(append(append([]byte(nil), run...), segMagic+"\x02\x00"...))
	kind3 := AppendFrame(nil, &Record{Kind: RecordCorrection, Seq: 4, Template: "Q8"})
	kind3[frameOverhead] = 3
	le.PutUint32(kind3[4:8], crc32.Checksum(kind3[frameOverhead:], walCRC))
	f.Add(kind3)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeFrames(data)
		var round []byte
		for i := range recs {
			if len(round)+frameOverhead > len(data) {
				t.Fatalf("record %d decoded past the input's %d bytes", i, len(data))
			}
			round = AppendFrame(round, &recs[i])
			if len(round) > len(data) || !bytes.Equal(round, data[:len(round)]) {
				t.Fatalf("decode/encode not inverse at record %d:\n in  %x\n out %x", i, data[:min(len(round), len(data))], round)
			}
		}
		if (err == nil) != (len(round) == len(data)) {
			t.Fatalf("%d records re-encode to %d of %d bytes, err %v", len(recs), len(round), len(data), err)
		}
		if err != nil {
			if rest, rerr := DecodeFrames(data[len(round):]); len(rest) != 0 || rerr == nil {
				t.Fatalf("decode stopped at byte %d (%v), but %d records decode from there", len(round), err, len(rest))
			}
		}
	})
}

// FuzzScan feeds an arbitrary byte blob as a single segment file and checks
// the directory scanner's contract: no panic, no error (damage degrades to
// a report), and a second scan after Open's repair pass must come back
// clean — recovery always converges to a well-formed log.
func FuzzScan(f *testing.F) {
	mk := func(recs ...*Record) []byte {
		var buf bytes.Buffer
		var hdr [headerSize]byte
		copy(hdr[:], segMagic)
		binary.LittleEndian.PutUint16(hdr[len(segMagic):], segVersion)
		buf.Write(hdr[:])
		for i, r := range recs {
			r.Seq = uint64(i + 1)
			buf.Write(AppendFrame(nil, r))
		}
		return buf.Bytes()
	}
	f.Add(mk())
	f.Add(mk(&Record{Template: "Q0", Point: []float64{0.5}}))
	whole := mk(&Record{Template: "Q1", Point: []float64{0.1, 0.2}},
		&Record{Template: "Q1", Point: []float64{0.3, 0.4}})
	f.Add(whole)
	f.Add(whole[:len(whole)-3]) // torn tail
	f.Add([]byte("not a segment at all"))
	older := append([]byte(nil), whole...)
	binary.LittleEndian.PutUint16(older[len(segMagic):], segVersion-1)
	f.Add(older) // the previous version's segment

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Scan(dir)
		if err != nil {
			t.Fatalf("Scan errored on damage instead of reporting it: %v", err)
		}
		nValid := len(rec.Records)

		// Open repairs; the records it reports must match the read-only scan
		// and the repaired directory must scan clean.
		lg, rec2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if len(rec2.Records) != nValid {
			t.Fatalf("Open recovered %d records, Scan saw %d", len(rec2.Records), nValid)
		}
		lg.Close()
		rec3, err := Scan(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rec3.TornBytes != 0 {
			t.Fatalf("repair left %d torn bytes", rec3.TornBytes)
		}
		if len(rec3.Records) != nValid {
			t.Fatalf("post-repair scan lost records: %d vs %d", len(rec3.Records), nValid)
		}
	})
}
