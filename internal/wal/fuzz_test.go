package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeFrame throws arbitrary bytes at the record decoder. The
// invariants under fuzz: never panic, never over-read, and on a reported
// success the re-encoded record must byte-match the consumed frame (decode
// and encode are exact inverses). A retired kind has no encoder: its record is framed
// by hand around the consumed frame's tail, so the decoded prefix is held
// to the same bytes.
func FuzzDecodeFrame(f *testing.F) {
	seedRecs := []*Record{
		{Seq: 1, Epoch: 0, Template: "Q1", Plan: 7, Cost: 1.5, Point: []float64{0.1, 0.9}},
		{Seq: 42, Epoch: 3, Template: "", Plan: -1, Cost: 0, SelfLabeled: true, Point: nil},
		{Seq: 1<<63 + 9, Epoch: -5, Template: "a-very-long-template-name", Plan: 1 << 40,
			Cost: -2.25, Point: []float64{0, 0, 0, 0, 0, 0, 0, 0}},
		{Kind: RecordCorrection, Seq: 2, CorrEpoch: 3, Template: "Q1", Site: 2, LogC: -0.5, N: 11, Ref: 0.25},
		{Kind: RecordCorrection, Seq: 3},
	}
	for _, r := range seedRecs {
		f.Add(AppendFrame(nil, r))
	}
	// The retired kind as older builds wrote it: a re-tune's two warps of
	// three knots (u16 t, s, k, then the knots), and one with no tail.
	f.Add(retiredFrame(4, 1, "Q8", retiredTail(1, 2, 3, 0, 0.5, 1, 0, 0.25, 1)))
	f.Add(retiredFrame(5, 0, "", nil))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	// A frame with a valid checksum over a malformed payload.
	bad := make([]byte, frameOverhead+minPayload)
	binary.LittleEndian.PutUint32(bad[0:4], minPayload)
	bad[frameOverhead] = 99 // unknown kind
	binary.LittleEndian.PutUint32(bad[4:8], crc32.Checksum(bad[frameOverhead:], walCRC))
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeFrame(data)
		if err != nil {
			if n != 0 {
				t.Fatalf("invalid frame consumed %d bytes", n)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("frame length %d out of range (input %d)", n, len(data))
		}
		var round []byte
		if rec.Kind == RecordRetiredRetune {
			round = retiredFrame(rec.Seq, rec.Epoch, rec.Template, data[frameOverhead+minPayload+len(rec.Template):n])
		} else {
			round = AppendFrame(nil, &rec)
		}
		if !bytes.Equal(round, data[:n]) {
			t.Fatalf("decode/encode not inverse:\n in  %x\n out %x", data[:n], round)
		}
	})
}

// retiredTail is the tail of a retired re-tune record: the warp grid's
// shape, then its knots.
func retiredTail(t, s, k uint16, knots ...float64) []byte {
	b := binary.LittleEndian.AppendUint16(nil, t)
	b = binary.LittleEndian.AppendUint16(b, s)
	b = binary.LittleEndian.AppendUint16(b, k)
	for _, v := range knots {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
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
