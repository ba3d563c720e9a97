package wal

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
)

// TestFrameGolden pins the frame bytes of every record kind, plus a
// zero-Kind feedback record, to vectors printed by the encoder as it stood
// before the kinds moved into one table (PR 19's tree). Every other format
// test is a round trip, which a symmetric mistake in encode and decode
// passes; these bytes are what segments on disk and replicas on the wire
// already hold.
func TestFrameGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		rec  Record
		hex  string
	}{
		{"feedback", Record{Kind: RecordFeedback, Seq: 7, Epoch: 2, Template: "Q1", Plan: 5, Cost: 1234.5, SelfLabeled: true, Point: []float64{0.25, 0.75}},
			"38000000f4d0650d010700000000000000020000000000000002005131050000000000000000000000004a9340010200000000000000d03f000000000000e83f"},
		{"zero kind", Record{Seq: 8, Epoch: -1, Template: "Q3", Plan: -2, Cost: 0.5, Point: []float64{0.125}},
			"3000000079232587010800000000000000ffffffffffffffff02005133feffffffffffffff000000000000e03f000100000000000000c03f"},
		{"correction", Record{Kind: RecordCorrection, Seq: 9, CorrEpoch: 3, Template: "Q1", Site: 2, LogC: -0.5, N: 11, Ref: 0.25},
			"310000000ae839d302090000000000000003000000000000000200513102000000000000000000e0bf0b00000000000000000000000000d03f"},
	} {
		want, err := hex.DecodeString(tc.hex)
		if err != nil {
			t.Fatal(err)
		}
		rec := tc.rec
		if got := AppendFrame(nil, &rec); !bytes.Equal(got, want) {
			t.Errorf("%s encodes to\n  %x\nwant\n  %x", tc.name, got, want)
		}
		dec, err := DecodeFrames(want)
		if err != nil || len(dec) != 1 {
			t.Errorf("%s: golden frame decodes to %d records, %v", tc.name, len(dec), err)
			continue
		}
		if rec.Kind == 0 {
			rec.Kind = RecordFeedback // what a zero Kind is on the wire
		}
		if !reflect.DeepEqual(dec[0], rec) {
			t.Errorf("%s: golden frame decodes to\n  %+v\nwant\n  %+v", tc.name, dec, rec)
		}
	}
}

// TestDecodeFramesStopsAtThePartialFrame feeds DecodeFrames a run of three
// frames cut at every length, and once with a byte of the middle frame
// flipped: it returns the records of the whole frames before the cut or
// the damage, and an error naming the frame there unless the run ends on a
// frame boundary.
func TestDecodeFramesStopsAtThePartialFrame(t *testing.T) {
	recs := []Record{
		{Kind: RecordFeedback, Seq: 1, Template: "Q1", Plan: 5, Cost: 1234.5, Point: []float64{0.25, 0.75}},
		{Kind: RecordCorrection, Seq: 2, CorrEpoch: 3, Template: "Q1", Site: 2, LogC: -0.5, N: 11, Ref: 0.25},
		{Kind: RecordFeedback, Seq: 3, Epoch: 4, Template: "Q8", Point: []float64{0.5}},
	}
	var run []byte
	ends := make([]int, len(recs)) // where each frame ends in run
	for i := range recs {
		run = AppendFrame(run, &recs[i])
		ends[i] = len(run)
	}

	for cut := 0; cut <= len(run); cut++ {
		whole, start := 0, 0 // frames that end at or before the cut; where the next starts
		for whole < len(ends) && ends[whole] <= cut {
			whole, start = whole+1, ends[whole]
		}
		got, err := DecodeFrames(run[:cut])
		if len(got) != whole || (whole > 0 && !reflect.DeepEqual(got, recs[:whole])) {
			t.Fatalf("cut at %d of %d bytes: decoded %+v, want the %d whole frames before it", cut, len(run), got, whole)
		}
		if boundary := cut == start; boundary != (err == nil) {
			t.Fatalf("cut at %d of %d bytes (frame boundary %v): err %v", cut, len(run), boundary, err)
		}
		if err != nil && !strings.Contains(err.Error(), fmt.Sprintf("frame %d at byte %d ", whole, start)) {
			t.Fatalf("cut at %d: error %q does not name frame %d at byte %d", cut, err, whole, start)
		}
	}

	bad := append([]byte(nil), run...)
	bad[ends[0]+frameOverhead+3] ^= 0x40 // inside the correction's payload
	got, err := DecodeFrames(bad)
	if len(got) != 1 || !reflect.DeepEqual(got[0], recs[0]) || err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("a damaged second frame decodes to %+v, %v; want the first record and a checksum error", got, err)
	}
}

// TestEveryKindRoundTripsItsSmallestRecord: a kind's minimum payload is its
// own — empty template, no point, no tail bytes — not the feedback kind's. Held
// to one shared minimum, Append wrote a 25-byte (or, with a ten-byte
// template name, 35-byte) retune payload that the next scan reported as an
// implausible record length and truncated the log at.
func TestEveryKindRoundTripsItsSmallestRecord(t *testing.T) {
	for kind := range kinds {
		if specFor(uint8(kind)) == nil {
			continue
		}
		for _, name := range []string{"", "tenletters"} {
			rec := Record{Kind: uint8(kind), Seq: 1, Template: name}
			frame := AppendFrame(nil, &rec)
			recs, err := DecodeFrames(frame)
			if err != nil || len(recs) != 1 {
				t.Errorf("kind %d, template %q: %d-byte payload decodes to %d records: %v", kind, name, len(frame)-frameOverhead, len(recs), err)
				continue
			}
			if got := recs[0]; got.Kind != rec.Kind || got.Seq != 1 || got.Template != name || len(got.Point) != 0 {
				t.Errorf("kind %d, template %q: round trip gave %+v", kind, name, got)
			}
			// One byte short of the kind's minimum is not a record of it.
			if name == "" {
				short := append([]byte(nil), frame[:len(frame)-1]...)
				le.PutUint32(short[0:4], uint32(len(short)-frameOverhead))
				le.PutUint32(short[4:8], crc32.Checksum(short[frameOverhead:], walCRC))
				if recs, err := DecodeFrames(short); err == nil || len(recs) != 0 {
					t.Errorf("kind %d: a payload one byte under its minimum decoded", kind)
				}
			}
		}
	}

	// And through a real log: append each writable kind's smallest record,
	// scan them back.
	dir := t.TempDir()
	l, _ := openTest(t, Options{Dir: dir})
	for _, kind := range []uint8{RecordFeedback, RecordCorrection} {
		if _, err := l.Append(&Record{Kind: kind}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 2 || rec.TornBytes != 0 || rec.Corrupt {
		t.Fatalf("scan found %d of 2 smallest records (torn %d bytes: %q)", len(rec.Records), rec.TornBytes, rec.Reason)
	}
}
