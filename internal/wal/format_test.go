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
// already hold. The retired kind's vector is a re-tune as that encoder
// wrote it (one warp of three knots): nothing encodes it any more, so it is
// framed by hand (retiredFrame) to the same bytes, and it decodes to its
// prefix, its tail unread.
func TestFrameGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		rec  Record
		tail []byte // the retired kind's tail
		hex  string
	}{
		{"feedback", Record{Kind: RecordFeedback, Seq: 7, Epoch: 2, Template: "Q1", Plan: 5, Cost: 1234.5, SelfLabeled: true, Point: []float64{0.25, 0.75}}, nil,
			"38000000f4d0650d010700000000000000020000000000000002005131050000000000000000000000004a9340010200000000000000d03f000000000000e83f"},
		{"zero kind", Record{Seq: 8, Epoch: -1, Template: "Q3", Plan: -2, Cost: 0.5, Point: []float64{0.125}}, nil,
			"3000000079232587010800000000000000ffffffffffffffff02005133feffffffffffffff000000000000e03f000100000000000000c03f"},
		{"correction", Record{Kind: RecordCorrection, Seq: 9, CorrEpoch: 3, Template: "Q1", Site: 2, LogC: -0.5, N: 11, Ref: 0.25}, nil,
			"310000000ae839d302090000000000000003000000000000000200513102000000000000000000e0bf0b00000000000000000000000000d03f"},
		{"retired retune", Record{Kind: RecordRetiredRetune, Seq: 10, Epoch: 4, Template: "Q8"}, mustHex(t,
			"010001000300"+"0000000000000000"+"000000000000e03f"+"000000000000f03f"),
			"33000000ee7867eb030a000000000000000400000000000000020051380100010003000000000000000000000000000000e03f000000000000f03f"},
	} {
		want, err := hex.DecodeString(tc.hex)
		if err != nil {
			t.Fatal(err)
		}
		rec := tc.rec
		got := retiredFrame(rec.Seq, rec.Epoch, rec.Template, tc.tail)
		if rec.Kind != RecordRetiredRetune {
			got = AppendFrame(nil, &rec)
		}
		if !bytes.Equal(got, want) {
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
		{Kind: RecordRetiredRetune, Seq: 3, Epoch: 4, Template: "Q8"},
	}
	var run []byte
	ends := make([]int, len(recs)) // where each frame ends in run
	for i := range recs[:2] {
		run = AppendFrame(run, &recs[i])
		ends[i] = len(run)
	}
	run = append(run, retiredFrame(3, 4, "Q8", nil)...)
	ends[2] = len(run)

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
			frame := retiredFrame(1, 0, name, nil)
			if !kinds[kind].retired {
				frame = AppendFrame(nil, &rec)
			}
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

// TestAppendRefusesRetiredKind: no build writes a retired kind, so Append
// returns an error for one and the log stays as it was — its next record
// takes the sequence the refused one would have.
func TestAppendRefusesRetiredKind(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, Options{Dir: dir})
	if seq, err := l.Append(&Record{Kind: RecordRetiredRetune, Template: "Q1"}); err == nil || seq != 0 {
		t.Fatalf("Append of the retired kind: seq %d, err %v; want an error", seq, err)
	}
	if seq, err := l.Append(&Record{Kind: RecordFeedback, Template: "Q1", Point: []float64{0.5}}); err != nil || seq != 1 {
		t.Fatalf("Append after the refusal: seq %d, err %v; want 1", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 1 || rec.Records[0].Kind != RecordFeedback || rec.TornBytes != 0 || rec.Corrupt {
		t.Fatalf("scan found %+v (torn %d bytes: %q); want the one feedback record", rec.Records, rec.TornBytes, rec.Reason)
	}
}

// retiredFrame frames a record of the retired kind by hand, as an older
// build wrote it: nothing in the package encodes the kind any more.
func retiredFrame(seq uint64, epoch int64, template string, tail []byte) []byte {
	p := le.AppendUint64([]byte{RecordRetiredRetune}, seq)
	p = le.AppendUint64(p, uint64(epoch))
	p = le.AppendUint16(p, uint16(len(template)))
	p = append(append(p, template...), tail...)
	frame := le.AppendUint32(nil, uint32(len(p)))
	frame = le.AppendUint32(frame, crc32.Checksum(p, walCRC))
	return append(frame, p...)
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
