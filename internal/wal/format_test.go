package wal

import (
	"bytes"
	"encoding/hex"
	"hash/crc32"
	"reflect"
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
		dec, n, err := DecodeFrame(want)
		if err != nil || n != len(want) {
			t.Errorf("%s: golden frame decodes to %d of %d bytes, %v", tc.name, n, len(want), err)
			continue
		}
		if rec.Kind == 0 {
			rec.Kind = RecordFeedback // what a zero Kind is on the wire
		}
		if !reflect.DeepEqual(dec, rec) {
			t.Errorf("%s: golden frame decodes to\n  %+v\nwant\n  %+v", tc.name, dec, rec)
		}
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
			got, n, err := DecodeFrame(frame)
			if err != nil {
				t.Errorf("kind %d, template %q: %d-byte payload does not decode: %v", kind, name, len(frame)-frameOverhead, err)
				continue
			}
			if n != len(frame) || got.Kind != rec.Kind || got.Seq != 1 || got.Template != name || len(got.Point) != 0 {
				t.Errorf("kind %d, template %q: round trip gave %+v (%d of %d bytes)", kind, name, got, n, len(frame))
			}
			// One byte short of the kind's minimum is not a record of it.
			if name == "" {
				short := append([]byte(nil), frame[:len(frame)-1]...)
				le.PutUint32(short[0:4], uint32(len(short)-frameOverhead))
				le.PutUint32(short[4:8], crc32.Checksum(short[frameOverhead:], walCRC))
				if _, _, err := DecodeFrame(short); err == nil {
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
