package ppc

// Fuzz coverage for the snapshot envelope decoder — the one parser in the
// facade that reads attacker-shaped bytes (a checkpoint file after a crash
// is arbitrary bytes as far as recovery is concerned). The invariant is the
// degrade contract: decodeSnapshot either returns a decoded system or a
// non-empty corruption reason; it never panics and never returns both.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"testing"
)

// validSnapshot frames a minimal savedSystem the way SaveState does —
// directly, without opening a System, so every fuzz worker's seed phase is
// instant. Mutations then explore the deep decode paths (checksum, gob
// payload) rather than dying at the magic check.
func validSnapshot(f *testing.F) []byte {
	f.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&savedSystem{DBScale: 2000, DBSeed: 5}); err != nil {
		f.Fatal(err)
	}
	body := payload.Bytes()
	var buf bytes.Buffer
	buf.WriteString(snapMagic)
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], snapVersion)
	buf.Write(u16[:])
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], uint64(len(body)))
	buf.Write(u64[:])
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], crc32.Checksum(body, snapCRC))
	buf.Write(u32[:])
	buf.Write(body)
	return buf.Bytes()
}

func FuzzSnapshotDecode(f *testing.F) {
	snap := validSnapshot(f)
	f.Add(snap)
	f.Add(snap[:len(snap)/2])     // truncated payload
	f.Add(snap[:8])               // truncated header
	f.Add([]byte{})               // empty
	f.Add([]byte("PPCSNAP1junk")) // plausible magic, garbage after
	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)/2] ^= 0xff // checksum mismatch
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		in, reason := decodeSnapshot(bytes.NewReader(data))
		if (in == nil) == (reason == "") {
			t.Fatalf("decodeSnapshot broke the degrade contract: in=%v reason=%q", in, reason)
		}
	})
}
