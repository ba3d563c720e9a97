// Package netproto is the binary wire protocol of the PPC serving fleet: a
// length-prefixed, CRC-32C-framed message stream over TCP, spoken by the
// leader's ship server (internal/replica.Server), the predict-only replicas
// (internal/replica.Replica) and the Go client library (pkg/client).
//
// Framing reuses the conventions of the WAL segments — Castagnoli CRC over
// a length-prefixed payload — so a torn or corrupted frame is always
// detected, never misparsed:
//
//	frame:   u32 payloadLen | u32 crc32c(payload) | payload
//	payload: u8 msgType | body
//
// A checkpoint file is the same MsgSnapshot frame behind a file header
// (AppendSnapshotFile), so the file and the wire share one frame reader, one
// checksum, one size bound and one snapshot decoder.
//
// All integers are little-endian. The first frame on every connection is a
// Hello carrying the protocol magic, version, the dialer's role, and — for
// replicas — the epoch and WAL sequence number of the state they already
// hold, which is what epoch fencing and incremental resume key off. The
// server answers with Welcome (or Error and a close). Epochs stamp every
// replication-relevant message so a replica can never mix state from two
// leader lineages. After a replica's Welcome the leader sends a MsgSnapshot
// unless the replica resumes, then MsgRecords batches, each the WAL's
// frames as its segments hold them, between MsgHeartbeats.
package netproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"

	"repro/internal/faults"
	"repro/internal/wal"
)

const (
	// Magic opens every Hello; a server that reads anything else is talking
	// to a confused peer and closes immediately.
	Magic = "PPCNET\x00"
	// Version is the current protocol version. The handshake is strict:
	// mismatched versions are rejected with CodeVersionMismatch rather than
	// negotiated down (the fleet upgrades in lockstep).
	Version uint16 = 2
	// frameOverhead is the per-frame cost: length prefix + checksum.
	frameOverhead = 8
	// MaxFrame bounds a declared frame length so a corrupted length field
	// cannot drive a huge allocation. Snapshots are the largest messages; a
	// full checkpoint of every template fits comfortably in 64 MiB.
	MaxFrame = 64 << 20
	// maxString bounds a u16-length-prefixed string: a template name is the
	// longest one that must survive intact.
	maxString = wal.MaxTemplateName
)

// crcTable is the Castagnoli polynomial table shared with wal.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// MsgType tags a frame's payload.
type MsgType uint8

const (
	// MsgHello is the dialer's first frame (magic, version, role, epoch,
	// last applied WAL sequence).
	MsgHello MsgType = 1
	// MsgWelcome accepts a handshake (version, resume flag, leader epoch,
	// leader WAL sequence).
	MsgWelcome MsgType = 2
	// MsgError rejects a handshake or aborts a stream with a typed code.
	MsgError MsgType = 3
	// MsgPredict is a client predict request.
	MsgPredict MsgType = 4
	// MsgPredictResult answers one MsgPredict.
	MsgPredictResult MsgType = 5
	// MsgSnapshot ships the leader's full learned state (per-template
	// learner encodings + the plan fingerprint table).
	MsgSnapshot MsgType = 6
	// MsgRecords ships a batch of WAL records: the body is a run of WAL
	// frames exactly as a segment holds them after its header, and nothing
	// else. The frames delimit and checksum themselves, so the body carries
	// no count; wal.DecodeFrames reads it with the walk crash recovery
	// makes.
	MsgRecords MsgType = 7
	// MsgHeartbeat carries liveness plus a sequence number: the leader
	// sends its WAL tail seq (replicas derive lag), the replica acks its
	// applied seq (the leader derives follower lag).
	MsgHeartbeat MsgType = 8
	// MsgPing / MsgPong are the client liveness probe.
	MsgPing MsgType = 9
	MsgPong MsgType = 10
)

// msgNames names every message type.
var msgNames = [...]string{
	MsgHello: "hello", MsgWelcome: "welcome", MsgError: "error",
	MsgPredict: "predict", MsgPredictResult: "predict-result",
	MsgSnapshot: "snapshot", MsgRecords: "records", MsgHeartbeat: "heartbeat",
	MsgPing: "ping", MsgPong: "pong",
}

// String names the message type.
func (t MsgType) String() string {
	if int(t) < len(msgNames) && msgNames[t] != "" {
		return msgNames[t]
	}
	return fmt.Sprintf("netproto.MsgType(%d)", int(t))
}

// Role identifies what the dialer wants from the connection.
type Role uint8

const (
	// RoleClient runs the predict RPC loop.
	RoleClient Role = 1
	// RoleReplica subscribes to state shipping (snapshot + WAL tail).
	RoleReplica Role = 2
)

// Error codes carried by MsgError.
const (
	// CodeVersionMismatch rejects a Hello whose protocol version differs.
	CodeVersionMismatch uint16 = 1
	// CodeNotLeader rejects a replica handshake on a node with no ship
	// source (a replica, or a leader without durability).
	CodeNotLeader uint16 = 2
	// CodeBusy rejects a replica handshake over the admission cap.
	CodeBusy uint16 = 3
	// CodeSnapshotNeeded aborts a ship stream whose tail position was
	// compacted away; the replica reconnects and receives a fresh snapshot.
	CodeSnapshotNeeded uint16 = 4
	// CodeBadRequest rejects a malformed message mid-stream.
	CodeBadRequest uint16 = 5
	// CodeInternal reports a server-side failure.
	CodeInternal uint16 = 6
)

// PredictResult status bytes.
const (
	// StatusOK carries a usable prediction.
	StatusOK uint8 = 0
	// StatusNoPrediction is a NULL prediction (warm-up, low confidence).
	StatusNoPrediction uint8 = 1
	// StatusUnknownTemplate names a template the node does not serve.
	StatusUnknownTemplate uint8 = 2
	// StatusBadRequest reports a malformed request (e.g. wrong dims).
	StatusBadRequest uint8 = 3
	// StatusNotReady reports a replica that holds no installed state yet.
	StatusNotReady uint8 = 4
)

// ErrBadFrame reports a frame that failed CRC or structural validation;
// the connection is no longer trustworthy and must be dropped.
var ErrBadFrame = errors.New("netproto: bad frame")

// ErrVersionMismatch reports a Hello from a different protocol version.
var ErrVersionMismatch = errors.New("netproto: protocol version mismatch")

// Conn frames messages over a net.Conn. Not safe for concurrent writers or
// concurrent readers; the protocol is sequential per direction (one reader
// goroutine, one writer goroutine at most).
type Conn struct {
	c   net.Conn
	fr  frameReader
	bw  *bufio.Writer
	wb  []byte // write frame buffer, reused across WriteMsg calls
	inj *faults.Injector
}

// NewConn wraps a net.Conn. inj optionally injects wire faults (torn or
// corrupted frames) on the write side; nil disables injection.
func NewConn(c net.Conn, inj *faults.Injector) *Conn {
	return &Conn{
		c:   c,
		fr:  frameReader{r: bufio.NewReaderSize(c, 64<<10)},
		bw:  bufio.NewWriterSize(c, 64<<10),
		inj: inj,
	}
}

// NetConn exposes the underlying connection (deadlines, close).
func (c *Conn) NetConn() net.Conn { return c.c }

// appendFrame appends body framed under t to dst.
func appendFrame(dst []byte, t MsgType, body []byte) ([]byte, error) {
	payLen := 1 + len(body)
	if payLen > MaxFrame {
		return dst, fmt.Errorf("netproto: message of %d bytes exceeds MaxFrame", payLen)
	}
	start := len(dst)
	dst = append(le.AppendUint32(le.AppendUint32(dst, uint32(payLen)), 0), byte(t)) // checksum filled below
	dst = append(dst, body...)
	le.PutUint32(dst[start+4:], crc32.Checksum(dst[start+frameOverhead:], crcTable))
	return dst, nil
}

// WriteMsg frames body under msgType and flushes it.
func (c *Conn) WriteMsg(t MsgType, body []byte) error {
	frame, err := appendFrame(c.wb[:0], t, body)
	if err != nil {
		return err
	}
	c.wb = frame

	if c.inj.Should(faults.NetCorruptFrame) {
		// Flip a payload byte after the CRC was computed: the peer must
		// detect the mismatch and drop the connection.
		frame[frameOverhead+c.inj.Intn(len(frame)-frameOverhead)] ^= 0x40
	}
	if c.inj.Should(faults.NetTornFrame) && len(frame) > 1 {
		// Peer dies mid-write: a prefix lands, then the connection breaks.
		cut := 1 + c.inj.Intn(len(frame)-1)
		c.bw.Write(frame[:cut]) //nolint:errcheck
		c.bw.Flush()            //nolint:errcheck
		c.c.Close()             //nolint:errcheck
		return fmt.Errorf("netproto: torn frame: %w", faults.ErrInjected)
	}

	if _, err := c.bw.Write(frame); err != nil {
		return err
	}
	return c.bw.Flush()
}

// ReadMsg reads one frame and returns its type and body. The body aliases
// an internal buffer valid until the next ReadMsg. A CRC or structural
// failure returns an error wrapping ErrBadFrame; a cleanly closed peer
// returns io.EOF, a peer lost mid-frame io.ErrUnexpectedEOF.
func (c *Conn) ReadMsg() (MsgType, []byte, error) { return c.fr.read() }

// ReadExpect is ReadMsg for a reader that wants one of the given types. A
// MsgError comes back as its ErrorMsg, the peer's typed rejection, or as a
// plain error when its body does not decode; any other type is an error.
// Neither wraps ErrBadFrame: the frame itself was sound.
func (c *Conn) ReadExpect(want ...MsgType) (MsgType, []byte, error) {
	t, body, err := c.fr.read()
	if err != nil {
		return 0, nil, err
	}
	for _, w := range want {
		if t == w {
			return t, body, nil
		}
	}
	if t == MsgError {
		if em, derr := DecodeError(body); derr == nil {
			return 0, nil, em
		}
		return 0, nil, errors.New("netproto: peer sent an undecodable error")
	}
	return 0, nil, fmt.Errorf("netproto: unexpected %v message", t)
}

// frameReader reads frames from r, reusing its header and payload buffers
// across calls: the one frame reader behind Conn and ReadSnapshotFile.
type frameReader struct {
	r   io.Reader
	hdr [frameOverhead]byte
	buf []byte
}

func (f *frameReader) read() (MsgType, []byte, error) {
	if _, err := io.ReadFull(f.r, f.hdr[:]); err != nil {
		return 0, nil, err
	}
	payLen := le.Uint32(f.hdr[0:4])
	sum := le.Uint32(f.hdr[4:8])
	if payLen < 1 || payLen > MaxFrame {
		return 0, nil, fmt.Errorf("%w: implausible frame length %d", ErrBadFrame, payLen)
	}
	if cap(f.buf) < int(payLen) {
		f.buf = make([]byte, payLen)
	}
	payload := f.buf[:payLen]
	if _, err := io.ReadFull(f.r, payload); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	if got := crc32.Checksum(payload, crcTable); got != sum {
		return 0, nil, fmt.Errorf("%w: checksum mismatch: got %08x want %08x", ErrBadFrame, got, sum)
	}
	return MsgType(payload[0]), payload[1:], nil
}

// --- message codecs ---------------------------------------------------------
//
// Bodies are hand-encoded little-endian (no reflection on the wire). Each
// Encode appends to dst and returns the extended slice; each Decode
// validates lengths and returns a descriptive error wrapping ErrBadFrame.

// Hello is the dialer's handshake. Epoch and LastSeq are meaningful for
// RoleReplica: the leader lineage epoch and newest WAL sequence of the
// state the replica already holds (both 0 on a cold replica or a client).
type Hello struct {
	Version uint16
	Role    Role
	Epoch   uint64
	LastSeq uint64
}

// Encode appends the hello body to dst.
func (h Hello) Encode(dst []byte) []byte {
	dst = le.AppendUint16(append(dst, Magic...), h.Version)
	return le.AppendUint64(le.AppendUint64(append(dst, byte(h.Role)), h.Epoch), h.LastSeq)
}

// DecodeHello parses a hello body. A wrong magic is a confused peer
// (ErrBadFrame); a wrong version is ErrVersionMismatch — the caller replies
// with CodeVersionMismatch so the peer can log both versions.
func DecodeHello(b []byte) (Hello, error) {
	r := reader{b: b}
	magic := string(r.take(len(Magic)))
	h := Hello{Version: r.u16(), Role: Role(r.u8()), Epoch: r.u64(), LastSeq: r.u64()}
	switch {
	case r.finish("hello") != nil:
		return Hello{}, r.err
	case magic != Magic:
		return Hello{}, fmt.Errorf("%w: bad hello magic", ErrBadFrame)
	case h.Version != Version:
		return h, fmt.Errorf("%w: peer speaks v%d, this node v%d", ErrVersionMismatch, h.Version, Version)
	case h.Role != RoleClient && h.Role != RoleReplica:
		return h, fmt.Errorf("%w: unknown role %d", ErrBadFrame, h.Role)
	}
	return h, nil
}

// Welcome accepts a handshake. Resume (replica role only) means the leader
// will tail its WAL from the replica's LastSeq instead of shipping a full
// snapshot; Epoch is the leader lineage epoch the stream is fenced to;
// LastSeq the leader's current WAL tail.
type Welcome struct {
	Version uint16
	Resume  bool
	Epoch   uint64
	LastSeq uint64
}

// Encode appends the welcome body to dst.
func (w Welcome) Encode(dst []byte) []byte {
	dst = append(le.AppendUint16(dst, w.Version), boolByte(w.Resume))
	return le.AppendUint64(le.AppendUint64(dst, w.Epoch), w.LastSeq)
}

// DecodeWelcome parses a welcome body.
func DecodeWelcome(b []byte) (Welcome, error) {
	r := reader{b: b}
	w := Welcome{Version: r.u16(), Resume: r.u8() != 0, Epoch: r.u64(), LastSeq: r.u64()}
	return w, r.finish("welcome")
}

// ErrorMsg is a typed protocol error.
type ErrorMsg struct {
	Code uint16
	Msg  string
}

// Error implements the error interface so an ErrorMsg can propagate as the
// session error.
func (e ErrorMsg) Error() string {
	return fmt.Sprintf("netproto: peer error %d: %s", e.Code, e.Msg)
}

// Encode appends the error body to dst.
func (e ErrorMsg) Encode(dst []byte) []byte {
	return appendString(le.AppendUint16(dst, e.Code), e.Msg)
}

// DecodeError parses an error body.
func DecodeError(b []byte) (ErrorMsg, error) {
	r := reader{b: b}
	e := ErrorMsg{Code: r.u16(), Msg: r.str()}
	return e, r.finish("error")
}

// PredictRequest asks for a plan prediction at one plan-space point.
type PredictRequest struct {
	ID       uint64
	Template string
	Point    []float64
}

// Encode appends the request body to dst.
func (p PredictRequest) Encode(dst []byte) []byte {
	dst = le.AppendUint16(appendString(le.AppendUint64(dst, p.ID), p.Template), uint16(len(p.Point)))
	for _, v := range p.Point {
		dst = le.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodePredictRequest parses a predict request body.
func DecodePredictRequest(b []byte) (PredictRequest, error) {
	r := reader{b: b}
	p := PredictRequest{ID: r.u64(), Template: r.str()}
	dims := int(r.u16())
	if r.err == nil && len(r.b) != 8*dims {
		r.err = fmt.Errorf("%w: predict dims %d disagree with body", ErrBadFrame, dims)
	}
	if r.err != nil {
		return PredictRequest{}, r.err
	}
	p.Point = make([]float64, dims)
	for i := range p.Point {
		p.Point[i] = r.f64()
	}
	return p, nil
}

// PredictResult answers one PredictRequest. Epoch is the template's
// drift-reset epoch and ModelVersion the predicted-from model snapshot's
// version — together they identify exactly which learned state produced
// the prediction, which is what the leader/replica equivalence contract is
// stated against. Fingerprint carries the plan fingerprint on StatusOK and
// ErrMsg a diagnostic otherwise.
type PredictResult struct {
	ID           uint64
	Status       uint8
	Plan         int64
	Confidence   float64
	Cost         float64
	CostKnown    bool
	Epoch        int64
	ModelVersion uint64
	Fingerprint  string
	ErrMsg       string
}

// Encode appends the result body to dst.
func (p PredictResult) Encode(dst []byte) []byte {
	dst = le.AppendUint64(append(le.AppendUint64(dst, p.ID), p.Status), uint64(p.Plan))
	dst = le.AppendUint64(le.AppendUint64(dst, math.Float64bits(p.Confidence)), math.Float64bits(p.Cost))
	dst = le.AppendUint64(le.AppendUint64(append(dst, boolByte(p.CostKnown)), uint64(p.Epoch)), p.ModelVersion)
	return appendString(appendString(dst, p.Fingerprint), p.ErrMsg)
}

// DecodePredictResult parses a predict result body.
func DecodePredictResult(b []byte) (PredictResult, error) {
	r := reader{b: b}
	f := r.take(8 + 1 + 8 + 8 + 8 + 1 + 8 + 8) // the fixed part, read by offset
	p := PredictResult{ID: le.Uint64(f), Status: f[8], Plan: int64(le.Uint64(f[9:])),
		Confidence: math.Float64frombits(le.Uint64(f[17:])), Cost: math.Float64frombits(le.Uint64(f[25:])),
		CostKnown: f[33] != 0, Epoch: int64(le.Uint64(f[34:])), ModelVersion: le.Uint64(f[42:]),
		Fingerprint: r.str(), ErrMsg: r.str()}
	return p, r.finish("predict result")
}

// Err converts a non-OK, non-NULL status into an error (nil for StatusOK
// and StatusNoPrediction, which are answers, not failures).
func (p PredictResult) Err() error {
	switch p.Status {
	case StatusOK, StatusNoPrediction:
		return nil
	case StatusUnknownTemplate:
		return fmt.Errorf("netproto: unknown template: %s", p.ErrMsg)
	case StatusBadRequest:
		return fmt.Errorf("netproto: bad request: %s", p.ErrMsg)
	case StatusNotReady:
		return errors.New("netproto: replica holds no state yet")
	}
	return fmt.Errorf("netproto: predict status %d: %s", p.Status, p.ErrMsg)
}

// TemplateState is one template inside a Snapshot: its name, its SQL and
// its core.Online EncodeState bytes, which the wire layer treats as opaque.
type TemplateState struct {
	Name  string
	SQL   string
	State []byte
}

// PlanState is one cached plan inside a checkpoint: its dense plan id (its
// fingerprint is Fingerprints[ID]), the template that owns it, its estimated
// cost, and its tree in the optimizer's plan codec — opaque here, like
// learner bytes.
type PlanState struct {
	ID       int
	Template string
	Cost     float64
	Tree     []byte
}

// Snapshot is a System's learned state, the one form a checkpoint file and
// the replica ship stream both carry: Epoch, the leader lineage epoch (0 when
// the writer had no durability), the database it was learned on, every
// template's SQL and learner encoding, and the plan fingerprint table (dense
// plan id -> fingerprint). A durable leader's checkpoint is where its
// lineage lives: Open adopts the epoch only when it recovered everything
// the checkpoint and the log hold. A checkpoint adds Plans, the plan cache
// least recently used first; the ship stream leaves it empty and stamps
// BaseSeq, the WAL sequence floor the snapshot covers — the shipped tail
// starts there, and per-template applied-sequence watermarks inside the
// learner encodings make the overlap idempotent.
type Snapshot struct {
	Epoch        uint64
	BaseSeq      uint64
	DBScale      int
	DBSeed       int64
	Templates    []TemplateState
	Fingerprints []string
	Plans        []PlanState
}

// Encode appends the snapshot body to dst.
func (s *Snapshot) Encode(dst []byte) []byte {
	dst = le.AppendUint64(le.AppendUint64(dst, s.Epoch), s.BaseSeq)
	dst = le.AppendUint64(le.AppendUint64(dst, uint64(s.DBScale)), uint64(s.DBSeed))
	dst = le.AppendUint32(dst, uint32(len(s.Templates)))
	for _, t := range s.Templates {
		dst = appendBlob(appendBlob(appendString(dst, t.Name), t.SQL), t.State)
	}
	dst = le.AppendUint32(dst, uint32(len(s.Fingerprints)))
	for _, fp := range s.Fingerprints {
		dst = appendBlob(dst, fp)
	}
	dst = le.AppendUint32(dst, uint32(len(s.Plans)))
	for _, p := range s.Plans {
		dst = appendString(le.AppendUint32(dst, uint32(p.ID)), p.Template)
		dst = appendBlob(le.AppendUint64(dst, math.Float64bits(p.Cost)), p.Tree)
	}
	return dst
}

// DecodeSnapshot parses and validates a snapshot body: the one decoder
// behind LoadState and a replica's install. Beyond the framing it checks
// what a restore relies on — template names and fingerprints non-empty and
// unique, a plan id indexing the fingerprint table at most once, a plan's
// template present — so a checksummed but inconsistent snapshot is rejected
// whole instead of failing half-restored. The returned byte slices are
// copies (safe to retain past the next ReadMsg).
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	r := reader{b: b}
	s := &Snapshot{Epoch: r.u64(), BaseSeq: r.u64(), DBScale: int(r.u64()), DBSeed: int64(r.u64())}
	names, fps, ids := map[string]bool{}, map[string]bool{}, map[int]bool{}
	for n := r.u32(); n > 0 && r.err == nil; n-- {
		t := TemplateState{Name: r.str(), SQL: string(r.raw()), State: r.blob()}
		r.expect(t.Name != "" && !names[t.Name], "empty or repeated template name %q", t.Name)
		names[t.Name] = true
		s.Templates = append(s.Templates, t)
	}
	for n := r.u32(); n > 0 && r.err == nil; n-- {
		fp := string(r.raw())
		r.expect(fp != "" && !fps[fp], "empty or repeated plan fingerprint %q", fp)
		fps[fp] = true
		s.Fingerprints = append(s.Fingerprints, fp)
	}
	for n := r.u32(); n > 0 && r.err == nil; n-- {
		p := PlanState{ID: int(r.u32()), Template: r.str(), Cost: r.f64(), Tree: r.blob()}
		r.expect(p.ID < len(s.Fingerprints) && !ids[p.ID], "plan id %d out of range or repeated", p.ID)
		r.expect(names[p.Template], "plan %d names unknown template %q", p.ID, p.Template)
		ids[p.ID] = true
		s.Plans = append(s.Plans, p)
	}
	if err := r.finish("snapshot"); err != nil {
		return nil, err
	}
	return s, nil
}

// A checkpoint file is a file header — snapshotMagic, then a u16 version —
// followed by the MsgSnapshot frame the ship stream carries. Version 1 held
// a reflected (gob) payload; it is recognised by its header alone and not
// read.
const (
	snapshotMagic          = "PPCSNAP\x00"
	snapshotVersion uint16 = 2
)

// errSnapshotV1 reports a version-1 checkpoint file: recognised, not read.
var errSnapshotV1 = errors.New("version 1 (gob) checkpoint, no longer read")

// AppendSnapshotFile appends s to dst as a checkpoint file. It fails when
// the snapshot exceeds MaxFrame: a file that could not be read back or
// shipped is never written.
func AppendSnapshotFile(dst []byte, s *Snapshot) ([]byte, error) {
	dst = le.AppendUint16(append(dst, snapshotMagic...), snapshotVersion)
	return appendFrame(dst, MsgSnapshot, s.Encode(nil))
}

// ReadSnapshotFile reads a checkpoint file written by AppendSnapshotFile:
// the header, then one frame through the reader Conn uses, decoded by
// DecodeSnapshot.
func ReadSnapshotFile(r io.Reader) (*Snapshot, error) {
	var hdr [len(snapshotMagic) + 2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("short snapshot header: %w", err)
	}
	if string(hdr[:len(snapshotMagic)]) != snapshotMagic {
		return nil, errors.New("bad magic (not a PPC snapshot)")
	}
	if v := le.Uint16(hdr[len(snapshotMagic):]); v == 1 {
		return nil, errSnapshotV1
	} else if v != snapshotVersion {
		return nil, fmt.Errorf("unsupported snapshot version %d", v)
	}
	f := frameReader{r: r}
	t, body, err := f.read()
	if err == nil && t != MsgSnapshot {
		err = fmt.Errorf("%w: a %v message", ErrBadFrame, t)
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot frame: %w", err)
	}
	return DecodeSnapshot(body)
}

// Heartbeat carries liveness plus a fenced sequence number: leader -> the
// WAL tail seq; replica -> the applied seq acknowledgement.
type Heartbeat struct {
	Seq   uint64
	Epoch uint64
}

// Encode appends the heartbeat body to dst.
func (h Heartbeat) Encode(dst []byte) []byte {
	return le.AppendUint64(le.AppendUint64(dst, h.Seq), h.Epoch)
}

// DecodeHeartbeat parses a heartbeat body.
func DecodeHeartbeat(b []byte) (Heartbeat, error) {
	r := reader{b: b}
	h := Heartbeat{Seq: r.u64(), Epoch: r.u64()}
	return h, r.finish("heartbeat")
}

// --- primitive append/take helpers ------------------------------------------

var le = binary.LittleEndian

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// appendString appends a u16-length-prefixed string (the WAL's template
// name convention). Strings longer than maxString are truncated: every name
// is within it, and the longer strings a message carries are diagnostics.
func appendString(dst []byte, s string) []byte {
	if len(s) > maxString {
		s = s[:maxString]
	}
	return append(le.AppendUint16(dst, uint16(len(s))), s...)
}

// appendBlob appends a u32-length-prefixed byte string.
func appendBlob[T string | []byte](dst []byte, b T) []byte {
	return append(le.AppendUint32(dst, uint32(len(b))), b...)
}

// reader consumes a message body front to back: the one bounds check every
// decoder shares. Its first error sticks and wraps ErrBadFrame, and it
// empties the body, so every later read returns zeros and a decoder checks
// once, at finish.
type reader struct {
	b   []byte
	err error
}

// zeros backs the reads after an error: every fixed-width read, and the
// predict result's fixed part, is within it.
var zeros [64]byte

// errTruncated is the error of a body shorter than its fields.
var errTruncated = fmt.Errorf("%w: truncated body", ErrBadFrame)

// take consumes n bytes, aliasing the body. It stays small enough to
// inline (no call on either path), since the predict request and result
// decode through it on every RPC.
func (r *reader) take(n int) []byte {
	if len(r.b) < n {
		if r.err == nil {
			r.err = errTruncated
		}
		r.b = nil
		return zeros[:min(n, len(zeros))]
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u8() uint8    { return r.take(1)[0] }
func (r *reader) u16() uint16  { return le.Uint16(r.take(2)) }
func (r *reader) u32() uint32  { return le.Uint32(r.take(4)) }
func (r *reader) u64() uint64  { return le.Uint64(r.take(8)) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// str consumes a u16-length-prefixed string.
func (r *reader) str() string { return string(r.take(int(r.u16()))) }

// raw consumes a u32-length-prefixed byte string, aliasing the body.
func (r *reader) raw() []byte { return r.take(int(r.u32())) }

// blob is raw, copied.
func (r *reader) blob() []byte { return append([]byte(nil), r.raw()...) }

// expect records a malformed body unless ok.
func (r *reader) expect(ok bool, format string, args ...any) {
	if !ok && r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrBadFrame}, args...)...)
		r.b = nil
	}
}

// finish reports the first error, or bytes left past a complete body.
func (r *reader) finish(what string) error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%w: %d trailing %s bytes", ErrBadFrame, len(r.b), what)
	}
	return r.err
}
