package netproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"

	"repro/internal/faults"
)

// connPair returns two framed ends of a real loopback TCP connection.
func connPair(t *testing.T, inj *faults.Injector) (*Conn, *Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() //nolint:errcheck
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	dialer, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	acc := <-ch
	if acc.err != nil {
		t.Fatal(acc.err)
	}
	t.Cleanup(func() {
		dialer.Close() //nolint:errcheck
		acc.c.Close()  //nolint:errcheck
	})
	return NewConn(dialer, inj), NewConn(acc.c, nil)
}

func TestMessageRoundTrips(t *testing.T) {
	hello := Hello{Version: Version, Role: RoleReplica, Epoch: 0xfeedface, LastSeq: 123456}
	if got, err := DecodeHello(hello.Encode(nil)); err != nil || got != hello {
		t.Errorf("hello: %+v, %v", got, err)
	}
	welcome := Welcome{Version: Version, Resume: true, Epoch: 7, LastSeq: 99}
	if got, err := DecodeWelcome(welcome.Encode(nil)); err != nil || got != welcome {
		t.Errorf("welcome: %+v, %v", got, err)
	}
	em := ErrorMsg{Code: CodeSnapshotNeeded, Msg: "tail compacted"}
	if got, err := DecodeError(em.Encode(nil)); err != nil || got != em {
		t.Errorf("error: %+v, %v", got, err)
	}
	// A replica session ends with the leader's ErrorMsg as its error.
	if got, want := em.Error(), fmt.Sprintf("netproto: peer error %d: tail compacted", CodeSnapshotNeeded); got != want {
		t.Errorf("error message %q, want %q", got, want)
	}
	req := PredictRequest{ID: 42, Template: "Q1", Point: []float64{0.25, -3.5, 1e300}}
	if got, err := DecodePredictRequest(req.Encode(nil)); err != nil || !reflect.DeepEqual(got, req) {
		t.Errorf("predict request: %+v, %v", got, err)
	}
	res := PredictResult{
		ID: 42, Status: StatusOK, Plan: 17, Confidence: 0.75, Cost: 1234.5,
		CostKnown: true, Epoch: 3, ModelVersion: 88, Fingerprint: "scan(lineitem)",
	}
	if got, err := DecodePredictResult(res.Encode(nil)); err != nil || got != res {
		t.Errorf("predict result: %+v, %v", got, err)
	}
	snap := &Snapshot{
		Epoch: 9, BaseSeq: 1000, DBScale: 2000, DBSeed: -5,
		Templates: []TemplateState{
			{Name: "Q1", SQL: "SELECT COUNT(*) FROM part p WHERE p.p_size <= ?", State: []byte{1, 2, 3}},
			{Name: "Q2"},
		},
		Fingerprints: []string{"plan-a", "plan-b", "plan-c"},
		Plans:        []PlanState{{ID: 2, Template: "Q2", Cost: 12.5, Tree: []byte{7, 8}}},
	}
	if got, err := DecodeSnapshot(snap.Encode(nil)); err != nil || !reflect.DeepEqual(got, snap) {
		t.Errorf("snapshot round trip: %+v, %v", got, err)
	}
	hb := Heartbeat{Seq: 5, Epoch: 6}
	if got, err := DecodeHeartbeat(hb.Encode(nil)); err != nil || got != hb {
		t.Errorf("heartbeat: %+v, %v", got, err)
	}
}

func TestPredictResultErr(t *testing.T) {
	for _, status := range []uint8{StatusOK, StatusNoPrediction} {
		if err := (PredictResult{Status: status}).Err(); err != nil {
			t.Errorf("status %d: unexpected error %v", status, err)
		}
	}
	for _, status := range []uint8{StatusUnknownTemplate, StatusBadRequest, StatusNotReady} {
		if err := (PredictResult{Status: status}).Err(); err == nil {
			t.Errorf("status %d: expected an error", status)
		}
	}
}

func TestConnRoundTrip(t *testing.T) {
	w, r := connPair(t, nil)
	msgs := []struct {
		t    MsgType
		body []byte
	}{
		{MsgHello, Hello{Version: Version, Role: RoleClient}.Encode(nil)},
		{MsgPing, nil},
		{MsgRecords, make([]byte, 10_000)},
	}
	go func() {
		for _, m := range msgs {
			if err := w.WriteMsg(m.t, m.body); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for _, m := range msgs {
		mt, body, err := r.ReadMsg()
		if err != nil {
			t.Fatal(err)
		}
		if mt != m.t || len(body) != len(m.body) {
			t.Fatalf("read %v/%d bytes, want %v/%d", mt, len(body), m.t, len(m.body))
		}
	}
}

// TestReadExpect: a wanted type comes back with its body; a decodable
// MsgError is its ErrorMsg, an undecodable one and an unwanted type are
// errors that do not wrap ErrBadFrame.
func TestReadExpect(t *testing.T) {
	w, r := connPair(t, nil)
	go func() {
		w.WriteMsg(MsgHeartbeat, Heartbeat{Seq: 3}.Encode(nil))                 //nolint:errcheck
		w.WriteMsg(MsgError, ErrorMsg{Code: CodeBusy, Msg: "full"}.Encode(nil)) //nolint:errcheck
		w.WriteMsg(MsgError, []byte{1})                                         //nolint:errcheck
		w.WriteMsg(MsgPong, nil)                                                //nolint:errcheck
	}()
	if mt, body, err := r.ReadExpect(MsgRecords, MsgHeartbeat); err != nil || mt != MsgHeartbeat {
		t.Fatalf("wanted frame: %v, %v", mt, err)
	} else if hb, err := DecodeHeartbeat(body); err != nil || hb.Seq != 3 {
		t.Fatalf("wanted frame's body: %+v, %v", hb, err)
	}
	var em ErrorMsg
	if _, _, err := r.ReadExpect(MsgWelcome); !errors.As(err, &em) || em.Code != CodeBusy || em.Msg != "full" {
		t.Fatalf("error frame: %v, want ErrorMsg{CodeBusy, full}", err)
	}
	for _, what := range []string{"undecodable error", "unwanted type"} {
		_, _, err := r.ReadExpect(MsgWelcome)
		if err == nil || errors.As(err, &em) || errors.Is(err, ErrBadFrame) {
			t.Fatalf("%s: %v, want a plain error", what, err)
		}
	}
}

// TestTornFrameMidStream covers the satellite fault class: the peer dies
// mid-write, a frame prefix lands, and the reader must fail with
// ErrUnexpectedEOF — never deliver or misparse the partial frame.
func TestTornFrameMidStream(t *testing.T) {
	inj := faults.New(41)
	w, r := connPair(t, inj)

	done := make(chan error, 1)
	go func() {
		if err := w.WriteMsg(MsgPing, []byte("healthy")); err != nil {
			done <- err
			return
		}
		inj.Enable(faults.NetTornFrame, 1.0)
		done <- w.WriteMsg(MsgRecords, make([]byte, 4096))
	}()

	if mt, _, err := r.ReadMsg(); err != nil || mt != MsgPing {
		t.Fatalf("healthy frame: %v, %v", mt, err)
	}
	if _, _, err := r.ReadMsg(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn frame read error = %v, want ErrUnexpectedEOF", err)
	}
	if err := <-done; !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("torn frame write error = %v, want ErrInjected", err)
	}
}

// TestCorruptFrameDetected flips a payload byte after the checksum was
// computed; the reader must reject the frame with ErrBadFrame.
func TestCorruptFrameDetected(t *testing.T) {
	inj := faults.New(43)
	inj.Enable(faults.NetCorruptFrame, 1.0)
	w, r := connPair(t, inj)

	go w.WriteMsg(MsgHeartbeat, Heartbeat{Seq: 1, Epoch: 2}.Encode(nil)) //nolint:errcheck
	if _, _, err := r.ReadMsg(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("corrupt frame read error = %v, want ErrBadFrame", err)
	}
}

// TestReaderRejectsImplausibleLengths feeds raw bytes with hostile length
// prefixes: a zero-length payload and one past MaxFrame must both be
// rejected before any allocation or read is attempted.
func TestReaderRejectsImplausibleLengths(t *testing.T) {
	for _, payLen := range []uint32{0, MaxFrame + 1} {
		w, r := connPair(t, nil)
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], payLen)
		go w.NetConn().Write(hdr[:]) //nolint:errcheck
		if _, _, err := r.ReadMsg(); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("payLen %d: read error = %v, want ErrBadFrame", payLen, err)
		}
	}
}

func TestDecodeHelloRejections(t *testing.T) {
	// Version skew: the error is typed and the decoded version survives so
	// the server can name both versions in its rejection.
	h := Hello{Version: 99, Role: RoleClient}
	got, err := DecodeHello(h.Encode(nil))
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("version 99: err = %v, want ErrVersionMismatch", err)
	}
	if got.Version != 99 {
		t.Errorf("decoded version = %d, want 99", got.Version)
	}

	// Wrong magic: a confused peer, not a version issue.
	b := Hello{Version: Version, Role: RoleClient}.Encode(nil)
	b[0] ^= 0xff
	if _, err := DecodeHello(b); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bad magic: err = %v, want ErrBadFrame", err)
	}

	// Unknown role.
	if _, err := DecodeHello(Hello{Version: Version, Role: 9}.Encode(nil)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bad role: err = %v, want ErrBadFrame", err)
	}

	// Truncation.
	if _, err := DecodeHello(b[:5]); !errors.Is(err, ErrBadFrame) {
		t.Errorf("truncated hello: err = %v, want ErrBadFrame", err)
	}
}

func TestDecodeRejectsTruncatedBodies(t *testing.T) {
	full := (&Snapshot{
		Epoch:        1,
		Templates:    []TemplateState{{Name: "Q1", SQL: "S", State: []byte{1, 2, 3, 4}}},
		Fingerprints: []string{"fp"},
		Plans:        []PlanState{{ID: 0, Template: "Q1", Tree: []byte{1}}},
	}).Encode(nil)
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeSnapshot(full[:cut]); err == nil {
			t.Fatalf("snapshot truncated at %d accepted", cut)
		}
	}
	res := PredictResult{ID: 1, Fingerprint: "fp", ErrMsg: "m"}.Encode(nil)
	for cut := 0; cut < len(res); cut++ {
		if _, err := DecodePredictResult(res[:cut]); err == nil {
			t.Fatalf("predict result truncated at %d accepted", cut)
		}
	}
}

// TestDecodeSnapshotRejectsInconsistentState: a snapshot whose framing is
// sound but whose content a restore could not use is rejected whole, with
// ErrBadFrame — never half-installed.
func TestDecodeSnapshotRejectsInconsistentState(t *testing.T) {
	valid := func() *Snapshot {
		return &Snapshot{
			Templates:    []TemplateState{{Name: "Q1"}, {Name: "Q2"}},
			Fingerprints: []string{"a", "b"},
			Plans:        []PlanState{{ID: 1, Template: "Q2"}},
		}
	}
	for name, mutate := range map[string]func(*Snapshot){
		"empty template name":    func(s *Snapshot) { s.Templates[1].Name = "" },
		"repeated template name": func(s *Snapshot) { s.Templates[1].Name = "Q1" },
		"empty fingerprint":      func(s *Snapshot) { s.Fingerprints[0] = "" },
		"repeated fingerprint":   func(s *Snapshot) { s.Fingerprints[1] = "a" },
		"plan id out of range":   func(s *Snapshot) { s.Plans[0].ID = 2 },
		"repeated plan id":       func(s *Snapshot) { s.Plans = append(s.Plans, s.Plans[0]) },
		"plan of no template":    func(s *Snapshot) { s.Plans[0].Template = "Q9" },
	} {
		snap := valid()
		mutate(snap)
		if _, err := DecodeSnapshot(snap.Encode(nil)); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: decode error = %v, want ErrBadFrame", name, err)
		}
	}
	if _, err := DecodeSnapshot(valid().Encode(nil)); err != nil {
		t.Fatalf("the valid snapshot: %v", err)
	}
}

// TestSnapshotFile: a checkpoint file is the header and the MsgSnapshot
// frame; it reads back through the frame reader Conn uses, a version-1 file
// is recognised by its header alone, and damage anywhere is an error.
func TestSnapshotFile(t *testing.T) {
	snap := &Snapshot{DBScale: 2000, DBSeed: 5, Templates: []TemplateState{{Name: "Q1", State: []byte{1}}}}
	file, err := AppendSnapshotFile(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ReadSnapshotFile(bytes.NewReader(file)); err != nil || !reflect.DeepEqual(got, snap) {
		t.Fatalf("read back %+v, %v", got, err)
	}
	v1 := append([]byte(snapshotMagic), 1, 0)
	if _, err := ReadSnapshotFile(bytes.NewReader(append(v1, file[len(v1):]...))); !errors.Is(err, errSnapshotV1) {
		t.Errorf("version-1 header: %v, want errSnapshotV1", err)
	}
	for off := range file {
		bad := append([]byte(nil), file...)
		bad[off] ^= 0xff
		if _, err := ReadSnapshotFile(bytes.NewReader(bad)); err == nil {
			t.Fatalf("a flipped byte at %d of %d read back", off, len(file))
		}
	}
	// The file shares the wire's size bound: a snapshot the ship stream could
	// not carry is never written.
	if _, err := appendFrame(nil, MsgSnapshot, make([]byte, MaxFrame)); err == nil {
		t.Error("a frame past MaxFrame was built")
	}
	if MsgSnapshot.String() != "snapshot" || MsgType(77).String() != "netproto.MsgType(77)" {
		t.Errorf("message names: %q, %q", MsgSnapshot.String(), MsgType(77).String())
	}
}
