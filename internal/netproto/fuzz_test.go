package netproto

import (
	"bytes"
	"math"
	"testing"
)

// codecs pairs each of the seven message decoders with its encoder, behind
// one shape: decode a body, and if it decodes, give back its re-encoding.
var codecs = []struct {
	name   string
	recode func(body []byte) ([]byte, error)
}{
	{"hello", func(b []byte) ([]byte, error) { m, err := DecodeHello(b); return m.Encode(nil), err }},
	{"welcome", func(b []byte) ([]byte, error) { m, err := DecodeWelcome(b); return m.Encode(nil), err }},
	{"error", func(b []byte) ([]byte, error) { m, err := DecodeError(b); return m.Encode(nil), err }},
	{"predict", func(b []byte) ([]byte, error) { m, err := DecodePredictRequest(b); return m.Encode(nil), err }},
	{"result", func(b []byte) ([]byte, error) { m, err := DecodePredictResult(b); return m.Encode(nil), err }},
	{"snapshot", func(b []byte) ([]byte, error) {
		m, err := DecodeSnapshot(b)
		if err != nil {
			return nil, err
		}
		return m.Encode(nil), nil
	}},
	{"heartbeat", func(b []byte) ([]byte, error) { m, err := DecodeHeartbeat(b); return m.Encode(nil), err }},
}

// FuzzDecodeMessages throws arbitrary bodies — what the ship and predict
// ports read from a peer — at every message decoder: never a panic, and a
// body that decodes must decode → encode → decode to the same message.
// (Byte-inverse is too strict a property: Welcome.Resume and
// PredictResult.CostKnown accept any non-zero byte and encode it as 1.)
// Messages are compared by their encodings, which sidesteps NaN != NaN in
// the float fields.
func FuzzDecodeMessages(f *testing.F) {
	seeds := [][]byte{
		Hello{Version: Version, Role: RoleReplica, Epoch: 7, LastSeq: 42}.Encode(nil),
		Welcome{Version: Version, Resume: true, Epoch: 7, LastSeq: 99}.Encode(nil),
		ErrorMsg{Code: 3, Msg: "fenced"}.Encode(nil),
		PredictRequest{ID: 1, Template: "Q1", Point: []float64{0.25, math.NaN()}}.Encode(nil),
		PredictResult{ID: 1, Status: StatusOK, Plan: 5, Confidence: 0.9, Cost: 1e4, CostKnown: true,
			Epoch: -1, ModelVersion: 12, Fingerprint: "HJ(s,l)", ErrMsg: ""}.Encode(nil),
		Snapshot{Epoch: 7, BaseSeq: 3, Templates: []TemplateState{{Name: "Q1", State: []byte{1, 2, 3}}, {Name: "", State: nil}},
			Fingerprints: []string{"a", ""}}.Encode(nil),
		Heartbeat{Seq: 5, Epoch: 7}.Encode(nil),
	}
	for which, body := range seeds {
		f.Add(uint8(which), body)
		f.Add(uint8(which), body[:len(body)/2])
		f.Add(uint8(which+1), body) // the next decoder over: a confused peer
	}
	f.Add(uint8(5), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}) // 4 Gi templates declared

	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		c := codecs[int(which)%len(codecs)]
		once, err := c.recode(body)
		if err != nil {
			return
		}
		twice, err := c.recode(once)
		if err != nil {
			t.Fatalf("%s: the re-encoding of a decoded body does not decode: %v\n in   %x\n out  %x", c.name, err, body, once)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("%s: decode → encode → decode moved the message:\n once  %x\n twice %x", c.name, once, twice)
		}
	})
}
