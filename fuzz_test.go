package ppc

// One round-trip fuzzer over every decoder that reads bytes from outside
// the process: a checkpoint file after a crash, a learner state stream
// inside a snapshot, a cached plan's tree, and the seven wire messages a
// peer sends. Each is held to the same properties: it never panics, and an
// input it accepts goes decode → encode → decode to the same bytes. The
// checkpoint envelope also keeps its degrade contract: a snapshot or an
// error, never both and never neither.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netproto"
	"repro/internal/optimizer"
	"repro/internal/stats"
)

// decoders pairs each decoder with its encoder behind one shape: decode the
// input, and if it decodes, give back its re-encoding. The seven wire
// messages come first, named by netproto's message-name table.
var decoders = []struct {
	name   string
	recode func(b []byte) ([]byte, error)
}{
	{netproto.MsgHello.String(), func(b []byte) ([]byte, error) { m, err := netproto.DecodeHello(b); return m.Encode(nil), err }},
	{netproto.MsgWelcome.String(), func(b []byte) ([]byte, error) { m, err := netproto.DecodeWelcome(b); return m.Encode(nil), err }},
	{netproto.MsgError.String(), func(b []byte) ([]byte, error) { m, err := netproto.DecodeError(b); return m.Encode(nil), err }},
	{netproto.MsgPredict.String(), func(b []byte) ([]byte, error) { m, err := netproto.DecodePredictRequest(b); return m.Encode(nil), err }},
	{netproto.MsgPredictResult.String(), func(b []byte) ([]byte, error) { m, err := netproto.DecodePredictResult(b); return m.Encode(nil), err }},
	{netproto.MsgSnapshot.String(), func(b []byte) ([]byte, error) {
		m, err := netproto.DecodeSnapshot(b)
		if err != nil {
			return nil, err
		}
		return m.Encode(nil), nil
	}},
	{netproto.MsgHeartbeat.String(), func(b []byte) ([]byte, error) { m, err := netproto.DecodeHeartbeat(b); return m.Encode(nil), err }},
	{"checkpoint", func(b []byte) ([]byte, error) {
		snap, err := netproto.ReadSnapshotFile(bytes.NewReader(b))
		if (snap == nil) == (err == nil) {
			return nil, errDegradeContract
		}
		if err != nil {
			return nil, err
		}
		return netproto.AppendSnapshotFile(nil, snap)
	}},
	{"learner", func(b []byte) ([]byte, error) {
		o, err := core.NewReplicaOnline(b)
		if err != nil {
			return nil, err
		}
		return o.EncodeState(nil), nil
	}},
	{"plan-tree", func(b []byte) ([]byte, error) {
		n, err := optimizer.DecodeTree(b)
		if err != nil {
			return nil, err
		}
		return optimizer.AppendTree(nil, n), nil
	}},
	// A synopsis body, framed here as a learner state so mutations reach the
	// bucket, transform and plan loops the frame's checksum otherwise stops
	// at; the recode gives back the re-encoded body alone.
	{"synopsis-body", func(b []byte) ([]byte, error) {
		o, err := core.NewReplicaOnline(frameSynopsis(b))
		if err != nil {
			return nil, err
		}
		return synopsisBody(o.EncodeState(nil)), nil
	}},
}

// frameSynopsis frames a synopsis body as a learner state: the version-2
// frame (version, body length, CRC-32C of the body), the body, and a zero
// counter trailer.
func frameSynopsis(body []byte) []byte {
	le := binary.LittleEndian
	state := le.AppendUint32(le.AppendUint64([]byte{2}, uint64(len(body))), crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return append(append(state, body...), make([]byte, 32)...)
}

// synopsisBody returns the synopsis body inside a learner state.
func synopsisBody(state []byte) []byte {
	return state[1+8+4 : 1+8+4+binary.LittleEndian.Uint64(state[1:])]
}

// errDegradeContract marks a checkpoint read that returned both a snapshot
// and an error, or neither.
var errDegradeContract = errors.New("checkpoint read broke the degrade contract")

// decoderIndex returns the table position of a decoder by name.
func decoderIndex(tb testing.TB, name string) uint8 {
	for i, d := range decoders {
		if d.name == name {
			return uint8(i)
		}
	}
	tb.Fatalf("no decoder named %q", name)
	return 0
}

// learnerSeed encodes the state of a trained learner that carries the
// corrections section, so mutations explore the deep decode paths instead
// of dying at the synopsis frame.
func learnerSeed(tb testing.TB) []byte {
	o, err := core.NewOnline(core.OnlineConfig{Core: core.Config{
		Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5,
	}}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	corr := stats.NewCorrections(2)
	o.AttachCorrections(corr)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		if err := o.LearnValidated([]float64{rng.Float64() * 0.4, rng.Float64() * 0.4}, i%4, float64(i%10+1)); err != nil {
			tb.Fatal(err)
		}
		o.ApplyBatch(nil, []stats.Obs{{Site: 1 + i%2, LogQ: math.Log(2)}})
	}
	return o.EncodeState(nil)
}

// treeSeed is a plan tree that sets every kind of field the codec carries.
func treeSeed() []byte {
	scan := &optimizer.Node{Op: optimizer.OpIndexScan, Table: "lineitem", Alias: "l", IndexCol: "l_partkey",
		IndexLo: 1, IndexHi: 900, IndexSite: 2, EstRows: 12, EstCost: 40,
		SortedOn: optimizer.ColRef{Alias: "l", Column: "l_partkey"},
		Filters: []optimizer.Predicate{{Kind: optimizer.PredCmpNum, Col: optimizer.ColRef{Alias: "l", Column: "l_partkey"},
			Op: optimizer.OpLE, Value: 900, ParamIdx: 1, Site: 2}}}
	supp := &optimizer.Node{Op: optimizer.OpSeqScan, Table: "supplier", Alias: "s", EstRows: 4, EstCost: 9,
		Filters: []optimizer.Predicate{{Kind: optimizer.PredCmpStr, Col: optimizer.ColRef{Alias: "s", Column: "s_name"},
			StrValue: "x", ParamIdx: -1, Site: 3}}}
	join := &optimizer.Node{Op: optimizer.OpHashJoin, Left: scan, Right: supp, BuildLeft: true, JoinSite: 1,
		LeftCol: optimizer.ColRef{Alias: "l", Column: "l_suppkey"}, RightCol: optimizer.ColRef{Alias: "s", Column: "s_suppkey"},
		EstRows: 30, EstCost: 120}
	return optimizer.AppendTree(nil, &optimizer.Node{Op: optimizer.OpHashAgg, Left: join, EstRows: 3, EstCost: 130,
		GroupBy: []optimizer.ColRef{{Alias: "s", Column: "s_suppkey"}},
		Aggs:    []optimizer.SelectItem{{Agg: optimizer.AggCount}, {Agg: optimizer.AggSum, Col: optimizer.ColRef{Alias: "l", Column: "l_quantity"}}}})
}

// sectionOffsets returns where each optional section of a learner state
// stream begins: after the synopsis frame (u8 version, u64 body length, u32
// checksum, body) and the 32-byte counter trailer, each section is a u32 tag
// and a u32 body length ahead of its body.
func sectionOffsets(state []byte) []int {
	var offs []int
	for off := 1 + 8 + 4 + int(binary.LittleEndian.Uint64(state[1:])) + 32; off < len(state); {
		offs = append(offs, off)
		off += 8 + int(binary.LittleEndian.Uint32(state[off+4:]))
	}
	return offs
}

func FuzzDecode(f *testing.F) {
	// The wire messages, each whole, halved, and handed to the next decoder
	// over (a confused peer).
	snap := &netproto.Snapshot{Epoch: 7, BaseSeq: 3, DBScale: 2000, DBSeed: 5,
		Templates:    []netproto.TemplateState{{Name: "Q1", SQL: "SELECT 1", State: []byte{1, 2, 3}}, {Name: "Q2"}},
		Fingerprints: []string{"a", "b"},
		Plans:        []netproto.PlanState{{ID: 1, Template: "Q1", Cost: 2.5, Tree: []byte{9}}}}
	messages := [][]byte{
		netproto.Hello{Version: netproto.Version, Role: netproto.RoleReplica, Epoch: 7, LastSeq: 42}.Encode(nil),
		netproto.Welcome{Version: netproto.Version, Resume: true, Epoch: 7, LastSeq: 99}.Encode(nil),
		netproto.ErrorMsg{Code: 3, Msg: "fenced"}.Encode(nil),
		netproto.PredictRequest{ID: 1, Template: "Q1", Point: []float64{0.25, math.NaN()}}.Encode(nil),
		netproto.PredictResult{ID: 1, Status: netproto.StatusOK, Plan: 5, Confidence: 0.9, Cost: 1e4, CostKnown: true,
			Epoch: -1, ModelVersion: 12, Fingerprint: "HJ(s,l)", ErrMsg: ""}.Encode(nil),
		snap.Encode(nil),
		netproto.Heartbeat{Seq: 5, Epoch: 7}.Encode(nil),
	}
	for which, body := range messages {
		f.Add(uint8(which), body)
		f.Add(uint8(which), body[:len(body)/2])
		f.Add(uint8((which+1)%len(messages)), body)
	}
	f.Add(decoderIndex(f, netproto.MsgSnapshot.String()), append(make([]byte, 32), 0xff, 0xff, 0xff, 0xff)) // 4 Gi templates declared

	// The checkpoint envelope: whole, truncated payload, truncated header,
	// empty, plausible magic with garbage after, a flipped payload byte, and
	// the whole file under the previous version's header.
	checkpoint := decoderIndex(f, "checkpoint")
	file, err := netproto.AppendSnapshotFile(nil, snap)
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), file...)
	flipped[len(flipped)/2] ^= 0xff
	older := append([]byte(nil), file...)
	binary.LittleEndian.PutUint16(older[len("PPCSNAP\x00"):], 2) // the previous version's header
	for _, b := range [][]byte{file, file[:len(file)/2], file[:8], {}, []byte("PPCSNAP1junk"), flipped, older} {
		f.Add(checkpoint, b)
	}

	// A learner state stream: whole, halved, cut inside the first section
	// header, the counter trailer alone (no sections), a section of unknown
	// tag, the last section repeated, and a flipped byte a third of the way
	// in.
	learner := decoderIndex(f, "learner")
	state := learnerSeed(f)
	offs := sectionOffsets(state)
	if len(offs) != 1 {
		f.Fatalf("the seed learner's state has %d sections, want corrections alone", len(offs))
	}
	flippedState := append([]byte(nil), state...)
	flippedState[len(state)/3] ^= 0xff
	noSections := offs[0]
	for _, b := range [][]byte{
		state, state[:len(state)/2], state[:noSections+4], state[:noSections],
		append(append([]byte(nil), state[:noSections]...), []byte("RTPCgarbage")...),
		append(append([]byte(nil), state...), state[offs[0]:]...),
		flippedState,
	} {
		f.Add(learner, b)
	}

	// A plan tree, whole and halved, and a checkpoint header of another
	// version.
	tree := treeSeed()
	f.Add(decoderIndex(f, "plan-tree"), tree)
	f.Add(decoderIndex(f, "plan-tree"), tree[:len(tree)/2])
	f.Add(checkpoint, append([]byte("PPCSNAP\x00\x01\x00"), make([]byte, 22)...))

	// A learner state whose corrections section holds a NaN site EWMA
	// (section header, site count, five config words and epoch before it):
	// refused, so the template restores correction-cold.
	nanCorr := append([]byte(nil), state...)
	binary.LittleEndian.PutUint64(nanCorr[offs[0]+8+4+5*8+8:], math.Float64bits(math.NaN()))
	f.Add(learner, nanCorr)
	if _, err := decoders[learner].recode(nanCorr); err == nil || !strings.Contains(err.Error(), "non-finite") {
		f.Fatalf("a corrections section with a NaN site: %v, want it refused", err)
	}

	// The seed learner's synopsis body, whole and halved, and cut to one
	// transform whose marginal's header declares 2^20 buckets.
	synopsis := decoderIndex(f, "synopsis-body")
	body := synopsisBody(state)
	const fixed, header = 85, 33 // the body's config block; a histogram's block before its buckets
	// Padded to the least one transform takes, so the bucket count is what
	// the decoder refuses.
	huge := append(binary.LittleEndian.AppendUint32(append([]byte(nil), body[:fixed+header-4]...), 1<<20), make([]byte, 36)...)
	binary.LittleEndian.PutUint64(huge[16:], 1)      // config: one transform
	binary.LittleEndian.PutUint32(huge[fixed-4:], 1) // transform count
	binary.LittleEndian.PutUint32(huge[fixed+1:], 1<<20)
	for _, b := range [][]byte{body, body[:len(body)/2], huge} {
		f.Add(synopsis, b)
	}

	// Every whole seed is accepted, so the fuzzer starts inside each decoder.
	whole := map[uint8][]byte{checkpoint: file, learner: state, decoderIndex(f, "plan-tree"): tree, synopsis: body}
	for which, body := range messages {
		whole[uint8(which)] = body
	}
	for which, b := range whole {
		if _, err := decoders[which].recode(b); err != nil {
			f.Fatalf("%s rejects its own seed: %v", decoders[which].name, err)
		}
	}

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		d := decoders[int(which)%len(decoders)]
		once, err := d.recode(data)
		if errors.Is(err, errDegradeContract) {
			t.Fatalf("%s: %v", d.name, err)
		}
		if err != nil {
			return
		}
		twice, err := d.recode(once)
		if err != nil {
			t.Fatalf("%s: the re-encoding of an accepted input does not decode: %v\n in   %x\n out  %x", d.name, err, data, once)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("%s: decode → encode → decode moved the bytes:\n once  %x\n twice %x", d.name, once, twice)
		}
	})
}
