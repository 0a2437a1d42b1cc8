package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"
)

// pump writes every envelope through a FrameWriter configured with (codec,
// batching), flushes, and reads the stream back with a FrameReader.
func pump(t *testing.T, codec Codec, batch bool, envs []Envelope) []Envelope {
	t.Helper()
	var sock bytes.Buffer
	fw := NewFrameWriter(&sock)
	if err := fw.SetCodec(codec); err != nil {
		t.Fatal(err)
	}
	if batch {
		fw.EnableBatching(8, 4<<10)
	}
	for i := range envs {
		if err := fw.Send(&envs[i]); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&sock)
	fr.SetCodec(codec)
	var got []Envelope
	for {
		e, err := fr.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			t.Fatalf("next after %d frames: %v", len(got), err)
		}
		e.Detach()
		got = append(got, e)
	}
	if fr.BytesRead != fw.BytesWritten {
		t.Fatalf("reader consumed %d bytes, writer produced %d", fr.BytesRead, fw.BytesWritten)
	}
	return got
}

func TestStreamRoundTrip(t *testing.T) {
	envs := sampleEnvelopes()
	// Batching moves a batch's acks ahead of its data frames (sound: acks
	// are cumulative and link-independent), so the order-exact check uses
	// the ack-free subset when batching; TestAckCoalescing pins the ack
	// behavior.
	var noAcks []Envelope
	for _, e := range envs {
		if e.Type != TypeAck {
			noAcks = append(noAcks, e)
		}
	}
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		for _, batch := range []bool{false, true} {
			want := envs
			if batch {
				want = noAcks
			}
			got := pump(t, codec, batch, want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v batch=%v: stream round trip mismatch\n got %+v\nwant %+v", codec, batch, got, want)
			}
		}
	}
}

// TestAckCoalescing: repeated acks on one link collapse to a single
// watermark at the link's maximum, delivered as a synthetic ack frame.
func TestAckCoalescing(t *testing.T) {
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		envs := []Envelope{
			{Type: TypeAck, From: 1, To: 2, Ack: 3},
			{Type: TypeCoreOk, From: 1, To: 2, Value: 5, Seq: 4},
			{Type: TypeAck, From: 1, To: 2, Ack: 7},
			{Type: TypeAck, From: 2, To: 1, Ack: 1},
			{Type: TypeAck, From: 1, To: 2, Ack: 6}, // stale: below the watermark
		}
		got := pump(t, codec, true, envs)
		want := []Envelope{
			{Type: TypeAck, From: 1, To: 2, Ack: 7},
			{Type: TypeAck, From: 2, To: 1, Ack: 1},
			{Type: TypeCoreOk, From: 1, To: 2, Value: 5, Seq: 4},
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: coalesced stream\n got %+v\nwant %+v", codec, got, want)
		}
	}
}

// TestCodecSwitchMidStream writes a JSON handshake followed by binary
// frames into one buffer and reads both back through a single FrameReader,
// the property that makes hello/welcome negotiation safe.
func TestCodecSwitchMidStream(t *testing.T) {
	var sock bytes.Buffer
	fw := NewFrameWriter(&sock)
	hello := Envelope{Type: TypeHello, From: 3, Codec: "binary"}
	if err := fw.Send(&hello); err != nil {
		t.Fatal(err)
	}
	if err := fw.SetCodec(CodecBinary); err != nil {
		t.Fatal(err)
	}
	data := Envelope{Type: TypeCoreOk, From: 3, To: 4, Value: 1, Seq: 1}
	if err := fw.Send(&data); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}

	fr := NewFrameReader(&sock)
	got, err := fr.Next()
	if err != nil || got.Type != TypeHello {
		t.Fatalf("handshake read: %+v, %v", got, err)
	}
	fr.SetCodec(CodecBinary)
	got, err = fr.Next()
	if err != nil || !reflect.DeepEqual(got, data) {
		t.Fatalf("post-switch read: %+v, %v", got, err)
	}
}

// TestJSONBatchShape: the JSON batch frame is a plain JSON object that
// encoding/json can parse into Batch — the cross-implementation contract.
func TestJSONBatchShape(t *testing.T) {
	var sock bytes.Buffer
	fw := NewFrameWriter(&sock)
	fw.EnableBatching(64, 1<<20)
	envs := []Envelope{
		{Type: TypeAck, From: 1, To: 2, Ack: 9},
		{Type: TypeCoreOk, From: 2, To: 1, Value: 4, Seq: 2},
		{Type: TypeCoreNogood, From: 2, To: 1, Lits: []Lit{{Var: 1, Val: 0}}, Seq: 3},
	}
	for i := range envs {
		if err := fw.Send(&envs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	var b Batch
	if err := json.Unmarshal(sock.Bytes(), &b); err != nil {
		t.Fatalf("batch is not one JSON object: %v\n%s", err, sock.Bytes())
	}
	if b.Type != TypeBatch || len(b.Acks) != 1 || len(b.Frames) != 2 {
		t.Fatalf("batch shape: %+v", b)
	}
	if fw.Batches != 1 || fw.BatchedFrames != 3 {
		t.Fatalf("writer counters: batches=%d batched=%d", fw.Batches, fw.BatchedFrames)
	}
}

// TestBatchSizeFlush: the batch flushes itself once maxFrames accumulate,
// before any explicit Flush.
func TestBatchSizeFlush(t *testing.T) {
	var sock bytes.Buffer
	fw := NewFrameWriter(&sock)
	if err := fw.SetCodec(CodecBinary); err != nil {
		t.Fatal(err)
	}
	fw.EnableBatching(4, 1<<20)
	e := Envelope{Type: TypeCoreOk, From: 1, To: 2, Value: 1}
	for i := 0; i < 4; i++ {
		e.Seq = int64(i + 1)
		if err := fw.Send(&e); err != nil {
			t.Fatal(err)
		}
	}
	if fw.Batches != 1 {
		t.Fatalf("size-bounded flush did not fire: batches=%d", fw.Batches)
	}
}

// TestBatchedFramesCounters: reader-side BatchedFrames matches writer-side.
func TestBatchedFramesCounters(t *testing.T) {
	var sock bytes.Buffer
	fw := NewFrameWriter(&sock)
	if err := fw.SetCodec(CodecBinary); err != nil {
		t.Fatal(err)
	}
	fw.EnableBatching(8, 4<<10)
	for i := 0; i < 10; i++ {
		e := Envelope{Type: TypeCoreOk, From: 1, To: 2, Value: i, Seq: int64(i + 1)}
		if err := fw.Send(&e); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&sock)
	fr.SetCodec(CodecBinary)
	n := 0
	for {
		if _, err := fr.Next(); err != nil {
			break
		}
		n++
	}
	if n != 10 || fr.BatchedFrames != fw.BatchedFrames || fr.BatchedFrames != 10 {
		t.Fatalf("frames=%d, reader batched=%d, writer batched=%d", n, fr.BatchedFrames, fw.BatchedFrames)
	}
}

// TestSteadyStateZeroAlloc is the tentpole's core claim: encoding and
// decoding a steady-state frame (no literal lists) through reused buffers
// allocates nothing, in both codecs for encode and in binary for decode.
func TestSteadyStateZeroAlloc(t *testing.T) {
	e := Envelope{Type: TypeCoreOk, From: 12, To: 34, Value: 5, Priority: 2, Seq: 777, Ack: 0}
	buf := make([]byte, 0, 256)
	for _, codec := range []Codec{CodecBinary, CodecJSON} {
		codec := codec
		n := testing.AllocsPerRun(200, func() {
			var err error
			buf, err = e.AppendTo(buf[:0], codec)
			if err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Errorf("%v encode: %v allocs/op, want 0", codec, n)
		}
	}
	enc, err := e.AppendTo(nil, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	var dec Decoder
	if _, _, err := dec.Decode(enc); err != nil { // warm the scratch
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() {
		if _, _, err := dec.Decode(enc); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("binary decode: %v allocs/op, want 0", n)
	}
}

// TestFrameReaderBuffered pins when a reader says its next frame needs no
// stream read: a partly drained batch, or a whole frame already in the read
// buffer. A read that stopped inside a frame's length prefix or payload
// does not count, and Buffered itself never reads.
func TestFrameReaderBuffered(t *testing.T) {
	// Enough literals that the second frame's binary length prefix takes
	// two bytes, so a read can stop inside it.
	lits := make([]Lit, 80)
	for i := range lits {
		lits[i] = Lit{Var: i, Val: 1}
	}
	first := Envelope{Type: TypeCoreOk, From: 1, To: 2, Value: 3, Seq: 1}
	second := Envelope{Type: TypeCoreNogood, From: 2, To: 1, Lits: lits, Seq: 2}
	ack := Envelope{Type: TypeAck, From: 2, To: 1, Ack: 5}

	for _, tc := range []struct {
		name  string
		codec Codec
		crc   bool
	}{
		{"json", CodecJSON, false},
		{"binary", CodecBinary, false},
		{"binary+crc", CodecBinary, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			render := func(batch bool, envs ...Envelope) []byte {
				var sock bytes.Buffer
				fw := NewFrameWriter(&sock)
				fw.SetCodec(tc.codec)
				if tc.crc {
					fw.EnableChecksum()
				}
				if batch {
					fw.EnableBatching(8, 4<<10)
				}
				for i := range envs {
					if err := fw.Send(&envs[i]); err != nil {
						t.Fatal(err)
					}
				}
				if err := fw.Flush(); err != nil {
					t.Fatal(err)
				}
				return sock.Bytes()
			}
			// reader serves the given chunks one Read each.
			reader := func(chunks ...[]byte) *FrameReader {
				fr := NewFrameReader(&chunkedReader{parts: chunks})
				fr.SetCodec(tc.codec)
				if tc.crc {
					fr.EnableChecksum()
				}
				return fr
			}
			next := func(fr *FrameReader, want Envelope) {
				t.Helper()
				got, err := fr.Next()
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("Next = %+v, %v; want %+v", got, err, want)
				}
			}
			a, b := render(false, first), render(false, second)
			if tc.codec == CodecBinary && b[0] < 0x80 {
				t.Fatalf("second frame's length prefix is one byte (%d); the split-prefix case needs two", b[0])
			}

			if reader(a, b).Buffered() {
				t.Error("empty: Buffered before any read")
			}

			fr := reader(append(append([]byte{}, a...), b...))
			next(fr, first)
			if !fr.Buffered() {
				t.Error("whole frame: second frame sits in the buffer, Buffered = false")
			}
			next(fr, second)
			if fr.Buffered() {
				t.Error("whole frame: stream drained, Buffered = true")
			}

			for _, split := range []struct {
				name string
				at   int
			}{{"split length prefix", 1}, {"split payload", len(b) - 1}} {
				fr := reader(append(append([]byte{}, a...), b[:split.at]...), b[split.at:])
				next(fr, first)
				if fr.Buffered() {
					t.Errorf("%s: Buffered = true with part of a frame buffered", split.name)
				}
				next(fr, second)
				if fr.Buffered() {
					t.Errorf("%s: stream drained, Buffered = true", split.name)
				}
			}

			// A batch expands to its ack, then its data frames: Buffered
			// holds until the last of the three is returned.
			fr = reader(render(true, first, second, ack))
			for i, want := range []Envelope{ack, first, second} {
				next(fr, want)
				if got := fr.Buffered(); got != (i < 2) {
					t.Errorf("batch frame %d of 3: Buffered = %v", i+1, got)
				}
			}
		})
	}
}
