package wire

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"unicode/utf8"
)

// sampleEnvelopes covers every frame type in the binary code table with
// representative field values, including negatives (zigzag paths) and
// literal lists.
func sampleEnvelopes() []Envelope {
	return []Envelope{
		{Type: TypeCoreOk, From: 1, To: 2, Value: 3, Priority: 7, Seq: 41},
		{Type: TypeCoreNogood, From: 2, To: 1, Lits: []Lit{{Var: 0, Val: 2}, {Var: 3, Val: 1}}, Seq: 5},
		{Type: TypeCoreRequest, From: 4, To: 0, Seq: 1},
		{Type: TypeABTOk, From: 0, To: 9, Value: -1, Seq: 1000000},
		{Type: TypeABTNogood, From: 9, To: 0, Lits: []Lit{{Var: 1, Val: 0}}},
		{Type: TypeABTRequest, From: 3, To: 4},
		{Type: TypeDBOk, From: 5, To: 6, Value: 2, Seq: 17},
		{Type: TypeDBImprove, From: 6, To: 5, Improve: -3, Eval: 11, Seq: 18},
		{Type: TypeMultiOk, From: 7, To: 8, Priority: -2, Values: []Lit{{Var: 10, Val: -4}, {Var: 11, Val: 0}}},
		{Type: TypeMultiNogood, From: 8, To: 7, Lits: []Lit{{Var: 2, Val: 2}}},
		{Type: TypeMultiRequest, From: 1, To: 3},
		{Type: TypeAck, From: 2, To: 3, Ack: 99},
		{Type: TypeHello, From: 12, To: -1, Codec: "binary"},
		{Type: TypeWelcome, From: -1, To: 12, Codec: "json"},
		{Type: TypeHello, From: 13, To: -1, Codec: "binary"},
		{Type: TypeWelcome, From: -1, To: 13, Codec: "binary", Crc: true},
		{Type: TypeCoreOk, From: 3, To: 5, Value: 1, Priority: 2, Seq: 7, TSeq: 42},
		{Type: TypeCoreNogood, From: 5, To: 3, Lits: []Lit{{Var: 4, Val: 1}}, Seq: 8, TSeq: 1 << 40},
		{Type: TypeState, From: 4, To: -1, Value: 1, Insoluble: true, Processed: 12345},
		{Type: TypeStop, From: -1, To: 4},
	}
}

func TestBinaryRoundTripAllTypes(t *testing.T) {
	var dec Decoder
	for _, e := range sampleEnvelopes() {
		buf, err := e.AppendTo(nil, CodecBinary)
		if err != nil {
			t.Fatalf("%s: encode: %v", e.Type, err)
		}
		got, n, err := dec.Decode(buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", e.Type, err)
		}
		if n != len(buf) {
			t.Fatalf("%s: consumed %d of %d bytes", e.Type, n, len(buf))
		}
		got.Detach()
		if !reflect.DeepEqual(got, e) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", e.Type, got, e)
		}
	}
}

// TestDecoderIgnoresRetiredFlag: flag bit 3 once carried a handshake bid.
// It stays reserved, so a frame with it set decodes exactly as one without.
func TestDecoderIgnoresRetiredFlag(t *testing.T) {
	var dec Decoder
	for _, e := range sampleEnvelopes() {
		buf, err := e.AppendTo(nil, CodecBinary)
		if err != nil {
			t.Fatalf("%s: encode: %v", e.Type, err)
		}
		buf[1] |= 1 << 3
		got, _, err := dec.Decode(buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", e.Type, err)
		}
		got.Detach()
		if !reflect.DeepEqual(got, e) {
			t.Errorf("%s: bit 3 changed the decode:\n got %+v\nwant %+v", e.Type, got, e)
		}
	}
}

// TestJSONMatchesEncodingJSON pins appendJSON to encoding/json byte for
// byte, so the hand-rolled encoder cannot drift from the wire format the
// pre-binary transport shipped.
func TestJSONMatchesEncodingJSON(t *testing.T) {
	samples := sampleEnvelopes()
	samples = append(samples,
		Envelope{Type: `we"ird<&>` + "\n\t\x01", From: 1, To: 2, Codec: "  \xff\xfe end"},
		Envelope{Type: "unicode-✓", From: -5, To: -6, Value: -7, Seq: -8, Ack: -9, Processed: -10},
	)
	for _, e := range samples {
		got := e.appendJSON(nil)
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("%s: json.Marshal: %v", e.Type, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("appendJSON drifts from encoding/json:\n got %s\nwant %s", got, want)
		}
	}
}

// TestCrossCodecEquality decodes the same envelope through both codecs and
// requires identical results.
func TestCrossCodecEquality(t *testing.T) {
	var dec Decoder
	for _, e := range sampleEnvelopes() {
		jbuf, err := Marshal(e)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", e.Type, err)
		}
		fromJSON, err := Unmarshal(jbuf)
		if err != nil {
			t.Fatalf("%s: Unmarshal: %v", e.Type, err)
		}
		bbuf, err := e.AppendTo(nil, CodecBinary)
		if err != nil {
			t.Fatalf("%s: binary encode: %v", e.Type, err)
		}
		fromBinary, _, err := dec.Decode(bbuf)
		if err != nil {
			t.Fatalf("%s: binary decode: %v", e.Type, err)
		}
		fromBinary.Detach()
		if !reflect.DeepEqual(fromJSON, fromBinary) {
			t.Errorf("%s: codecs disagree:\n json   %+v\n binary %+v", e.Type, fromJSON, fromBinary)
		}
	}
}

// TestCodecNames pins the names a welcome frame carries.
func TestCodecNames(t *testing.T) {
	if CodecBinary.String() != "binary" || CodecJSON.String() != "json" {
		t.Errorf("codec names: %q, %q", CodecBinary, CodecJSON)
	}
}

func TestBinaryRejectsUnknownType(t *testing.T) {
	e := Envelope{Type: "no.such.type"}
	if _, err := e.AppendTo(nil, CodecBinary); err == nil {
		t.Fatal("binary encode of unknown type succeeded")
	}
	if _, err := e.AppendTo(nil, CodecJSON); err != nil {
		t.Fatalf("JSON must carry unknown types (the fallback property): %v", err)
	}
}

// TestDecodeTruncated feeds every strict prefix of every sample encoding to
// the decoder: all must error cleanly, never panic or succeed.
func TestDecodeTruncated(t *testing.T) {
	var dec Decoder
	for _, e := range sampleEnvelopes() {
		buf, err := e.AppendTo(nil, CodecBinary)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(buf); cut++ {
			if _, _, err := dec.Decode(buf[:cut]); err == nil {
				t.Errorf("%s: decode of %d/%d-byte prefix succeeded", e.Type, cut, len(buf))
			}
		}
	}
}

// TestDecodeHostileCount checks that a frame claiming a huge literal count
// fails fast instead of allocating.
func TestDecodeHostileCount(t *testing.T) {
	e := Envelope{Type: TypeCoreRequest, From: 1, To: 2}
	buf, err := e.AppendTo(nil, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	// The encoding ends [Lits count=0][Values count=0]. Replace both with a
	// count field claiming 2^40 literals and no payload behind it.
	hostile := append([]byte{}, buf[:len(buf)-2]...)
	hostile = append(hostile, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20)
	var dec Decoder
	if _, _, err := dec.Decode(hostile); err == nil {
		t.Fatal("hostile literal count decoded without error")
	}
}

// TestDecoderScratchAndDetach documents the aliasing contract: envelopes
// alias decoder scratch until the next Decode, and Detach makes them safe
// to keep.
func TestDecoderScratchAndDetach(t *testing.T) {
	a := Envelope{Type: TypeCoreNogood, From: 1, To: 2, Lits: []Lit{{Var: 7, Val: 7}}}
	b := Envelope{Type: TypeABTNogood, From: 2, To: 1, Lits: []Lit{{Var: 9, Val: 9}}}
	abuf, _ := a.AppendTo(nil, CodecBinary)
	bbuf, _ := b.AppendTo(nil, CodecBinary)

	var dec Decoder
	gotA, _, err := dec.Decode(abuf)
	if err != nil {
		t.Fatal(err)
	}
	gotA.Detach()
	if _, _, err := dec.Decode(bbuf); err != nil {
		t.Fatal(err)
	}
	if gotA.Lits[0].Var != 7 {
		t.Fatalf("detached envelope clobbered by later decode: %+v", gotA.Lits)
	}
}

func TestMarshalStillNewlineFramed(t *testing.T) {
	b, err := Marshal(Envelope{Type: TypeCoreOk, From: 1, To: 2, Value: 3})
	if err != nil {
		t.Fatal(err)
	}
	if b[len(b)-1] != '\n' || bytes.ContainsRune(b[:len(b)-1], '\n') {
		t.Fatalf("Marshal framing broken: %q", b)
	}
	if !utf8.Valid(b) {
		t.Fatalf("Marshal produced invalid UTF-8: %q", b)
	}
}
