package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"
)

func crcPipe(batch bool) (*FrameWriter, *bytes.Buffer) {
	var sock bytes.Buffer
	fw := NewFrameWriter(&sock)
	fw.SetCodec(CodecBinary)
	fw.EnableChecksum()
	if batch {
		fw.EnableBatching(8, 1<<10)
	}
	return fw, &sock
}

func crcReader(sock *bytes.Buffer) *FrameReader {
	fr := NewFrameReader(sock)
	fr.SetCodec(CodecBinary)
	fr.EnableChecksum()
	return fr
}

func TestChecksumRoundTrip(t *testing.T) {
	for _, batch := range []bool{false, true} {
		fw, sock := crcPipe(batch)
		envs := []Envelope{
			{Type: TypeCoreOk, From: 1, To: 2, Value: 5, Seq: 1},
			{Type: TypeCoreNogood, From: 2, To: 1, Lits: []Lit{{Var: 3, Val: 1}}, Seq: 2},
			{Type: TypeHeartbeat, From: 4, To: -1},
			{Type: TypeState, From: 2, To: -1, Value: 1, Processed: 3},
		}
		for i := range envs {
			if err := fw.Send(&envs[i]); err != nil {
				t.Fatalf("batch=%v send: %v", batch, err)
			}
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
		fr := crcReader(sock)
		for i := range envs {
			got, err := fr.Next()
			if err != nil {
				t.Fatalf("batch=%v frame %d: %v", batch, i, err)
			}
			got.Detach()
			if !reflect.DeepEqual(got, envs[i]) {
				t.Fatalf("batch=%v frame %d:\n got %+v\nwant %+v", batch, i, got, envs[i])
			}
		}
		if fr.CorruptFrames != 0 {
			t.Fatalf("clean stream counted %d corrupt frames", fr.CorruptFrames)
		}
	}
}

// Every single-bit flip anywhere in a checksummed frame's payload or
// trailer must be detected, and the reader must deliver the following frame
// untouched — detection plus containment, which is what lets the reliable
// layer treat corruption as loss.
func TestChecksumDetectsEveryBitFlip(t *testing.T) {
	fw, sock := crcPipe(false)
	poisoned := Envelope{Type: TypeCoreOk, From: 1, To: 2, Value: 7, Seq: 9}
	follow := Envelope{Type: TypeCoreOk, From: 1, To: 2, Value: 8, Seq: 10}
	if err := fw.Send(&poisoned); err != nil {
		t.Fatal(err)
	}
	mark := sock.Len()
	if err := fw.Send(&follow); err != nil {
		t.Fatal(err)
	}
	fw.Flush()
	clean := append([]byte{}, sock.Bytes()...)

	// Flip every bit after the first frame's length prefix (flipping the
	// prefix itself desynchronizes framing — that is the terminal-error
	// path, covered below).
	prefixLen := 1 // frames here are < 128 bytes: one-byte uvarint
	for bit := prefixLen * 8; bit < mark*8; bit++ {
		data := append([]byte{}, clean...)
		data[bit/8] ^= 1 << (bit % 8)
		fr := crcReader(bytes.NewBuffer(data))
		_, err := fr.Next()
		if !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("bit %d: corruption not detected (err=%v)", bit, err)
		}
		if fr.CorruptFrames != 1 {
			t.Fatalf("bit %d: CorruptFrames=%d", bit, fr.CorruptFrames)
		}
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("bit %d: stream not recovered: %v", bit, err)
		}
		if !reflect.DeepEqual(got, follow) {
			t.Fatalf("bit %d: following frame damaged: %+v", bit, got)
		}
	}
}

func TestWriteCorruptedIsDetectedAndSkipped(t *testing.T) {
	fw, sock := crcPipe(true)
	good1 := Envelope{Type: TypeCoreOk, From: 1, To: 2, Value: 1, Seq: 1}
	bad := Envelope{Type: TypeCoreOk, From: 1, To: 2, Value: 2, Seq: 2}
	good2 := Envelope{Type: TypeCoreOk, From: 1, To: 2, Value: 3, Seq: 3}
	if err := fw.Send(&good1); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteCorrupted(&bad); err != nil {
		t.Fatal(err)
	}
	if err := fw.Send(&good2); err != nil {
		t.Fatal(err)
	}
	fw.Flush()

	fr := crcReader(sock)
	first, err := fr.Next()
	if err != nil {
		t.Fatalf("first frame: %v", err)
	}
	if !reflect.DeepEqual(first, good1) {
		t.Fatalf("first frame %+v", first)
	}
	if _, err := fr.Next(); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("poisoned frame passed the checksum (err=%v)", err)
	}
	last, err := fr.Next()
	if err != nil {
		t.Fatalf("frame after corruption: %v", err)
	}
	if !reflect.DeepEqual(last, good2) {
		t.Fatalf("frame after corruption %+v", last)
	}
	if fr.CorruptFrames != 1 {
		t.Fatalf("CorruptFrames = %d, want 1", fr.CorruptFrames)
	}
}

func TestWriteCorruptedRequiresChecksummedBinary(t *testing.T) {
	var sock bytes.Buffer
	fw := NewFrameWriter(&sock)
	fw.SetCodec(CodecBinary)
	e := Envelope{Type: TypeCoreOk, From: 1, To: 2, Seq: 1}
	if err := fw.WriteCorrupted(&e); err == nil {
		t.Fatal("WriteCorrupted without checksum negotiation must refuse")
	}
}

// Truncated frames — a peer dying mid-write — must yield a clean
// ErrUnexpectedEOF-style error, never a panic, in both checksummed and
// plain framing.
func TestTruncatedFramesFailCleanly(t *testing.T) {
	for _, crc := range []bool{false, true} {
		var sock bytes.Buffer
		fw := NewFrameWriter(&sock)
		fw.SetCodec(CodecBinary)
		if crc {
			fw.EnableChecksum()
		}
		e := Envelope{Type: TypeCoreNogood, From: 1, To: 2, Seq: 4,
			Lits: []Lit{{Var: 1, Val: 2}, {Var: 3, Val: 4}}}
		fw.Send(&e)
		fw.Flush()
		whole := sock.Bytes()
		for cut := 1; cut < len(whole); cut++ {
			fr := NewFrameReader(bytes.NewReader(whole[:cut]))
			fr.SetCodec(CodecBinary)
			if crc {
				fr.EnableChecksum()
			}
			if _, err := fr.Next(); err == nil {
				t.Fatalf("crc=%v cut=%d: truncated frame decoded", crc, cut)
			}
		}
	}
}

// The steady-state cost of the trailer: the checksummed binary batch path
// must stay allocation-free per op once buffers are warm, preserving the
// PR-7 invariant the bench gate pins.
func TestChecksumPathAllocationFree(t *testing.T) {
	fw := NewFrameWriter(io.Discard)
	fw.SetCodec(CodecBinary)
	fw.EnableChecksum()
	fw.EnableBatching(8, 1<<10)
	e := Envelope{Type: TypeCoreOk, From: 1, To: 2, Value: 5, Seq: 1}
	// Warm the scratch buffers.
	for i := 0; i < 4; i++ {
		fw.Send(&e)
	}
	fw.Flush()
	allocs := testing.AllocsPerRun(100, func() {
		fw.Send(&e)
		fw.Send(&e)
		fw.Flush()
	})
	if allocs != 0 {
		t.Fatalf("checksummed batch write path allocates %.1f/op", allocs)
	}
}

// Decoding a corrupt frame must not balloon memory: the reader rejects the
// frame on the CRC before any count field is trusted, and even without
// checksums the decoder's count guards bound what a hostile length can
// allocate.
func TestCorruptFrameAllocationBounded(t *testing.T) {
	fw, sock := crcPipe(false)
	e := Envelope{Type: TypeCoreNogood, From: 1, To: 2, Seq: 1,
		Lits: []Lit{{Var: 1, Val: 2}}}
	fw.Send(&e)
	fw.Flush()
	data := append([]byte{}, sock.Bytes()...)
	data[len(data)-6] ^= 0xff // damage the payload, keep the length prefix
	allocs := testing.AllocsPerRun(20, func() {
		fr := crcReader(bytes.NewBuffer(append([]byte{}, data...)))
		if _, err := fr.Next(); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("want ErrCorruptFrame, got %v", err)
		}
	})
	// One buffer + reader construction per run is fine; what must not
	// happen is an allocation proportional to a forged count field.
	if allocs > 20 {
		t.Fatalf("corrupt-frame rejection allocates %.1f/op", allocs)
	}
}

func TestSendLinkReset(t *testing.T) {
	now := time.Unix(0, 0)
	l := NewSendLink(10*time.Millisecond, 160*time.Millisecond)
	for i := 0; i < 5; i++ {
		if _, err := l.Stamp(Envelope{Type: TypeCoreOk, From: 1, To: 2, Value: i}, now); err != nil {
			t.Fatal(err)
		}
	}
	l.Ack(2, now) // peer durably received 1-2 before its incarnation died
	l.Reset(now)
	due := l.Due(now)
	if len(due) != 3 {
		t.Fatalf("reset window: %d frames, want 3", len(due))
	}
	for i, e := range due {
		if e.Seq != int64(i+1) {
			t.Fatalf("frame %d renumbered to seq %d, want %d", i, e.Seq, i+1)
		}
		if e.Value != i+2 {
			t.Fatalf("frame %d payload reordered: value %d", i, e.Value)
		}
	}
	stamped, err := l.Stamp(Envelope{Type: TypeCoreOk, From: 1, To: 2}, now)
	if err != nil {
		t.Fatal(err)
	}
	if stamped.Seq != 4 {
		t.Fatalf("fresh frame after reset got seq %d, want 4", stamped.Seq)
	}
}

func TestSendLinkResetEmpty(t *testing.T) {
	now := time.Unix(0, 0)
	l := NewSendLink(10*time.Millisecond, 160*time.Millisecond)
	if _, err := l.Stamp(Envelope{Type: TypeCoreOk}, now); err != nil {
		t.Fatal(err)
	}
	l.Ack(1, now)
	l.Reset(now)
	if got := l.Due(now.Add(time.Second)); got != nil {
		t.Fatalf("empty reset link retransmitted %d frames", len(got))
	}
	stamped, _ := l.Stamp(Envelope{Type: TypeCoreOk}, now)
	if stamped.Seq != 1 {
		t.Fatalf("first frame after empty reset got seq %d, want 1", stamped.Seq)
	}
}

func TestSendLinkMarkDue(t *testing.T) {
	now := time.Unix(0, 0)
	l := NewSendLink(10*time.Millisecond, 160*time.Millisecond)
	if _, err := l.Stamp(Envelope{Type: TypeCoreOk}, now); err != nil {
		t.Fatal(err)
	}
	if got := l.Due(now); got != nil {
		t.Fatal("frame due before its deadline")
	}
	l.MarkDue(now)
	if got := l.Due(now); len(got) != 1 {
		t.Fatalf("MarkDue did not make the window due (got %d frames)", len(got))
	}
}

func TestRecvLinkReset(t *testing.T) {
	l := NewRecvLink()
	for seq := int64(1); seq <= 3; seq++ {
		if _, _, err := l.Accept(nil, Envelope{Type: TypeCoreOk, Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	// An out-of-order frame from the old incarnation squats in the buffer.
	if _, _, err := l.Accept(nil, Envelope{Type: TypeCoreOk, Seq: 9, Value: 99}); err != nil {
		t.Fatal(err)
	}
	l.Reset()
	if l.CumAck() != 0 {
		t.Fatalf("reset frontier: CumAck %d, want 0", l.CumAck())
	}
	if l.Buffered() != 0 {
		t.Fatalf("reset kept %d stale buffered frames", l.Buffered())
	}
	// The renumbered stream reaches seq 9: it must deliver the new payload,
	// not the stale squatter.
	for seq := int64(1); seq <= 9; seq++ {
		deliver, dup, err := l.Accept(nil, Envelope{Type: TypeCoreOk, Seq: seq, Value: int(seq)})
		if err != nil || dup {
			t.Fatalf("seq %d after reset: dup=%v err=%v", seq, dup, err)
		}
		if len(deliver) != 1 || deliver[0].Value != int(seq) {
			t.Fatalf("seq %d after reset delivered %+v", seq, deliver)
		}
	}
}
