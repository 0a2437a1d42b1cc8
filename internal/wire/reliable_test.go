package wire

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/discsp/discsp/internal/faults"
)

var t0 = time.Unix(1000, 0)

// mustStamp / mustAccept keep the happy-path tests readable; cap behavior
// has its own tests below.
func mustStamp(t *testing.T, l *SendLink, e Envelope, now time.Time) Envelope {
	t.Helper()
	out, err := l.Stamp(e, now)
	if err != nil {
		t.Fatalf("Stamp(%+v): %v", e, err)
	}
	return out
}

func mustAccept(t *testing.T, l *RecvLink, e Envelope) ([]Envelope, bool) {
	t.Helper()
	got, dup, err := l.Accept(nil, e)
	if err != nil {
		t.Fatalf("Accept(%+v): %v", e, err)
	}
	return got, dup
}

func TestSendLinkStampAndAck(t *testing.T) {
	l := NewSendLink(2*time.Millisecond, 64*time.Millisecond)
	for i := 1; i <= 3; i++ {
		e := mustStamp(t, l, Envelope{Type: TypeCoreOk, From: 0, To: 1, Value: i}, t0)
		if e.Seq != int64(i) {
			t.Fatalf("stamp %d: seq %d", i, e.Seq)
		}
	}
	if l.Pending() != 3 {
		t.Fatalf("pending = %d", l.Pending())
	}
	if n := l.Ack(2, t0); n != 2 {
		t.Fatalf("ack released %d, want 2", n)
	}
	if n := l.Ack(2, t0); n != 0 {
		t.Fatalf("duplicate ack released %d", n)
	}
	if n := l.Ack(99, t0); n != 1 || l.Pending() != 0 {
		t.Fatalf("final ack: released %d pending %d", n, l.Pending())
	}
}

func TestSendLinkRetransmitBackoff(t *testing.T) {
	base, cap := 2*time.Millisecond, 8*time.Millisecond
	l := NewSendLink(base, cap)
	mustStamp(t, l, Envelope{Type: TypeCoreOk}, t0)
	mustStamp(t, l, Envelope{Type: TypeCoreOk}, t0)

	if got := l.Due(t0.Add(base - time.Microsecond)); got != nil {
		t.Fatalf("retransmitted before deadline: %v", got)
	}
	// First firing: both frames, next deadline 2*base later.
	now := t0.Add(base)
	if got := l.Due(now); len(got) != 2 {
		t.Fatalf("first retransmit sent %d frames", len(got))
	}
	if got := l.Due(now.Add(2*base - time.Microsecond)); got != nil {
		t.Fatal("backoff did not double")
	}
	now = now.Add(2 * base)
	if got := l.Due(now); len(got) != 2 {
		t.Fatal("second retransmit missing")
	}
	// Backoff is capped.
	now = now.Add(cap)
	if got := l.Due(now); len(got) != 2 {
		t.Fatal("capped retransmit missing")
	}
	if l.Retransmits() != 6 {
		t.Fatalf("retransmits = %d, want 6", l.Retransmits())
	}
	// Ack resets the backoff for the next frame.
	l.Ack(2, now)
	mustStamp(t, l, Envelope{Type: TypeCoreOk}, now)
	if got := l.Due(now.Add(base)); len(got) != 1 {
		t.Fatal("backoff not reset after ack")
	}
}

func TestRecvLinkInOrder(t *testing.T) {
	l := NewRecvLink()
	for seq := int64(1); seq <= 5; seq++ {
		got, dup := mustAccept(t, l, Envelope{Seq: seq, Value: int(seq)})
		if dup || len(got) != 1 || got[0].Seq != seq {
			t.Fatalf("seq %d: got %v dup %v", seq, got, dup)
		}
	}
	if l.CumAck() != 5 || l.Buffered() != 0 || l.Dups() != 0 {
		t.Fatalf("state after in-order run: ack=%d buf=%d dups=%d", l.CumAck(), l.Buffered(), l.Dups())
	}
}

func TestRecvLinkReorderAndDedup(t *testing.T) {
	l := NewRecvLink()
	// 3 and 2 arrive before 1; duplicates of delivered and buffered frames
	// are suppressed.
	if got, dup := mustAccept(t, l, Envelope{Seq: 3}); got != nil || dup {
		t.Fatalf("seq 3 first: %v %v", got, dup)
	}
	if got, dup := mustAccept(t, l, Envelope{Seq: 2}); got != nil || dup {
		t.Fatalf("seq 2: %v %v", got, dup)
	}
	if _, dup := mustAccept(t, l, Envelope{Seq: 3}); !dup {
		t.Fatal("buffered duplicate not suppressed")
	}
	got, dup := mustAccept(t, l, Envelope{Seq: 1})
	if dup || len(got) != 3 {
		t.Fatalf("gap fill released %d frames", len(got))
	}
	for i, e := range got {
		if e.Seq != int64(i+1) {
			t.Fatalf("release out of order: %v", got)
		}
	}
	if _, dup := mustAccept(t, l, Envelope{Seq: 2}); !dup {
		t.Fatal("delivered duplicate not suppressed")
	}
	if l.CumAck() != 3 || l.Dups() != 2 {
		t.Fatalf("ack=%d dups=%d", l.CumAck(), l.Dups())
	}
	// Control frames (no seq) pass through.
	if got, _ := mustAccept(t, l, Envelope{Type: TypeAck}); len(got) != 1 {
		t.Fatal("seqless frame not passed through")
	}
}

func TestLinkStateRoundTrip(t *testing.T) {
	s := NewSendLink(2*time.Millisecond, 8*time.Millisecond)
	mustStamp(t, s, Envelope{Type: TypeCoreOk, Value: 1}, t0)
	mustStamp(t, s, Envelope{Type: TypeCoreOk, Value: 2}, t0)
	s.Ack(1, t0)
	st := s.SnapshotState()
	if st.NextSeq != 3 || len(st.Unacked) != 1 || st.Unacked[0].Seq != 2 {
		t.Fatalf("send state %+v", st)
	}
	mustStamp(t, s, Envelope{Type: TypeCoreOk, Value: 3}, t0)
	if len(st.Unacked) != 1 {
		t.Fatal("snapshot aliased live link")
	}

	r := RestoreSendLink(st, 2*time.Millisecond, 8*time.Millisecond, t0)
	if r.Pending() != 1 {
		t.Fatalf("restored pending = %d", r.Pending())
	}
	// A restored link is immediately due: the crash may have eaten the wire.
	if got := r.Due(t0); len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("restored link not due: %v", got)
	}
	if e := mustStamp(t, r, Envelope{Type: TypeCoreOk}, t0); e.Seq != 3 {
		t.Fatalf("restored link stamped seq %d, want 3", e.Seq)
	}

	rl := NewRecvLink()
	mustAccept(t, rl, Envelope{Seq: 1})
	mustAccept(t, rl, Envelope{Seq: 2})
	mustAccept(t, rl, Envelope{Seq: 4}) // buffered, not durable
	rst := rl.SnapshotState()
	if rst.Next != 3 {
		t.Fatalf("recv state %+v", rst)
	}
	rr := RestoreRecvLink(rst)
	if rr.CumAck() != 2 {
		t.Fatalf("restored recv ack = %d", rr.CumAck())
	}
	// The buffered frame was lost with the crash; its retransmission must
	// be accepted as new, then the gap fill works as usual.
	if got, dup := mustAccept(t, rr, Envelope{Seq: 4}); dup || got != nil {
		t.Fatalf("retransmitted 4 after restore: %v %v", got, dup)
	}
	if got, _ := mustAccept(t, rr, Envelope{Seq: 3}); len(got) != 2 {
		t.Fatalf("gap fill after restore released %d", len(got))
	}
}

// TestReliableLinkUnderFaultSchedule drives a send/recv pair through a
// deterministic lossy channel (drop, duplicate, reorder via delay) and
// asserts exactly-once, in-order delivery of every message — the property
// the runtimes build on.
func TestReliableLinkUnderFaultSchedule(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 11, Drop: 0.3, Duplicate: 0.3, MaxDelay: 4 * time.Millisecond})
	s := NewSendLink(2*time.Millisecond, 16*time.Millisecond)
	r := NewRecvLink()

	type flight struct {
		at time.Time
		e  Envelope
	}
	var wireQueue []flight
	now := t0
	send := func(e Envelope, attempt int) {
		if inj.Dropped(0, 1, e.Seq, attempt) {
			return
		}
		wireQueue = append(wireQueue, flight{at: now.Add(inj.Delay(0, 1, e.Seq, 0)), e: e})
		if attempt == 0 && inj.Duplicated(0, 1, e.Seq) {
			wireQueue = append(wireQueue, flight{at: now.Add(inj.Delay(0, 1, e.Seq, 1)), e: e})
		}
	}

	const total = 200
	var delivered []Envelope
	attempts := make(map[int64]int)
	for i := 0; i < total; i++ {
		send(mustStamp(t, s, Envelope{Type: TypeCoreOk, Value: i}, now), 0)
	}
	for tick := 0; tick < 10000 && (len(delivered) < total || s.Pending() > 0); tick++ {
		now = now.Add(time.Millisecond)
		// Deliver everything that has arrived by now.
		var rest []flight
		for _, f := range wireQueue {
			if f.at.After(now) {
				rest = append(rest, f)
				continue
			}
			got, _ := mustAccept(t, r, f.e)
			delivered = append(delivered, got...)
		}
		wireQueue = rest
		// The receiver acks; acks are lossy too but cumulative.
		if !inj.Dropped(1, 0, int64(tick), 0) {
			s.Ack(r.CumAck(), now)
		}
		for _, e := range s.Due(now) {
			attempts[e.Seq]++
			send(e, attempts[e.Seq])
		}
	}
	if len(delivered) != total {
		t.Fatalf("delivered %d of %d", len(delivered), total)
	}
	for i, e := range delivered {
		if e.Seq != int64(i+1) || e.Value != i {
			t.Fatalf("delivery %d out of order or corrupted: %+v", i, e)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("sender still holds %d frames", s.Pending())
	}
}

// TestSendLinkCap pins the unacked-buffer cap: stamping past the limit is a
// hard error wrapping ErrSendBufferFull, consumes no sequence number, and
// acking frees capacity again.
func TestSendLinkCap(t *testing.T) {
	l := NewSendLink(2*time.Millisecond, 8*time.Millisecond)
	l.SetLimit(3)
	for i := 0; i < 3; i++ {
		mustStamp(t, l, Envelope{Type: TypeCoreOk, To: 1, Value: i}, t0)
	}
	if _, err := l.Stamp(Envelope{Type: TypeCoreOk, To: 1, Value: 3}, t0); !errors.Is(err, ErrSendBufferFull) {
		t.Fatalf("stamp over cap: err = %v, want ErrSendBufferFull", err)
	}
	if l.Pending() != 3 {
		t.Fatalf("failed stamp changed pending: %d", l.Pending())
	}
	// Ack one frame; the next stamp must succeed and continue the seq stream
	// (the failed attempt consumed nothing).
	l.Ack(1, t0)
	e := mustStamp(t, l, Envelope{Type: TypeCoreOk, To: 1, Value: 3}, t0)
	if e.Seq != 4 {
		t.Fatalf("seq after failed stamp = %d, want 4", e.Seq)
	}
	// SetLimit(0) restores the default.
	l.SetLimit(0)
	if l.limit != DefaultMaxUnacked {
		t.Fatalf("SetLimit(0) left limit %d", l.limit)
	}
}

// TestRecvLinkCap pins the reorder-buffer cap: buffering a new out-of-order
// frame past the limit is a hard error wrapping ErrReorderBufferFull, while
// duplicates and the gap-filling in-order frame still succeed.
func TestRecvLinkCap(t *testing.T) {
	l := NewRecvLink()
	l.SetLimit(2)
	mustAccept(t, l, Envelope{Seq: 3})
	mustAccept(t, l, Envelope{Seq: 4})
	if _, _, err := l.Accept(nil, Envelope{From: 7, Seq: 5}); !errors.Is(err, ErrReorderBufferFull) {
		t.Fatalf("accept over cap: err = %v, want ErrReorderBufferFull", err)
	}
	if l.Buffered() != 2 {
		t.Fatalf("failed accept changed buffer: %d", l.Buffered())
	}
	// Duplicates of buffered frames are still suppressed, not errors.
	if _, dup := mustAccept(t, l, Envelope{Seq: 3}); !dup {
		t.Fatal("duplicate at cap not suppressed")
	}
	// Seqless control frames pass through regardless.
	if got, _ := mustAccept(t, l, Envelope{Type: TypeAck}); len(got) != 1 {
		t.Fatal("seqless frame blocked at cap")
	}
	// The gap fill drains the buffer; afterwards there is room again.
	if got, _ := mustAccept(t, l, Envelope{Seq: 1}); len(got) != 1 {
		t.Fatalf("gap fill at cap released %d", len(got))
	}
	if got, _ := mustAccept(t, l, Envelope{Seq: 2}); len(got) != 3 {
		t.Fatalf("drain released %d frames, want 3", len(got))
	}
	mustAccept(t, l, Envelope{Seq: 6})
	if l.Buffered() != 1 {
		t.Fatalf("buffer after drain = %d", l.Buffered())
	}
}

func TestAckEnvelopeRoundTrip(t *testing.T) {
	e := Envelope{Type: TypeAck, From: 3, To: 5, Ack: 17}
	b, err := Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b[:len(b)-1])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("round trip: %+v != %+v", got, e)
	}
}
