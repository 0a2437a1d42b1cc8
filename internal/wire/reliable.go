// Reliable delivery over lossy links: per-link sequence numbers, cumulative
// acks, retransmission with exponential backoff, and a receiver-side
// dedup/reorder buffer. SendLink and RecvLink are pure state machines — no
// goroutines, no timers of their own — driven by the transport that owns
// them (the netrun node loops), which makes them directly unit-testable
// under deterministic fault schedules.
//
// Together they restore the two transport guarantees the algorithms'
// correctness model (Yokoo et al.) assumes and a faulty network breaks:
// every message is eventually delivered exactly once, and deliveries on one
// directed link arrive in send order (FIFO per link).
package wire

import (
	"errors"
	"fmt"
	"time"

	"github.com/discsp/discsp/internal/backoff"
)

// Buffer caps. Both halves of a reliable link hold memory proportional to
// how far the peer has fallen behind — the sender's unacked window, the
// receiver's out-of-order buffer. Under a long partition that growth is
// unbounded, so both are capped: hitting a cap is a hard, diagnosable
// error (wrapping ErrSendBufferFull / ErrReorderBufferFull), never silent
// growth. The receiver's buffer can in fact never legitimately outgrow the
// sender's window — an overflow there is a protocol violation, not load.
const (
	// DefaultMaxUnacked is the sender-side cap on buffered unacked frames.
	DefaultMaxUnacked = 4096
	// DefaultMaxReorder is the receiver-side cap on buffered out-of-order
	// frames.
	DefaultMaxReorder = 4096
)

// ErrSendBufferFull is wrapped by Stamp when the unacked buffer is at its
// cap: the receiver has not acked for so long (dead peer, never-healing
// partition) that buffering more would grow without bound.
var ErrSendBufferFull = errors.New("wire: send buffer full")

// ErrReorderBufferFull is wrapped by Accept when the out-of-order buffer is
// at its cap. A well-behaved sender's unacked window can never outrun it,
// so this marks a protocol violation.
var ErrReorderBufferFull = errors.New("wire: reorder buffer full")

// SendLink is the sender half of one directed reliable link: it stamps
// outgoing envelopes with consecutive sequence numbers and retains them
// until the receiver's cumulative ack covers them, retransmitting on an
// exponential-backoff schedule while any frame is outstanding.
type SendLink struct {
	nextSeq int64
	unacked []Envelope // seq-ascending
	limit   int

	policy      backoff.Policy
	attempt     int       // consecutive retransmission rounds without progress
	deadline    time.Time // when the oldest unacked frame is due again
	retransmits int64
}

// NewSendLink builds a sender link with the given backoff bounds. base and
// cap must be positive; the first retransmission fires base after the
// original send, doubling per round up to cap until acked. The unacked
// buffer is capped at DefaultMaxUnacked; SetLimit overrides.
func NewSendLink(base, cap time.Duration) *SendLink {
	return &SendLink{nextSeq: 1, limit: DefaultMaxUnacked, policy: backoff.Policy{Base: base, Cap: cap}}
}

// SetLimit overrides the unacked-buffer cap; n <= 0 restores the default.
func (l *SendLink) SetLimit(n int) {
	if n <= 0 {
		n = DefaultMaxUnacked
	}
	l.limit = n
}

// Stamp assigns the next sequence number to e, buffers the stamped frame
// for retransmission, and returns it for transmission. now anchors the
// retransmission deadline. It fails, without consuming a sequence number,
// when the unacked buffer is at its cap (the error wraps
// ErrSendBufferFull).
func (l *SendLink) Stamp(e Envelope, now time.Time) (Envelope, error) {
	if len(l.unacked) >= l.limit {
		return Envelope{}, fmt.Errorf("%w: %d frames to node %d unacked (oldest seq %d): peer dead or partitioned beyond the buffer cap",
			ErrSendBufferFull, len(l.unacked), e.To, l.unacked[0].Seq)
	}
	e.Seq = l.nextSeq
	l.nextSeq++
	if len(l.unacked) == 0 {
		l.attempt = 0
		l.deadline = now.Add(l.policy.Delay(0))
	}
	l.unacked = append(l.unacked, e)
	return e, nil
}

// Ack drops every buffered frame with seq ≤ cum and reports how many were
// released. Progress resets the backoff; a stale or duplicate ack changes
// nothing.
func (l *SendLink) Ack(cum int64, now time.Time) int {
	n := 0
	for n < len(l.unacked) && l.unacked[n].Seq <= cum {
		n++
	}
	if n == 0 {
		return 0
	}
	l.unacked = append(l.unacked[:0], l.unacked[n:]...)
	l.attempt = 0
	l.deadline = now.Add(l.policy.Delay(0))
	return n
}

// Due returns the frames to retransmit: every unacked frame, when now has
// reached the retransmission deadline; nil otherwise. Each firing doubles
// the backoff up to the cap, so a dead receiver costs bounded bandwidth.
// The returned slice is the link's own window, not a copy: the caller
// transmits it before the link's next Stamp, Ack or Reset, and does not
// modify it.
func (l *SendLink) Due(now time.Time) []Envelope {
	if len(l.unacked) == 0 || now.Before(l.deadline) {
		return nil
	}
	l.attempt++
	l.deadline = now.Add(l.policy.Delay(l.attempt))
	l.retransmits += int64(len(l.unacked))
	return l.unacked
}

// MarkDue makes every unacked frame immediately due for retransmission
// without advancing the backoff round — used when the owning node has just
// re-established its connection and the in-flight window must be replayed
// at once rather than on the next scheduled deadline.
func (l *SendLink) MarkDue(now time.Time) {
	if len(l.unacked) > 0 {
		l.attempt = 0
		l.deadline = now
	}
}

// Reset renumbers the link for a peer that restarted from scratch (a
// relaunched worker process with no durable checkpoint): the unacked window
// is restamped from seq 1 in order, the next fresh frame follows it, and
// everything is immediately due — so the fresh peer's receive frontier
// (expecting seq 1) lines up with this sender's stream and no frame in the
// window is lost.
func (l *SendLink) Reset(now time.Time) {
	for i := range l.unacked {
		l.unacked[i].Seq = int64(i + 1)
	}
	l.nextSeq = int64(len(l.unacked)) + 1
	l.attempt = 0
	if len(l.unacked) > 0 {
		l.deadline = now
	}
}

// Pending returns the number of unacked frames.
func (l *SendLink) Pending() int { return len(l.unacked) }

// Retransmits returns the cumulative number of frames retransmitted.
func (l *SendLink) Retransmits() int64 { return l.retransmits }

// SendLinkState is a SendLink's durable state: everything a restarted node
// needs to keep its outgoing seq stream consistent and resume
// retransmitting what the receiver never acknowledged.
type SendLinkState struct {
	NextSeq int64
	Unacked []Envelope
}

// SnapshotState captures the link's durable state (deep enough: envelopes
// are value types and the slice is copied).
func (l *SendLink) SnapshotState() SendLinkState {
	st := SendLinkState{NextSeq: l.nextSeq}
	if len(l.unacked) > 0 {
		st.Unacked = make([]Envelope, len(l.unacked))
		copy(st.Unacked, l.unacked)
	}
	return st
}

// RestoreSendLink rebuilds a sender link from a checkpoint. The restored
// link is immediately due for retransmission: the crash may have eaten the
// original transmissions, and a spurious resend is harmless (the receiver
// dedups).
func RestoreSendLink(st SendLinkState, base, cap time.Duration, now time.Time) *SendLink {
	l := NewSendLink(base, cap)
	if st.NextSeq > 0 {
		l.nextSeq = st.NextSeq
	}
	if len(st.Unacked) > 0 {
		l.unacked = make([]Envelope, len(st.Unacked))
		copy(l.unacked, st.Unacked)
		l.deadline = now // due now
	}
	return l
}

// RecvLink is the receiver half of one directed reliable link: it discards
// duplicates, buffers out-of-order arrivals, and releases frames in exact
// sequence order, restoring the FIFO-per-link guarantee.
type RecvLink struct {
	next  int64 // lowest seq not yet delivered
	buf   map[int64]Envelope
	limit int
	dups  int64
}

// NewRecvLink builds a receiver link expecting seq 1 first. The
// out-of-order buffer is capped at DefaultMaxReorder; SetLimit overrides.
func NewRecvLink() *RecvLink {
	return &RecvLink{next: 1, limit: DefaultMaxReorder}
}

// SetLimit overrides the reorder-buffer cap; n <= 0 restores the default.
func (l *RecvLink) SetLimit(n int) {
	if n <= 0 {
		n = DefaultMaxReorder
	}
	l.limit = n
}

// Accept feeds one arriving frame through the dedup/reorder buffer. It
// appends the frames released for in-order processing to dst (possibly
// none, when e fills no gap) and returns the extended slice, with whether
// e itself was a duplicate. Frames without a sequence number are passed
// through untouched. Buffering a new out-of-order frame past the cap fails
// (the error wraps ErrReorderBufferFull); duplicates and in-order frames
// never fail.
func (l *RecvLink) Accept(dst []Envelope, e Envelope) (deliver []Envelope, dup bool, err error) {
	if e.Seq == 0 {
		return append(dst, e), false, nil
	}
	if e.Seq < l.next {
		l.dups++
		return dst, true, nil
	}
	if e.Seq > l.next {
		if l.buf == nil {
			l.buf = make(map[int64]Envelope)
		}
		if _, exists := l.buf[e.Seq]; exists {
			l.dups++
			return dst, true, nil
		}
		if len(l.buf) >= l.limit {
			return dst, false, fmt.Errorf("%w: %d frames buffered from node %d waiting for seq %d (got seq %d)",
				ErrReorderBufferFull, len(l.buf), e.From, l.next, e.Seq)
		}
		l.buf[e.Seq] = e
		return dst, false, nil
	}
	deliver = append(dst, e)
	l.next++
	for {
		nxt, ok := l.buf[l.next]
		if !ok {
			break
		}
		delete(l.buf, l.next)
		deliver = append(deliver, nxt)
		l.next++
	}
	return deliver, false, nil
}

// Reset rewinds the link for a peer that restarted from scratch: the
// frontier returns to seq 1 and every buffered out-of-order frame from the
// peer's previous incarnation is discarded (the peer renumbers and resends
// its window, so stale high-seq frames must not squat on slots the new
// stream will reach). The duplicate counter survives — it is cumulative
// accounting, not link state.
func (l *RecvLink) Reset() {
	l.next = 1
	l.buf = nil
}

// CumAck returns the cumulative acknowledgement: every seq ≤ CumAck has
// been released in order.
func (l *RecvLink) CumAck() int64 { return l.next - 1 }

// Buffered returns the number of out-of-order frames awaiting a gap fill.
func (l *RecvLink) Buffered() int { return len(l.buf) }

// Dups returns the cumulative number of duplicate frames suppressed.
func (l *RecvLink) Dups() int64 { return l.dups }

// RecvLinkState is a RecvLink's durable state. Only the in-order frontier
// is durable: buffered out-of-order frames die with a crash and are
// recovered by sender retransmission, which is why the frontier must never
// be advanced past what the owner has durably processed.
type RecvLinkState struct {
	Next int64
}

// SnapshotState captures the link's durable state.
func (l *RecvLink) SnapshotState() RecvLinkState {
	return RecvLinkState{Next: l.next}
}

// RestoreRecvLink rebuilds a receiver link from a checkpoint.
func RestoreRecvLink(st RecvLinkState) *RecvLink {
	l := NewRecvLink()
	if st.Next > 0 {
		l.next = st.Next
	}
	return l
}
