// Package wire serializes the algorithms' messages for transport across
// process or machine boundaries (the internal/netrun TCP runtime). Every
// message type of the AWC, ABT, DB, and multi agents has a stable JSON
// envelope representation; Encode and Decode round-trip them exactly.
//
// Two codecs share the envelope: the newline-delimited JSON encoding (the
// handshake encoding, and the baseline the wire benchmarks measure) and a
// length-prefixed binary encoding built for zero allocations on the
// steady-state encode and decode paths (see binary.go). FrameReader and
// FrameWriter (stream.go) speak both over one connection and can coalesce
// frames into ack-carrying batches (batch.go).
package wire

import (
	"encoding/json"
	"fmt"

	"github.com/discsp/discsp/internal/abt"
	"github.com/discsp/discsp/internal/breakout"
	"github.com/discsp/discsp/internal/causal"
	"github.com/discsp/discsp/internal/core"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/multi"
	"github.com/discsp/discsp/internal/sim"
)

// Message type tags. They are part of the wire format; do not renumber.
const (
	TypeCoreOk       = "core.ok"
	TypeCoreNogood   = "core.nogood"
	TypeCoreRequest  = "core.request"
	TypeABTOk        = "abt.ok"
	TypeABTNogood    = "abt.nogood"
	TypeABTRequest   = "abt.request"
	TypeDBOk         = "db.ok"
	TypeDBImprove    = "db.improve"
	TypeMultiOk      = "multi.ok"
	TypeMultiNogood  = "multi.nogood"
	TypeMultiRequest = "multi.request"
)

// Lit is the wire form of a variable-value pair.
type Lit struct {
	Var int `json:"var"`
	Val int `json:"val"`
}

// TypeAck is the reliable-transport control frame type: a cumulative
// acknowledgement for one directed link, carried in Envelope.Ack. It is
// part of the wire format alongside the algorithm message types.
const TypeAck = "rel.ack"

// Control frame types used by the netrun hub/node protocol. They live here,
// next to the algorithm types, because the binary codec's type table must
// cover every frame that crosses a socket.
const (
	// TypeHello is a node's registration frame; its Codec field names
	// binary, the codec the node expects.
	TypeHello = "ctl.hello"
	// TypeWelcome is the hub's handshake reply; its Codec field names the
	// codec both directions switch to after this frame, always binary.
	TypeWelcome = "ctl.welcome"
	// TypeState is a node's post-step state report (value, insolubility,
	// processed count).
	TypeState = "ctl.state"
	// TypeStop is the hub's shutdown broadcast.
	TypeStop = "ctl.stop"
	// TypeHeartbeat is the liveness probe both hub and nodes emit on an
	// otherwise idle link. It carries no payload and never enters the
	// reliable stream (Seq 0): its only meaning is "this peer was alive when
	// it sent this".
	TypeHeartbeat = "ctl.beat"
	// TypeReset announces that the node named in From restarted from scratch
	// (a relaunched worker process with no in-memory transport state). The
	// hub broadcasts it to every other node, which resets both halves of its
	// reliable link with From (RecvLink.Reset, SendLink.Reset) and echoes
	// the frame back (From: itself, To: the restarted node) so the hub knows
	// exactly where the pre-reset traffic on that connection ends.
	TypeReset = "ctl.reset"
)

// Envelope is the wire form of one message. Algorithm messages use the
// message fields; the reliable transport and the netrun control plane
// piggyback on the same struct so one codec covers every frame on a socket.
type Envelope struct {
	Type     string `json:"type"`
	From     int    `json:"from"`
	To       int    `json:"to"`
	Value    int    `json:"value,omitempty"`
	Priority int    `json:"priority,omitempty"`
	Improve  int    `json:"improve,omitempty"`
	Eval     int    `json:"eval,omitempty"`
	Lits     []Lit  `json:"lits,omitempty"`
	Values   []Lit  `json:"values,omitempty"`

	// Seq is the reliable transport's per-link sequence number, stamped by
	// SendLink starting at 1; 0 marks a frame outside the reliable stream
	// (control frames). Ack is the cumulative acknowledgement on TypeAck
	// frames: every seq ≤ Ack has been durably received.
	Seq int64 `json:"seq,omitempty"`
	Ack int64 `json:"ack,omitempty"`

	// Control-plane fields (TypeHello/TypeWelcome/TypeState), carried on the
	// envelope so control frames share the codecs with the data plane.
	// Insoluble and Processed are a TypeState report's payload; Codec names
	// the steady-state codec in a hello or welcome.
	Insoluble bool   `json:"insoluble,omitempty"`
	Processed int    `json:"processed,omitempty"`
	Codec     string `json:"codec,omitempty"`

	// Crc is the checksum half of the handshake: a hello sets it to request
	// the CRC32C frame trailer, the welcome sets it to confirm. Both sides
	// enable the trailer only after a confirming welcome on a binary
	// connection (the JSON codec has no trailer slot).
	Crc bool `json:"crc,omitempty"`
	// Resume distinguishes a re-hello from a node that kept its in-memory
	// transport state (a worker redialing after connection loss, or an
	// in-process crash restart replaying its checkpoint) from a fresh-start
	// registration. A repeat hello with Resume false means the process was
	// relaunched cold, and the hub triggers the TypeReset link-renumbering
	// protocol.
	Resume bool `json:"resume,omitempty"`

	// TSeq is the message's causal trace-ID sequence number (the Seq half
	// of a causal.ID; the Agent half is From). 0 means untraced. Every
	// frame whose message carries a trace ID carries it, with no
	// negotiation: an untraced run stamps no IDs, so its frames never do.
	// Unlike Seq, TSeq is assigned by the sending agent's tracer and
	// survives the TypeReset link renumbering — trace IDs stay stable
	// across cold reconnections.
	TSeq int64 `json:"tseq,omitempty"`
}

// Detach deep-copies the envelope's slice fields so it no longer aliases a
// decoder's reusable scratch buffers. Frames that outlive the next decode
// (queued, delayed, or checkpointed frames) must be detached first; the
// steady-state frame kinds (ok?, ack, state) carry no slices and detach for
// free.
func (e *Envelope) Detach() {
	if len(e.Lits) > 0 {
		e.Lits = append([]Lit(nil), e.Lits...)
	}
	if len(e.Values) > 0 {
		e.Values = append([]Lit(nil), e.Values...)
	}
}

func litsOut(ng csp.Nogood) []Lit {
	out := make([]Lit, 0, ng.Len())
	for i := 0; i < ng.Len(); i++ {
		l := ng.At(i)
		out = append(out, Lit{Var: int(l.Var), Val: int(l.Val)})
	}
	return out
}

func litsIn(lits []Lit) ([]csp.Lit, error) {
	out := make([]csp.Lit, 0, len(lits))
	for _, l := range lits {
		if l.Var < 0 {
			return nil, fmt.Errorf("wire: negative variable %d", l.Var)
		}
		out = append(out, csp.Lit{Var: csp.Var(l.Var), Val: csp.Value(l.Val)})
	}
	return out, nil
}

// Encode converts a message into its envelope. It fails on message types
// outside the four algorithm packages. A message carrying a causal trace ID
// (causal.Traced with a nonzero ID) lands in the envelope's TSeq field; the
// ID's agent half is redundant with From and is not sent.
func Encode(m sim.Message) (Envelope, error) {
	e, err := encode(m)
	if err != nil {
		return e, err
	}
	if tm, ok := m.(causal.Traced); ok {
		e.TSeq = tm.CausalID().Seq
	}
	return e, nil
}

func encode(m sim.Message) (Envelope, error) {
	switch msg := m.(type) {
	case *core.Ok:
		return Envelope{Type: TypeCoreOk, From: int(msg.Sender), To: int(msg.Receiver),
			Value: int(msg.Value), Priority: msg.Priority}, nil
	case core.NogoodMsg:
		return Envelope{Type: TypeCoreNogood, From: int(msg.Sender), To: int(msg.Receiver),
			Lits: litsOut(msg.Nogood)}, nil
	case core.Request:
		return Envelope{Type: TypeCoreRequest, From: int(msg.Sender), To: int(msg.Receiver)}, nil
	case abt.Ok:
		return Envelope{Type: TypeABTOk, From: int(msg.Sender), To: int(msg.Receiver),
			Value: int(msg.Value)}, nil
	case abt.NogoodMsg:
		return Envelope{Type: TypeABTNogood, From: int(msg.Sender), To: int(msg.Receiver),
			Lits: litsOut(msg.Nogood)}, nil
	case abt.Request:
		return Envelope{Type: TypeABTRequest, From: int(msg.Sender), To: int(msg.Receiver)}, nil
	case breakout.Ok:
		return Envelope{Type: TypeDBOk, From: int(msg.Sender), To: int(msg.Receiver),
			Value: int(msg.Value)}, nil
	case breakout.Improve:
		return Envelope{Type: TypeDBImprove, From: int(msg.Sender), To: int(msg.Receiver),
			Improve: msg.Improve, Eval: msg.Eval}, nil
	case multi.Ok:
		vals := make([]Lit, 0, len(msg.Values))
		for _, l := range msg.Values {
			vals = append(vals, Lit{Var: int(l.Var), Val: int(l.Val)})
		}
		return Envelope{Type: TypeMultiOk, From: int(msg.Sender), To: int(msg.Receiver),
			Priority: msg.Priority, Values: vals}, nil
	case multi.NogoodMsg:
		return Envelope{Type: TypeMultiNogood, From: int(msg.Sender), To: int(msg.Receiver),
			Lits: litsOut(msg.Nogood)}, nil
	case multi.Request:
		return Envelope{Type: TypeMultiRequest, From: int(msg.Sender), To: int(msg.Receiver)}, nil
	default:
		return Envelope{}, fmt.Errorf("wire: unsupported message type %T", m)
	}
}

// Decode converts an envelope back into the concrete message, restoring the
// causal trace ID from (From, TSeq) when the envelope carries one.
func Decode(e Envelope) (sim.Message, error) {
	m, err := decode(e)
	if err != nil || e.TSeq == 0 {
		return m, err
	}
	if tm, ok := m.(causal.Traced); ok {
		m = tm.WithCausalID(causal.ID{Agent: int32(e.From), Seq: e.TSeq}).(sim.Message)
	}
	return m, nil
}

func decode(e Envelope) (sim.Message, error) {
	from, to := sim.AgentID(e.From), sim.AgentID(e.To)
	switch e.Type {
	case TypeCoreOk:
		return &core.Ok{Sender: from, Receiver: to, Value: csp.Value(e.Value), Priority: e.Priority}, nil
	case TypeCoreNogood:
		ng, err := nogoodIn(e.Lits)
		if err != nil {
			return nil, err
		}
		return core.NogoodMsg{Sender: from, Receiver: to, Nogood: ng}, nil
	case TypeCoreRequest:
		return core.Request{Sender: from, Receiver: to}, nil
	case TypeABTOk:
		return abt.Ok{Sender: from, Receiver: to, Value: csp.Value(e.Value)}, nil
	case TypeABTNogood:
		ng, err := nogoodIn(e.Lits)
		if err != nil {
			return nil, err
		}
		return abt.NogoodMsg{Sender: from, Receiver: to, Nogood: ng}, nil
	case TypeABTRequest:
		return abt.Request{Sender: from, Receiver: to}, nil
	case TypeDBOk:
		return breakout.Ok{Sender: from, Receiver: to, Value: csp.Value(e.Value)}, nil
	case TypeDBImprove:
		return breakout.Improve{Sender: from, Receiver: to, Improve: e.Improve, Eval: e.Eval}, nil
	case TypeMultiOk:
		lits, err := litsIn(e.Values)
		if err != nil {
			return nil, err
		}
		return multi.Ok{Sender: from, Receiver: to, Priority: e.Priority, Values: lits}, nil
	case TypeMultiNogood:
		ng, err := nogoodIn(e.Lits)
		if err != nil {
			return nil, err
		}
		return multi.NogoodMsg{Sender: from, Receiver: to, Nogood: ng}, nil
	case TypeMultiRequest:
		return multi.Request{Sender: from, Receiver: to}, nil
	default:
		return nil, fmt.Errorf("wire: unknown envelope type %q", e.Type)
	}
}

func nogoodIn(lits []Lit) (csp.Nogood, error) {
	cl, err := litsIn(lits)
	if err != nil {
		return csp.Nogood{}, err
	}
	return csp.NewNogood(cl...)
}

// Marshal renders the envelope as one newline-terminated JSON line, the
// framing of the TCP transport's handshake. It allocates a fresh
// buffer per call; hot paths append into a reusable buffer with AppendTo
// instead.
func Marshal(e Envelope) ([]byte, error) {
	b, err := e.AppendTo(nil, CodecJSON)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Unmarshal parses one JSON line.
func Unmarshal(line []byte) (Envelope, error) {
	var e Envelope
	if err := json.Unmarshal(line, &e); err != nil {
		return Envelope{}, fmt.Errorf("wire: %w", err)
	}
	if e.Type == "" {
		return Envelope{}, fmt.Errorf("wire: missing type")
	}
	return e, nil
}
