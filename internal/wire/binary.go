// The binary wire codec: a length-prefixed frame encoding built so the
// steady-state encode and decode paths allocate nothing. Envelopes append
// themselves into caller-owned buffers (AppendTo) and decode out of them
// through a Decoder whose scratch slices are reused across calls; the only
// frames that cost an allocation end-to-end are the minority that carry
// nogood literal lists, which must be detached from the scratch before they
// outlive the next decode.
//
// Payload layout (after the stream framing's uvarint length prefix and the
// frame-kind byte, see stream.go):
//
//	[type code: 1 byte]
//	[flags: 1 byte]            bit0 = Insoluble, bit1 = Crc, bit2 = Resume,
//	                           bit3 = retired (reserved; decoders ignore
//	                           it), bit4 = TSeq follows
//	zigzag varints:            From, To, Value, Priority, Improve, Eval,
//	                           Seq, Ack, Processed
//	[uvarint len][bytes]       Codec
//	[uvarint n] n×(zig,zig)    Lits   (Var, Val)
//	[uvarint n] n×(zig,zig)    Values (Var, Val)
//	[zigzag TSeq]              only when bit4 (flagTSeq) is set
//
// Every integer field is zigzag-encoded so the codec is total over the
// envelope's value space; the type string is the one field compressed to a
// table code, and an envelope whose Type is outside the table cannot be
// binary-encoded (JSON framing still carries it). The layout is part of the
// wire format: append new fields at the end, never reorder.
package wire

import (
	"encoding/binary"
	"fmt"
)

// Codec identifies a frame encoding.
type Codec uint8

const (
	// CodecBinary is the length-prefixed binary codec, the steady-state
	// encoding.
	CodecBinary Codec = iota
	// CodecJSON is the newline-delimited JSON codec: the handshake
	// encoding, and the baseline the wire benchmarks compare against.
	CodecJSON
)

// String returns the codec's name, as a welcome frame carries it.
func (c Codec) String() string {
	if c == CodecJSON {
		return "json"
	}
	return "binary"
}

// Binary type codes. They are part of the wire format; do not renumber.
const (
	codeCoreOk byte = iota + 1
	codeCoreNogood
	codeCoreRequest
	codeABTOk
	codeABTNogood
	codeABTRequest
	codeDBOk
	codeDBImprove
	codeMultiOk
	codeMultiNogood
	codeMultiRequest
	codeAck
	codeHello
	codeWelcome
	codeState
	codeStop
	codeHeartbeat
	codeReset
)

var typeCodes = map[string]byte{
	TypeCoreOk:       codeCoreOk,
	TypeCoreNogood:   codeCoreNogood,
	TypeCoreRequest:  codeCoreRequest,
	TypeABTOk:        codeABTOk,
	TypeABTNogood:    codeABTNogood,
	TypeABTRequest:   codeABTRequest,
	TypeDBOk:         codeDBOk,
	TypeDBImprove:    codeDBImprove,
	TypeMultiOk:      codeMultiOk,
	TypeMultiNogood:  codeMultiNogood,
	TypeMultiRequest: codeMultiRequest,
	TypeAck:          codeAck,
	TypeHello:        codeHello,
	TypeWelcome:      codeWelcome,
	TypeState:        codeState,
	TypeStop:         codeStop,
	TypeHeartbeat:    codeHeartbeat,
	TypeReset:        codeReset,
}

var typeNames = func() map[byte]string {
	m := make(map[byte]string, len(typeCodes))
	for name, code := range typeCodes {
		m[code] = name
	}
	return m
}()

// Envelope flag bits. Part of the wire format; new boolean fields claim the
// next free bit rather than growing the layout.
const (
	flagInsoluble = 1 << 0
	flagCrc       = 1 << 1
	flagResume    = 1 << 2
	// Bit 3 carried a causal-tracing handshake bid and is retired: it stays
	// reserved, and the decoder ignores it.
	//
	// flagTSeq marks a frame whose layout is extended by a trailing zigzag
	// TSeq, set whenever the envelope carries a trace ID.
	flagTSeq = 1 << 4
)

// appendZig appends v as a zigzag-encoded uvarint.
func appendZig(buf []byte, v int64) []byte {
	return binary.AppendUvarint(buf, uint64(v<<1)^uint64(v>>63))
}

// AppendTo appends the envelope's encoding under codec c to buf and returns
// the extended buffer, without any stream framing. It is the shared
// serialization entry for both codecs: with a reused buffer neither path
// allocates. Binary encoding fails only on a Type outside the code table.
func (e *Envelope) AppendTo(buf []byte, c Codec) ([]byte, error) {
	if c == CodecJSON {
		return e.appendJSON(buf), nil
	}
	return e.appendBinary(buf)
}

func (e *Envelope) appendBinary(buf []byte) ([]byte, error) {
	code, ok := typeCodes[e.Type]
	if !ok {
		return buf, fmt.Errorf("wire: type %q has no binary code", e.Type)
	}
	buf = append(buf, code)
	var flags byte
	if e.Insoluble {
		flags |= flagInsoluble
	}
	if e.Crc {
		flags |= flagCrc
	}
	if e.Resume {
		flags |= flagResume
	}
	if e.TSeq != 0 {
		flags |= flagTSeq
	}
	buf = append(buf, flags)
	buf = appendZig(buf, int64(e.From))
	buf = appendZig(buf, int64(e.To))
	buf = appendZig(buf, int64(e.Value))
	buf = appendZig(buf, int64(e.Priority))
	buf = appendZig(buf, int64(e.Improve))
	buf = appendZig(buf, int64(e.Eval))
	buf = appendZig(buf, e.Seq)
	buf = appendZig(buf, e.Ack)
	buf = appendZig(buf, int64(e.Processed))
	buf = binary.AppendUvarint(buf, uint64(len(e.Codec)))
	buf = append(buf, e.Codec...)
	buf = binary.AppendUvarint(buf, uint64(len(e.Lits)))
	for _, l := range e.Lits {
		buf = appendZig(buf, int64(l.Var))
		buf = appendZig(buf, int64(l.Val))
	}
	buf = binary.AppendUvarint(buf, uint64(len(e.Values)))
	for _, l := range e.Values {
		buf = appendZig(buf, int64(l.Var))
		buf = appendZig(buf, int64(l.Val))
	}
	if e.TSeq != 0 {
		buf = appendZig(buf, e.TSeq)
	}
	return buf, nil
}

// Decoder parses binary envelopes out of byte slices. Its literal scratch
// buffer is reused across calls, so a decoded envelope's Lits/Values alias
// the decoder until the next Decode: callers that keep an envelope past
// that point must Detach it first. A zero Decoder is ready to use.
type Decoder struct {
	lits []Lit
}

// reader walks a byte slice with explicit error state, so the field-by-field
// decode reads linearly.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("wire: truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) zig() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.err = fmt.Errorf("wire: truncated frame at offset %d", r.off)
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.err = fmt.Errorf("wire: %d-byte field overruns frame at offset %d", n, r.off)
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

// count reads a collection length and guards it against the remaining
// payload (each element costs at least perElem bytes), so corrupt or
// adversarial counts cannot force a huge allocation.
func (r *reader) count(perElem int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if int(n) < 0 || int(n)*perElem > len(r.b)-r.off {
		r.err = fmt.Errorf("wire: count %d overruns %d-byte remainder", n, len(r.b)-r.off)
		return 0
	}
	return int(n)
}

// Decode parses one binary envelope from the front of b and returns it with
// the number of bytes consumed. The envelope's Lits/Values alias the
// decoder's scratch (see the type comment).
func (d *Decoder) Decode(b []byte) (Envelope, int, error) {
	var e Envelope
	r := reader{b: b}
	code := r.byte()
	flags := r.byte()
	if r.err == nil {
		name, ok := typeNames[code]
		if !ok {
			return Envelope{}, 0, fmt.Errorf("wire: unknown binary type code %d", code)
		}
		e.Type = name
	}
	e.Insoluble = flags&flagInsoluble != 0
	e.Crc = flags&flagCrc != 0
	e.Resume = flags&flagResume != 0
	e.From = int(r.zig())
	e.To = int(r.zig())
	e.Value = int(r.zig())
	e.Priority = int(r.zig())
	e.Improve = int(r.zig())
	e.Eval = int(r.zig())
	e.Seq = r.zig()
	e.Ack = r.zig()
	e.Processed = int(r.zig())
	if n := r.count(1); n > 0 {
		e.Codec = string(r.bytes(n))
	}
	d.lits = d.lits[:0]
	nl := r.count(2)
	for i := 0; i < nl; i++ {
		d.lits = append(d.lits, Lit{Var: int(r.zig()), Val: int(r.zig())})
	}
	nv := r.count(2)
	for i := 0; i < nv; i++ {
		d.lits = append(d.lits, Lit{Var: int(r.zig()), Val: int(r.zig())})
	}
	if flags&flagTSeq != 0 {
		e.TSeq = r.zig()
	}
	if r.err != nil {
		return Envelope{}, 0, r.err
	}
	if nl > 0 {
		e.Lits = d.lits[:nl:nl]
	}
	if nv > 0 {
		e.Values = d.lits[nl : nl+nv : nl+nv]
	}
	return e, r.off, nil
}
