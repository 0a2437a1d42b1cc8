// Stream framing: FrameReader and FrameWriter carry envelopes and batches
// over a byte stream in either codec, switching codecs mid-stream after the
// hello/welcome handshake.
//
// JSON framing is one object per newline-terminated line (the pre-binary
// wire format, byte-for-byte). Binary framing is
//
//	[uvarint payload length][payload]
//	payload = [kind: 1 byte][body]
//
// with kind frameEnvelope (one envelope, body as in binary.go) or
// frameBatch (body = [uvarint nAcks] nAcks×(zig From, zig To, zig Ack)
// [uvarint nFrames] nFrames envelope bodies back-to-back).
//
// Both sides of a connection must funnel all reads through one FrameReader:
// it owns the only buffered reader, so bytes buffered before a codec switch
// are not lost. The reader expands batches transparently — Next returns the
// batch's acks as synthetic TypeAck envelopes, then its data frames in
// order — so callers never see a batch. Envelopes returned by Next may
// alias internal scratch until the next Next call; callers that keep one
// longer must Detach it.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ErrCorruptFrame marks a binary frame whose CRC32C trailer failed
// verification. The reader has already consumed the frame's bytes, so the
// stream stays parseable: callers drop the frame (counting it) and let the
// reliable layer's retransmission recover the payload. Match with
// errors.Is.
var ErrCorruptFrame = errors.New("wire: frame failed checksum")

// castagnoli is the CRC32C polynomial table. Castagnoli rather than IEEE
// because it is the stronger polynomial for short frames and is
// hardware-accelerated (SSE4.2 / ARMv8 CRC instructions) on every platform
// this runs on.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Binary frame kinds. Part of the wire format; do not renumber.
const (
	frameEnvelope byte = 1
	frameBatch    byte = 2
)

// maxFrameBytes bounds a single binary frame (envelope or whole batch), so
// a corrupt length prefix cannot force a huge allocation.
const maxFrameBytes = 1 << 24

const streamBufSize = 64 << 10

// FrameReader reads envelopes from a stream in either codec.
type FrameReader struct {
	r     *bufio.Reader
	codec Codec
	crc   bool
	dec   Decoder
	buf   []byte

	// Pending batch contents, drained by Next before the stream is read
	// again: ack watermarks first, then data frames (binary bodies decoded
	// lazily out of buf, or JSON envelopes already parsed).
	acks    []AckWatermark
	ackIdx  int
	body    []byte
	bframes int
	jframes []Envelope
	jIdx    int

	// BytesRead counts every wire byte consumed, including framing.
	// BatchedFrames counts envelopes (acks and data) that arrived inside
	// batch frames. CorruptFrames counts frames dropped for a failed
	// checksum (each also surfaced as an ErrCorruptFrame from Next).
	BytesRead     int64
	Frames        int64
	BatchedFrames int64
	CorruptFrames int64
}

// NewFrameReader wraps r. The reader starts in the JSON codec — the
// handshake encoding — until SetCodec switches it.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, streamBufSize), codec: CodecJSON}
}

// SetCodec switches the codec for subsequent frames. Safe mid-stream: the
// reader's single buffered reader keeps bytes that arrived before the
// switch.
func (f *FrameReader) SetCodec(c Codec) { f.codec = c }

// EnableChecksum arms CRC32C verification for subsequent binary frames:
// each frame's payload must carry the 4-byte little-endian trailer the
// peer's FrameWriter appends once the handshake has confirmed it. The
// trailer is a binary-framing extension; the JSON codec has no slot for it,
// so the handshake frames never carry one.
func (f *FrameReader) EnableChecksum() { f.crc = true }

// Next returns the next envelope, expanding batches transparently. The
// returned envelope's slices may alias reader scratch until the next call;
// Detach to keep it longer. Returns io.EOF at a clean end of stream.
func (f *FrameReader) Next() (Envelope, error) {
	for {
		if f.ackIdx < len(f.acks) {
			a := f.acks[f.ackIdx]
			f.ackIdx++
			f.Frames++
			f.BatchedFrames++
			return a.Envelope(), nil
		}
		if f.bframes > 0 {
			e, n, err := f.dec.Decode(f.body)
			if err != nil {
				return Envelope{}, err
			}
			f.body = f.body[n:]
			f.bframes--
			if f.bframes == 0 && len(f.body) != 0 {
				return Envelope{}, fmt.Errorf("wire: %d trailing bytes after batch frames", len(f.body))
			}
			f.Frames++
			f.BatchedFrames++
			return e, nil
		}
		if f.jIdx < len(f.jframes) {
			e := f.jframes[f.jIdx]
			f.jIdx++
			f.Frames++
			f.BatchedFrames++
			return e, nil
		}
		var (
			e    Envelope
			more bool
			err  error
		)
		if f.codec == CodecJSON {
			e, more, err = f.nextJSON()
		} else {
			e, more, err = f.nextBinary()
		}
		if err != nil {
			return Envelope{}, err
		}
		if more {
			continue // a batch was unpacked into the pending state
		}
		f.Frames++
		return e, nil
	}
}

// Buffered reports whether the next Next call can be answered without
// reading the stream: a batch is partly drained, or a whole frame sits in
// the read buffer. It never reads the stream itself, so a caller can hand
// over everything one read delivered as a group once it turns false.
func (f *FrameReader) Buffered() bool {
	if f.ackIdx < len(f.acks) || f.bframes > 0 || f.jIdx < len(f.jframes) {
		return true
	}
	b, _ := f.r.Peek(f.r.Buffered()) // peeking only what is buffered cannot fail
	if f.codec == CodecJSON {
		return bytes.IndexByte(b, '\n') >= 0
	}
	n, k := binary.Uvarint(b) // the length includes any CRC trailer
	return k > 0 && n <= uint64(len(b)-k)
}

// nextJSON reads one JSON line; more=true means it was a batch and the
// pending state was loaded instead.
func (f *FrameReader) nextJSON() (Envelope, bool, error) {
	line, err := f.readLine()
	if err != nil {
		return Envelope{}, false, err
	}
	e, err := Unmarshal(line)
	if err != nil {
		return Envelope{}, false, err
	}
	if e.Type != TypeBatch {
		return e, false, nil
	}
	var b Batch
	if err := json.Unmarshal(line, &b); err != nil {
		return Envelope{}, false, fmt.Errorf("wire: bad batch: %w", err)
	}
	f.acks, f.ackIdx = b.Acks, 0
	f.jframes, f.jIdx = b.Frames, 0
	return Envelope{}, true, nil
}

// readLine reads one newline-terminated line into the reusable buffer,
// handling lines longer than the bufio buffer.
func (f *FrameReader) readLine() ([]byte, error) {
	f.buf = f.buf[:0]
	for {
		chunk, err := f.r.ReadSlice('\n')
		f.buf = append(f.buf, chunk...)
		f.BytesRead += int64(len(chunk))
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			if err == io.EOF && len(f.buf) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		return f.buf, nil
	}
}

func (f *FrameReader) nextBinary() (Envelope, bool, error) {
	n, err := f.readUvarint()
	if err != nil {
		return Envelope{}, false, err
	}
	if n == 0 || n > maxFrameBytes {
		return Envelope{}, false, fmt.Errorf("wire: frame length %d out of range", n)
	}
	if uint64(cap(f.buf)) < n {
		f.buf = make([]byte, n)
	}
	f.buf = f.buf[:n]
	if _, err := io.ReadFull(f.r, f.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Envelope{}, false, err
	}
	f.BytesRead += int64(n)
	payload := f.buf
	if f.crc {
		// The frame's bytes are fully consumed before verification, so a
		// corrupt frame costs exactly one frame: the stream stays framed and
		// the next read starts at the next length prefix.
		if n < 5 {
			f.CorruptFrames++
			return Envelope{}, false, fmt.Errorf("%w: %d-byte frame shorter than its trailer", ErrCorruptFrame, n)
		}
		body, trailer := payload[:n-4], payload[n-4:]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(trailer) {
			f.CorruptFrames++
			return Envelope{}, false, fmt.Errorf("%w: %d-byte frame", ErrCorruptFrame, n)
		}
		payload = body
	}
	kind, body := payload[0], payload[1:]
	switch kind {
	case frameEnvelope:
		e, used, err := f.dec.Decode(body)
		if err != nil {
			return Envelope{}, false, err
		}
		if used != len(body) {
			return Envelope{}, false, fmt.Errorf("wire: %d trailing bytes after envelope", len(body)-used)
		}
		return e, false, nil
	case frameBatch:
		r := reader{b: body}
		f.acks = f.acks[:0]
		f.ackIdx = 0
		na := r.count(3)
		for i := 0; i < na; i++ {
			f.acks = append(f.acks, AckWatermark{From: int(r.zig()), To: int(r.zig()), Ack: r.zig()})
		}
		nf := r.count(1)
		if r.err != nil {
			return Envelope{}, false, r.err
		}
		f.body = body[r.off:]
		f.bframes = nf
		if nf == 0 && len(f.body) != 0 {
			return Envelope{}, false, fmt.Errorf("wire: %d trailing bytes after empty batch", len(f.body))
		}
		return Envelope{}, true, nil
	default:
		return Envelope{}, false, fmt.Errorf("wire: unknown frame kind %d", kind)
	}
}

// readUvarint reads a length prefix byte-by-byte so BytesRead stays exact.
func (f *FrameReader) readUvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := f.r.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		f.BytesRead++
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, fmt.Errorf("wire: frame length varint overflows")
}

// FrameWriter writes envelopes to a stream in either codec, optionally
// coalescing them into batches. It is not safe for concurrent use; netrun
// gives each connection one writer goroutine.
type FrameWriter struct {
	w     *bufio.Writer
	codec Codec
	crc   bool
	batch bool

	maxFrames int
	maxBytes  int

	acks    []AckWatermark
	pframes int
	fbuf    []byte // encoded pending data frames (binary bodies, or JSON objects joined by commas)
	buf     []byte // per-write scratch
	// lenb is the length-prefix scratch. A field rather than a local so the
	// slice handed to the io.Writer interface never escapes to the heap —
	// a stack array here costs one allocation per frame.
	lenb [binary.MaxVarintLen64]byte

	// BytesWritten counts every wire byte produced, including framing.
	// FramesWritten counts envelopes submitted (coalesced-away acks
	// included). BatchedFrames counts envelopes and watermarks that left
	// inside batch frames; Batches counts the batch frames themselves.
	BytesWritten  int64
	FramesWritten int64
	BatchedFrames int64
	Batches       int64
}

// NewFrameWriter wraps w. The writer starts in the JSON codec — the
// handshake encoding — with batching off.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: bufio.NewWriterSize(w, streamBufSize), codec: CodecJSON}
}

// SetCodec switches the codec for subsequent frames, flushing any pending
// batch in the old codec first.
func (f *FrameWriter) SetCodec(c Codec) error {
	if err := f.flushBatch(); err != nil {
		return err
	}
	f.codec = c
	return nil
}

// EnableChecksum arms the CRC32C trailer on subsequent binary frames: each
// length-prefixed frame carries crc32c(payload) as 4 little-endian bytes
// inside the prefixed length. Call only after negotiating it with the peer
// (hello/welcome Crc) on a binary connection.
func (f *FrameWriter) EnableChecksum() { f.crc = true }

// EnableBatching turns on frame coalescing: pending frames are flushed as
// one batch once maxFrames envelopes or maxBytes encoded bytes accumulate,
// or on the next Flush (the caller's deadline bound).
func (f *FrameWriter) EnableBatching(maxFrames, maxBytes int) {
	f.batch = true
	f.maxFrames = maxFrames
	f.maxBytes = maxBytes
}

// Send submits one envelope. With batching off it writes through
// immediately; with batching on it joins the pending batch (acks coalesce
// to their link's watermark) and may trigger a size-bounded flush. Bytes
// reach the socket no later than the next Flush.
func (f *FrameWriter) Send(e *Envelope) error {
	f.FramesWritten++
	if !f.batch {
		return f.writeFrame(e)
	}
	if e.Type == TypeAck {
		for i := range f.acks {
			if f.acks[i].From == e.From && f.acks[i].To == e.To {
				if e.Ack > f.acks[i].Ack {
					f.acks[i].Ack = e.Ack
				}
				return nil
			}
		}
		f.acks = append(f.acks, AckWatermark{From: e.From, To: e.To, Ack: e.Ack})
		return f.maybeFlushBatch()
	}
	var err error
	if f.codec == CodecBinary {
		f.fbuf, err = e.appendBinary(f.fbuf)
		if err != nil {
			return err
		}
	} else {
		if f.pframes > 0 {
			f.fbuf = append(f.fbuf, ',')
		}
		f.fbuf = e.appendJSON(f.fbuf)
	}
	f.pframes++
	return f.maybeFlushBatch()
}

func (f *FrameWriter) maybeFlushBatch() error {
	if f.pframes+len(f.acks) >= f.maxFrames || len(f.fbuf) >= f.maxBytes {
		return f.flushBatch()
	}
	return nil
}

// writeFrame writes one unbatched envelope, flushing any pending batch
// first so frames are never reordered across it.
func (f *FrameWriter) writeFrame(e *Envelope) error {
	if err := f.flushBatch(); err != nil {
		return err
	}
	if f.codec == CodecJSON {
		f.buf = e.appendJSON(f.buf[:0])
		f.buf = append(f.buf, '\n')
		n, err := f.w.Write(f.buf)
		f.BytesWritten += int64(n)
		return err
	}
	f.buf = append(f.buf[:0], frameEnvelope)
	var err error
	f.buf, err = e.appendBinary(f.buf)
	if err != nil {
		return err
	}
	return f.writeFramed()
}

// writeFramed writes the scratch buffer f.buf as one binary frame with its
// uvarint length prefix, appending the CRC32C trailer first when checksums
// are armed. The trailer grows through f.buf so its capacity persists
// across calls and the steady state stays allocation-free.
func (f *FrameWriter) writeFramed() error {
	if f.crc {
		f.buf = binary.LittleEndian.AppendUint32(f.buf, crc32.Checksum(f.buf, castagnoli))
	}
	payload := f.buf
	n := binary.PutUvarint(f.lenb[:], uint64(len(payload)))
	m, err := f.w.Write(f.lenb[:n])
	f.BytesWritten += int64(m)
	if err != nil {
		return err
	}
	m, err = f.w.Write(payload)
	f.BytesWritten += int64(m)
	return err
}

// WriteCorrupted writes e as a standalone checksummed binary frame with one
// payload bit deliberately flipped after the trailer was computed, so the
// receiver's CRC check must reject it. It exists for the fault injector's
// corrupt fault: the frame is framed correctly (the stream stays
// parseable), only its payload lies. Any pending batch is flushed first so
// no healthy frame shares the poisoned write.
func (f *FrameWriter) WriteCorrupted(e *Envelope) error {
	if f.codec != CodecBinary || !f.crc {
		return fmt.Errorf("wire: WriteCorrupted needs a checksummed binary connection")
	}
	if err := f.flushBatch(); err != nil {
		return err
	}
	f.FramesWritten++
	f.buf = append(f.buf[:0], frameEnvelope)
	var err error
	f.buf, err = e.appendBinary(f.buf)
	if err != nil {
		return err
	}
	payload := binary.LittleEndian.AppendUint32(f.buf, crc32.Checksum(f.buf, castagnoli))
	payload[len(payload)-5] ^= 0x40 // flip a bit in the last payload byte, not the trailer
	n := binary.PutUvarint(f.lenb[:], uint64(len(payload)))
	m, werr := f.w.Write(f.lenb[:n])
	f.BytesWritten += int64(m)
	if werr != nil {
		return werr
	}
	m, werr = f.w.Write(payload)
	f.BytesWritten += int64(m)
	return werr
}

// flushBatch writes the pending batch, if any, as one frame.
func (f *FrameWriter) flushBatch() error {
	if !f.batch || (len(f.acks) == 0 && f.pframes == 0) {
		return nil
	}
	f.Batches++
	f.BatchedFrames += int64(f.pframes + len(f.acks))
	var err error
	if f.codec == CodecBinary {
		f.buf = append(f.buf[:0], frameBatch)
		f.buf = binary.AppendUvarint(f.buf, uint64(len(f.acks)))
		for _, a := range f.acks {
			f.buf = appendZig(f.buf, int64(a.From))
			f.buf = appendZig(f.buf, int64(a.To))
			f.buf = appendZig(f.buf, a.Ack)
		}
		f.buf = binary.AppendUvarint(f.buf, uint64(f.pframes))
		f.buf = append(f.buf, f.fbuf...)
		err = f.writeFramed()
	} else {
		f.buf = append(f.buf[:0], `{"type":"wire.batch"`...)
		if len(f.acks) > 0 {
			f.buf = append(f.buf, `,"acks":[`...)
			for i, a := range f.acks {
				if i > 0 {
					f.buf = append(f.buf, ',')
				}
				f.buf = append(f.buf, `{"from":`...)
				f.buf = appendInt(f.buf, int64(a.From))
				f.buf = append(f.buf, `,"to":`...)
				f.buf = appendInt(f.buf, int64(a.To))
				f.buf = append(f.buf, `,"ack":`...)
				f.buf = appendInt(f.buf, a.Ack)
				f.buf = append(f.buf, '}')
			}
			f.buf = append(f.buf, ']')
		}
		if f.pframes > 0 {
			f.buf = append(f.buf, `,"frames":[`...)
			f.buf = append(f.buf, f.fbuf...)
			f.buf = append(f.buf, ']')
		}
		f.buf = append(f.buf, '}', '\n')
		var n int
		n, err = f.w.Write(f.buf)
		f.BytesWritten += int64(n)
	}
	f.acks = f.acks[:0]
	f.fbuf = f.fbuf[:0]
	f.pframes = 0
	return err
}

// Flush writes any pending batch and flushes the buffered writer to the
// socket. Callers flush whenever their send queue drains, which is the
// batching deadline bound.
func (f *FrameWriter) Flush() error {
	if err := f.flushBatch(); err != nil {
		return err
	}
	return f.w.Flush()
}

// Pending reports whether any bytes or batched frames are waiting for a
// Flush.
func (f *FrameWriter) Pending() bool {
	return f.pframes > 0 || len(f.acks) > 0 || f.w.Buffered() > 0
}
