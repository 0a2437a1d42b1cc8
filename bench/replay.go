package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"github.com/discsp/discsp/internal/sim"
	"github.com/discsp/discsp/internal/wire"
)

// wireCost is the per-message cost of the wire codec path a tcp frame takes:
// wire.Encode then Envelope.AppendTo(CodecBinary) on the way out,
// Decoder.Decode then wire.Decode on the way in.
type wireCost struct {
	encodeNS, decodeNS float64
	bytes, allocs      float64
}

// replayWire runs captured algorithm messages through the binary codec path
// and checks that each decodes to a message that encodes to the same bytes.
// It keeps cycling through the messages for at least minDur, so the
// per-message times average over many passes.
func replayWire(msgs []sim.Message, minDur time.Duration, tr *tracer) (wireCost, error) {
	if len(msgs) == 0 {
		return wireCost{}, nil
	}
	frames := make([][]byte, len(msgs))
	for i, m := range msgs {
		env, err := wire.Encode(m)
		if err != nil {
			return wireCost{}, err
		}
		frames[i], err = env.AppendTo(nil, wire.CodecBinary)
		if err != nil {
			return wireCost{}, err
		}
	}
	var dec wire.Decoder
	for i, f := range frames {
		env, _, err := dec.Decode(f)
		if err != nil {
			return wireCost{}, fmt.Errorf("decode frame %d: %w", i, err)
		}
		m, err := wire.Decode(env)
		if err != nil {
			return wireCost{}, fmt.Errorf("decode message %d: %w", i, err)
		}
		back, err := wire.Encode(m)
		if err != nil {
			return wireCost{}, err
		}
		again, err := back.AppendTo(nil, wire.CodecBinary)
		if err != nil {
			return wireCost{}, err
		}
		if !bytes.Equal(again, f) {
			return wireCost{}, fmt.Errorf("message %d (%T) does not survive the codec round trip", i, msgs[i])
		}
	}

	var c wireCost
	var ms0, ms1 runtime.MemStats
	var buf []byte
	var encNS, decNS time.Duration
	var passes int
	var nbytes int
	start := time.Now()
	runtime.ReadMemStats(&ms0)
	for passes == 0 || encNS+decNS < minDur {
		t0 := time.Now()
		for _, m := range msgs {
			env, _ := wire.Encode(m)
			buf, _ = env.AppendTo(buf[:0], wire.CodecBinary)
			nbytes += len(buf)
		}
		t1 := time.Now()
		for _, f := range frames {
			env, _, _ := dec.Decode(f)
			_, _ = wire.Decode(env)
		}
		t2 := time.Now()
		encNS += t1.Sub(t0)
		decNS += t2.Sub(t1)
		passes++
	}
	runtime.ReadMemStats(&ms1)
	if tr != nil {
		tr.add(-1, "wire.replay", "", start, time.Since(start), int64(passes*len(msgs)))
	}
	n := float64(passes * len(msgs))
	c.encodeNS = float64(encNS.Nanoseconds()) / n
	c.decodeNS = float64(decNS.Nanoseconds()) / n
	c.bytes = float64(nbytes) / n
	c.allocs = float64(ms1.Mallocs-ms0.Mallocs) / n
	return c, nil
}
