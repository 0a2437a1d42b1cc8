// Sharded relays: the hub's socket plane. Each relay owns one listener and
// the read loops of the connections it accepted; everything a relay decodes
// funnels into the hub's single route loop, which owns all routing, fault,
// and accounting decisions. Sharding therefore scales accept/read/decode
// across cores without perturbing a single routing decision — the
// determinism argument DESIGN.md §12 spells out.
package netrun

import (
	"errors"
	"net"
	"sync"

	"github.com/discsp/discsp/internal/wire"
)

// relay is one shard of the hub's listening plane.
type relay struct {
	index int
	ln    net.Listener
}

// shardOf is the consistent agent→shard assignment shared by the hub, the
// in-process nodes, and external workers (cmd/dcspnode): node v belongs to
// shard v mod nShards.
func shardOf(v, nShards int) int {
	if nShards <= 1 {
		return 0
	}
	return v % nShards
}

// relayConn is the hub's handle on one accepted connection. The read side
// (fr) belongs to the shard's read-loop goroutine; the write side (fw) and
// the node/dirty bookkeeping belong to the route loop, which serializes
// every write — so neither side needs a lock.
type relayConn struct {
	conn  net.Conn
	shard int
	fw    *wire.FrameWriter
	fr    *wire.FrameReader
	node  int  // registered node id; -1 until the hello is processed
	order int  // accept order across the run's relays, from 1
	dirty bool // buffered writes awaiting the route loop's idle flush
	crcOn bool // CRC32C trailer negotiated on this connection
}

// acceptLoop accepts connections on one relay until its listener closes,
// spawning a read loop per connection.
func (h *hub) acceptLoop(r *relay, readWG *sync.WaitGroup) {
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return // listener closed at shutdown
		}
		h.connMu.Lock()
		if h.connsClosed {
			// Accepted just before the listener closed, but after the
			// shutdown sweep: no route loop will answer this hello, so
			// close it rather than leave the dialing node (a restart
			// racing the verdict) blocked on its welcome forever.
			h.connMu.Unlock()
			conn.Close()
			return
		}
		rc := &relayConn{
			conn:  conn,
			shard: r.index,
			fw:    wire.NewFrameWriter(conn),
			fr:    wire.NewFrameReader(conn),
			node:  -1,
			order: len(h.allConns) + 1,
		}
		h.allConns = append(h.allConns, rc)
		h.connMu.Unlock()
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			h.readLoop(rc)
		}()
	}
}

// readLoop decodes frames from one connection into the hub channel. All
// frames — including hello — go through the channel so that connection
// registration happens on the single-threaded route loop. The one thing
// decided here is codec negotiation: the reader must switch before the next
// read, and the node sends nothing after its hello until the welcome
// arrives, so the switch point is unambiguous. The negotiated name rides to
// the route loop on the hello's Codec field.
func (h *hub) readLoop(rc *relayConn) {
	for {
		env, err := rc.fr.Next()
		if err != nil {
			if errors.Is(err, wire.ErrCorruptFrame) {
				// A checksum-rejected frame is consumed and counted; the
				// stream stays aligned and the sender retransmits.
				continue
			}
			return // node-side close or framing damage: drop the connection
		}
		if env.Type == wire.TypeHello {
			neg := negotiate(h.codec, env.Codec)
			rc.fr.SetCodec(neg)
			if h.checksum && env.Crc && neg == wire.CodecBinary {
				// The node sends nothing after its hello until the welcome
				// confirms the trailer, so arming the reader here is safe —
				// exactly like the codec switch above.
				rc.fr.EnableChecksum()
			}
			env.Codec = neg.String()
		}
		// Frames outlive the next Next call (queues, delays, checkpoints):
		// unalias the reader's scratch.
		env.Detach()
		select {
		case h.frames <- inFrame{env: env, src: rc}:
		case <-h.stop:
			return
		}
	}
}

// negotiate picks one connection's codec: binary unless either side asks
// for the JSON fallback. An unrecognized request also falls back to JSON —
// the handshake already proved the peer speaks it.
func negotiate(hub wire.Codec, requested string) wire.Codec {
	req, err := wire.ParseCodec(requested)
	if err != nil || hub == wire.CodecJSON || req == wire.CodecJSON {
		return wire.CodecJSON
	}
	return wire.CodecBinary
}
