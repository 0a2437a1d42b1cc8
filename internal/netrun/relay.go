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
	crcOn bool // CRC32C trailer confirmed on this connection
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

// readGroups reads fr until the stream fails or deliver returns false,
// handing deliver one group per socket read: every frame Next returns until
// fr.Buffered turns false. Each frame is detached — a group outlives the
// next read — and passes through frame before fr.Buffered is asked, so
// frame may switch the reader's codec. A checksum-rejected frame is
// consumed, counted by fr, and skipped; the stream stays aligned and the
// sender retransmits. On any other read error the frames already decoded
// are still delivered.
func readGroups[T any](fr *wire.FrameReader, frame func(wire.Envelope) T, deliver func([]T) bool) {
	var group []T
	for {
		e, err := fr.Next()
		switch {
		case errors.Is(err, wire.ErrCorruptFrame):
		case err != nil:
			if len(group) > 0 {
				deliver(group)
			}
			return
		default:
			e.Detach()
			group = append(group, frame(e))
		}
		if len(group) == 0 || fr.Buffered() {
			continue
		}
		if !deliver(group) {
			return
		}
		group = nil
	}
}

// readLoop decodes frames from one connection into the hub channel, one
// group per socket read, so the route loop routes a whole group before its
// idle flush. All frames — including hello — go through the channel so
// that connection registration happens on the single-threaded route loop.
// The one thing done here is the switch to binary: the reader must switch
// before the next read, and the node sends nothing after its hello until
// the welcome arrives, so the switch point is unambiguous.
func (h *hub) readLoop(rc *relayConn) {
	readGroups(rc.fr, func(env wire.Envelope) inFrame {
		if env.Type == wire.TypeHello {
			rc.fr.SetCodec(wire.CodecBinary)
			if h.checksum && env.Crc {
				// The welcome confirms the trailer, and the node sends
				// nothing before it, so the reader arms with the switch.
				rc.fr.EnableChecksum()
			}
		}
		return inFrame{env: env, src: rc}
	}, func(g []inFrame) bool {
		select {
		case h.frames <- g:
			return true
		case <-h.stop:
			return false
		}
	})
}
