// The node side of the transport: one goroutine (or worker process) per
// agent, dialing its shard's relay, handshaking (and optionally requesting
// the CRC32C frame trailer), and running the agent against the socket with
// reliable links, crash checkpoints, and — for external workers —
// reconnection: a node that loses its connection mid-solve redials on
// jittered backoff, re-hellos with the resume flag, and replays its unacked
// window, exactly like the in-process crash-restart path but with the state
// still in memory.
package netrun

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"time"

	"github.com/discsp/discsp/internal/backoff"
	"github.com/discsp/discsp/internal/causal"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/faults"
	"github.com/discsp/discsp/internal/sim"
	"github.com/discsp/discsp/internal/telemetry"
	"github.com/discsp/discsp/internal/wire"
)

// nodeConfig carries one node's invariant wiring across incarnations.
type nodeConfig struct {
	addr      string // the node's shard relay address
	v         csp.Var
	makeAgent func(v csp.Var) sim.Agent
	crc       bool           // request the CRC32C frame trailer in the hello
	causal    *causal.Tracer // non-nil traces the node; nil leaves it untraced
	hb        time.Duration  // idle-link heartbeat period; 0 disables
	inj       *faults.Injector
	ckpts     *faults.Checkpoints
	ctr       *nodeCounters
	done      <-chan struct{}
	// onStop, when non-nil, runs when the hub's stop frame arrives —
	// workers use it to classify their sibling nodes' subsequent socket
	// errors as a clean shutdown.
	onStop func()
	// drainWindow bounds how long a node whose write failed keeps draining
	// inbound frames looking for the hub's stop (the clean-shutdown race in
	// failRW); 0 means defaultDrainWindow. Workers on slow or contended
	// links raise it to avoid misclassifying a shutdown as a hub death.
	drainWindow time.Duration
	// reconnect makes connection loss survivable: the node redials (with
	// jittered backoff, bounded by connectTimeout), re-hellos with the
	// resume flag, and replays its unacked window. External workers set it;
	// in-process nodes rely on the crash-restart supervisor instead.
	reconnect bool
	// connectTimeout bounds each dial-with-retry loop (startup and
	// reconnection) when reconnect is set; 0 means defaultConnectTimeout.
	connectTimeout time.Duration
	// deadPeer is the node-side hub-silence bound: a reconnect-enabled
	// node that hears nothing (not even a heartbeat) for this long
	// abandons its connection and redials. 0 disables.
	deadPeer time.Duration
}

// defaultDrainWindow is the write-error classifier's inbound-drain bound.
const defaultDrainWindow = time.Second

// defaultConnectTimeout bounds a worker node's dial-with-retry loop: long
// enough to ride out a hub that launches after the worker or rebinds after
// a restart, short enough that a genuinely absent hub fails the worker.
const defaultConnectTimeout = 15 * time.Second

// drainWindowOrDefault resolves the configured drain window.
func (cfg nodeConfig) drainWindowOrDefault() time.Duration {
	if cfg.drainWindow > 0 {
		return cfg.drainWindow
	}
	return defaultDrainWindow
}

func (cfg nodeConfig) connectTimeoutOrDefault() time.Duration {
	if cfg.connectTimeout > 0 {
		return cfg.connectTimeout
	}
	return defaultConnectTimeout
}

// nodeCheckpoint is the durable state a node persists before acknowledging
// a step: the agent snapshot plus both halves of every reliable link, so a
// restarted incarnation resumes the seq streams exactly where the crashed
// one durably left them.
type nodeCheckpoint struct {
	agent any
	send  map[int]wire.SendLinkState
	recv  map[int]wire.RecvLinkState
	steps int
	// pendingReport is the processed count of the checkpointed step whose
	// state frame may never have reached the hub; the restarted node
	// re-reports it so the hub's in-flight accounting stays exact.
	pendingReport int
}

// nodeState is the state that survives a session: the agent, both halves of
// every reliable link, and the step/report bookkeeping. A reconnecting
// node carries it across sockets; a crash-restarted node rebuilds it from
// the checkpoint.
type nodeState struct {
	agent         sim.Agent
	at            *causal.AgentTracer // the agent's tracer handle; nil when untraced
	sendLinks     map[int]*wire.SendLink
	recvLinks     map[int]*wire.RecvLink
	steps         int
	pendingReport int
	restored      bool  // a checkpoint was replayed into this state
	initialized   bool  // Init ran; a session before that runs it, resumed or not
	corrupt       int64 // CRC-rejected inbound frames, summed across sessions
}

// sessionEnd classifies how one socket session finished.
type sessionEnd int

const (
	endStop       sessionEnd = iota // clean: stop frame, run over, or hub teardown
	endCrashed                      // the fault schedule killed this incarnation
	endLost                         // connection failed; redial and resume
	endUnwelcomed                   // connection failed before the welcome; back off, redial
)

// errRunOver marks a dial abandoned because the run already ended.
var errRunOver = errors.New("netrun: run over")

// redial paces a reconnect-enabled node's attempts to reach its relay. A
// refused dial and a socket that dies before its welcome are both failed
// attempts, retried on jittered backoff until connectTimeout after the
// first failure — at startup, where a worker process may launch before the
// hub listens, and on reconnection, where the hub may still be tearing
// down the old socket. A welcomed session ends the streak.
type redial struct {
	attempt  int
	deadline time.Time
}

// wait sleeps out the backoff after a failed attempt. It returns errRunOver
// if the run ends meanwhile, and err once the streak has lasted
// connectTimeout.
func (r *redial) wait(cfg nodeConfig, err error) error {
	if r.attempt == 0 {
		r.deadline = time.Now().Add(cfg.connectTimeoutOrDefault())
	}
	if time.Now().After(r.deadline) {
		return err
	}
	pol := backoff.Policy{Base: 25 * time.Millisecond, Cap: time.Second}
	select {
	case <-time.After(pol.Jittered(r.attempt, int64(cfg.v)+1)):
	case <-cfg.done:
		return errRunOver
	}
	r.attempt++
	return nil
}

// dialNode connects to the node's relay, retrying refused dials through r.
// In-process nodes dial once: their hub listens before any node starts.
func dialNode(cfg nodeConfig, r *redial) (net.Conn, error) {
	for {
		conn, err := net.Dial("tcp", cfg.addr)
		if err == nil {
			return conn, nil
		}
		select {
		case <-cfg.done:
			return nil, errRunOver
		default:
		}
		if !cfg.reconnect {
			return nil, err
		}
		if err := r.wait(cfg, fmt.Errorf("netrun: connect %s: %w", cfg.addr, err)); err != nil {
			return nil, err
		}
	}
}

// runNode runs one agent across one or more socket sessions. It returns
// crashed=true when the fault schedule killed this incarnation (the
// supervisor decides whether to restart it); a nil error otherwise means a
// clean stop.
func runNode(cfg nodeConfig, incarnation int) (bool, error) {
	v := cfg.v
	agent := cfg.makeAgent(v)
	if int(agent.ID()) != int(v) {
		return false, fmt.Errorf("agent for variable %d has id %d", v, agent.ID())
	}
	// The tracer keeps one handle per variable, so trace-ID counters
	// continue across sessions and incarnations: cause IDs stay stable even
	// through a TypeReset link renumbering, which renumbers Seq, not TSeq.
	st := &nodeState{
		agent:     agent,
		at:        cfg.causal.Attach(int(v), agent),
		sendLinks: make(map[int]*wire.SendLink),
		recvLinks: make(map[int]*wire.RecvLink),
	}
	ctr := cfg.ctr
	defer func() {
		var rt, dp int64
		for _, sl := range st.sendLinks {
			rt += sl.Retransmits()
		}
		for _, rl := range st.recvLinks {
			dp += rl.Dups()
		}
		ctr.retransmits.Add(rt)
		ctr.dups.Add(dp)
		ctr.corrupt.Add(st.corrupt)
		// Final incarnation wins: a restarted agent restored its counter
		// from the checkpoint, so its total is cumulative.
		if int(v) < len(ctr.checks) {
			ctr.checks[int(v)].Store(agent.Checks())
		}
		if ctr.stores != nil && int(v) < len(ctr.stores) {
			if ss, ok := agent.(telemetry.StoreSizer); ok {
				ctr.stores[int(v)].Store(int64(ss.StoreSize()))
			}
		}
	}()

	if incarnation > 0 {
		if snap, ok := cfg.ckpts.Load(int(v)); ok {
			cp := snap.(nodeCheckpoint)
			if cp.agent != nil {
				c, can := agent.(sim.Checkpointer)
				if !can {
					return false, fmt.Errorf("agent %d cannot restore a checkpoint", v)
				}
				if err := c.Restore(cp.agent); err != nil {
					return false, fmt.Errorf("restore checkpoint: %w", err)
				}
			}
			now := time.Now()
			for peer, lst := range cp.send {
				st.sendLinks[peer] = wire.RestoreSendLink(lst, retransmitBase, retransmitCap, now)
			}
			for peer, lst := range cp.recv {
				st.recvLinks[peer] = wire.RestoreRecvLink(lst)
			}
			st.steps = cp.steps
			st.pendingReport = cp.pendingReport
			st.restored = true
		}
	}

	// A session lost before its welcome is one more failed attempt to
	// reach the relay, not a reconnection.
	var rd redial
	for session := 0; ; session++ {
		conn, err := dialNode(cfg, &rd)
		if err != nil {
			if errors.Is(err, errRunOver) {
				return false, nil
			}
			return false, err
		}
		end, err := runSession(cfg, st, conn, incarnation, session)
		conn.Close()
		if err != nil {
			return false, err
		}
		switch end {
		case endStop:
			return false, nil
		case endCrashed:
			return true, nil
		case endUnwelcomed:
			// Something accepted the socket but no relay answered the
			// hello: a hub gone behind a proxy, or one mid-teardown.
			// Redialing at once would spin until the run's end, which this
			// node may never hear of.
			err := rd.wait(cfg, fmt.Errorf("netrun: %s accepted the connection but sent no welcome", cfg.addr))
			if errors.Is(err, errRunOver) {
				return false, nil
			}
			if err != nil {
				return false, err
			}
			continue
		}
		// endLost: the link died mid-solve. Redial and resume — the links
		// keep their numbering, so the hub treats the re-hello like a
		// checkpoint restart with the state still warm.
		rd = redial{}
		ctr.reconnects.Add(1)
	}
}

// runSession drives one socket's lifetime: handshake, replay (after a
// restore or reconnect), then the step loop until stop, crash, or
// connection loss.
func runSession(cfg nodeConfig, st *nodeState, conn net.Conn, incarnation, session int) (sessionEnd, error) {
	v := cfg.v
	agent := st.agent
	sendLink := func(to int) *wire.SendLink {
		sl, ok := st.sendLinks[to]
		if !ok {
			sl = wire.NewSendLink(retransmitBase, retransmitCap)
			st.sendLinks[to] = sl
		}
		return sl
	}
	recvLink := func(from int) *wire.RecvLink {
		rl, ok := st.recvLinks[from]
		if !ok {
			rl = wire.NewRecvLink()
			st.recvLinks[from] = rl
		}
		return rl
	}

	// fail classifies an I/O error before the reader goroutine exists: the
	// run being over makes it a clean exit; a reconnect-enabled node treats
	// it as a lost connection and redials; in-process nodes report it.
	fail := func(err error) (sessionEnd, error) {
		select {
		case <-cfg.done:
			return endStop, nil
		default:
		}
		if cfg.reconnect {
			return endLost, nil
		}
		return endStop, err
	}

	// One writer and one reader own the socket. Both start in JSON (the
	// handshake encoding) and switch to binary together once the welcome
	// arrives. Every write group below ends with a Flush — that is
	// the batch boundary: a step's outputs, ack, and state report coalesce
	// into one batch frame.
	fw := wire.NewFrameWriter(conn)
	fr := wire.NewFrameReader(conn)
	send := func(e wire.Envelope) error { return fw.Send(&e) }
	writeState := func(processed int) error {
		state := wire.Envelope{Type: wire.TypeState, From: int(v), Value: int(agent.CurrentValue()), Processed: processed}
		if r, ok := agent.(sim.InsolubleReporter); ok && r.Insoluble() {
			state.Insoluble = true
		}
		return send(state)
	}
	// frame encodes an activation's output and stamps it into the send
	// links, appending the frames to dst for the caller to send: stamped
	// means buffered for retransmission until acked.
	frame := func(dst []wire.Envelope, out []sim.Message, now time.Time) ([]wire.Envelope, error) {
		for _, m := range out {
			env, err := wire.Encode(m)
			if err != nil {
				return dst, err
			}
			if env, err = sendLink(env.To).Stamp(env, now); err != nil {
				return dst, err
			}
			dst = append(dst, env)
		}
		return dst, nil
	}

	// Crash schedule: only the first incarnation crashes (the schedule is
	// one crash per agent), and only agents that will restart pay for
	// checkpointing.
	var cr faults.Crash
	hasCrash := false
	if incarnation == 0 {
		cr, hasCrash = cfg.inj.Crash(int(v))
	}
	willRestart := cfg.inj.WillRestart(int(v))
	saveCheckpoint := func() {
		if !willRestart || cfg.ckpts == nil {
			return
		}
		cp := nodeCheckpoint{
			send:          make(map[int]wire.SendLinkState, len(st.sendLinks)),
			recv:          make(map[int]wire.RecvLinkState, len(st.recvLinks)),
			steps:         st.steps,
			pendingReport: st.pendingReport,
		}
		if c, ok := agent.(sim.Checkpointer); ok {
			cp.agent = c.Checkpoint()
		}
		for peer, sl := range st.sendLinks {
			cp.send[peer] = sl.SnapshotState()
		}
		for peer, rl := range st.recvLinks {
			cp.recv[peer] = rl.SnapshotState()
		}
		cfg.ckpts.Save(int(v), cp)
	}

	// Handshake: hello (with the checksum bid and — when this node carries
	// live state from a checkpoint or a previous session — the resume
	// flag), then block on the welcome before anything else crosses the
	// socket, so the codec and checksum switch points are unambiguous on
	// both sides. A hello without resume after a previous registration
	// tells the hub this is a cold relaunch: it resets the node's links
	// everywhere.
	resume := st.restored || session > 0
	hello := wire.Envelope{Type: wire.TypeHello, From: int(v), Codec: wire.CodecBinary.String(),
		Crc: cfg.crc, Resume: resume}
	failHello := func(err error) (sessionEnd, error) {
		end, err := fail(err)
		if end == endLost {
			end = endUnwelcomed
		}
		return end, err
	}
	if err := send(hello); err != nil {
		return failHello(err)
	}
	if err := fw.Flush(); err != nil {
		return failHello(err)
	}
	// The hub answers a hello at once: a welcome slower than the dead-peer
	// bound means a black-holed socket, abandoned like a silent link.
	if cfg.reconnect && cfg.deadPeer > 0 {
		if err := conn.SetReadDeadline(time.Now().Add(cfg.deadPeer)); err != nil {
			return failHello(err)
		}
	}
	welcome, err := fr.Next()
	if err != nil {
		return failHello(err)
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		return fail(err)
	}
	switch welcome.Type {
	case wire.TypeWelcome:
	case wire.TypeStop:
		if cfg.onStop != nil {
			cfg.onStop()
		}
		return endStop, nil
	default:
		return endStop, fmt.Errorf("node %d: expected welcome, got %q", v, welcome.Type)
	}
	if welcome.Codec != wire.CodecBinary.String() {
		return endStop, fmt.Errorf("node %d: welcome names codec %q, want %q", v, welcome.Codec, wire.CodecBinary)
	}
	fr.SetCodec(wire.CodecBinary)
	if err := fw.SetCodec(wire.CodecBinary); err != nil {
		return fail(err)
	}
	if welcome.Crc {
		fr.EnableChecksum()
		fw.EnableChecksum()
	}
	at := st.at
	fw.EnableBatching(batchMaxFrames, batchMaxBytes)

	var outFrames []wire.Envelope // an activation's stamped output
	now := time.Now()
	// A resumed session replays; so does a restored one. A node whose
	// earlier sessions all died before Init resumes without having run it:
	// it has sent and acknowledged nothing, so its fresh links agree with
	// the peers' numbering, and it runs Init now.
	if st.restored || st.initialized {
		// The crash or disconnect may have eaten anything not yet acked:
		// retransmit the whole unacked window, then re-report the step
		// whose state frame may have been swallowed.
		for _, sl := range st.sendLinks {
			sl.MarkDue(now)
			for _, e := range sl.Due(now) {
				if err := send(e); err != nil {
					return fail(err)
				}
			}
		}
		if err := writeState(st.pendingReport); err != nil {
			return fail(err)
		}
		st.pendingReport = 0
	} else {
		out := sim.TracedInit(at, agent)
		st.initialized = true
		var err error
		if outFrames, err = frame(outFrames, out, now); err != nil {
			return endStop, err
		}
		for _, of := range outFrames {
			if err := send(of); err != nil {
				return fail(err)
			}
		}
		if err := writeState(0); err != nil {
			return fail(err)
		}
	}
	if err := fw.Flush(); err != nil {
		return fail(err)
	}
	lastWrite := time.Now()
	lastRecv := lastWrite

	// Reader goroutine: the main loop must also wake for retransmission
	// ticks, so reads go through a channel, one group per socket read (see
	// readGroups); the loop below steps the agent once per group. The
	// channel's slack lets the reader keep draining the socket while the
	// loop steps. The loop puts each group back on free once it is done with
	// it. The session's end closes the conn and waits for the reader before
	// reading its corrupt-frame count.
	inbound := make(chan []wire.Envelope, 128)
	free := make(freeGroups[wire.Envelope], freeGroupSlots)
	readerQuit := make(chan struct{})
	readerDone := make(chan struct{})
	defer func() {
		close(readerQuit)
		conn.Close()
		<-readerDone
		st.corrupt += fr.CorruptFrames
	}()
	go func() {
		defer close(readerDone)
		defer close(inbound)
		readGroups(fr, free, func(e wire.Envelope) wire.Envelope { return e }, func(g []wire.Envelope) bool {
			select {
			case inbound <- g:
				return true
			case <-readerQuit:
				return false
			}
		})
	}()

	// failRW classifies a write error once the reader is running. A write
	// failure races with the hub's shutdown: the stop frame — or the
	// hub-side close — may already be in flight on the read side while this
	// node was mid-write (external workers hit this, having no other
	// shutdown signal). Drain the inbound side briefly before classifying.
	failRW := func(err error) (sessionEnd, error) {
		select {
		case <-cfg.done:
			return endStop, nil
		default:
		}
		deadline := time.NewTimer(cfg.drainWindowOrDefault())
		defer deadline.Stop()
		for {
			select {
			case g, ok := <-inbound:
				if !ok {
					// EOF. For a reconnect-enabled node the hub may still be
					// alive (a severed socket looks the same); redial. For an
					// in-process node the hub tore the socket down: run over.
					if cfg.reconnect {
						return endLost, nil
					}
					return endStop, nil
				}
				for _, e := range g {
					if e.Type == wire.TypeStop {
						if cfg.onStop != nil {
							cfg.onStop()
						}
						return endStop, nil
					}
				}
				// Any other frame is abandoned: this session is ending
				// either way, and retransmission covers a resumed one.
			case <-cfg.done:
				return endStop, nil
			case <-deadline.C:
				return fail(err)
			}
		}
	}

	ticker := time.NewTicker(retransmitTick)
	defer ticker.Stop()
	var (
		batch    []sim.Message   // what the read group released, per-sender FIFO
		heard    []int           // the links its data frames came from, each once
		released []wire.Envelope // what one Accept released, in order
	)
	for {
		select {
		case g, ok := <-inbound:
			if !ok {
				// EOF without ctl.stop: severed connection or hub teardown.
				select {
				case <-cfg.done:
					return endStop, nil
				default:
				}
				if cfg.reconnect {
					return endLost, nil
				}
				return endStop, nil
			}
			lastRecv = time.Now()
			grp := g
			// Walk the group up to its next reset (or its end), step once
			// on what that stretch released, then apply the reset, so every
			// step on frames that precede a reset in the stream is written
			// before the reset's echo.
			for len(g) > 0 {
				i := 0
				for ; i < len(g) && g[i].Type != wire.TypeReset; i++ {
					e := g[i]
					switch e.Type {
					case wire.TypeStop:
						if cfg.onStop != nil {
							cfg.onStop()
						}
						return endStop, nil
					case wire.TypeHeartbeat:
						// Pure liveness: the hub is up; lastRecv just advanced.
						continue
					case wire.TypeAck:
						if sl, ok := st.sendLinks[e.From]; ok {
							sl.Ack(e.Ack, time.Now())
						}
						continue
					}
					var err error
					released, _, err = recvLink(e.From).Accept(released[:0], e)
					if err != nil {
						return endStop, err
					}
					if !slices.Contains(heard, e.From) {
						heard = append(heard, e.From)
					}
					for _, env := range released {
						msg, err := wire.Decode(env)
						if err != nil {
							return endStop, err
						}
						batch = append(batch, msg)
					}
					clear(released)
				}
				if len(heard) > 0 {
					now := time.Now()
					outFrames = outFrames[:0]
					if len(batch) > 0 {
						out := sim.TracedStep(at, st.steps, batch, agent.Step)
						st.steps++
						// Stamp the output into the send links BEFORE
						// checkpointing: if the crash hits after the
						// checkpoint, the output survives in the unacked
						// buffers and the restart retransmits it.
						var err error
						if outFrames, err = frame(outFrames, out, now); err != nil {
							return endStop, err
						}
						// Checkpoint before acknowledging anything: acked
						// must mean durable. The acks and state report for
						// this step may then be lost to a crash; the restart
						// re-reports them.
						st.pendingReport = len(batch)
						saveCheckpoint()
						if hasCrash && st.steps > cr.AfterSteps {
							// Scheduled crash: the process dies before acking
							// the step. Everything since the checkpoint is
							// lost; senders retransmit, the restart replays
							// the checkpoint.
							return endCrashed, nil
						}
					}
					for _, of := range outFrames {
						if err := send(of); err != nil {
							return failRW(err)
						}
					}
					// One ack per link heard from. For a stretch that
					// released nothing (duplicates or gaps) these are the
					// re-acks that stop a sender whose ack was lost from
					// retransmitting.
					for _, from := range heard {
						if err := send(wire.Envelope{Type: wire.TypeAck, From: int(v), To: from, Ack: st.recvLinks[from].CumAck()}); err != nil {
							return failRW(err)
						}
					}
					if len(batch) > 0 {
						if err := writeState(len(batch)); err != nil {
							return failRW(err)
						}
					}
					if err := fw.Flush(); err != nil {
						return failRW(err)
					}
					lastWrite = time.Now()
					st.pendingReport = 0
					clear(batch)
					clear(outFrames)
					batch, heard = batch[:0], heard[:0]
				}
				if i == len(g) {
					break
				}
				// A peer relaunched cold: renumber the unacked window
				// toward it from 1, rewind the receive frontier, and echo
				// so the hub lifts its hold on our frames toward the peer.
				b := g[i].From
				g = g[i+1:]
				now := time.Now()
				if sl, ok := st.sendLinks[b]; ok {
					sl.Reset(now)
				}
				if rl, ok := st.recvLinks[b]; ok {
					rl.Reset()
				}
				if err := send(wire.Envelope{Type: wire.TypeReset, From: int(v), To: b}); err != nil {
					return failRW(err)
				}
				// The relaunched peer lost its agent_view with its process,
				// and every frame its dead incarnation acknowledged is gone
				// from both sides' buffers — retransmission cannot restate
				// this node's value. Re-announce it explicitly (stamped into
				// the renumbered link, after the echo so the hub has lifted
				// its hold); without this, both sides idle believing they
				// are mutually consistent and the run stalls to timeout.
				if ra, ok := agent.(sim.Reannouncer); ok {
					ms := sim.TracedStep(at, st.steps, nil, func([]sim.Message) []sim.Message {
						return ra.Reannounce(sim.AgentID(b))
					})
					var err error
					if outFrames, err = frame(outFrames[:0], ms, now); err != nil {
						return endStop, err
					}
					for _, of := range outFrames {
						if err := send(of); err != nil {
							return failRW(err)
						}
					}
					clear(outFrames)
				}
				if err := fw.Flush(); err != nil {
					return failRW(err)
				}
				lastWrite = now
			}
			free.put(grp)
		case <-ticker.C:
			if len(inbound) > 0 {
				// select picks at random between ready cases, and a group
				// already waiting may hold the acks that make this tick's
				// retransmissions spurious: take it first.
				continue
			}
			now := time.Now()
			wrote := false
			for _, sl := range st.sendLinks {
				for _, e := range sl.Due(now) {
					if err := send(e); err != nil {
						return failRW(err)
					}
					wrote = true
				}
			}
			if !wrote && cfg.hb > 0 && now.Sub(lastWrite) >= cfg.hb {
				// Idle link: beat it so the hub's dead-peer detector knows
				// this node is alive, not gone.
				if err := send(wire.Envelope{Type: wire.TypeHeartbeat, From: int(v), To: -1}); err != nil {
					return failRW(err)
				}
				wrote = true
			}
			if wrote {
				if err := fw.Flush(); err != nil {
					return failRW(err)
				}
				lastWrite = now
			}
			if cfg.reconnect && cfg.deadPeer > 0 && now.Sub(lastRecv) > cfg.deadPeer {
				// Hub silence past the dead-peer bound: the connection is
				// a black hole (the hub beats every registered link, so a
				// healthy one is never this quiet). Abandon it and redial.
				return endLost, nil
			}
		}
	}
}
