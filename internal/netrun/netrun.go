// Package netrun executes the distributed algorithms over an actual TCP
// network: a hub routes wire-encoded frames between agent nodes, each of
// which owns one agent and one TCP connection. It is the strongest form of
// the paper's portability claim exercised in this repository — the same
// Agent implementations that run on the synchronous simulator and the
// in-process asynchronous runtime here cross a real socket boundary, with
// the hub playing the network.
//
// The hub's listening plane is sharded: Options.Shards (or Options.Listen)
// splits the accept/read load across N relay listeners, with the consistent
// assignment node v → shard v mod N. All routing, fault injection, and
// accounting still serialize through one coordinator loop, so a sharded run
// is frame-for-frame identical to a single-shard run — the shards
// parallelize socket I/O and decoding, not decisions. Nodes may live in the
// hub process (the default) or in external worker processes (RunWorker,
// cmd/dcspnode) that dial the relay addresses.
//
// Every connection opens with a JSON hello and welcome, after which both
// directions switch to the binary codec. Steady-state frames are batched:
// writers coalesce frames into size-bounded batch frames carrying one
// cumulative-ack watermark per link, flushed whenever the sender's queue
// drains (see internal/wire). Reads are grouped the same way: the hub's
// relays and each node hand over every frame one socket read delivered as
// one group, so the hub routes the whole group before its idle flush and a
// node steps its agent once on everything the group released, then answers
// with one write group (output, one ack per link, one state report) and
// one flush.
//
// The transport is reliable end-to-end: nodes stamp per-link sequence
// numbers (wire.SendLink), retransmit on exponential backoff until the
// receiver's cumulative ack covers them, and dedup/reorder on arrival
// (wire.RecvLink), restoring the FIFO-per-link, exactly-once delivery the
// algorithms' correctness model (Yokoo et al.) assumes. The hub can play an
// adversarial network (Options.Faults): deterministic drop, duplication,
// and delay of algorithm frames, plus scheduled node crashes. The fault
// schedule is keyed on logical links (from, to, seq, attempt), so it is
// invariant under sharding and the checksum setting. A crash-scheduled node
// checkpoints its durable state (agent snapshot, both halves of every
// reliable link) before acknowledging each step, so a restarted node
// re-registers with the hub, replays the checkpoint, and the run completes
// exactly as on a clean network.
//
// Partition windows sever node-to-node traffic (algorithm frames and acks
// both) across a seeded two-sided split: frames crossing an open cut are
// held at the hub and drained when the window heals, with the nodes' dedup
// layer absorbing the retransmitted copies. A partitioned node is *not* a
// dead node — its socket stays up and it keeps retransmitting — so
// partition traffic never takes the ErrNodeDown fail-fast path; a
// never-healing cut instead strands messages in flight until the deadline,
// which reports the stall watchdog's per-agent progress diagnosis.
//
// The hub detects termination out-of-band, like the other runtimes: nodes
// attach a state report (current value, insolubility flag, processed
// count) after every step, letting the hub check for a solution snapshot,
// an insolubility proof, or quiescence (no messages in flight).
package netrun

import (
	"container/heap"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/discsp/discsp/internal/causal"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/faults"
	"github.com/discsp/discsp/internal/progress"
	"github.com/discsp/discsp/internal/sim"
	"github.com/discsp/discsp/internal/telemetry"
	"github.com/discsp/discsp/internal/wire"
)

// ErrTimeout is returned when the deadline expires before a terminal state.
// The concrete error is a *TimeoutError carrying the hub's last snapshot;
// errors.Is(err, ErrTimeout) matches it.
var ErrTimeout = errors.New("netrun: run timed out")

// ErrNodeDown is wrapped into the error returned when the hub cannot reach
// a node that is not scheduled to restart: the run fails fast with a
// diagnostic instead of idling to the timeout.
var ErrNodeDown = errors.New("netrun: node unreachable")

// TimeoutError reports a run that hit its deadline, with the hub's last
// observed state so a stuck run is diagnosable from the error alone. It
// wraps ErrTimeout.
type TimeoutError struct {
	// Timeout is the configured deadline that expired.
	Timeout time.Duration
	// InFlight is the number of unique algorithm messages routed but not
	// yet reported processed by their destination node.
	InFlight int64
	// Messages is the number of unique algorithm messages routed.
	Messages int64
	// Processed is the per-node count of messages processed, indexed by
	// variable.
	Processed []int64
	// Report is the stall watchdog's classification of the stuck run —
	// stalled (no traffic), livelock (traffic without search progress), or
	// converging (slow, not stuck) — with per-agent progress deltas. Nil
	// only when the run died before the watchdog gathered two samples.
	Report *progress.Report
}

func (e *TimeoutError) Error() string {
	s := fmt.Sprintf("netrun: run timed out after %v: %d messages in flight, %d routed, per-node processed %v",
		e.Timeout, e.InFlight, e.Messages, e.Processed)
	if e.Report != nil {
		s += "; " + e.Report.String()
	}
	return s
}

func (e *TimeoutError) Unwrap() error { return ErrTimeout }

// Options configures a run.
type Options struct {
	// Timeout bounds the wall-clock run; 0 means 30s.
	Timeout time.Duration
	// Faults, when non-nil, makes the hub an adversarial network for
	// algorithm frames — deterministic per-link drop, duplication, and
	// bounded delay — and schedules node crashes. Control frames (hello,
	// state, stop) and acks are exempt: faults attack the data plane the
	// reliable protocol defends, not the test harness's instrumentation.
	Faults *faults.Config
	// WatchdogCadence is the stall watchdog's sampling period; 0 means
	// progress.DefaultCadence. Samples also land in the telemetry stream
	// when one is attached.
	WatchdogCadence time.Duration
	// Telemetry, when non-nil, receives the run's event stream (watchdog
	// samples, per-agent totals, per-link seq/ack/retransmit/partition
	// counters and per-shard relay totals observed at the hub) and metrics.
	// Nil disables all instrumentation without any other behavioral
	// difference.
	Telemetry *telemetry.Run
	// Causal, when non-nil, traces the in-process nodes: one span per step,
	// trace IDs on every message (carried across the sockets in
	// Envelope.TSeq), and each agent's nogood lineage. Agent tracer handles
	// survive crash-restarts and reconnections, so cause IDs stay stable
	// across incarnations and link resets. Unused under External: the hub
	// holds no agents, and it relays the trace IDs of traced workers
	// whether or not this is set.
	Causal *causal.Tracer

	// Shards is the number of relay listeners the hub splits its socket
	// plane across; 0 or 1 means a single listener. Node v connects to
	// shard v mod Shards. Sharding changes no routing decision: the verdict
	// and every message counter are identical across shard counts.
	Shards int
	// Listen binds each relay to a fixed address ("host:port") instead of a
	// loopback ephemeral port; required for external worker processes on
	// known addresses. When non-empty it determines the shard count, which
	// must match Shards if both are set.
	Listen []string
	// External suppresses the in-process nodes: the hub listens, and
	// external workers (RunWorker / cmd/dcspnode) own the agents. The run
	// then solves only once every variable's worker has dialed in.
	External bool
	// Transport configures the hub's side of every link, and the
	// in-process nodes' side too; external workers should be given the
	// same value. A node silent for DeadPeerTimeout is declared dead: the
	// hub severs an external node's connection and starts its reconnect
	// grace clock, and records a heartbeat timeout for the watchdog either
	// way.
	Transport
	// ReconnectGrace is how long the hub parks an unreachable node's
	// frames awaiting its re-hello before failing the run with ErrNodeDown.
	// 0 means 3s; negative fails immediately on the first failed write
	// (the pre-reconnection behavior). Nodes the fault schedule will
	// restart are exempt — their frames park until the scheduled rejoin.
	ReconnectGrace time.Duration
	// OnListen, when non-nil, is called once with the bound relay addresses
	// in shard order, before any node starts. Tests and in-process callers
	// use it to learn ephemeral addresses; cmd binaries print them.
	OnListen func(addrs []string)
}

// Result reports a completed run.
type Result struct {
	// Solved reports whether the hub observed a solution snapshot.
	Solved bool
	// Insoluble reports that some agent derived the empty nogood.
	Insoluble bool
	// Quiescent reports that no messages were left in flight.
	Quiescent bool
	// Assignment is the last (or solving) snapshot.
	Assignment csp.SliceAssignment
	// Messages counts unique routed algorithm messages (retransmissions,
	// duplicates, and control frames excluded).
	Messages int64
	// TotalChecks sums constraint checks across the in-process nodes' final
	// incarnations. Zero when Options.External (the workers own the
	// agents).
	TotalChecks int64
	// Duration is the wall-clock run time.
	Duration time.Duration

	// Transport holds all eleven reliability and wire counters. Retransmits
	// and DuplicatesSuppressed sum the nodes' links (spurious resends
	// included); Reconnects counts every re-hello the hub accepted, from a
	// checkpoint restart, a worker redial or a cold relaunch; CorruptFrames
	// sums the hub's readers and the in-process nodes', while external
	// workers count their own; the byte and batch counters are measured at
	// the hub's sockets.
	telemetry.Transport
}

// Reliable-transport tuning for the node loops. The base is far above a
// loopback round trip but not above every scheduling delay on a loaded
// host: traced runs of the benchmark's fault-free tcp workload (d3c n=20,
// 4 shards, a shared 2-vCPU host) retransmit 0.01–0.12% of messages, every
// one of them spurious.
const (
	retransmitBase = 10 * time.Millisecond
	retransmitCap  = 160 * time.Millisecond
	retransmitTick = 5 * time.Millisecond
)

// Liveness defaults: the hub and every node beat their links each
// defaultHeartbeat of idleness, a peer silent for 4 heartbeats is declared
// dead, and a dead external node's frames park for defaultReconnectGrace
// awaiting its re-hello before the run fails with ErrNodeDown.
const (
	defaultHeartbeat      = 500 * time.Millisecond
	defaultReconnectGrace = 3 * time.Second
)

// Transport is the link configuration a hub and its nodes share. Options
// and WorkerOptions both embed it, so one value configures either side.
type Transport struct {
	// Checksum arms the CRC32C frame trailer. A node's hello requests it,
	// and the hub's welcome confirms it when the hub armed it too. Every
	// steady-state frame then carries a 4-byte trailer, and a frame damaged
	// in flight is detected, dropped, and recovered by the sender's
	// retransmission instead of corrupting the decode.
	Checksum bool
	// Heartbeat is the idle-link beacon period: the hub beats every
	// registered connection and each node beats its link. 0 means 500ms;
	// negative disables both the beacon and dead-peer detection on this
	// side of the link.
	Heartbeat time.Duration
	// DeadPeerTimeout is how long a peer may stay silent before it is
	// declared dead: the hub's bound on a node, and a worker node's bound
	// on the hub, after which the node abandons its connection and
	// redials. 0 means 4× the heartbeat period.
	DeadPeerTimeout time.Duration
}

// liveness resolves the heartbeat period and the dead-peer bound, where 0
// means off: a zero heartbeat means defaultHeartbeat, a negative one turns
// both off, and a zero dead-peer bound means 4 heartbeats.
func (t Transport) liveness() (heartbeat, deadPeer time.Duration) {
	switch {
	case t.Heartbeat < 0:
		return 0, 0
	case t.Heartbeat == 0:
		heartbeat = defaultHeartbeat
	default:
		heartbeat = t.Heartbeat
	}
	deadPeer = t.DeadPeerTimeout
	if deadPeer <= 0 {
		deadPeer = 4 * heartbeat
	}
	return heartbeat, deadPeer
}

// Frame-batching bounds for hub and node writers. Latency is bounded by
// flush-on-idle (senders flush whenever their queue drains), so the size
// bounds only matter under sustained load.
const (
	batchMaxFrames = 32
	batchMaxBytes  = 16 << 10
)

// inFrame is one envelope arriving at the hub, tagged with the connection
// it came in on (set by the shard read loops, consumed by the route loop to
// register connections and count inter-shard forwards).
type inFrame struct {
	env wire.Envelope
	src *relayConn
}

// nodeCounters aggregates transport statistics across all node goroutines
// and incarnations of one run.
type nodeCounters struct {
	retransmits atomic.Int64
	dups        atomic.Int64
	restarts    atomic.Int64
	reconnects  atomic.Int64
	corrupt     atomic.Int64

	// Per-agent end-of-run totals, written by each node's final incarnation
	// as it exits and read after nodeWG.Wait. checks is always allocated
	// (Result.TotalChecks needs it); stores only when telemetry is on.
	checks []atomic.Int64
	stores []atomic.Int64
}

// Run executes one agent node per problem variable against a loopback TCP
// hub. makeAgent builds the algorithm-specific agent per variable; it is
// also how a crashed node's new incarnation is built before its checkpoint
// is restored.
func Run(problem *csp.Problem, makeAgent func(v csp.Var) sim.Agent, opts Options) (Result, error) {
	n := problem.NumVars()
	if n == 0 {
		return Result{Solved: true, Assignment: csp.SliceAssignment{}}, nil
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	cadence := opts.WatchdogCadence
	if cadence <= 0 {
		cadence = progress.DefaultCadence
	}
	nShards := opts.Shards
	if len(opts.Listen) > 0 {
		if nShards > 0 && nShards != len(opts.Listen) {
			return Result{}, fmt.Errorf("netrun: %d shards but %d listen addresses", nShards, len(opts.Listen))
		}
		nShards = len(opts.Listen)
	}
	if nShards <= 0 {
		nShards = 1
	}
	if len(opts.Listen) == 0 && nShards > n {
		nShards = n
	}
	var inj *faults.Injector
	var ckpts *faults.Checkpoints
	if opts.Faults != nil {
		inj = faults.New(*opts.Faults)
		ckpts = faults.NewCheckpoints()
	}
	heartbeat, deadPeer := opts.liveness()
	grace := opts.ReconnectGrace
	if grace == 0 {
		grace = defaultReconnectGrace
	}

	relays := make([]*relay, nShards)
	addrs := make([]string, nShards)
	for s := range relays {
		bind := "127.0.0.1:0"
		if len(opts.Listen) > 0 {
			bind = opts.Listen[s]
		}
		ln, err := net.Listen("tcp", bind)
		if err != nil {
			for _, r := range relays[:s] {
				r.ln.Close()
			}
			return Result{}, fmt.Errorf("netrun: listen shard %d: %w", s, err)
		}
		relays[s] = &relay{index: s, ln: ln}
		addrs[s] = ln.Addr().String()
	}
	defer func() {
		for _, r := range relays {
			r.ln.Close()
		}
	}()

	hub := &hub{
		problem:   problem,
		values:    csp.NewSliceAssignment(n),
		conns:     make([]*relayConn, n),
		processed: make([]int64, n),
		seqHigh:   make(map[link]int64),
		frames:    make(chan []inFrame, n),
		stop:      make(chan struct{}),
		inj:       inj,
		cadence:   cadence,
		tel:       opts.Telemetry,
		nShards:   nShards,
		forwarded: make([]int64, nShards),

		heartbeat:      heartbeat,
		deadPeer:       deadPeer,
		reconnectGrace: grace,
		checksum:       opts.Checksum,
		external:       opts.External,
		lastSeen:       make([]time.Time, n),
		deadNotified:   make([]bool, n),
		everRegistered: make([]bool, n),
		helloOrder:     make([]int, n),
		down:           make(map[int]time.Time),
		resetPending:   make(map[[2]int]bool),
	}
	if inj != nil {
		hub.attempts = make(map[attemptKey]int)
	}
	ctr := nodeCounters{checks: make([]atomic.Int64, n)}
	if hub.tel != nil {
		hub.ackHigh = make(map[link]int64)
		hub.linkRetrans = make(map[link]int64)
		hub.linkPart = make(map[link]int64)
		ctr.stores = make([]atomic.Int64, n)
	}
	if reg := opts.Telemetry.Registry(); reg != nil && !opts.External {
		// The nodes run in-process, so instrumented agents share the hub's
		// registry; the gauges are atomics, letting the route loop sample
		// live store sizes without touching node state. Resolve them up
		// front and wrap makeAgent so restarted incarnations re-attach.
		hub.storeGauges = make([]*telemetry.Gauge, n)
		metrics := make([]telemetry.StoreMetrics, n)
		for v := 0; v < n; v++ {
			metrics[v] = telemetry.AgentStoreMetrics(reg, v)
			hub.storeGauges[v] = metrics[v].Size
		}
		orig := makeAgent
		makeAgent = func(v csp.Var) sim.Agent {
			a := orig(v)
			if ia, ok := a.(telemetry.Instrumented); ok {
				ia.Instrument(metrics[v])
			}
			return a
		}
	}

	// Accept connections for the whole run on every relay: restarted nodes
	// and late external workers dial back in.
	var readWG, acceptWG sync.WaitGroup
	for _, r := range relays {
		acceptWG.Add(1)
		go func(r *relay) {
			defer acceptWG.Done()
			hub.acceptLoop(r, &readWG)
		}(r)
	}
	if opts.OnListen != nil {
		opts.OnListen(addrs)
	}

	// Start the in-process nodes; each supervisor restarts its node per the
	// crash schedule. External runs leave the agents to worker processes.
	runDone := make(chan struct{})
	var nodeWG sync.WaitGroup
	nodeErrs := make(chan error, n)
	if !opts.External {
		for v := 0; v < n; v++ {
			nodeWG.Add(1)
			go func(v int) {
				defer nodeWG.Done()
				cfg := nodeConfig{
					addr:      addrs[shardOf(v, nShards)],
					v:         csp.Var(v),
					makeAgent: makeAgent,
					crc:       opts.Checksum,
					causal:    opts.Causal,
					hb:        heartbeat,
					inj:       inj,
					ckpts:     ckpts,
					ctr:       &ctr,
					done:      runDone,
				}
				for incarnation := 0; ; incarnation++ {
					crashed, err := runNode(cfg, incarnation)
					if err != nil {
						nodeErrs <- fmt.Errorf("node %d: %w", v, err)
						return
					}
					if !crashed {
						return
					}
					cr, _ := inj.Crash(v)
					if !cr.Restart {
						return
					}
					select {
					case <-time.After(cr.RestartDelay):
					case <-runDone:
						return
					}
					ctr.restarts.Add(1)
				}
			}(v)
		}
	}

	start := time.Now()
	hub.start = start
	res, rerr := hub.route(timeout)
	res.Duration = time.Since(start)

	// Shut down: tell every registered node to stop, then close sockets
	// (including accepted-but-unregistered ones, so no node blocks on a
	// read forever).
	close(runDone)
	hub.broadcastStop()
	for _, r := range relays {
		r.ln.Close()
	}
	hub.connMu.Lock()
	hub.connsClosed = true
	for _, rc := range hub.allConns {
		rc.conn.Close()
	}
	hub.connMu.Unlock()
	nodeWG.Wait()
	readWG.Wait()
	acceptWG.Wait()
	close(nodeErrs)

	res.Retransmits = ctr.retransmits.Load()
	res.DuplicatesSuppressed = ctr.dups.Load()
	res.Restarts = ctr.restarts.Load()
	res.Reconnects = hub.reconnects
	res.HeartbeatTimeouts = hub.hbTimeouts
	res.Partitioned = hub.partitioned
	res.PartitionHeals = inj.HealedBy(res.Duration)
	for v := range ctr.checks {
		res.TotalChecks += ctr.checks[v].Load()
	}
	// Every accept, read, and node goroutine has exited: the per-connection
	// stream counters are quiescent.
	res.CorruptFrames = ctr.corrupt.Load()
	for _, rc := range hub.allConns {
		res.BytesSent += rc.fw.BytesWritten
		res.BytesRecv += rc.fr.BytesRead
		res.BatchedFrames += rc.fw.BatchedFrames + rc.fr.BatchedFrames
		res.CorruptFrames += rc.fr.CorruptFrames
	}
	hub.emitFinal(res, &ctr)
	if res.Solved || res.Insoluble || res.Quiescent {
		return res, nil
	}
	// A node error is the root cause when one exists; otherwise the route
	// loop's own diagnostic (node unreachable or timeout) stands.
	for err := range nodeErrs {
		return res, err
	}
	if rerr == nil {
		rerr = ErrTimeout
	}
	return res, rerr
}

// link identifies one directed node-to-node channel.
type link struct {
	from, to int
}

// attemptKey identifies one delivery attempt stream at the hub.
type attemptKey struct {
	l   link
	seq int64
}

// delayedFrame is a frame the fault schedule holds back until at.
type delayedFrame struct {
	at  time.Time
	seq int64
	env wire.Envelope
}

// frameHeap orders delayed frames by due time, then arrival sequence.
type frameHeap []delayedFrame

func (h frameHeap) Len() int { return len(h) }

func (h frameHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}

func (h frameHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *frameHeap) Push(x any) { *h = append(*h, x.(delayedFrame)) }

func (h *frameHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// hub routes frames and watches for termination. Routing, fault injection,
// and every write are owned by the single-threaded route loop; the sharded
// relays only accept, read, and decode.
type hub struct {
	problem   *csp.Problem
	values    csp.SliceAssignment
	conns     []*relayConn
	processed []int64
	pending   map[int][]wire.Envelope
	seqHigh   map[link]int64
	attempts  map[attemptKey]int
	delayq    frameHeap
	delaySeq  int64
	frames    chan []inFrame // one group per socket read (see readGroups); a slot per node
	stop      chan struct{}
	inFlight  int64
	messages  int64
	inj       *faults.Injector

	// Liveness and reconnection state, all owned by the route loop.
	// heartbeat 0 disables the beacon; reconnectGrace < 0 restores the
	// immediate ErrNodeDown fail-fast.
	heartbeat      time.Duration
	deadPeer       time.Duration
	reconnectGrace time.Duration
	checksum       bool
	external       bool
	lastSeen       []time.Time       // last inbound frame per node
	deadNotified   []bool            // dead-peer already counted (in-process runs)
	everRegistered []bool            // node has completed at least one hello
	helloOrder     []int             // accept order of the node's last registered connection
	down           map[int]time.Time // unreachable nodes: when the grace clock started
	// resetPending[{x, b}] marks that node x has not yet confirmed the
	// link reset for cold-restarted node b; until the echo arrives, x's
	// data and ack frames toward b still carry the old numbering and are
	// dropped (x keeps retransmitting, so nothing is lost).
	resetPending map[[2]int]bool
	reconnects   int64
	hbTimeouts   int64

	nShards int
	// dirty tracks connections with unflushed writes; the route loop
	// flushes them whenever its queue drains, which is the batching
	// deadline bound.
	dirty []*relayConn
	// forwarded counts frames that arrived on one shard's relay bound for a
	// node homed on another shard, indexed by the arrival shard. The route
	// loop sees every frame exactly once, so a forwarded frame can never be
	// double-counted into messages or the retransmit/duplicate counters.
	forwarded []int64

	// allConns is every accepted connection (including replaced ones after
	// a crash), appended by the accept loops and swept for byte totals
	// after all I/O goroutines exit. connsClosed marks the shutdown sweep
	// that closed them; an accept loop that wins a connection after it
	// closes that connection itself.
	connMu      sync.Mutex
	allConns    []*relayConn
	connsClosed bool

	start       time.Time // run start; partition windows are offsets from it
	partitioned int64

	cadence     time.Duration
	tel         *telemetry.Run
	storeGauges []*telemetry.Gauge
	// Per-link counters observed at the hub, keyed by the data link
	// (sender → receiver); touched only on the single-threaded route loop
	// and only when telemetry is attached.
	ackHigh     map[link]int64
	linkRetrans map[link]int64
	linkPart    map[link]int64
}

// emitFinal records the run's totals after every node has stopped: one
// agent event per variable (final-incarnation check totals and store
// sizes from the node goroutines, processed counts from the hub), one link
// event per directed link the hub routed, one shard event per relay, and
// the delivery/check/transport counters. No-op without telemetry.
func (h *hub) emitFinal(res Result, ctr *nodeCounters) {
	if h.tel == nil {
		return
	}
	reg := h.tel.Registry()
	for v := range h.processed {
		ev := telemetry.Event{
			Kind:           telemetry.KindAgent,
			Agent:          v,
			AgentProcessed: h.processed[v],
			Checks:         ctr.checks[v].Load(),
		}
		if ctr.stores != nil {
			ev.StoreSize = ctr.stores[v].Load()
		}
		h.tel.Emit(ev)
	}
	links := make([]link, 0, len(h.seqHigh))
	for k := range h.seqHigh {
		links = append(links, k)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].from != links[j].from {
			return links[i].from < links[j].from
		}
		return links[i].to < links[j].to
	})
	for _, k := range links {
		h.tel.Emit(telemetry.Event{
			Kind:        telemetry.KindLink,
			From:        k.from,
			To:          k.to,
			SeqHigh:     h.seqHigh[k],
			AckHigh:     h.ackHigh[k],
			Retransmits: h.linkRetrans[k],
			Partitioned: h.linkPart[k],
		})
	}
	for s := 0; s < h.nShards; s++ {
		ev := telemetry.Event{Kind: telemetry.KindShard, Shard: s, Forwarded: h.forwarded[s]}
		for _, rc := range h.allConns {
			if rc.shard == s {
				ev.FramesIn += rc.fr.Frames
				ev.BytesIn += rc.fr.BytesRead
				ev.BytesOut += rc.fw.BytesWritten
			}
		}
		h.tel.Emit(ev)
	}
	reg.Counter("discsp_deliveries_total").Add(res.Messages)
	reg.Counter("discsp_checks_total").Add(res.TotalChecks)
	res.Transport.Record(reg)
}

// route is the hub's single-threaded event loop. All timers are managed
// (reused and stopped on every path) rather than per-iteration time.After
// allocations, which leaked a timer per loop when another case fired.
func (h *hub) route(timeout time.Duration) (Result, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	probe := time.NewTimer(time.Hour)
	probe.Stop()
	defer probe.Stop()
	delayT := time.NewTimer(time.Hour)
	delayT.Stop()
	defer delayT.Stop()
	wd := progress.NewWatchdog()
	watch := time.NewTicker(h.cadence)
	defer watch.Stop()
	hbPeriod := h.heartbeat
	if hbPeriod <= 0 {
		hbPeriod = time.Hour // liveness off; the ticker still must exist
	}
	hb := time.NewTicker(hbPeriod)
	defer hb.Stop()

	// Quiescence cannot be declared from in-flight counting alone until
	// every node has reported in at least once.
	reported := make(map[int]bool, len(h.values))
	for {
		// The queue is (about to be) idle: push every buffered write to the
		// sockets. This is the batching deadline bound — batches never wait
		// on a timer, only on the loop having more frames to route.
		if len(h.frames) == 0 && len(h.dirty) > 0 {
			if err := h.flushDirty(); err != nil {
				return Result{Assignment: h.snapshot(), Messages: h.messages}, err
			}
		}
		var delayC <-chan time.Time
		if len(h.delayq) > 0 {
			delayT.Reset(time.Until(h.delayq[0].at))
			delayC = delayT.C
		}
		// Quiescence: all nodes reported, nothing in flight, nothing queued
		// or held back. The probe re-checks after a grace period; a stale
		// timer tick is harmless because the condition is re-evaluated.
		var probeC <-chan time.Time
		if len(reported) == len(h.values) && h.inFlight == 0 && len(h.frames) == 0 && len(h.delayq) == 0 {
			probe.Reset(10 * time.Millisecond)
			probeC = probe.C
		}
		select {
		case g := <-h.frames:
			for _, f := range g {
				done, res, err := h.handle(f, reported)
				if err != nil {
					return Result{Assignment: h.snapshot(), Messages: h.messages}, err
				}
				if done {
					return res, nil
				}
			}
		case <-delayC:
			now := time.Now()
			for len(h.delayq) > 0 && !h.delayq[0].at.After(now) {
				df := heap.Pop(&h.delayq).(delayedFrame)
				// A held frame popping mid-window (an injected duplicate, or
				// an overlapping later window) goes back behind the cut.
				if h.partitionHold(df.env) {
					continue
				}
				if err := h.send(df.env); err != nil {
					return Result{Assignment: h.snapshot(), Messages: h.messages}, err
				}
			}
		case <-probeC:
			if h.inFlight == 0 && len(h.frames) == 0 && len(h.delayq) == 0 {
				return Result{Quiescent: true, Assignment: h.snapshot(), Messages: h.messages}, nil
			}
		case now := <-hb.C:
			if err := h.liveness(now); err != nil {
				return Result{Assignment: h.snapshot(), Messages: h.messages}, err
			}
		case now := <-watch.C:
			h.observe(wd, now)
			if err := h.expireGrace(now); err != nil {
				return Result{Assignment: h.snapshot(), Messages: h.messages}, err
			}
		case <-deadline.C:
			now := time.Now()
			h.observe(wd, now) // final sample so the report is current
			rep := wd.Report(now)
			if rep != nil {
				rep.Down = h.downList(now)
			}
			te := &TimeoutError{
				Timeout:   timeout,
				InFlight:  h.inFlight,
				Messages:  h.messages,
				Processed: append([]int64(nil), h.processed...),
				Report:    rep,
			}
			return Result{Assignment: h.snapshot(), Messages: h.messages}, te
		}
		probe.Stop()
		delayT.Stop()
	}
}

// handle processes one frame; done reports a terminal state. A non-nil
// error means a node is unreachable and not coming back.
func (h *hub) handle(f inFrame, reported map[int]bool) (bool, Result, error) {
	e := f.env
	if e.From >= 0 && e.From < len(h.lastSeen) && e.Type != wire.TypeHello {
		h.noteSeen(e.From)
	}
	switch e.Type {
	case wire.TypeHello:
		if e.From >= 0 && e.From < len(h.conns) {
			if err := h.register(f.src, e); err != nil {
				return false, Result{}, err
			}
		}
		return false, Result{}, nil
	case wire.TypeHeartbeat:
		// Pure liveness: the side effect is the noteSeen above.
		return false, Result{}, nil
	case wire.TypeReset:
		// A node confirming it reset its links with a cold-restarted peer;
		// its renumbered frames may flow again. The echo is not forwarded.
		delete(h.resetPending, [2]int{e.From, e.To})
		return false, Result{}, nil
	case wire.TypeState:
		reported[e.From] = true
		if e.From >= 0 && e.From < len(h.values) {
			h.values[e.From] = csp.Value(e.Value)
			h.processed[e.From] += int64(e.Processed)
		}
		h.inFlight -= int64(e.Processed)
		if e.Insoluble {
			return true, Result{Insoluble: true, Assignment: h.snapshot(), Messages: h.messages}, nil
		}
		if h.problem.IsSolution(h.values) {
			return true, Result{Solved: true, Assignment: h.snapshot(), Messages: h.messages}, nil
		}
		return false, Result{}, nil
	case wire.TypeAck:
		// Exempt from drop/dup/delay injection (control plane), but not
		// from a partition: a cut severs acknowledgements like any other
		// node-to-node traffic, which is what keeps the far side
		// retransmitting until the heal.
		h.noteForward(f)
		if h.stale(f) || h.resetPending[[2]int{e.From, e.To}] {
			// A dead incarnation's late ack, or an ack predating a link
			// reset: its cumulative watermark is in the old numbering and
			// would falsely acknowledge the renumbered stream.
			return false, Result{}, nil
		}
		if h.tel != nil {
			// The ack travels receiver → sender; record it against the
			// data link it acknowledges.
			dl := link{from: e.To, to: e.From}
			if e.Ack > h.ackHigh[dl] {
				h.ackHigh[dl] = e.Ack
			}
		}
		if h.partitionHold(e) {
			return false, Result{}, nil
		}
		return false, Result{}, h.send(e)
	}
	// Algorithm frame. Count each unique (link, seq) exactly once — before
	// the drop decision, because a dropped message is still in flight (the
	// sender retransmits it until acked).
	if e.To < 0 || e.To >= len(h.conns) {
		return false, Result{}, nil
	}
	h.noteForward(f)
	if h.stale(f) || h.resetPending[[2]int{e.From, e.To}] {
		// Late frames from a replaced connection, or frames stamped before
		// the sender processed a link reset: the old numbering is
		// meaningless now, and the live connection retransmits anything
		// unacked — drop before any counting.
		return false, Result{}, nil
	}
	k := link{from: e.From, to: e.To}
	if e.Seq > h.seqHigh[k] {
		h.seqHigh[k] = e.Seq
		h.messages++
		h.inFlight++
	} else if h.tel != nil && e.Seq > 0 {
		// A seq at or below the link's high-water mark is a retransmitted
		// (or injected-duplicate) copy arriving at the hub.
		h.linkRetrans[k]++
	}
	if h.partitionHold(e) {
		return false, Result{}, nil
	}
	if h.inj != nil && e.Seq > 0 {
		ak := attemptKey{l: k, seq: e.Seq}
		attempt := h.attempts[ak]
		h.attempts[ak] = attempt + 1
		if h.inj.Dropped(e.From, e.To, e.Seq, attempt) {
			return false, Result{}, nil
		}
		if h.inj.Corrupted(e.From, e.To, e.Seq, attempt) {
			return false, Result{}, h.corruptSend(e)
		}
		if attempt == 0 && h.inj.Duplicated(e.From, e.To, e.Seq) {
			h.schedule(e, time.Now().Add(h.inj.Delay(e.From, e.To, e.Seq, 1)))
		}
		if d := h.inj.Delay(e.From, e.To, e.Seq, 0); d > 0 {
			h.schedule(e, time.Now().Add(d))
			return false, Result{}, nil
		}
	}
	return false, Result{}, h.send(e)
}

// register completes one node's handshake on the route loop: reply with a
// welcome naming the binary codec and the checksum decision (still in JSON,
// the handshake encoding), switch the writer to binary with batching,
// record the connection, and drain any frames that queued while the node
// was unregistered (the node's reorder buffer handles staleness). A
// re-hello replaces the node's old connection; one without the resume flag
// is a cold process relaunch, which additionally resets the node's links
// everywhere (see coldReset). A hello on a connection accepted before the
// node's registered one is stale and closes its connection instead.
func (h *hub) register(rc *relayConn, hello wire.Envelope) error {
	from := hello.From
	if rc.order < h.helloOrder[from] {
		// A hello that reached the route loop after the one on its node's
		// next connection, which the node dialed only after giving this
		// one up. Registering it would close the live connection and, for
		// a hello without resume, reset links the node is still using.
		rc.conn.Close()
		return nil
	}
	h.helloOrder[from] = rc.order
	// The welcome names binary whatever codec the hello asked for; a node
	// switches to the codec its welcome names.
	crcOn := h.checksum && hello.Crc
	welcome := wire.Envelope{Type: wire.TypeWelcome, To: from, Codec: wire.CodecBinary.String(), Crc: crcOn}
	if err := rc.fw.Send(&welcome); err != nil {
		return h.writeFailed(rc, from, err)
	}
	if err := rc.fw.SetCodec(wire.CodecBinary); err != nil {
		return h.writeFailed(rc, from, err)
	}
	if crcOn {
		rc.fw.EnableChecksum()
		rc.crcOn = true
	}
	rc.fw.EnableBatching(batchMaxFrames, batchMaxBytes)
	rc.node = from
	old := h.conns[from]
	h.conns[from] = rc
	h.noteSeen(from)
	delete(h.down, from)
	if h.everRegistered[from] {
		h.reconnects++
		if old != nil && old != rc {
			old.conn.Close()
		}
		if !hello.Resume {
			if err := h.coldReset(from); err != nil {
				return err
			}
		}
	}
	h.everRegistered[from] = true
	h.markDirty(rc)
	queued := h.pending[from]
	delete(h.pending, from)
	for _, q := range queued {
		if err := h.send(q); err != nil {
			return err
		}
	}
	return nil
}

// coldReset handles a node rejoining without any in-memory or checkpointed
// state (a relaunched worker process): everything keyed on b's old sequence
// numbering is discarded — parked and delayed frames, seq high-water marks,
// fault attempt counts — and every other registered node is told to reset
// both halves of its links with b (renumbering its unacked frames from 1)
// and echo. Until a peer echoes, its frames toward b are dropped. The
// in-flight ledger keeps whatever b's dead incarnation never processed, so
// quiescence detection is conservatively unavailable after a cold restart;
// solution and insolubility detection are unaffected.
func (h *hub) coldReset(b int) error {
	delete(h.pending, b)
	if len(h.delayq) > 0 {
		kept := h.delayq[:0]
		for _, df := range h.delayq {
			if df.env.From != b && df.env.To != b {
				kept = append(kept, df)
			}
		}
		h.delayq = kept
		heap.Init(&h.delayq)
	}
	for k := range h.seqHigh {
		if k.from == b || k.to == b {
			delete(h.seqHigh, k)
		}
	}
	for k := range h.attempts {
		if k.l.from == b || k.l.to == b {
			delete(h.attempts, k)
		}
	}
	for k := range h.resetPending {
		// b's own links are fresh; any reset it owed a previously restarted
		// peer is moot.
		if k[0] == b {
			delete(h.resetPending, k)
		}
	}
	for x, ever := range h.everRegistered {
		if x == b || !ever {
			continue
		}
		h.resetPending[[2]int{x, b}] = true
		if err := h.send(wire.Envelope{Type: wire.TypeReset, From: b, To: x}); err != nil {
			return err
		}
	}
	return nil
}

// noteSeen records inbound traffic from a node for dead-peer detection.
func (h *hub) noteSeen(node int) {
	h.lastSeen[node] = time.Now()
	h.deadNotified[node] = false
}

// noteDown starts (or continues) a node's reconnect grace clock.
func (h *hub) noteDown(node int) {
	if _, ok := h.down[node]; !ok {
		h.down[node] = time.Now()
	}
}

// downList returns the nodes currently considered unreachable, sorted.
func (h *hub) downList(now time.Time) []int {
	var out []int
	for node := range h.down {
		out = append(out, node)
	}
	if h.deadPeer > 0 {
		for node, rc := range h.conns {
			if rc != nil && !h.lastSeen[node].IsZero() && now.Sub(h.lastSeen[node]) > h.deadPeer {
				out = append(out, node)
			}
		}
	}
	sort.Ints(out)
	return out
}

// stale reports a frame arriving on a connection the hub has already
// replaced — a late read from a dead incarnation's socket. Its sequence
// numbering may predate a link reset, so data and acks from it are dropped;
// the live connection retransmits anything that mattered.
func (h *hub) stale(f inFrame) bool {
	from := f.env.From
	if f.src == nil || from < 0 || from >= len(h.conns) {
		return false
	}
	cur := h.conns[from]
	return cur != nil && cur != f.src
}

// liveness is the heartbeat tick: expire reconnect grace windows, declare
// silent peers dead, and beat every registered connection so the nodes'
// hub-silence detectors stay fed.
func (h *hub) liveness(now time.Time) error {
	if err := h.expireGrace(now); err != nil {
		return err
	}
	for node, rc := range h.conns {
		if rc == nil {
			continue
		}
		if h.deadPeer > 0 && !h.lastSeen[node].IsZero() && now.Sub(h.lastSeen[node]) > h.deadPeer {
			if h.external {
				// A dead worker: sever the socket so its eventual relaunch
				// re-registers cleanly, and start the grace clock.
				h.hbTimeouts++
				rc.conn.Close()
				h.conns[node] = nil
				h.noteDown(node)
				continue
			}
			// In-process nodes share our fate; a silent one is a stuck
			// goroutine worth counting (once) and reporting, not severing.
			if !h.deadNotified[node] {
				h.deadNotified[node] = true
				h.hbTimeouts++
			}
		}
		beat := wire.Envelope{Type: wire.TypeHeartbeat, From: -1, To: node}
		if err := rc.fw.Send(&beat); err != nil {
			if h.survivableDown(node, rc) {
				continue
			}
			return fmt.Errorf("heartbeat to node %d failed: %v: %w", node, err, ErrNodeDown)
		}
		h.markDirty(rc)
	}
	return nil
}

// expireGrace fails the run once an unreachable node has overstayed the
// reconnect grace window.
func (h *hub) expireGrace(now time.Time) error {
	if h.reconnectGrace < 0 {
		return nil
	}
	for node, since := range h.down {
		if now.Sub(since) > h.reconnectGrace {
			return fmt.Errorf("node %d unreachable for %v awaiting reconnection: %w",
				node, now.Sub(since).Round(time.Millisecond), ErrNodeDown)
		}
	}
	return nil
}

// noteForward counts a node-to-node frame whose destination is homed on a
// different shard than the relay it arrived on. Counting happens here, on
// the frame's single pass through the route loop, so inter-shard forwarding
// can never inflate messages, retransmit, or duplicate counters.
func (h *hub) noteForward(f inFrame) {
	if h.nShards > 1 && f.src != nil && f.env.To >= 0 &&
		f.src.shard != shardOf(f.env.To, h.nShards) {
		h.forwarded[f.src.shard]++
	}
}

// schedule holds e back until at.
func (h *hub) schedule(e wire.Envelope, at time.Time) {
	h.delaySeq++
	heap.Push(&h.delayq, delayedFrame{at: at, seq: h.delaySeq, env: e})
}

// observe feeds the stall watchdog one sample of the hub's counters and
// tees the same sample into the telemetry stream, so healthy runs record
// frontier-hash progress too. The frontier hash covers the nodes' published
// values — what the hub can see of search progress.
func (h *hub) observe(wd *progress.Watchdog, now time.Time) {
	words := make([]int64, len(h.values))
	var delivered int64
	for i, v := range h.values {
		words[i] = int64(v)
	}
	for _, p := range h.processed {
		delivered += p
	}
	frontier := progress.Hash64(words...)
	wd.Observe(progress.Sample{
		At:        now,
		Delivered: delivered,
		InFlight:  h.inFlight,
		Processed: h.processed, // Observe copies
		Frontier:  frontier,
	})
	if h.tel == nil {
		return
	}
	var storeTotal int64
	for _, g := range h.storeGauges {
		storeTotal += g.Value()
	}
	h.tel.Emit(telemetry.Event{
		Kind:       telemetry.KindSample,
		ElapsedUS:  now.Sub(h.start).Microseconds(),
		Delivered:  delivered,
		InFlight:   h.inFlight,
		Processed:  append([]int64(nil), h.processed...),
		Frontier:   strconv.FormatUint(frontier, 16),
		StoreTotal: storeTotal,
		QueueDepth: int64(len(h.delayq)),
	})
}

// partitionHold applies the partition schedule to one node-to-node frame.
// A frame crossing an open cut is held at the hub until the window heals
// (the nodes' dedup layer absorbs the retransmitted copies that pile up
// behind it), or killed outright by a never-healing window — the message
// stays in flight, so the run cannot quiesce and the deadline reports the
// stall. It reports whether e was intercepted. This path is distinct from
// a dead node: partitioned traffic never reaches send()'s ErrNodeDown
// fail-fast, because the frame is parked before any socket write.
func (h *hub) partitionHold(e wire.Envelope) bool {
	if !h.inj.AnyPartition() {
		return false
	}
	cut, heal, heals := h.inj.PartitionedAt(e.From, e.To, time.Since(h.start))
	if !cut {
		return false
	}
	h.partitioned++
	if h.tel != nil {
		h.linkPart[link{from: e.From, to: e.To}]++
	}
	if heals {
		h.schedule(e, h.start.Add(heal))
	}
	return true
}

// send forwards a frame to its destination node, queueing it while the
// node is unregistered. A send failure parks the frame and awaits a
// re-hello when something can bring the node back — a scheduled
// crash-restart, or the reconnect grace window; otherwise the run fails
// fast with a diagnostic instead of idling to the timeout.
func (h *hub) send(e wire.Envelope) error {
	if e.To < 0 || e.To >= len(h.conns) {
		return nil
	}
	rc := h.conns[e.To]
	if rc == nil {
		h.queue(e)
		return nil
	}
	if err := rc.fw.Send(&e); err != nil {
		if h.survivableDown(e.To, rc) {
			h.queue(e)
			return nil
		}
		return fmt.Errorf("send of %s frame %d→%d (seq %d) failed: %v: %w",
			e.Type, e.From, e.To, e.Seq, err, ErrNodeDown)
	}
	h.markDirty(rc)
	return nil
}

// survivableDown deregisters a node's failed connection when something can
// bring the node back, and reports whether the run should keep going. A
// node the fault schedule will restart parks frames until its scheduled
// rejoin (no grace clock: the schedule's restart delay governs); otherwise
// a non-negative reconnect grace starts the clock expireGrace enforces.
func (h *hub) survivableDown(node int, rc *relayConn) bool {
	if node >= 0 && node < len(h.conns) && h.conns[node] == rc {
		h.conns[node] = nil
	}
	if h.inj.WillRestart(node) {
		return true
	}
	if h.reconnectGrace >= 0 {
		h.noteDown(node)
		return true
	}
	return false
}

// writeFailed classifies a non-Send write failure (welcome, codec switch,
// flush) on a node's connection: survivable when the node can come back —
// the connection is deregistered, frames queue for the re-hello, and
// anything batched on the dead socket is recovered by sender retransmission
// — fatal otherwise.
func (h *hub) writeFailed(rc *relayConn, node int, err error) error {
	if h.survivableDown(node, rc) {
		return nil
	}
	return fmt.Errorf("write to node %d failed: %v: %w", node, err, ErrNodeDown)
}

// corruptSend delivers a deliberately damaged copy of e: on a checksummed
// connection the frame is written with one payload bit flipped, so the
// receiver's CRC check rejects and counts it; without a trailer the damage
// would be undetectable, so the fault degrades to a drop. Either way the
// message stays in flight and the sender's retransmission recovers it.
func (h *hub) corruptSend(e wire.Envelope) error {
	rc := h.conns[e.To]
	if rc == nil || !rc.crcOn {
		return nil
	}
	if err := rc.fw.WriteCorrupted(&e); err != nil {
		if h.survivableDown(e.To, rc) {
			return nil // not queued: the retransmission re-attempts
		}
		return fmt.Errorf("corrupt delivery to node %d failed: %v: %w", e.To, err, ErrNodeDown)
	}
	h.markDirty(rc)
	return nil
}

// markDirty records that rc has buffered writes awaiting the idle flush.
func (h *hub) markDirty(rc *relayConn) {
	if !rc.dirty {
		rc.dirty = true
		h.dirty = append(h.dirty, rc)
	}
}

// flushDirty pushes every buffered batch and byte to the sockets.
func (h *hub) flushDirty() error {
	var failed error
	for i, rc := range h.dirty {
		h.dirty[i] = nil
		rc.dirty = false
		if err := rc.fw.Flush(); err != nil && failed == nil {
			// Only a connection still registered to a live node matters; a
			// replaced connection from a crashed incarnation flushes into
			// a closed socket harmlessly.
			if rc.node >= 0 && rc.node < len(h.conns) && h.conns[rc.node] == rc {
				failed = h.writeFailed(rc, rc.node, err)
			}
		}
	}
	h.dirty = h.dirty[:0]
	return failed
}

func (h *hub) queue(e wire.Envelope) {
	if h.pending == nil {
		h.pending = make(map[int][]wire.Envelope)
	}
	h.pending[e.To] = append(h.pending[e.To], e)
}

func (h *hub) snapshot() csp.SliceAssignment {
	cp := csp.NewSliceAssignment(len(h.values))
	copy(cp, h.values)
	return cp
}

func (h *hub) broadcastStop() {
	close(h.stop)
	for _, rc := range h.conns {
		if rc != nil {
			stop := wire.Envelope{Type: wire.TypeStop}
			_ = rc.fw.Send(&stop)
			_ = rc.fw.Flush()
		}
	}
}
