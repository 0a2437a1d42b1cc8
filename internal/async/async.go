// Package async runs the distributed algorithms on a genuinely asynchronous
// system: one goroutine per agent, channel-free mailboxes with no global
// clock, optional randomized delivery delay. Section 5 of the paper notes
// the algorithms "are designed for a fully asynchronous distributed system,
// and thereby can work on any type of distributed systems"; this runtime
// demonstrates exactly that with the same Agent implementations the
// synchronous simulator uses.
//
// Because there are no cycles, the paper's cycle/maxcck metrics do not
// apply; the runtime reports wall-clock duration, total messages, and total
// nogood checks instead. Termination is detected by an out-of-band monitor
// that polls a lock-free snapshot of the agents' published values, plus a
// quiescence detector (no messages in flight means no agent will ever act
// again).
//
// The runtime additionally accepts a deterministic fault schedule
// (internal/faults): per-link message drop, duplication, and bounded delay,
// plus per-agent crash points with checkpoint-based restart. Faults are
// applied below the reliable-transport abstraction the algorithms assume —
// a dropped message costs retransmission backoff (delay), a duplicate is
// suppressed before delivery, and deliveries on one directed link stay
// FIFO — so the algorithms observe a slower, but still correct, network.
// Partition windows are modeled the same way: a message crossing the cut is
// held (deterministic added delay) until the window heals, and a
// never-healing window holds it forever — the message stays in flight, so
// quiescence is never declared while traffic is stranded, and the run ends
// at the deadline with a progress report instead.
//
// What a run reports is declared once for both concurrent runtimes, in
// internal/progress: the Result, the *TimeoutError, and the sample path
// that feeds the stall watchdog and the telemetry stream.
package async

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/discsp/discsp/internal/causal"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/faults"
	"github.com/discsp/discsp/internal/progress"
	"github.com/discsp/discsp/internal/sim"
	"github.com/discsp/discsp/internal/telemetry"
)

// ErrTimeout is progress.ErrTimeout: errors.Is(err, ErrTimeout) matches a
// run that hit its deadline.
var ErrTimeout = progress.ErrTimeout

// TimeoutError reports a run that hit its deadline. Its Delivered counts
// the messages agents processed; Messages stays 0.
type TimeoutError = progress.TimeoutError

// pollInterval is the monitor's snapshot period.
const pollInterval = 100 * time.Microsecond

// Options configures a run.
type Options struct {
	// Timeout bounds the wall-clock run time; 0 means 30 seconds.
	Timeout time.Duration
	// MaxJitter, when positive, delays every delivery by a uniform random
	// duration in [0, MaxJitter) — the failure-injection knob that
	// exercises message reordering across links. Deliveries on one
	// (sender, receiver) link stay FIFO: the algorithms' correctness model
	// (Yokoo et al.) assumes order-preserving channels, and reordering
	// within a link genuinely breaks them (an old ok? overwriting a newer
	// value leaves permanently stale views).
	MaxJitter time.Duration
	// Seed drives the jitter; runs with jitter are *not* reproducible
	// (goroutine interleaving is inherently nondeterministic) but the seed
	// decorrelates repeated test runs.
	Seed int64
	// Faults, when non-nil, injects a deterministic fault schedule: message
	// drop (modeled as retransmission delay), duplication (suppressed at
	// delivery), bounded extra delay, and per-agent crash points. Crashed
	// agents restart from their last checkpoint when the schedule says so;
	// agents that implement sim.Checkpointer resume mid-search, others
	// restart from scratch.
	Faults *faults.Config
	// WatchdogCadence is the stall watchdog's sampling period; 0 means
	// progress.DefaultCadence. Each sample also lands in the telemetry
	// stream when one is attached, so healthy runs record frontier-hash
	// progress, not only timed-out ones.
	WatchdogCadence time.Duration
	// Telemetry, when non-nil, receives the run's event stream (watchdog
	// samples, per-agent totals at the end-of-run quiescence point) and
	// metrics (deliveries, queue depths, transport counters, per-agent
	// nogood-store sizes). Nil disables all instrumentation; the runtime
	// behaves identically either way apart from the observation itself.
	Telemetry *telemetry.Run
	// Causal, when non-nil, records one span per agent activation, stamps
	// outgoing messages with trace IDs, and attaches each agent's handle
	// for its nogood lineage (see internal/causal). Agent handles are
	// per-variable and survive crash-restarts, so a restarted incarnation
	// continues its predecessor's trace-ID counter.
	Causal *causal.Tracer
}

// Result reports a completed asynchronous run.
type Result = progress.Result

// Run executes one agent goroutine per problem variable until the monitor
// observes a solution, an agent proves insolubility, the system quiesces, or
// the timeout expires (which returns a *TimeoutError alongside the partial
// result). makeAgent builds the algorithm-specific agent for each variable;
// it is also how a crash-scheduled agent is rebuilt before its checkpoint is
// restored.
//
// The result's Messages counts the messages agents processed. Of its
// transport counters, Retransmits includes batches redelivered to a
// restarted agent; DuplicatesSuppressed counts injected copies discarded
// before reaching an agent; Partitioned counts messages held at a cut
// (delivered at the heal, or stranded under a never-healing window).
// Restarts and PartitionHeals are filled too; the TCP-only counters stay
// zero.
func Run(problem *csp.Problem, makeAgent func(v csp.Var) sim.Agent, opts Options) (Result, error) {
	n := problem.NumVars()
	if n == 0 {
		return Result{Solved: true, Assignment: csp.SliceAssignment{}}, nil
	}
	timeout, cadence := progress.Limits(opts.Timeout, opts.WatchdogCadence)
	makeAgent, stores := telemetry.InstrumentStores(opts.Telemetry.Registry(), n, makeAgent)
	rt := &runtime{
		problem:   problem,
		makeAgent: makeAgent,
		agents:    make([]sim.Agent, n),
		mailboxes: make([]*mailbox, n),
		published: make([]atomic.Int64, n),
		processed: make([]atomic.Int64, n),
		stop:      make(chan struct{}),
		causal:    opts.Causal,
		queueHist: opts.Telemetry.Registry().Histogram("discsp_queue_depth", telemetry.QueueDepthBuckets),
	}
	if opts.Faults != nil {
		rt.inj = faults.New(*opts.Faults)
	}
	// The dispatcher owns every delayed delivery; it is needed whenever any
	// fault or jitter can push a message into the future — including a
	// partition window, which holds crossing messages until it heals.
	useDispatcher := opts.MaxJitter > 0 ||
		(opts.Faults != nil && (opts.Faults.Drop > 0 || opts.Faults.Duplicate > 0 ||
			opts.Faults.MaxDelay > 0 || len(opts.Faults.Partitions) > 0))
	if useDispatcher {
		rt.dispatch = true
		rt.linkClock = make(map[linkKey]time.Time)
		rt.linkSeq = make(map[linkKey]int64)
		rt.delayed = make(chan delayedMsg)
		rt.dispDone = make(chan struct{})
		if opts.MaxJitter > 0 {
			rt.jitter = opts.MaxJitter
			rt.rng = rand.New(rand.NewSource(opts.Seed))
		}
		go rt.dispatcher()
	}
	for v := 0; v < n; v++ {
		rt.agents[v] = rt.makeAgent(csp.Var(v))
		if int(rt.agents[v].ID()) != v {
			return Result{}, fmt.Errorf("async: agent for variable %d has id %d", v, rt.agents[v].ID())
		}
		rt.mailboxes[v] = newMailbox()
	}

	start := time.Now()
	rt.start = start
	rt.sampler = progress.NewSampler(opts.Telemetry, start, stores, rt.queueDepth)
	// Publish initial values and route initial messages before any
	// goroutine starts, so the in-flight counter can never be observed at
	// zero while startup messages remain unrouted.
	for v, a := range rt.agents {
		rt.published[v].Store(int64(a.CurrentValue()))
	}
	for _, a := range rt.agents {
		at := rt.causal.Attach(int(a.ID()), a)
		at.Begin(causal.SpanInit, 0)
		out := a.Init()
		sim.StampBatch(at, out)
		at.End()
		// Init alone can prove insolubility (a domain wiped out by unary
		// constraints), and no later step of that agent may report it.
		if r, isReporter := a.(sim.InsolubleReporter); isReporter && r.Insoluble() {
			rt.insoluble.Store(true)
		}
		rt.route(out)
	}

	var wg sync.WaitGroup
	for v := range rt.agents {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			rt.agentLoop(v)
		}(v)
	}

	res, terr := rt.monitor(timeout, cadence)
	close(rt.stop)
	for _, mb := range rt.mailboxes {
		mb.close()
	}
	wg.Wait()

	if rt.dispDone != nil {
		<-rt.dispDone
	}
	if e := rt.runErr.Load(); e != nil {
		return res, e.(error)
	}

	res.Duration = time.Since(start)
	res.Messages = rt.delivered.Load()
	res.Retransmits = rt.retransmits.Load()
	res.DuplicatesSuppressed = rt.dupsSuppressed.Load()
	res.Restarts = rt.restarts.Load()
	res.Partitioned = rt.partitioned.Load()
	res.PartitionHeals = rt.inj.HealedBy(res.Duration)
	if res.Assignment == nil {
		res.Assignment = rt.snapshot()
		res.Solved = problem.IsSolution(res.Assignment)
	}
	for _, a := range rt.agentsFinal() {
		res.TotalChecks += a.Checks()
	}
	// Every agent goroutine has stopped, so the agents' non-atomic Checks
	// counters are safe to read.
	res.Record(opts.Telemetry, n, func(v int) (checks, processed, store int64) {
		a := rt.agentsFinal()[v]
		if ss, ok := a.(telemetry.StoreSizer); ok {
			store = int64(ss.StoreSize())
		}
		return a.Checks(), rt.processed[v].Load(), store
	})
	if !res.Solved && !res.Insoluble && !res.Quiescent {
		if terr == nil {
			terr = ErrTimeout
		}
		return res, terr
	}
	return res, nil
}

type runtime struct {
	problem   *csp.Problem
	makeAgent func(v csp.Var) sim.Agent
	agents    []sim.Agent
	mailboxes []*mailbox
	published []atomic.Int64
	processed []atomic.Int64
	inFlight  atomic.Int64
	delivered atomic.Int64
	insoluble atomic.Bool
	stop      chan struct{}
	runErr    atomic.Value // error

	start time.Time

	inj            *faults.Injector
	retransmits    atomic.Int64
	dupsSuppressed atomic.Int64
	restarts       atomic.Int64
	partitioned    atomic.Int64

	causal    *causal.Tracer
	sampler   *progress.Sampler
	queueHist *telemetry.Histogram

	dispatch  bool
	jitter    time.Duration
	jitterMu  sync.Mutex
	rng       *rand.Rand
	linkClock map[linkKey]time.Time
	linkSeq   map[linkKey]int64
	seq       int64
	delayed   chan delayedMsg
	dispDone  chan struct{}
}

// agentsFinal returns the agent slice for post-run accounting. Agent loops
// may have replaced crashed agents; wg.Wait in Run orders those writes
// before this read.
func (rt *runtime) agentsFinal() []sim.Agent { return rt.agents }

// linkKey identifies one directed communication link.
type linkKey struct {
	from, to sim.AgentID
}

// neverHealDelay schedules a message cut by a never-healing partition: far
// past any plausible deadline, so it stays in flight (and in the dispatch
// heap) until the run ends.
const neverHealDelay = 10000 * time.Hour

// delayedMsg is a message scheduled for future delivery by the dispatcher.
type delayedMsg struct {
	at  time.Time
	seq int64
	msg sim.Message
	// dup marks an injected duplicate copy: the transport's dedup layer
	// suppresses it at arrival instead of delivering it, so it never counts
	// toward in-flight work.
	dup bool
}

// agentLoop drains the agent's mailbox, steps the agent, and routes its
// output until the runtime stops. When the fault schedule assigns this agent
// a crash point, the loop checkpoints durable state after every step until
// the crash fires; the crash loses the batch in hand (it was never
// acknowledged), and on restart a fresh agent restores the checkpoint and
// the lost batch is redelivered — the transport-level retransmission the
// reliable protocol guarantees.
func (rt *runtime) agentLoop(v int) {
	a := rt.agents[v]
	mb := rt.mailboxes[v]
	// One tracer handle per variable for the whole loop: a restarted
	// incarnation keeps its predecessor's trace-ID counter, so cause IDs
	// stay stable across crash-restarts. Nil when tracing is off.
	at := rt.causal.Agent(v)
	var crash faults.Crash
	crashPending := false
	if rt.inj != nil {
		crash, crashPending = rt.inj.Crash(v)
	}
	var ckpt any
	steps := 0
	for {
		batch, ok := mb.take()
		if !ok {
			return
		}
		if crashPending && steps >= crash.AfterSteps {
			crashPending = false
			if !crash.Restart {
				// The agent is gone for good. Its in-hand batch dies with
				// it; keep the in-flight counter honest. Later arrivals
				// keep the counter positive, so quiescence is never
				// declared while work is stranded at a dead agent.
				rt.inFlight.Add(-int64(len(batch)))
				return
			}
			if crash.RestartDelay > 0 {
				time.Sleep(crash.RestartDelay)
			}
			fresh := rt.makeAgent(csp.Var(v))
			rt.causal.Attach(v, fresh)
			if c, canRestore := fresh.(sim.Checkpointer); canRestore && ckpt != nil {
				if err := c.Restore(ckpt); err != nil {
					rt.fail(fmt.Errorf("async: agent %d restore after crash: %w", v, err))
					rt.inFlight.Add(-int64(len(batch)))
					return
				}
			}
			a = fresh
			rt.agents[v] = a
			rt.published[v].Store(int64(a.CurrentValue()))
			rt.restarts.Add(1)
			// The batch in hand was lost with the crash and is being
			// redelivered by retransmission.
			rt.retransmits.Add(int64(len(batch)))
		}
		at.Begin(causal.SpanStep, steps)
		sim.CauseBatch(at, batch)
		out := a.Step(batch)
		sim.StampBatch(at, out)
		at.End()
		steps++
		if crashPending {
			if c, canSnap := a.(sim.Checkpointer); canSnap {
				ckpt = c.Checkpoint()
			}
		}
		rt.published[v].Store(int64(a.CurrentValue()))
		if r, isReporter := a.(sim.InsolubleReporter); isReporter && r.Insoluble() {
			rt.insoluble.Store(true)
		}
		rt.route(out)
		rt.delivered.Add(int64(len(batch)))
		rt.processed[v].Add(int64(len(batch)))
		// Decrement last: a nonzero in-flight count must cover messages
		// being processed, or quiescence could be declared spuriously.
		rt.inFlight.Add(-int64(len(batch)))
	}
}

// fail records the first fatal runtime error; the monitor surfaces it.
func (rt *runtime) fail(err error) {
	rt.runErr.CompareAndSwap(nil, err)
}

// route delivers messages, applying the fault schedule and optional jitter.
// Each logical message is counted in flight exactly once: a drop shows up as
// retransmission-backoff delay (the injector bounds attempts, so the first
// successful attempt is computable at send time), and a duplicate is an
// extra scheduled copy that the dedup layer discards at arrival. Per-link
// FIFO is preserved by clamping each arrival to the link's previous one.
func (rt *runtime) route(out []sim.Message) {
	if len(out) == 0 {
		return
	}
	rt.inFlight.Add(int64(len(out)))
	for _, m := range out {
		if !rt.dispatch {
			rt.mailboxes[m.To()].put(m)
			continue
		}
		rt.jitterMu.Lock()
		key := linkKey{from: m.From(), to: m.To()}
		now := time.Now()
		var delay time.Duration
		if rt.jitter > 0 {
			delay = time.Duration(rt.rng.Int63n(int64(rt.jitter)))
		}
		var dupAt time.Time
		hasDup := false
		if rt.inj != nil {
			seq := rt.linkSeq[key] + 1
			rt.linkSeq[key] = seq
			from, to := int(m.From()), int(m.To())
			attempt := 0
			for rt.inj.Dropped(from, to, seq, attempt) {
				delay += faults.Backoff(attempt)
				attempt++
			}
			rt.retransmits.Add(int64(attempt))
			delay += rt.inj.Delay(from, to, seq, 0)
			if rt.inj.Duplicated(from, to, seq) {
				hasDup = true
				dupAt = now.Add(rt.inj.Delay(from, to, seq, 1))
			}
		}
		arrival := now.Add(delay)
		if rt.inj.AnyPartition() {
			// A message crossing a partition cut is held at the boundary: it
			// arrives when the window heals, or — under a never-healing
			// window — effectively never, staying in flight so quiescence is
			// not declared while traffic is stranded.
			from, to := int(m.From()), int(m.To())
			if cut, heal, heals := rt.inj.PartitionedAt(from, to, arrival.Sub(rt.start)); cut {
				rt.partitioned.Add(1)
				if heals {
					arrival = rt.start.Add(heal)
				} else {
					arrival = rt.start.Add(neverHealDelay)
				}
			}
		}
		if last, ok := rt.linkClock[key]; ok && arrival.Before(last) {
			arrival = last
		}
		rt.linkClock[key] = arrival
		rt.seq++
		dm := delayedMsg{at: arrival, seq: rt.seq, msg: m}
		var ddm delayedMsg
		if hasDup {
			rt.seq++
			ddm = delayedMsg{at: dupAt, seq: rt.seq, msg: m, dup: true}
		}
		rt.jitterMu.Unlock()
		select {
		case rt.delayed <- dm:
		case <-rt.stop:
			// The dispatcher has exited; drop the message but keep the
			// in-flight count honest.
			rt.inFlight.Add(-1)
			continue
		}
		if hasDup {
			select {
			case rt.delayed <- ddm:
			case <-rt.stop:
			}
		}
	}
}

// dispatcher delivers delayed messages in (arrival, send-order) sequence. A
// single goroutine owning the schedule gives a total delivery order, which
// per-message timers cannot (close deadlines race). Injected duplicates are
// suppressed here — the dedup half of the reliable transport — so mailboxes
// see each logical message exactly once.
func (rt *runtime) dispatcher() {
	defer close(rt.dispDone)
	var h delayHeap
	for {
		var (
			timerC <-chan time.Time
			timer  *time.Timer
		)
		if len(h) > 0 {
			timer = time.NewTimer(time.Until(h[0].at))
			timerC = timer.C
		}
		select {
		case dm := <-rt.delayed:
			heap.Push(&h, dm)
		case <-timerC:
			now := time.Now()
			for len(h) > 0 && !h[0].at.After(now) {
				dm := heap.Pop(&h).(delayedMsg)
				if dm.dup {
					rt.dupsSuppressed.Add(1)
					continue
				}
				rt.mailboxes[dm.msg.To()].put(dm.msg)
			}
		case <-rt.stop:
			if timer != nil {
				timer.Stop()
			}
			// Undelivered messages die with the run; duplicates were never
			// counted in flight.
			for _, dm := range h {
				if !dm.dup {
					rt.inFlight.Add(-1)
				}
			}
			return
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

// delayHeap orders delayed messages by arrival time, then send sequence.
type delayHeap []delayedMsg

func (h delayHeap) Len() int { return len(h) }

func (h delayHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}

func (h delayHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *delayHeap) Push(x any) { *h = append(*h, x.(delayedMsg)) }

func (h *delayHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// sample reads the runtime's progress counters for the watchdog. The
// frontier hash covers the published assignment and the insolubility flag:
// what an outside observer can see of search progress.
func (rt *runtime) sample(now time.Time) progress.Sample {
	words := make([]int64, 0, len(rt.published)+1)
	for i := range rt.published {
		words = append(words, rt.published[i].Load())
	}
	if rt.insoluble.Load() {
		words = append(words, 1)
	}
	proc := make([]int64, len(rt.processed))
	for i := range rt.processed {
		proc[i] = rt.processed[i].Load()
	}
	return progress.Sample{
		At:        now,
		Delivered: rt.delivered.Load(),
		InFlight:  rt.inFlight.Load(),
		Processed: proc,
		Frontier:  progress.Hash64(words...),
	}
}

// queueDepth sums the mailboxes' queued messages into the queue-depth
// histogram for a telemetry sample.
func (rt *runtime) queueDepth() int64 {
	var depth int64
	for _, mb := range rt.mailboxes {
		depth += int64(mb.depth())
	}
	rt.queueHist.Observe(depth)
	return depth
}

// monitor polls the published assignment until a terminal condition. On
// deadline expiry it returns a *TimeoutError describing the stuck state,
// including the stall watchdog's progress report.
func (rt *runtime) monitor(timeout, cadence time.Duration) (Result, error) {
	deadline := time.Now().Add(timeout)
	var lastObserve time.Time
	ticker := time.NewTicker(pollInterval)
	defer ticker.Stop()
	for range ticker.C {
		if now := time.Now(); now.Sub(lastObserve) >= cadence {
			lastObserve = now
			rt.sampler.Observe(rt.sample(now))
		}
		if rt.runErr.Load() != nil {
			return Result{}, nil // Run surfaces the recorded error
		}
		// A snapshot satisfying every constraint is a valid solution to the
		// CSP even if it mixes values from slightly different instants;
		// capture it immediately, because agents acting on stale views may
		// still move before the runtime shuts down.
		if snap := rt.snapshot(); rt.problem.IsSolution(snap) {
			return Result{Solved: true, Assignment: snap}, nil
		}
		if rt.insoluble.Load() {
			return Result{Insoluble: true}, nil
		}
		if rt.inFlight.Load() == 0 {
			return Result{Quiescent: true}, nil
		}
		if now := time.Now(); now.After(deadline) {
			// Agents are still stepping; Expire sums Delivered from the
			// sample's per-agent reads rather than loading it at another
			// instant.
			return Result{}, rt.sampler.Expire(rt.sample(now), timeout, 0)
		}
	}
	return Result{}, ErrTimeout
}

func (rt *runtime) snapshot() csp.SliceAssignment {
	s := csp.NewSliceAssignment(len(rt.published))
	for i := range rt.published {
		s[i] = csp.Value(rt.published[i].Load())
	}
	return s
}

// mailbox is an unbounded MPSC queue with blocking take.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []sim.Message
	// spare is the batch the last take returned. The next take clears it
	// and makes it the queue, so steady-state puts append into a recycled
	// array instead of growing a fresh one.
	spare  []sim.Message
	closed bool
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// depth reports the queued message count; the telemetry sampler sums it
// across mailboxes.
func (mb *mailbox) depth() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(mb.queue)
}

func (mb *mailbox) put(m sim.Message) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return
	}
	mb.queue = append(mb.queue, m)
	mb.cond.Signal()
}

// take blocks until at least one message is available (returning the whole
// queue as a batch) or the mailbox closes (returning ok=false). A batch is
// valid until the next take, which clears it and reuses its array for later
// puts; Step may not keep its input, so agentLoop is done with a batch by
// then.
func (mb *mailbox) take() ([]sim.Message, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for len(mb.queue) == 0 && !mb.closed {
		mb.cond.Wait()
	}
	if len(mb.queue) == 0 {
		return nil, false
	}
	clear(mb.spare)
	mb.queue, mb.spare = mb.spare[:0], mb.queue
	return mb.spare, true
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.closed = true
	mb.cond.Broadcast()
}
