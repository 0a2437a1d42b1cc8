// Package sim implements the synchronous distributed-system simulator the
// paper runs its experiments on (Section 4): all agents repeatedly execute
// cycles in lockstep, where one cycle consists of reading the messages that
// arrived since the previous cycle, doing local computation, and sending
// messages that will be delivered at the start of the next cycle.
//
// The simulator measures the paper's two costs:
//
//   - cycle: cycles consumed until the global assignment first becomes a
//     solution (communication cost);
//   - maxcck: the sum over cycles of the maximum number of nogood checks any
//     single agent performed in that cycle (computation cost under ideal
//     parallelism).
//
// Solution detection is done out-of-band by the simulator (the distributed
// algorithms themselves do not detect global termination); it is not charged
// to any agent.
package sim

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"

	"github.com/discsp/discsp/internal/causal"
	"github.com/discsp/discsp/internal/csp"
)

// AgentID identifies an agent. In the one-variable-per-agent setting agent i
// owns variable i, so AgentID values coincide with csp.Var values.
type AgentID int

// Message is one unit of communication between agents. Concrete message
// types are defined by each algorithm package (ok?, nogood, request for AWC;
// ok?, improve for DB). A message is immutable once an agent returns it: a
// runtime may hold the same value in more than one place (the asynchronous
// runtime queues an injected duplicate that shares its original's value),
// and a pointer message such as *core.Ok may share its array with the
// rest of a broadcast.
type Message interface {
	// From is the sending agent.
	From() AgentID
	// To is the receiving agent.
	To() AgentID
}

// Agent is a participant in a synchronous run. Implementations must be
// deterministic: the same message batches in the same order must produce the
// same outputs, so that a run is reproducible from its seed.
type Agent interface {
	// ID returns the agent's identifier.
	ID() AgentID
	// Init performs the agent's startup step (initial value selection) and
	// returns its first outgoing messages. Called once, before cycle 1.
	// The returned slice follows Step's contract.
	Init() []Message
	// Step processes the batch of messages delivered this cycle and returns
	// outgoing messages. The batch may be empty for agents that received
	// nothing. Only the simulator sorts it, by (sender, arrival order); the
	// async runtime's mailbox batches and netrun's read groups keep each
	// sender's messages in send order but interleave senders in arrival
	// order. in is valid only for the duration of the call: the runtimes
	// reuse its backing array for later deliveries, so an implementation
	// that keeps messages past the call must copy them out. Likewise, the
	// returned slice is valid until the agent's next Init or Step call,
	// which may reuse its backing array, so a caller must copy the messages
	// out before that call.
	Step(in []Message) []Message
	// CurrentValue returns the agent's current variable value, for the
	// simulator's out-of-band solution check.
	CurrentValue() csp.Value
	// Checks returns the cumulative number of nogood checks this agent has
	// performed. The simulator differences this around each cycle.
	Checks() int64
}

// InsolubleReporter is implemented by agents of complete algorithms that can
// derive global insolubility (the empty nogood). The simulator polls it
// after every cycle and stops the run when any agent reports true.
type InsolubleReporter interface {
	Insoluble() bool
}

// Reannouncer is implemented by agents that can re-send their current
// assignment to one peer on demand. The networked runtime (internal/netrun)
// uses it when a peer's process relaunches with no memory: every frame the
// dead incarnation acknowledged is unrecoverable — both sides' buffers are
// gone — so the only way the fresh agent's empty view converges is for live
// neighbors to announce their values again. Agents that do not implement it
// still work under warm restarts (checkpoint restore and reconnection), but
// a cold peer relaunch can stall their runs.
type Reannouncer interface {
	// Reannounce returns the messages that restate this agent's current
	// assignment to peer, or nil when peer is not an announcement target.
	Reannounce(peer AgentID) []Message
}

// Checkpointer is implemented by agents whose durable state can be saved
// and replayed for crash-restart recovery (internal/faults, and the crash
// handling in internal/async and internal/netrun). Checkpoint returns a
// self-contained snapshot — current value, nogood store contents, check
// counter, agent view, and any protocol-phase state — that shares no
// mutable memory with the agent. Restore loads a snapshot produced by an
// agent of the same algorithm and problem onto the receiver (typically a
// freshly constructed instance standing in for a rebooted node), after
// which the agent must behave exactly as the checkpointed one would.
type Checkpointer interface {
	Checkpoint() any
	Restore(snapshot any) error
}

// DefaultMaxCycles is the paper's cutoff: trials are stopped after 10000
// cycles and their at-cutoff measurements are used (Section 4).
const DefaultMaxCycles = 10000

// Options configures a run.
type Options struct {
	// MaxCycles is the cutoff; 0 means DefaultMaxCycles.
	MaxCycles int
	// Trace, when non-nil, receives one event per cycle after delivery and
	// computation. It carries discsp.Options.Trace and the telemetry tee
	// that writes the stream's cycle events.
	Trace func(ev CycleEvent)
	// Causal, when non-nil, records one span per agent activation, stamps
	// every traced outgoing message with its trace ID, and attaches each
	// agent's handle for its nogood lineage (see internal/causal). Nil
	// disables tracing with zero overhead: the loop holds nil handles and
	// every tracing call returns immediately.
	Causal *causal.Tracer
}

// CycleEvent describes one completed cycle for tracing.
type CycleEvent struct {
	Cycle         int
	MessagesIn    int
	MessagesOut   int
	MaxChecks     int64
	SolutionFound bool
}

// Result reports a completed run.
type Result struct {
	// Solved reports whether a solution was reached within the cutoff.
	Solved bool
	// Cycles is the number of cycles consumed; at cutoff it equals the
	// cutoff value, mirroring the paper's "use the data at that time".
	Cycles int
	// MaxCCK is the maxcck metric: Σ_cycle max_agent checks(agent, cycle).
	MaxCCK int64
	// TotalChecks is Σ_agent checks(agent) over the whole run; not a paper
	// metric but useful for ablation analysis.
	TotalChecks int64
	// Messages is the total number of messages delivered.
	Messages int
	// MessagesByType breaks deliveries down by concrete message type name
	// (e.g. "core.Ok", "core.NogoodMsg") — the communication-cost profile.
	MessagesByType map[string]int
	// Insoluble reports that some agent derived the empty nogood, proving
	// no solution exists.
	Insoluble bool
	// Assignment is the final global assignment (the solution when Solved).
	Assignment csp.SliceAssignment
}

// Run executes agents against problem until a solution appears or the cutoff
// is hit. Agents must be in one-to-one correspondence with the problem's
// variables (agent i owns variable i); Run returns an error otherwise. For
// agents owning several variables (internal/multi), use RunAgents with a
// custom solved predicate.
func Run(problem *csp.Problem, agents []Agent, opts Options) (Result, error) {
	if len(agents) != problem.NumVars() {
		return Result{}, fmt.Errorf("sim: %d agents for %d variables", len(agents), problem.NumVars())
	}
	assignment := csp.NewSliceAssignment(problem.NumVars())
	// Boxed once: converting the slice to csp.Assignment allocates, and
	// the predicate runs every cycle.
	var boxed csp.Assignment = assignment
	res, err := RunAgents(agents, opts, func() bool {
		snapshot(agents, assignment)
		return problem.IsSolution(boxed)
	})
	res.Assignment = assignment
	return res, err
}

// RunAgents is the algorithm-agnostic cycle loop: solved is the out-of-band
// termination predicate, polled after startup and after every cycle. The
// Result's Assignment is left nil; callers reconstruct global state from
// their agents.
func RunAgents(agents []Agent, opts Options, solved func() bool) (Result, error) {
	for i, a := range agents {
		if int(a.ID()) != i {
			return Result{}, fmt.Errorf("sim: agent at index %d has id %d", i, a.ID())
		}
	}
	maxCycles := opts.MaxCycles
	if maxCycles <= 0 {
		maxCycles = DefaultMaxCycles
	}

	var res Result
	prevChecks := make([]int64, len(agents))

	// Startup: every agent selects an initial value and emits its first
	// messages. Startup is not counted as a cycle (the paper counts cycles
	// of the message-driven loop), but its checks do count toward maxcck as
	// a cycle-0 contribution so no computation escapes accounting.
	// Per-agent tracing handles, also handed to each agent for its nogood
	// lineage; all nil when tracing is off, so the loop body's tracing
	// calls are no-ops.
	var tracers []*causal.AgentTracer
	if opts.Causal != nil {
		tracers = make([]*causal.AgentTracer, len(agents))
		for i, a := range agents {
			tracers[i] = opts.Causal.Attach(int(a.ID()), a)
		}
	}
	tracerOf := func(i int) *causal.AgentTracer {
		if tracers == nil {
			return nil
		}
		return tracers[i]
	}

	// Two inboxes indexed by agent ID, swapped every cycle: agents read
	// this cycle's deliveries from inbox while their output is routed into
	// next. Batches are truncated in place after their Step, so after the
	// first few cycles the loop allocates nothing.
	inbox := make([][]Message, len(agents))
	next := make([][]Message, len(agents))
	var delivered typeCounts
	var startupMax int64
	for i, a := range agents {
		out := TracedInit(tracerOf(i), a)
		route(inbox, out)
		if c := a.Checks(); c > startupMax {
			startupMax = c
		}
	}
	for i, a := range agents {
		prevChecks[i] = a.Checks()
	}
	res.MaxCCK += startupMax

	if solved() {
		res.Solved = true
		finalizeTotals(&res, agents)
		return res, nil
	}
	if anyInsoluble(agents) {
		res.Insoluble = true
		finalizeTotals(&res, agents)
		return res, nil
	}

	for cycle := 1; cycle <= maxCycles; cycle++ {
		res.Cycles = cycle
		messagesIn, messagesOut := 0, 0
		var maxDelta int64
		for i, a := range agents {
			in := sortBatch(inbox[i])
			messagesIn += len(in)
			for _, m := range in {
				delivered.add(m)
			}
			out := TracedStep(tracerOf(i), cycle, in, a.Step)
			messagesOut += len(out)
			route(next, out)
			// Step may not keep in, so its array is reused; clearing it
			// first leaves no delivered message reachable from it.
			clear(in)
			inbox[i] = in[:0]
			delta := a.Checks() - prevChecks[i]
			prevChecks[i] = a.Checks()
			if delta > maxDelta {
				maxDelta = delta
			}
		}
		res.MaxCCK += maxDelta
		res.Messages += messagesIn
		inbox, next = next, inbox

		done := solved()
		if opts.Trace != nil {
			opts.Trace(CycleEvent{
				Cycle:         cycle,
				MessagesIn:    messagesIn,
				MessagesOut:   messagesOut,
				MaxChecks:     maxDelta,
				SolutionFound: done,
			})
		}
		if done {
			res.Solved = true
			break
		}
		if anyInsoluble(agents) {
			res.Insoluble = true
			break
		}
		// Quiescence without a solution: no messages in flight means no
		// agent will ever act again. For a complete algorithm this only
		// happens when insolubility was derived; stop rather than spin to
		// the cutoff.
		if messagesOut == 0 {
			break
		}
	}
	res.MessagesByType = delivered.byName()
	finalizeTotals(&res, agents)
	return res, nil
}

// route appends each message to its recipient's queue, validating the
// recipient. Panics on an out-of-range recipient: that is a bug in an
// algorithm implementation, not a runtime condition.
func route(inbox [][]Message, out []Message) {
	for _, m := range out {
		to := m.To()
		if int(to) < 0 || int(to) >= len(inbox) {
			panic(fmt.Sprintf("sim: message %T addressed to unknown agent %d", m, to))
		}
		inbox[to] = append(inbox[to], m)
	}
}

// sortBatch orders a delivery batch by sender, preserving per-sender order.
// Agents are stepped in ID order so batches arrive already sender-sorted;
// one pass confirms it, and the stable sort is a determinism safeguard
// that only an out-of-order batch pays for.
func sortBatch(batch []Message) []Message {
	var prev AgentID
	for i, m := range batch {
		from := m.From()
		if i > 0 && from < prev {
			slices.SortStableFunc(batch, func(a, b Message) int { return cmp.Compare(a.From(), b.From()) })
			break
		}
		prev = from
	}
	return batch
}

// typeCounts tallies deliveries by dynamic message type. An algorithm uses
// a handful of message types, so scanning the types seen so far is cheaper
// per message than rendering and hashing a name; byName renders the names
// once. The first types are counted in a fixed array so that a local
// typeCounts stays on the goroutine's stack: a heap counter written for
// every message can share a cache line with data a concurrent run reads,
// and that false sharing made parallel trials slower than serial ones.
type typeCounts struct {
	seen [8]typeCount
	n    int
	more map[reflect.Type]int // types beyond len(seen)
}

type typeCount struct {
	t reflect.Type
	n int
}

func (c *typeCounts) add(m Message) {
	t := reflect.TypeOf(m)
	for i := 0; i < c.n; i++ {
		if c.seen[i].t == t {
			c.seen[i].n++
			return
		}
	}
	if c.n < len(c.seen) {
		c.seen[c.n] = typeCount{t: t, n: 1}
		c.n++
		return
	}
	if c.more == nil {
		c.more = make(map[reflect.Type]int)
	}
	c.more[t]++
}

// byName keys the tally by TypeName, which merges T and *T; nil when
// nothing was delivered.
func (c *typeCounts) byName() map[string]int {
	if c.n == 0 {
		return nil
	}
	counts := make(map[string]int, c.n+len(c.more))
	for _, e := range c.seen[:c.n] {
		counts[typeName(e.t)] += e.n
	}
	for t, n := range c.more {
		counts[typeName(t)] += n
	}
	return counts
}

// TracedInit runs a's Init as one activation: an init span whose emissions
// are Init's output, each message stamped in place with its trace ID. Every
// runtime starts its agents through it. A nil handle runs Init untraced.
func TracedInit(at *causal.AgentTracer, a Agent) []Message {
	at.Begin(causal.SpanInit, 0)
	out := a.Init()
	stampBatch(at, out)
	at.End()
	return out
}

// TracedStep runs step on the delivery batch in as one activation: a step
// span numbered n (the cycle here, the step count in the concurrent
// runtimes) whose causes are the batch's trace IDs and whose emissions are
// step's output, stamped in place. step is an agent's Step, or a TCP node's
// re-announce to a relaunched peer, with no batch. A nil handle runs step
// untraced.
func TracedStep(at *causal.AgentTracer, n int, in []Message, step func([]Message) []Message) []Message {
	at.Begin(causal.SpanStep, n)
	if at != nil {
		for _, m := range in {
			at.Cause(m)
		}
	}
	out := step(in)
	stampBatch(at, out)
	at.End()
	return out
}

// stampBatch assigns trace IDs to an outgoing batch in place, recording
// each emission on the open span. No-op on a nil handle; messages that do
// not implement causal.Traced pass through unchanged.
func stampBatch(at *causal.AgentTracer, out []Message) {
	if at == nil {
		return
	}
	for i, m := range out {
		out[i] = at.Stamp(m, int(m.To()), TypeName(m)).(Message)
	}
}

// TypeName renders a message's concrete type as "pkg.Type" — the key used
// for per-kind delivery counts and causal emission records.
func TypeName(m Message) string {
	return typeName(reflect.TypeOf(m))
}

func typeName(t reflect.Type) string {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if pkg := t.PkgPath(); pkg != "" {
		if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
			pkg = pkg[i+1:]
		}
		return pkg + "." + t.Name()
	}
	return t.String()
}

func anyInsoluble(agents []Agent) bool {
	for _, a := range agents {
		if r, ok := a.(InsolubleReporter); ok && r.Insoluble() {
			return true
		}
	}
	return false
}

func snapshot(agents []Agent, into csp.SliceAssignment) {
	for i, a := range agents {
		into[i] = a.CurrentValue()
	}
}

func finalizeTotals(res *Result, agents []Agent) {
	var total int64
	for _, a := range agents {
		total += a.Checks()
	}
	res.TotalChecks = total
}
