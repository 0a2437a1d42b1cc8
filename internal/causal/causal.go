// Package causal implements the causal-tracing layer: every delivered
// message carries a trace ID, every agent activation is recorded as a span
// (recv → compute → sends), and every learned or stored nogood records its
// cause set — the received message being processed plus the nogood-store
// entries consulted during resolvent/mcs construction. On top of the
// resulting event stream the package builds the derivation graph and the
// three dcsptrace analyses: critical path, nogood provenance, and Chrome
// trace-event (Perfetto) export.
//
// Trace IDs are (agent, local event counter) pairs: deterministic, no
// clocks, no randomness. One per-agent counter numbers everything the agent
// does — spans, emitted messages, learn/store events — so an ID orders
// events within an agent by construction. The counter lives in the Tracer,
// not the agent, so it survives crash-restart (a restarted incarnation
// continues the dead one's numbering) and the TCP runtime's cold-reset link
// renumbering (which renumbers transport sequence numbers, never trace
// IDs). Initial constraints are numbered by their index in the problem's
// canonical nogood list under the reserved agent ConstraintAgent, giving
// every provenance DAG a well-defined terminal frontier.
//
// The layer is observationally inert when disabled: a nil *Tracer (and the
// nil *AgentTracer handles it hands out) turns every method into an
// immediate return, allocating nothing on the hot path.
package causal

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/telemetry"
)

// ConstraintAgent is the reserved agent number that owns initial-constraint
// nodes: "c:k" is the problem's k-th canonical nogood. Constraint nodes
// have no causes; every provenance chain terminates on them (or on a seed
// node, see SpanSeed).
const ConstraintAgent = -1

// ID is one trace identifier: the agent that created the event and the
// agent's local event counter at creation. The zero ID marks "untraced"
// (counters start at 1, so (0,0) is never allocated).
type ID struct {
	Agent int32
	Seq   int64
}

// IsZero reports whether the ID is the untraced sentinel.
func (id ID) IsZero() bool { return id == ID{} }

// String renders the ID in its stream form: "agent:seq", with constraint
// nodes rendered "c:seq".
func (id ID) String() string {
	if id.Agent == ConstraintAgent {
		return "c:" + strconv.FormatInt(id.Seq, 10)
	}
	return strconv.FormatInt(int64(id.Agent), 10) + ":" + strconv.FormatInt(id.Seq, 10)
}

// ParseID parses the stream form produced by String.
func ParseID(s string) (ID, error) {
	head, tail, ok := strings.Cut(s, ":")
	if !ok {
		return ID{}, fmt.Errorf("causal: malformed id %q", s)
	}
	seq, err := strconv.ParseInt(tail, 10, 64)
	if err != nil {
		return ID{}, fmt.Errorf("causal: malformed id %q: %v", s, err)
	}
	if head == "c" {
		return ID{Agent: ConstraintAgent, Seq: seq}, nil
	}
	agent, err := strconv.ParseInt(head, 10, 32)
	if err != nil {
		return ID{}, fmt.Errorf("causal: malformed id %q: %v", s, err)
	}
	return ID{Agent: int32(agent), Seq: seq}, nil
}

// Span kinds carried in telemetry.Event.SpanKind.
const (
	// SpanInit is an agent's startup activation (sim.Agent.Init).
	SpanInit = "init"
	// SpanStep is one message-driven activation (sim.Agent.Step).
	SpanStep = "step"
	// SpanLearn is a nogood derivation at a deadend; its causes are the
	// enclosing span plus the store entries consulted by the learner.
	SpanLearn = "learn"
	// SpanStore is the recording of a received nogood; its cause is the
	// carrying message.
	SpanStore = "store"
	// SpanConstraint declares one initial constraint node ("c:k"), emitted
	// once per problem nogood when tracing starts.
	SpanConstraint = "constraint"
	// SpanSeed declares a nogood of external origin (a warm-start cache
	// entry): a terminal node like a constraint, but agent-local.
	SpanSeed = "seed"
)

// Traced is implemented by message types that can carry a trace ID. The
// With method returns a copy with the ID set (messages are immutable once
// sent), typed any so algorithm packages need no runtime import.
type Traced interface {
	CausalID() ID
	WithCausalID(ID) any
}

// NogoodCarrier is implemented by messages that transport a nogood; the
// stamping path uses it to link the message to the learn event that derived
// the nogood.
type NogoodCarrier interface {
	CarriedNogoodKey() string
}

// Tracer owns one run's trace: the shared sink, the constraint numbering,
// and one AgentTracer per agent. All methods are safe on a nil Tracer
// (tracing disabled) and safe for concurrent use — the async and TCP
// runtimes call from one goroutine per agent.
type Tracer struct {
	sink  *telemetry.Run
	start time.Time

	mu          sync.Mutex
	agents      map[int]*AgentTracer
	constraints map[string]ID
}

// New builds a tracer writing span events to sink and numbers problem's
// canonical nogood list as the constraint frontier (one SpanConstraint
// event per distinct nogood, in index order — deterministic across runs).
// A nil sink returns a nil tracer: tracing disabled.
func New(sink *telemetry.Run, problem *csp.Problem) *Tracer {
	if sink == nil {
		return nil
	}
	t := &Tracer{
		sink:        sink,
		start:       time.Now(),
		agents:      make(map[int]*AgentTracer),
		constraints: make(map[string]ID),
	}
	if problem != nil {
		for i, ng := range problem.Nogoods() {
			key := ng.Key()
			if _, dup := t.constraints[key]; dup {
				continue
			}
			id := ID{Agent: ConstraintAgent, Seq: int64(i)}
			t.constraints[key] = id
			t.sink.Emit(telemetry.Event{
				Kind:      telemetry.KindSpan,
				SpanKind:  SpanConstraint,
				SpanID:    id.String(),
				Agent:     ConstraintAgent,
				NogoodKey: key,
			})
		}
	}
	return t
}

// Agent returns the tracer handle for one agent, creating it on first use.
// Repeated calls return the same handle, so a crash-restarted agent (or a
// reconnected worker incarnation) continues its predecessor's counter and
// nogood registry: cause IDs are stable across restarts by construction.
// Nil-safe: a nil Tracer returns a nil handle, and every AgentTracer method
// is a no-op on nil.
func (t *Tracer) Agent(id int) *AgentTracer {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	at, ok := t.agents[id]
	if !ok {
		at = &AgentTracer{t: t, agent: int32(id)}
		t.agents[id] = at
	}
	return at
}

// Attach returns agent id's handle (see Agent) and hands it to a when a
// records nogood lineage (has SetCausal). The runtimes call it on every
// agent they build, restarted incarnations included, so learn and store
// events continue the agent's one counter. A nil Tracer returns nil at
// once, before inspecting a.
func (t *Tracer) Attach(id int, a any) *AgentTracer {
	if t == nil {
		return nil
	}
	at := t.Agent(id)
	if lr, ok := a.(interface{ SetCausal(*AgentTracer) }); ok {
		lr.SetCausal(at)
	}
	return at
}

// sinceUS is the span clock: microseconds since the tracer was built.
// Timestamps are observational (they order and measure spans for the
// critical-path and Perfetto analyses); trace IDs never depend on them.
func (t *Tracer) sinceUS() int64 { return time.Since(t.start).Microseconds() }

// constraint resolves a nogood key against the constraint frontier.
func (t *Tracer) constraint(key string) (ID, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.constraints[key]
	return id, ok
}

// AgentTracer is one agent's tracing handle. It is owned by the single
// goroutine running the agent (runtimes guarantee at most one live
// incarnation per agent); only the emission into the shared sink and the
// constraint lookup synchronize. All methods no-op on a nil receiver.
type AgentTracer struct {
	t     *Tracer
	agent int32
	seq   int64

	// nogoods maps a nogood key to the local node that introduced it (a
	// learn, store, or seed event), for cause resolution when the learner
	// consults the store and when an outgoing message carries a nogood.
	nogoods map[string]ID

	// Open-span scratch, reset by Begin and reused across spans.
	open      bool
	spanID    ID
	kind      string
	cycle     int
	startUS   int64
	causes    []string
	emits     []string
	emitTo    []int
	emitType  []string
	emitCause []string
	inner     int

	// consulted accumulates the store entries a derivation selected,
	// between ConsultReset and Learn.
	consulted []string
}

// next allocates the agent's next event ID.
func (at *AgentTracer) next() ID {
	at.seq++
	return ID{Agent: at.agent, Seq: at.seq}
}

// Begin opens a span for one activation (kind SpanInit or SpanStep) at the
// given cycle (0 outside the synchronous runtime).
func (at *AgentTracer) Begin(kind string, cycle int) {
	if at == nil {
		return
	}
	at.open = true
	at.spanID = at.next()
	at.kind = kind
	at.cycle = cycle
	at.startUS = at.t.sinceUS()
	at.causes = at.causes[:0]
	at.emits = at.emits[:0]
	at.emitTo = at.emitTo[:0]
	at.emitType = at.emitType[:0]
	at.emitCause = at.emitCause[:0]
	at.inner = 0
	at.consulted = at.consulted[:0]
}

// Cause records one delivered message as a cause of the open span. Messages
// without a trace ID (from an untraced peer in a mixed fleet) are skipped.
func (at *AgentTracer) Cause(m any) {
	if at == nil || !at.open {
		return
	}
	if tm, ok := m.(Traced); ok {
		if id := tm.CausalID(); !id.IsZero() {
			at.causes = append(at.causes, id.String())
		}
	}
}

// Stamp assigns an outgoing message its trace ID and records the emission
// on the open span. Messages that do not implement Traced pass through
// unchanged. A message carrying a nogood additionally records the node that
// introduced the nogood as the emission's extra cause.
func (at *AgentTracer) Stamp(m any, to int, typeName string) any {
	if at == nil || !at.open {
		return m
	}
	tm, ok := m.(Traced)
	if !ok {
		return m
	}
	id := at.next()
	extra := ""
	if nc, isCarrier := m.(NogoodCarrier); isCarrier {
		if src, found := at.resolve(nc.CarriedNogoodKey()); found {
			extra = src.String()
		}
	}
	at.emits = append(at.emits, id.String())
	at.emitTo = append(at.emitTo, to)
	at.emitType = append(at.emitType, typeName)
	at.emitCause = append(at.emitCause, extra)
	return tm.WithCausalID(id)
}

// End closes the open span, emitting it when it saw any activity (causes,
// emissions, or inner learn/store events). Idle activations are dropped;
// the resulting seq gaps are deterministic and carry no information.
func (at *AgentTracer) End() {
	if at == nil || !at.open {
		return
	}
	at.open = false
	if len(at.causes) == 0 && len(at.emits) == 0 && at.inner == 0 {
		return
	}
	at.t.sink.Emit(telemetry.Event{
		Kind:      telemetry.KindSpan,
		SpanKind:  at.kind,
		SpanID:    at.spanID.String(),
		Agent:     int(at.agent),
		Cycle:     at.cycle,
		StartUS:   at.startUS,
		EndUS:     at.t.sinceUS(),
		Causes:    at.causes,
		Emits:     at.emits,
		EmitTo:    at.emitTo,
		EmitType:  at.emitType,
		EmitCause: at.emitCause,
	})
}

// Consult records one store entry selected during nogood derivation; the
// next Learn lists it as a cause. Entries of unknown origin (warm-start
// seeds recorded before tracing attached) are registered as seed nodes so
// no cause ever dangles.
func (at *AgentTracer) Consult(ng csp.Nogood) {
	if at == nil || !at.open {
		return
	}
	id, ok := at.resolve(ng.Key())
	if !ok {
		id = at.seed(ng.Key())
	}
	at.consulted = append(at.consulted, id.String())
}

// Learn records a derived nogood: a learn event whose causes are the
// enclosing span plus every consulted entry since Begin. The learned
// nogood's key is registered so later consultations and carrying messages
// resolve to this event. An empty key marks the empty nogood — the
// insolubility proof, the provenance DAG's root on insoluble instances.
func (at *AgentTracer) Learn(ng csp.Nogood) {
	if at == nil || !at.open {
		return
	}
	id := at.next()
	causes := make([]string, 0, len(at.consulted)+1)
	causes = append(causes, at.spanID.String())
	causes = append(causes, at.consulted...)
	at.consulted = at.consulted[:0]
	key := ng.Key()
	at.register(key, id)
	at.inner++
	at.t.sink.Emit(telemetry.Event{
		Kind:      telemetry.KindSpan,
		SpanKind:  SpanLearn,
		SpanID:    id.String(),
		Agent:     int(at.agent),
		Cycle:     at.cycle,
		Causes:    causes,
		NogoodKey: key,
	})
}

// Store records the recording of a received nogood, caused by the carrying
// message (zero when the sender was untraced).
func (at *AgentTracer) Store(ng csp.Nogood, cause ID) {
	if at == nil || !at.open {
		return
	}
	id := at.next()
	var causes []string
	if !cause.IsZero() {
		causes = []string{cause.String()}
	}
	key := ng.Key()
	at.register(key, id)
	at.inner++
	at.t.sink.Emit(telemetry.Event{
		Kind:      telemetry.KindSpan,
		SpanKind:  SpanStore,
		SpanID:    id.String(),
		Agent:     int(at.agent),
		Cycle:     at.cycle,
		Causes:    causes,
		NogoodKey: key,
	})
}

// seed registers a nogood of unknown origin as a terminal seed node.
func (at *AgentTracer) seed(key string) ID {
	id := at.next()
	at.register(key, id)
	at.t.sink.Emit(telemetry.Event{
		Kind:      telemetry.KindSpan,
		SpanKind:  SpanSeed,
		SpanID:    id.String(),
		Agent:     int(at.agent),
		NogoodKey: key,
	})
	return id
}

// resolve maps a nogood key to its introducing node: agent-local events
// first (learn/store/seed), then the global constraint frontier.
func (at *AgentTracer) resolve(key string) (ID, bool) {
	if id, ok := at.nogoods[key]; ok {
		return id, true
	}
	return at.t.constraint(key)
}

func (at *AgentTracer) register(key string, id ID) {
	if at.nogoods == nil {
		at.nogoods = make(map[string]ID)
	}
	if _, exists := at.nogoods[key]; !exists {
		at.nogoods[key] = id
	}
}
