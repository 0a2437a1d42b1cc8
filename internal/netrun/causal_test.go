// Tests for causal tracing over the TCP runtime's failure paths: the trace
// must stay well-formed — unique IDs, no dangling causes — across a node
// crash-restart (the restarted incarnation continues its predecessor's
// numbering) and across a cold worker reconnection (the resume handshake
// renumbers transport sequence numbers, never trace IDs).
package netrun

import (
	"bytes"
	"testing"
	"time"

	"github.com/discsp/discsp/internal/causal"
	"github.com/discsp/discsp/internal/core"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/gen"
	"github.com/discsp/discsp/internal/telemetry"
)

// causalRun builds a tracer over a fresh stream, plus a closer that
// finalizes the stream and decodes it. The runtime hands each agent its
// lineage handle itself.
func causalRun(t *testing.T, p *csp.Problem) (*causal.Tracer, func() []telemetry.Event) {
	t.Helper()
	var buf bytes.Buffer
	run := telemetry.NewRun(telemetry.NewRegistry(), &buf)
	run.Emit(telemetry.Event{Kind: telemetry.KindMeta, Runtime: "tcp"})
	tracer := causal.New(run, p)
	done := func() []telemetry.Event {
		run.Emit(telemetry.Event{Kind: telemetry.KindEnd})
		if err := run.Flush(); err != nil {
			t.Fatal(err)
		}
		events, err := telemetry.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return events
	}
	return tracer, done
}

// checkTrace builds the graph and pins the well-formedness invariants:
// BuildGraph itself rejects duplicate trace IDs, and no cause may dangle.
func checkTrace(t *testing.T, events []telemetry.Event) *causal.Graph {
	t.Helper()
	g, err := causal.BuildGraph(events)
	if err != nil {
		t.Fatalf("trace graph malformed: %v", err)
	}
	if dang := g.Dangling(); len(dang) > 0 {
		t.Fatalf("%d dangling cause IDs (first %s)", len(dang), dang[0])
	}
	return g
}

// TestCausalSurvivesCrashRestart crash-restarts a traced node and requires
// the final trace to be a single well-formed run. On the mustRejoin
// instance the restart is certain: agent 1's only step picks the solving
// value and dies before reporting it. That step's span, and the trace ID
// it stamped on its ok?, outlive the crash: the restarted incarnation
// reuses its predecessor's AgentTracer and retransmits the ok? from the
// checkpointed unacked window, so no trace ID is reissued and a consumer's
// cause still resolves.
func TestCausalSurvivesCrashRestart(t *testing.T) {
	p, init, fcfg := mustRejoin(t)
	tracer, done := causalRun(t, p)

	res, err := Run(p, awcMaker(p, init), Options{
		Timeout: 30 * time.Second,
		Causal:  tracer,
		Faults:  fcfg,
	})
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Solved || res.Restarts != 1 {
		t.Fatalf("want solved with 1 restart: %+v", res)
	}

	g := checkTrace(t, done())
	// The crashed incarnation's init and step spans are both in the trace,
	// and the step emitted the new value to agent 0.
	spans1, emitted := 0, 0
	for _, id := range g.Order {
		n := g.Nodes[id]
		switch {
		case n.Agent == 1 && (n.Kind == causal.SpanInit || n.Kind == causal.SpanStep):
			spans1++
		case n.Agent == 1 && n.Kind == causal.KindMessage && n.To == 0 &&
			g.Nodes[n.Causes[0]].Kind == causal.SpanStep:
			emitted++
		}
	}
	if spans1 < 2 {
		t.Errorf("crashed agent contributed %d spans, want >= 2 (init and the crashed step)", spans1)
	}
	if emitted == 0 {
		t.Error("the crashed step emitted no traced message to agent 0")
	}
}

// TestCausalSurvivesColdReconnect severs every worker connection mid-solve.
// The worker redials, the resume handshake renumbers the link's transport
// sequence, and the replayed frames must still carry their original trace
// IDs: the post-reconnect trace builds cleanly with no duplicate and no
// dangling IDs. The hub holds no tracer: it relays the worker's IDs as
// it relays any frame.
func TestCausalSurvivesColdReconnect(t *testing.T) {
	inst, err := gen.Coloring(15, 35, 3, 77)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 78)
	tracer, done := causalRun(t, inst.Problem)

	addrsCh := make(chan []string, 1)
	type hubOut struct {
		res Result
		err error
	}
	hubCh := make(chan hubOut, 1)
	go func() {
		res, err := Run(inst.Problem, awcMaker(inst.Problem, init), Options{
			Timeout:        30 * time.Second,
			External:       true,
			ReconnectGrace: 10 * time.Second,
			OnListen:       func(addrs []string) { addrsCh <- addrs },
		})
		hubCh <- hubOut{res, err}
	}()
	addrs := <-addrsCh
	px := newTestProxy(t, addrs[0])
	px.at(4<<10, px.severAll)

	statsCh := make(chan WorkerStats, 1)
	workerErr := make(chan error, 1)
	go func() {
		st, err := RunWorker(inst.Problem, awcMaker(inst.Problem, init), WorkerOptions{
			Addrs:          []string{px.addr()},
			Vars:           allVars(inst.Problem.NumVars()),
			ConnectTimeout: 10 * time.Second,
			Causal:         tracer,
		})
		statsCh <- st
		workerErr <- err
	}()

	out := <-hubCh
	if out.err != nil {
		t.Fatalf("run: %v (res=%+v)", out.err, out.res)
	}
	if !out.res.Solved || !inst.Problem.IsSolution(out.res.Assignment) {
		t.Fatalf("not solved across severed connections: %+v", out.res)
	}
	if werr := <-workerErr; werr != nil {
		t.Fatalf("worker: %v", werr)
	}
	if st := <-statsCh; st.Reconnects == 0 {
		t.Fatalf("worker counted no reconnects; the sever did not bite: %+v", st)
	}

	// All agents live in the one worker, so its stream is the whole trace:
	// every message consumed was also emitted there, and the reconnection
	// must not have torn that closure.
	g := checkTrace(t, done())
	msgs := 0
	for _, id := range g.Order {
		if g.Nodes[id].Kind == causal.KindMessage {
			msgs++
		}
	}
	if msgs == 0 {
		t.Error("trace recorded no messages across the reconnection")
	}
}

// core.Agent must satisfy the SetCausal attachment interface the runtimes
// probe for; a silent signature drift would disable lineage tracing.
var _ interface{ SetCausal(*causal.AgentTracer) } = (*core.Agent)(nil)
