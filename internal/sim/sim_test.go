package sim

import (
	"reflect"
	"slices"
	"testing"

	"github.com/discsp/discsp/internal/csp"
)

// testMsg is a minimal message for simulator tests.
type testMsg struct {
	from, to AgentID
	payload  csp.Value
}

func (m testMsg) From() AgentID { return m.from }
func (m testMsg) To() AgentID   { return m.to }

// scriptAgent adopts any payload it receives as its value and relays
// payloads per a script: on cycle c it sends script[c] (if present). It
// charges `charge` checks per Step call.
type scriptAgent struct {
	id        AgentID
	value     csp.Value
	charge    int64
	checks    int64
	sendInit  []Message
	onStep    func(cycle int, in []Message) []Message
	stepCount int
	received  [][]Message
	insoluble bool
}

func (a *scriptAgent) ID() AgentID { return a.id }
func (a *scriptAgent) Init() []Message {
	return a.sendInit
}
func (a *scriptAgent) Step(in []Message) []Message {
	a.stepCount++
	a.checks += a.charge
	cp := make([]Message, len(in))
	copy(cp, in)
	a.received = append(a.received, cp)
	for _, m := range in {
		if tm, ok := m.(testMsg); ok {
			a.value = tm.payload
		}
	}
	if a.onStep != nil {
		return a.onStep(a.stepCount, in)
	}
	return nil
}
func (a *scriptAgent) CurrentValue() csp.Value { return a.value }
func (a *scriptAgent) Checks() int64           { return a.checks }
func (a *scriptAgent) Insoluble() bool         { return a.insoluble }

// pairProblem: two Boolean variables that must be equal.
func pairProblem(t *testing.T) *csp.Problem {
	t.Helper()
	p := csp.NewProblemUniform(2, 2)
	if err := p.AddNogood(csp.MustNogood(csp.Lit{Var: 0, Val: 0}, csp.Lit{Var: 1, Val: 1})); err != nil {
		t.Fatal(err)
	}
	if err := p.AddNogood(csp.MustNogood(csp.Lit{Var: 0, Val: 1}, csp.Lit{Var: 1, Val: 0})); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunAgentValidation(t *testing.T) {
	p := pairProblem(t)
	if _, err := Run(p, []Agent{&scriptAgent{id: 0}}, Options{}); err == nil {
		t.Error("Run accepted wrong agent count")
	}
	if _, err := Run(p, []Agent{&scriptAgent{id: 0}, &scriptAgent{id: 7}}, Options{}); err == nil {
		t.Error("Run accepted misnumbered agent")
	}
}

func TestRunImmediateSolution(t *testing.T) {
	p := pairProblem(t)
	agents := []Agent{
		&scriptAgent{id: 0, value: 1},
		&scriptAgent{id: 1, value: 1},
	}
	res, err := Run(p, agents, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Solved || res.Cycles != 0 {
		t.Errorf("Solved=%v Cycles=%d, want solved at startup", res.Solved, res.Cycles)
	}
}

func TestRunConvergence(t *testing.T) {
	p := pairProblem(t)
	// Agent 0 tells agent 1 its value at init; agent 1 adopts it on cycle 1.
	agents := []Agent{
		&scriptAgent{id: 0, value: 1, sendInit: []Message{testMsg{from: 0, to: 1, payload: 1}}},
		&scriptAgent{id: 1, value: 0},
	}
	res, err := Run(p, agents, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Solved || res.Cycles != 1 {
		t.Errorf("Solved=%v Cycles=%d, want solved at cycle 1", res.Solved, res.Cycles)
	}
	if res.Messages != 1 {
		t.Errorf("Messages = %d, want 1", res.Messages)
	}
	if v, _ := res.Assignment.Lookup(1); v != 1 {
		t.Errorf("final assignment x1 = %d, want 1", v)
	}
}

func TestRunCutoff(t *testing.T) {
	p := pairProblem(t)
	// Two agents ping-pong forever without ever agreeing: each Step
	// forwards a message and flips nothing.
	mk := func(id, peer AgentID, v csp.Value) *scriptAgent {
		a := &scriptAgent{id: id, value: v}
		a.sendInit = []Message{testMsg{from: id, to: peer, payload: v}}
		a.onStep = func(int, []Message) []Message {
			a.value = v // refuse to adopt
			return []Message{testMsg{from: id, to: peer, payload: v}}
		}
		return a
	}
	agents := []Agent{mk(0, 1, 0), mk(1, 0, 1)}
	res, err := Run(p, agents, Options{MaxCycles: 50})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Solved {
		t.Errorf("Solved = true, want cutoff")
	}
	if res.Cycles != 50 {
		t.Errorf("Cycles = %d, want 50 (cutoff)", res.Cycles)
	}
}

func TestRunQuiescenceStops(t *testing.T) {
	p := pairProblem(t)
	// Conflicting values, nobody ever sends anything: the run must stop at
	// the first empty-inbox cycle, not spin to the cutoff.
	agents := []Agent{
		&scriptAgent{id: 0, value: 0},
		&scriptAgent{id: 1, value: 1},
	}
	res, err := Run(p, agents, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Solved {
		t.Errorf("Solved = true for violated quiescent state")
	}
	if res.Cycles > 1 {
		t.Errorf("Cycles = %d, want quiescence stop at 1", res.Cycles)
	}
}

func TestRunInsolubleStops(t *testing.T) {
	p := pairProblem(t)
	a0 := &scriptAgent{id: 0, value: 0, sendInit: []Message{testMsg{from: 0, to: 1, payload: 0}}}
	a1 := &scriptAgent{id: 1, value: 1}
	// Agent 1 claims insolubility on its first step but keeps traffic
	// flowing so only the insolubility check can stop the run.
	a1.onStep = func(int, []Message) []Message {
		a1.insoluble = true
		a1.value = 1
		return []Message{testMsg{from: 1, to: 0, payload: 1}}
	}
	a0.onStep = func(int, []Message) []Message {
		a0.value = 0
		return []Message{testMsg{from: 0, to: 1, payload: 0}}
	}
	res, err := Run(p, []Agent{a0, a1}, Options{MaxCycles: 100})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Insoluble {
		t.Errorf("Insoluble = false")
	}
	if res.Cycles != 1 {
		t.Errorf("Cycles = %d, want 1", res.Cycles)
	}
}

func TestMaxCCKIsPerCycleMaximum(t *testing.T) {
	p := pairProblem(t)
	// Keep both agents active for exactly 3 cycles; charges 10 and 4 per
	// step. maxcck should add max(10,4)=10 per active cycle, not 14.
	var cycles = 3
	mk := func(id, peer AgentID, charge int64) *scriptAgent {
		a := &scriptAgent{id: id, charge: charge}
		a.sendInit = []Message{testMsg{from: id, to: peer, payload: 0}}
		a.onStep = func(step int, _ []Message) []Message {
			a.value = 1 // never solves: pairProblem needs equality... both become 1
			if step < cycles {
				return []Message{testMsg{from: id, to: peer, payload: 0}}
			}
			return nil
		}
		return a
	}
	// Values: both agents set value 1 → that's actually a solution for the
	// equality problem, stopping at cycle 1. Use conflicting fixed values.
	a0 := mk(0, 1, 10)
	a1 := mk(1, 0, 4)
	a0.value = 0
	a1.value = 1
	a0.onStep = func(step int, _ []Message) []Message {
		a0.value = 0
		if step < cycles {
			return []Message{testMsg{from: 0, to: 1, payload: 0}}
		}
		return nil
	}
	a1.onStep = func(step int, _ []Message) []Message {
		a1.value = 1
		if step < cycles {
			return []Message{testMsg{from: 1, to: 0, payload: 0}}
		}
		return nil
	}
	res, err := Run(p, []Agent{a0, a1}, Options{MaxCycles: 10})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Solved {
		t.Fatalf("unexpectedly solved")
	}
	// 3 active cycles × max(10, 4); startup charges nothing (Init runs no
	// Step).
	if res.MaxCCK != 30 {
		t.Errorf("MaxCCK = %d, want 30", res.MaxCCK)
	}
	if res.TotalChecks != 3*10+3*4 {
		t.Errorf("TotalChecks = %d, want 42", res.TotalChecks)
	}
}

func TestTraceCallback(t *testing.T) {
	p := pairProblem(t)
	agents := []Agent{
		&scriptAgent{id: 0, value: 1, sendInit: []Message{testMsg{from: 0, to: 1, payload: 1}}},
		&scriptAgent{id: 1, value: 0},
	}
	var events []CycleEvent
	_, err := Run(p, agents, Options{Trace: func(ev CycleEvent) { events = append(events, ev) }})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(events) != 1 {
		t.Fatalf("got %d trace events, want 1", len(events))
	}
	if events[0].Cycle != 1 || events[0].MessagesIn != 1 || !events[0].SolutionFound {
		t.Errorf("event = %+v", events[0])
	}
}

func TestSortBatchOrdersBySender(t *testing.T) {
	batch := []Message{
		testMsg{from: 2, to: 0, payload: 1},
		testMsg{from: 0, to: 0, payload: 2},
		testMsg{from: 2, to: 0, payload: 3},
		testMsg{from: 1, to: 0, payload: 4},
	}
	sorted := sortBatch(batch)
	wantFrom := []AgentID{0, 1, 2, 2}
	wantPayload := []csp.Value{2, 4, 1, 3} // per-sender order preserved
	for i, m := range sorted {
		tm := m.(testMsg)
		if tm.from != wantFrom[i] || tm.payload != wantPayload[i] {
			t.Fatalf("sorted[%d] = %+v", i, tm)
		}
	}
}

// kindMsg is a distinct message type for each type argument.
type kindMsg[K any] struct{ from, to AgentID }

func (m kindMsg[K]) From() AgentID { return m.from }
func (m kindMsg[K]) To() AgentID   { return m.to }

// echoAgent returns the same pre-boxed outbox at startup and on every step,
// so a run allocates only what the simulator itself does.
type echoAgent struct {
	id    AgentID
	value csp.Value
	out   []Message
}

func (a *echoAgent) ID() AgentID              { return a.id }
func (a *echoAgent) Init() []Message          { return a.out }
func (a *echoAgent) Step([]Message) []Message { return a.out }
func (a *echoAgent) CurrentValue() csp.Value  { return a.value }
func (a *echoAgent) Checks() int64            { return 0 }

// TestRunAllocsIndependentOfCycles pins the cycle loop at zero allocations
// per cycle: a run allocates the same count at 10 cycles as at 1000.
func TestRunAllocsIndependentOfCycles(t *testing.T) {
	p := pairProblem(t)
	// The values conflict and never change, and every step sends, so each
	// run goes to its cutoff.
	outbox := func(from, to AgentID) []Message {
		return []Message{testMsg{from: from, to: to}, &testMsg{from: from, to: to}, testMsg{from: from, to: to}}
	}
	agents := []Agent{
		&echoAgent{id: 0, value: 0, out: outbox(0, 1)},
		&echoAgent{id: 1, value: 1, out: outbox(1, 0)},
	}
	allocs := func(maxCycles int) float64 {
		return testing.AllocsPerRun(5, func() {
			res, err := Run(p, agents, Options{MaxCycles: maxCycles})
			if err != nil || res.Cycles != maxCycles {
				t.Fatalf("Run = %+v, %v; want %d cycles", res, err, maxCycles)
			}
		})
	}
	if short, long := allocs(10), allocs(1000); short != long {
		t.Errorf("Run allocated %v times at 10 cycles and %v at 1000, want equal", short, long)
	}
}

func TestMessagesByType(t *testing.T) {
	p := pairProblem(t)
	agents := []Agent{
		&scriptAgent{id: 0, value: 1, sendInit: []Message{testMsg{from: 0, to: 1, payload: 1}}},
		&scriptAgent{id: 1, value: 0},
	}
	res, err := Run(p, agents, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := res.MessagesByType["sim.testMsg"]; got != 1 {
		t.Errorf("MessagesByType = %v, want sim.testMsg:1", res.MessagesByType)
	}

	// Multi-cycle: the batches agent 1 receives shrink and grow (3, 1, 0,
	// 2 messages) across reused inbox buffers, mixing testMsg and
	// *testMsg. Agent 1 replies on its first three steps, so the empty
	// wave does not end the run by quiescence, and pins value 0 against
	// agent 0's 1, so the run never solves.
	msg := func(from, to AgentID, payload csp.Value) testMsg {
		return testMsg{from: from, to: to, payload: payload}
	}
	waves := [][]Message{ // wave w is sent at startup (w=0) or on step w
		{msg(0, 1, 1), &testMsg{from: 0, to: 1, payload: 1}, msg(0, 1, 1)},
		{msg(0, 1, 1)},
		nil,
		{&testMsg{from: 0, to: 1, payload: 1}, msg(0, 1, 1)},
	}
	a0 := &scriptAgent{id: 0, value: 1, sendInit: waves[0]}
	a0.onStep = func(step int, _ []Message) []Message {
		a0.value = 1
		if step < len(waves) {
			return waves[step]
		}
		return nil
	}
	a1 := &scriptAgent{id: 1}
	a1.onStep = func(step int, _ []Message) []Message {
		a1.value = 0
		if step < len(waves) {
			return []Message{msg(1, 0, csp.Value(step))}
		}
		return nil
	}
	res, err = Run(p, []Agent{a0, a1}, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(a1.received) != len(waves) {
		t.Fatalf("agent 1 stepped %d times, want %d", len(a1.received), len(waves))
	}
	for c, got := range a1.received {
		if !slices.Equal(got, waves[c]) {
			t.Errorf("cycle %d: agent 1 received %v, want %v", c+1, got, waves[c])
		}
	}
	// 6 messages to agent 1 (2 of them *testMsg) and its 3 replies.
	want := map[string]int{"sim.testMsg": 9}
	if !reflect.DeepEqual(res.MessagesByType, want) || res.Messages != 9 {
		t.Errorf("MessagesByType = %v, Messages = %d, want %v", res.MessagesByType, res.Messages, want)
	}

	// More distinct types than the tally holds inline.
	many := []Message{
		kindMsg[int8]{0, 1}, kindMsg[int16]{0, 1}, kindMsg[int32]{0, 1}, kindMsg[int64]{0, 1},
		kindMsg[uint8]{0, 1}, kindMsg[uint16]{0, 1}, kindMsg[uint32]{0, 1}, kindMsg[uint64]{0, 1},
		kindMsg[float32]{0, 1}, kindMsg[float64]{0, 1}, kindMsg[float64]{0, 1},
	}
	want = map[string]int{}
	for _, m := range many {
		want[TypeName(m)]++
	}
	res, err = Run(p, []Agent{&scriptAgent{id: 0, value: 1, sendInit: many}, &scriptAgent{id: 1}}, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(want) != 10 || !reflect.DeepEqual(res.MessagesByType, want) {
		t.Errorf("MessagesByType = %v, want %v", res.MessagesByType, want)
	}
}
