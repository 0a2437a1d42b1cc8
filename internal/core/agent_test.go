package core

import (
	"math/rand"
	"testing"

	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/sim"
)

// starProblem: variable `center` (id 2) with higher neighbor 0 and lower
// neighbors 3, 4, all pairwise not-equal with the center over domain
// {0,1,2}. All priorities start 0, so rank order is by id: 0 outranks 2
// outranks 3 and 4.
func starProblem(t *testing.T) *csp.Problem {
	t.Helper()
	p := csp.NewProblemUniform(5, 3)
	for _, nb := range []csp.Var{0, 3, 4} {
		if err := p.AddNotEqual(2, nb); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestAgentConsistentDoesNothing(t *testing.T) {
	p := starProblem(t)
	a := NewAgent(2, p, 1, Learning{Kind: LearnResolvent})
	// Higher neighbor 0 takes value 0: current value 1 is consistent with
	// the only higher nogoods (those with x0). Lower neighbors conflict,
	// but that is their problem.
	out := a.Step([]sim.Message{
		Ok{Sender: 0, Receiver: 2, Value: 0, Priority: 0},
		Ok{Sender: 3, Receiver: 2, Value: 1, Priority: 0},
		Ok{Sender: 4, Receiver: 2, Value: 1, Priority: 0},
	})
	if len(out) != 0 {
		t.Errorf("consistent agent sent %d messages: %v", len(out), out)
	}
	if a.CurrentValue() != 1 {
		t.Errorf("value changed to %d", a.CurrentValue())
	}
}

func TestAgentRepairsMinimizingLowerViolations(t *testing.T) {
	p := starProblem(t)
	a := NewAgent(2, p, 0, Learning{Kind: LearnResolvent})
	// Higher neighbor takes the agent's current value 0 → must move.
	// Lower neighbors both hold 1, so candidate 1 violates two lower
	// nogoods while candidate 2 violates none.
	out := a.Step([]sim.Message{
		Ok{Sender: 0, Receiver: 2, Value: 0, Priority: 0},
		Ok{Sender: 3, Receiver: 2, Value: 1, Priority: 0},
		Ok{Sender: 4, Receiver: 2, Value: 1, Priority: 0},
	})
	if a.CurrentValue() != 2 {
		t.Fatalf("value = %d, want 2 (minimum lower violations)", a.CurrentValue())
	}
	if a.Priority() != 0 {
		t.Errorf("repair must not raise priority, got %d", a.Priority())
	}
	// The move is announced to all three neighbors.
	okCount := 0
	for _, m := range out {
		if _, isOk := m.(Ok); isOk {
			okCount++
		}
	}
	if okCount != 3 {
		t.Errorf("ok messages = %d, want 3", okCount)
	}
}

func TestAgentDuplicateNogoodSuppressed(t *testing.T) {
	// Two higher neighbors 0 and 1 pin all... domain {0,1} with both
	// values prohibited: deadend. Repeating the identical deadend must be
	// silent the second time.
	p := csp.NewProblemUniform(3, 2)
	if err := p.AddNotEqual(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.AddNotEqual(1, 2); err != nil {
		t.Fatal(err)
	}
	a := NewAgent(2, p, 0, Learning{Kind: LearnResolvent})
	out1 := a.Step([]sim.Message{
		Ok{Sender: 0, Receiver: 2, Value: 0, Priority: 5},
		Ok{Sender: 1, Receiver: 2, Value: 1, Priority: 5},
	})
	if len(out1) == 0 {
		t.Fatalf("first deadend produced no messages")
	}
	if a.Stats().NogoodsGenerated != 1 {
		t.Fatalf("generated = %d, want 1", a.Stats().NogoodsGenerated)
	}
	// Same values at priorities above the agent's raised one: the deadend
	// recurs and derives the identical nogood, so the agent must do
	// nothing (Section 2.2's completeness guard).
	out2 := a.Step([]sim.Message{
		Ok{Sender: 0, Receiver: 2, Value: 0, Priority: 10},
		Ok{Sender: 1, Receiver: 2, Value: 1, Priority: 10},
	})
	if len(out2) != 0 {
		t.Errorf("duplicate deadend produced %d messages: %v", len(out2), out2)
	}
	// The derivation itself is counted (Table 4 counts generations even
	// when suppression swallows the result) and flagged redundant.
	if a.Stats().NogoodsGenerated != 2 {
		t.Errorf("generated = %d after duplicate, want 2", a.Stats().NogoodsGenerated)
	}
	if a.Stats().RedundantGenerations != 1 {
		t.Errorf("redundant = %d, want 1", a.Stats().RedundantGenerations)
	}
	if a.Stats().Deadends != 2 {
		t.Errorf("deadends = %d, want 2", a.Stats().Deadends)
	}
}

// TestAgentInsolubleOnWipedDomain: unary constraints forbidding every value
// prove insolubility at Init, and the agent then announces nothing — not
// even to a neighbour — since no value survives to announce.
func TestAgentInsolubleOnWipedDomain(t *testing.T) {
	for _, neighbour := range []bool{false, true} {
		p := csp.NewProblemUniform(2, 2)
		for val := csp.Value(0); val < 2; val++ {
			if err := p.AddNogood(csp.MustNogood(csp.Lit{Var: 0, Val: val})); err != nil {
				t.Fatal(err)
			}
		}
		if neighbour {
			if err := p.AddNotEqual(0, 1); err != nil {
				t.Fatal(err)
			}
		}
		a := NewAgent(0, p, 0, Learning{Kind: LearnResolvent})
		out := a.Init()
		if !a.Insoluble() {
			t.Fatalf("neighbour=%v: agent with wiped domain not insoluble", neighbour)
		}
		if len(out) != 0 {
			t.Errorf("neighbour=%v: insoluble agent sent %v from Init", neighbour, out)
		}
		// Further steps stay silent.
		if got := a.Step([]sim.Message{Ok{Sender: 1, Receiver: 0}}); len(got) != 0 {
			t.Errorf("neighbour=%v: insoluble agent stepped: %v", neighbour, got)
		}
	}
}

func TestAgentAnswersRequest(t *testing.T) {
	p := starProblem(t)
	a := NewAgent(2, p, 1, Learning{Kind: LearnResolvent})
	out := a.Step([]sim.Message{Request{Sender: 1, Receiver: 2}})
	if len(out) != 1 {
		t.Fatalf("out = %v, want one ok? reply", out)
	}
	reply, ok := out[0].(Ok)
	if !ok || reply.Receiver != 1 || reply.Value != 1 {
		t.Fatalf("reply = %+v", out[0])
	}
	// The requester is now a standing link: a later value change reaches
	// it too.
	out = a.Step([]sim.Message{
		Ok{Sender: 0, Receiver: 2, Value: 1, Priority: 3},
	})
	sawLink := false
	for _, m := range out {
		if okMsg, isOk := m.(Ok); isOk && okMsg.Receiver == 1 {
			sawLink = true
		}
	}
	if !sawLink {
		t.Errorf("value change not announced to requester: %v", out)
	}
}

func TestAgentRequestsUnknownNogoodVariable(t *testing.T) {
	p := starProblem(t)
	a := NewAgent(2, p, 1, Learning{Kind: LearnResolvent})
	// A nogood mentioning variable 1, which agent 2 has no link to.
	ng := csp.MustNogood(csp.Lit{Var: 1, Val: 0}, csp.Lit{Var: 2, Val: 1})
	out := a.Step([]sim.Message{NogoodMsg{Sender: 0, Receiver: 2, Nogood: ng}})
	sawRequest := false
	for _, m := range out {
		if req, isReq := m.(Request); isReq && req.Receiver == 1 {
			sawRequest = true
		}
	}
	if !sawRequest {
		t.Errorf("no Request sent for unknown variable: %v", out)
	}
	// The value asserted by the nogood was adopted, and the nogood
	// recorded, so the current value 1 became inconsistent: with x1=0
	// ranked above x2, nogood {(1,0),(2,1)} is higher and violated → the
	// agent must have moved off value 1.
	if a.CurrentValue() == 1 {
		t.Errorf("agent kept value 1 despite adopted nogood")
	}
	if a.StoreSize() != len(p.NogoodsOf(2))+1 {
		t.Errorf("store size = %d, want %d", a.StoreSize(), len(p.NogoodsOf(2))+1)
	}
}

func TestAgentSizeBoundedRecording(t *testing.T) {
	p := starProblem(t)
	base := len(p.NogoodsOf(2))
	a := NewAgent(2, p, 1, Learning{Kind: LearnResolvent, SizeBound: 2})
	// Distinct from the initial not-equal nogoods, which pair equal values.
	small := csp.MustNogood(csp.Lit{Var: 0, Val: 1}, csp.Lit{Var: 2, Val: 2})
	big := csp.MustNogood(
		csp.Lit{Var: 0, Val: 1}, csp.Lit{Var: 1, Val: 1}, csp.Lit{Var: 2, Val: 1},
	)
	a.Step([]sim.Message{NogoodMsg{Sender: 0, Receiver: 2, Nogood: big}})
	if a.StoreSize() != base {
		t.Errorf("size-3 nogood recorded under SizeBound=2")
	}
	a.Step([]sim.Message{NogoodMsg{Sender: 0, Receiver: 2, Nogood: small}})
	if a.StoreSize() != base+1 {
		t.Errorf("size-2 nogood not recorded under SizeBound=2")
	}
}

func TestAgentNoRecord(t *testing.T) {
	p := starProblem(t)
	base := len(p.NogoodsOf(2))
	a := NewAgent(2, p, 1, Learning{Kind: LearnResolvent, NoRecord: true})
	ng := csp.MustNogood(csp.Lit{Var: 0, Val: 0}, csp.Lit{Var: 2, Val: 0})
	a.Step([]sim.Message{NogoodMsg{Sender: 0, Receiver: 2, Nogood: ng}})
	if a.StoreSize() != base {
		t.Errorf("norec agent recorded a received nogood")
	}
}

func TestAgentRedundantGenerationCounting(t *testing.T) {
	// Three deadends with nogoods α, β, α: the third regenerates a nogood
	// the agent already produced (the duplicate guard only suppresses
	// consecutive repeats), so it must count as redundant — the Table 4
	// measure.
	p := csp.NewProblemUniform(3, 2)
	if err := p.AddNotEqual(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.AddNotEqual(1, 2); err != nil {
		t.Fatal(err)
	}
	a := NewAgent(2, p, 0, Learning{Kind: LearnResolvent, NoRecord: true})
	squeeze := func(v0, v1 csp.Value, prio int) []sim.Message {
		return []sim.Message{
			Ok{Sender: 0, Receiver: 2, Value: v0, Priority: prio},
			Ok{Sender: 1, Receiver: 2, Value: v1, Priority: prio},
		}
	}
	a.Step(squeeze(0, 1, 100)) // α = {(0,0),(1,1)}
	a.Step(squeeze(1, 0, 200)) // β = {(0,1),(1,0)}
	a.Step(squeeze(0, 1, 300)) // α again → redundant
	st := a.Stats()
	if st.NogoodsGenerated != 3 {
		t.Fatalf("generated = %d, want 3", st.NogoodsGenerated)
	}
	if st.RedundantGenerations != 1 {
		t.Errorf("redundant = %d, want 1", st.RedundantGenerations)
	}
}

// TestResolventProperties: on randomized deadends, the derived resolvent
// (a) never mentions the learner's variable, (b) is violated under the
// agent's view, and (c) the mcs result is a subset of the view that is
// still a conflict set.
func TestResolventProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		numVars := 4 + rng.Intn(4)
		domSize := 2 + rng.Intn(2)
		own := csp.Var(numVars - 1)
		p := csp.NewProblemUniform(numVars, domSize)
		for v := csp.Var(0); v < own; v++ {
			if err := p.AddNotEqual(v, own); err != nil {
				t.Fatal(err)
			}
		}
		kind := LearnResolvent
		if trial%2 == 1 {
			kind = LearnMCS
		}
		a := NewAgent(own, p, 0, Learning{Kind: kind})
		// Random higher view covering every domain value at least once so
		// a deadend is guaranteed.
		in := make([]sim.Message, 0, int(own))
		view := csp.NewMapAssignment()
		for v := csp.Var(0); v < own; v++ {
			val := csp.Value(int(v) % domSize)
			if int(v) >= domSize {
				val = csp.Value(rng.Intn(domSize))
			}
			view[v] = val
			in = append(in, Ok{
				Sender:   sim.AgentID(v),
				Receiver: sim.AgentID(own),
				Value:    val,
				Priority: 1 + rng.Intn(5),
			})
		}
		out := a.Step(in)
		var learned *csp.Nogood
		for _, m := range out {
			if nm, ok := m.(NogoodMsg); ok {
				ng := nm.Nogood
				learned = &ng
				break
			}
		}
		if learned == nil {
			t.Fatalf("trial %d: deadend produced no nogood (out=%v)", trial, out)
		}
		if learned.Contains(own) {
			t.Fatalf("trial %d: resolvent %v mentions own variable", trial, learned)
		}
		if !learned.Violated(view) {
			t.Fatalf("trial %d: resolvent %v not violated under view %v", trial, learned, view)
		}
	}
}

func TestAgentSubsumptionPruning(t *testing.T) {
	p := starProblem(t)
	base := len(p.NogoodsOf(2))
	a := NewAgent(2, p, 1, Learning{Kind: LearnResolvent, SubsumptionPruning: true})
	// Mixed-value literals, so no initial not-equal nogood (which pairs
	// equal values) subsumes either of these.
	big := csp.MustNogood(
		csp.Lit{Var: 0, Val: 0}, csp.Lit{Var: 1, Val: 1}, csp.Lit{Var: 2, Val: 2},
	)
	small := csp.MustNogood(csp.Lit{Var: 0, Val: 0}, csp.Lit{Var: 2, Val: 2})
	a.Step([]sim.Message{NogoodMsg{Sender: 0, Receiver: 2, Nogood: big}})
	if a.StoreSize() != base+1 {
		t.Fatalf("store = %d, want %d", a.StoreSize(), base+1)
	}
	// The smaller nogood subsumes the big one: net store size unchanged.
	a.Step([]sim.Message{NogoodMsg{Sender: 0, Receiver: 2, Nogood: small}})
	if a.StoreSize() != base+1 {
		t.Errorf("store = %d after subsuming insert, want %d", a.StoreSize(), base+1)
	}
	if a.Stats().NogoodsPruned != 1 {
		t.Errorf("pruned = %d, want 1", a.Stats().NogoodsPruned)
	}
	// Re-inserting the big one is accepted (subsumed inserts are kept so
	// AWC's store keeps growing; see nogood.AddPruning) — only its
	// supersets would be pruned.
	a.Step([]sim.Message{NogoodMsg{Sender: 0, Receiver: 2, Nogood: big}})
	if a.StoreSize() != base+2 {
		t.Errorf("store = %d after re-insert, want %d", a.StoreSize(), base+2)
	}
}

func TestTieBreakRandomStillSolvesAndIsSeeded(t *testing.T) {
	p := starProblem(t)
	mk := func(seed int64) *Agent {
		return NewAgent(2, p, 0, Learning{Kind: LearnResolvent, TieBreak: TieBreakRandom, Seed: seed})
	}
	in := []sim.Message{
		Ok{Sender: 0, Receiver: 2, Value: 0, Priority: 0},
		Ok{Sender: 3, Receiver: 2, Value: 0, Priority: 0},
		Ok{Sender: 4, Receiver: 2, Value: 0, Priority: 0},
	}
	// Candidates 1 and 2 tie (no lower violations each); a fixed seed must
	// give a reproducible pick, and across seeds both values must appear.
	first := mk(1)
	first.Step(in)
	same := mk(1)
	same.Step(in)
	if first.CurrentValue() != same.CurrentValue() {
		t.Fatalf("same seed, different picks: %d vs %d", first.CurrentValue(), same.CurrentValue())
	}
	seen := map[csp.Value]bool{}
	for seed := int64(0); seed < 16; seed++ {
		a := mk(seed)
		a.Step(in)
		if v := a.CurrentValue(); v != 1 && v != 2 {
			t.Fatalf("seed %d picked non-candidate %d", seed, v)
		}
		seen[a.CurrentValue()] = true
	}
	if len(seen) != 2 {
		t.Errorf("random tie-break never varied across 16 seeds: %v", seen)
	}
}

func TestLearningNameExtensions(t *testing.T) {
	l := Learning{Kind: LearnResolvent, SubsumptionPruning: true}
	if l.Name() != "Rslv/prune" {
		t.Errorf("Name = %q", l.Name())
	}
}
