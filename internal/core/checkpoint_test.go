package core

import (
	"reflect"
	"testing"

	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/sim"
)

// hardProblem is a 4-variable, 3-color problem dense enough to force
// deadends (and thus learning, priority raises, and link additions) within
// a few cycles.
func hardProblem(t *testing.T) *csp.Problem {
	t.Helper()
	p := csp.NewProblemUniform(4, 3)
	for i := csp.Var(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if err := p.AddNotEqual(i, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	return p
}

func runAgents(t *testing.T, p *csp.Problem, learning Learning, cycles int) []*Agent {
	t.Helper()
	agents := make([]*Agent, p.NumVars())
	simAgents := make([]sim.Agent, p.NumVars())
	for v := range agents {
		agents[v] = NewAgent(csp.Var(v), p, 0, learning)
		simAgents[v] = agents[v]
	}
	if _, err := sim.Run(p, simAgents, sim.Options{MaxCycles: cycles}); err != nil {
		t.Fatal(err)
	}
	return agents
}

func testCheckpointRoundTrip(t *testing.T, learning Learning) {
	p := hardProblem(t)
	agents := runAgents(t, p, learning, 6)
	for v, a := range agents {
		cp := a.Checkpoint()
		fresh := NewAgent(csp.Var(v), p, 0, learning)
		if err := fresh.Restore(cp); err != nil {
			t.Fatalf("agent %d: restore: %v", v, err)
		}
		if got := fresh.Checkpoint(); !reflect.DeepEqual(got, cp) {
			t.Fatalf("agent %d: restored checkpoint differs:\n got %+v\nwant %+v", v, got, cp)
		}
		if fresh.CurrentValue() != a.CurrentValue() || fresh.Priority() != a.Priority() ||
			fresh.Checks() != a.Checks() || fresh.StoreSize() != a.StoreSize() {
			t.Fatalf("agent %d: restored scalars differ", v)
		}
		// The restored agent must behave identically: same batch, same output.
		batch := []sim.Message{&Ok{Sender: sim.AgentID((v + 1) % p.NumVars()), Receiver: sim.AgentID(v), Value: 2, Priority: 5}}
		out1 := a.Step(batch)
		out2 := fresh.Step(batch)
		if !reflect.DeepEqual(out1, out2) {
			t.Fatalf("agent %d: restored agent diverged on next step:\n got %+v\nwant %+v", v, out2, out1)
		}
		if !reflect.DeepEqual(fresh.Checkpoint(), a.Checkpoint()) {
			t.Fatalf("agent %d: state diverged after identical step", v)
		}
	}
}

func TestCheckpointRoundTripDense(t *testing.T) {
	testCheckpointRoundTrip(t, Learning{Kind: LearnResolvent})
}

func TestCheckpointRoundTripReference(t *testing.T) {
	testCheckpointRoundTrip(t, Learning{Kind: LearnResolvent, Reference: true})
}

func TestCheckpointRoundTripSizeBounded(t *testing.T) {
	testCheckpointRoundTrip(t, Learning{Kind: LearnResolvent, SizeBound: 3})
}

// TestCheckpointCanonicalAcrossRepresentations pins that the dense and
// reference representations checkpoint to the same canonical snapshot after
// identical runs, so a node may restore a checkpoint regardless of which
// representation wrote it.
func TestCheckpointCanonicalAcrossRepresentations(t *testing.T) {
	p := hardProblem(t)
	dense := runAgents(t, p, Learning{Kind: LearnResolvent}, 6)
	ref := runAgents(t, p, Learning{Kind: LearnResolvent, Reference: true}, 6)
	// Nogoods derived by Union/Without defer key interning, so structurally
	// equal snapshots can differ in the unexported cached key; rebuild every
	// nogood to compare canonical forms.
	normalize := func(s *Snapshot) {
		for i, ng := range s.Nogoods {
			s.Nogoods[i] = csp.MustNogood(ng.Lits()...)
		}
		for i, ng := range s.Store.Nogoods {
			s.Store.Nogoods[i] = csp.MustNogood(ng.Lits()...)
		}
		if s.LastLearned != nil {
			cp := csp.MustNogood(s.LastLearned.Lits()...)
			s.LastLearned = &cp
		}
	}
	for v := range dense {
		d, r := dense[v].Checkpoint().(*Snapshot), ref[v].Checkpoint().(*Snapshot)
		normalize(d)
		normalize(r)
		if !reflect.DeepEqual(d, r) {
			t.Fatalf("agent %d: dense and reference snapshots differ:\ndense %+v\nref   %+v", v, d, r)
		}
	}
}

func TestRestoreRejectsForeignSnapshot(t *testing.T) {
	p := hardProblem(t)
	a := NewAgent(0, p, 0, Learning{Kind: LearnResolvent})
	if err := a.Restore("nonsense"); err == nil {
		t.Fatal("restore accepted a foreign snapshot")
	}
}
