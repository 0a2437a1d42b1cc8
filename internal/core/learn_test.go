package core

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/sim"
)

func TestForEachSubset(t *testing.T) {
	collect := func(n, k int) [][]int {
		var out [][]int
		forEachSubset(n, k, func(idxs []int) bool {
			cp := make([]int, len(idxs))
			copy(cp, idxs)
			out = append(out, cp)
			return true
		})
		return out
	}
	if got := collect(3, 2); !reflect.DeepEqual(got, [][]int{{0, 1}, {0, 2}, {1, 2}}) {
		t.Errorf("subsets(3,2) = %v", got)
	}
	if got := collect(4, 1); !reflect.DeepEqual(got, [][]int{{0}, {1}, {2}, {3}}) {
		t.Errorf("subsets(4,1) = %v", got)
	}
	if got := collect(3, 3); !reflect.DeepEqual(got, [][]int{{0, 1, 2}}) {
		t.Errorf("subsets(3,3) = %v", got)
	}
	if got := collect(2, 0); len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("subsets(2,0) = %v, want one empty subset", got)
	}
	if got := collect(2, 3); got != nil {
		t.Errorf("subsets(2,3) = %v, want none", got)
	}
	// Early stop.
	count := 0
	forEachSubset(5, 2, func([]int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop visited %d subsets", count)
	}
}

// mcsScenario builds an agent whose deadend resolvent is non-minimal: the
// higher neighbors 0, 1 each prohibit one domain value, and neighbor 2's
// constraint on the remaining value is subsumed by a recorded binary nogood
// on neighbor 0 alone... Construct directly: domain {0,1}, higher nogoods
// {(0,a)(3,0)}, {(1,b)(3,1)}, and additionally {(0,a)(3,1)} — so value 1 is
// prohibited by both a 2-literal nogood on x1 and one on x0. The resolvent
// picks per-value smallest; mcs must find that {(0,a)} alone is a conflict
// set (both values die under x0=a).
func mcsScenario(t *testing.T, restrict bool) *Agent {
	t.Helper()
	p := csp.NewProblemUniform(4, 2)
	add := func(lits ...csp.Lit) {
		t.Helper()
		if err := p.AddNogood(csp.MustNogood(lits...)); err != nil {
			t.Fatal(err)
		}
	}
	add(csp.Lit{Var: 0, Val: 1}, csp.Lit{Var: 3, Val: 0})
	add(csp.Lit{Var: 1, Val: 1}, csp.Lit{Var: 3, Val: 1})
	add(csp.Lit{Var: 0, Val: 1}, csp.Lit{Var: 3, Val: 1})
	a := NewAgent(3, p, 0, Learning{Kind: LearnMCS, MCSRestrictScan: restrict})
	out := a.Step([]sim.Message{
		&Ok{Sender: 0, Receiver: 3, Value: 1, Priority: 2},
		&Ok{Sender: 1, Receiver: 3, Value: 1, Priority: 1},
	})
	want := csp.MustNogood(csp.Lit{Var: 0, Val: 1})
	found := false
	for _, m := range out {
		if nm, ok := m.(NogoodMsg); ok {
			found = true
			if !nm.Nogood.Equal(want) {
				t.Errorf("mcs nogood = %v, want %v (minimum conflict set)", nm.Nogood, want)
			}
		}
	}
	if !found {
		t.Fatalf("no nogood sent at deadend")
	}
	return a
}

func TestMCSFindsMinimumConflictSet(t *testing.T) {
	mcsScenario(t, false)
}

func TestMCSRestrictScanSameResultFewerChecks(t *testing.T) {
	full := mcsScenario(t, false)
	restricted := mcsScenario(t, true)
	if restricted.Checks() >= full.Checks() {
		t.Errorf("restricted scan charged %d checks, full scan %d; restriction must be cheaper",
			restricted.Checks(), full.Checks())
	}
}

// TestMCSGreedyFallback drives a deadend whose resolvent exceeds the
// exhaustive limit, exercising greedyConflictSet. With limit 1, any
// resolvent of 2+ literals goes greedy; the greedy result must still be the
// minimum here.
func TestMCSGreedyFallback(t *testing.T) {
	p := csp.NewProblemUniform(4, 2)
	add := func(lits ...csp.Lit) {
		t.Helper()
		if err := p.AddNogood(csp.MustNogood(lits...)); err != nil {
			t.Fatal(err)
		}
	}
	add(csp.Lit{Var: 0, Val: 1}, csp.Lit{Var: 3, Val: 0})
	add(csp.Lit{Var: 1, Val: 1}, csp.Lit{Var: 3, Val: 1})
	add(csp.Lit{Var: 0, Val: 1}, csp.Lit{Var: 3, Val: 1})
	a := NewAgent(3, p, 0, Learning{Kind: LearnMCS, MCSExhaustiveLimit: 1})
	out := a.Step([]sim.Message{
		&Ok{Sender: 0, Receiver: 3, Value: 1, Priority: 2},
		&Ok{Sender: 1, Receiver: 3, Value: 1, Priority: 1},
	})
	want := csp.MustNogood(csp.Lit{Var: 0, Val: 1})
	for _, m := range out {
		if nm, ok := m.(NogoodMsg); ok {
			if !nm.Nogood.Equal(want) {
				t.Errorf("greedy mcs nogood = %v, want %v", nm.Nogood, want)
			}
			return
		}
	}
	t.Fatalf("no nogood sent")
}

// TestMCSMinimalityProperty: on randomized deadends, the mcs nogood must be
// a conflict set none of whose single-literal deletions remains one
// (checked against an oracle reimplementation).
func TestMCSMinimalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		numVars := 4 + rng.Intn(3)
		domSize := 2 + rng.Intn(2)
		own := csp.Var(numVars - 1)
		p := csp.NewProblemUniform(numVars, domSize)
		// Random binary and ternary nogoods involving own, enough to
		// likely wipe the domain under a full view.
		for i := 0; i < numVars*domSize*2; i++ {
			lits := []csp.Lit{{Var: own, Val: csp.Value(rng.Intn(domSize))}}
			for len(lits) < 2+rng.Intn(2) {
				v := csp.Var(rng.Intn(int(own)))
				dup := false
				for _, l := range lits {
					if l.Var == v {
						dup = true
					}
				}
				if dup {
					continue
				}
				lits = append(lits, csp.Lit{Var: v, Val: csp.Value(rng.Intn(domSize))})
			}
			if err := p.AddNogood(csp.MustNogood(lits...)); err != nil {
				t.Fatal(err)
			}
		}
		a := NewAgent(own, p, 0, Learning{Kind: LearnMCS})
		in := make([]sim.Message, 0, int(own))
		view := csp.NewMapAssignment()
		for v := csp.Var(0); v < own; v++ {
			val := csp.Value(rng.Intn(domSize))
			view[v] = val
			in = append(in, &Ok{Sender: sim.AgentID(v), Receiver: sim.AgentID(own), Value: val, Priority: 1})
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
			continue // no deadend this trial
		}
		if !oracleConflictSet(p, own, domSize, *learned) {
			t.Fatalf("trial %d: mcs output %v is not a conflict set", trial, learned)
		}
		for i := 0; i < learned.Len(); i++ {
			if oracleConflictSet(p, own, domSize, learned.WithoutAt(i)) {
				t.Fatalf("trial %d: mcs output %v not minimal (dropping %v keeps it a conflict set)",
					trial, learned, learned.At(i))
			}
		}
	}
}

// oracleConflictSet independently checks the conflict-set property: under
// the partial assignment `set`, every domain value of `own` violates some
// problem nogood.
func oracleConflictSet(p *csp.Problem, own csp.Var, domSize int, set csp.Nogood) bool {
	base := csp.NewMapAssignment(set.Lits()...)
	for d := 0; d < domSize; d++ {
		probe := csp.Override{Base: base, Var: own, Val: csp.Value(d)}
		hit := false
		for _, ng := range p.NogoodsOf(own) {
			if ng.Violated(probe) {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}
