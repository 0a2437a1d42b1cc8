package core

// This file is the reference (map-backed) agent-view representation: the
// first, paper-faithful implementation, preserved verbatim and selected by
// Learning.Reference. It exists for verification, not for speed — the
// cross-representation equivalence tests run every problem family through
// both representations and require bit-identical traces, metrics, and
// charged check counts, and the benchmark harness uses it as the "before"
// side of each before/after pair in BENCH_2.json.

import (
	"sort"

	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/nogood"
	"github.com/discsp/discsp/internal/sim"
)

// viewEntry is what an agent knows about another agent's variable.
type viewEntry struct {
	val  csp.Value
	prio int
}

// probeView is the assignment "my agent_view with my variable set to val".
// Passing it to nogood.Check boxes it into an Assignment interface value,
// which is exactly the per-check allocation the dense representation
// eliminates.
type probeView struct {
	a   *Agent
	val csp.Value
}

var _ csp.Assignment = probeView{}

// Lookup implements csp.Assignment.
func (p probeView) Lookup(v csp.Var) (csp.Value, bool) {
	if v == p.a.id {
		return p.val, true
	}
	e, ok := p.a.view[v]
	if !ok {
		return 0, false
	}
	return e.val, true
}

// consistentRef is the reference fast path: scan higher nogoods against the
// current value, charging one check per evaluated nogood.
func (a *Agent) consistentRef() bool {
	current := probeView{a: a, val: a.value}
	for pos, ng := range a.store.All() {
		if !a.isHigher(ng) {
			continue
		}
		if nogood.Check(ng, current, &a.counter) {
			a.store.Bump(pos)
			return false
		}
	}
	return true
}

// classifyViolationsRef is the reference full evaluation; caller has already
// reset the scratch slices.
func (a *Agent) classifyViolationsRef() {
	for pos, ng := range a.store.All() {
		higher := a.isHigher(ng)
		for i, d := range a.domain {
			if nogood.Check(ng, probeView{a: a, val: d}, &a.counter) {
				a.store.Bump(pos)
				if higher {
					a.violatedHigher[i] = append(a.violatedHigher[i], ng)
				} else {
					a.lowerViol[i]++
				}
			}
		}
	}
}

// broadcastOkRef collects the outgoing links from the map and sorts them on
// every broadcast.
func (a *Agent) broadcastOkRef(msgs []sim.Message) []sim.Message {
	targets := make([]csp.Var, 0, len(a.outLinks))
	for v := range a.outLinks {
		targets = append(targets, v)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	for _, v := range targets {
		ok := a.okTo(v)
		msgs = append(msgs, &ok)
	}
	return msgs
}

// isConflictSetRef is the reference conflict-set test: materialize the
// candidate into a fresh map assignment and probe it under an Override. Each
// evaluation charges one check.
func (a *Agent) isConflictSetRef(set csp.Nogood) bool {
	base := csp.NewMapAssignment(set.Lits()...)
	for i, d := range a.domain {
		probe := csp.Override{Base: base, Var: a.id, Val: d}
		hit := false
		if a.learning.MCSRestrictScan {
			for _, ng := range a.violatedHigher[i] {
				if nogood.Check(ng, probe, &a.counter) {
					hit = true
					break
				}
			}
		} else {
			for _, ng := range a.store.All() {
				if !a.isHigher(ng) {
					continue
				}
				if nogood.Check(ng, probe, &a.counter) {
					hit = true
					break
				}
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// resolventRef is the reference resolvent assembly: a chain of Union calls,
// each allocating a fresh merged literal slice.
func (a *Agent) resolventRef() csp.Nogood {
	result := csp.MustNogood()
	for i := range a.domain {
		selected := a.selectNogoodForValue(a.violatedHigher[i])
		a.causalT.Consult(selected)
		union, err := result.Union(selected.Without(a.id))
		if err != nil {
			// Impossible: every selected nogood is violated under the same
			// agent_view, so shared variables agree on their values.
			panic("core: inconsistent resolvent operands: " + err.Error())
		}
		result = union
	}
	return result
}
