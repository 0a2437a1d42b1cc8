package multi

import (
	"sort"

	"github.com/discsp/discsp/internal/central"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/nogood"
)

// projection is a cross-boundary nogood reduced against the agent_view: the
// external literals that matched the view are stripped, leaving a
// constraint over owned variables only.
type projection struct {
	// local is the induced constraint over owned variables.
	local csp.Nogood
	// matched lists the external literals whose view values enabled the
	// projection; they are the assumptions a derived nogood is built from.
	matched []csp.Lit
}

// project reduces ng against the view. active is false when the nogood
// cannot currently fire: some external literal is unknown, differs from the
// view, or belongs to excluded.
func (a *Agent) project(ng csp.Nogood, excluded map[csp.Var]bool) (projection, bool) {
	var p projection
	localLits := make([]csp.Lit, 0, ng.Len())
	for i := 0; i < ng.Len(); i++ {
		l := ng.At(i)
		if a.owned[l.Var] {
			localLits = append(localLits, l)
			continue
		}
		if excluded[l.Var] {
			return projection{}, false
		}
		e, known := a.view[l.Var]
		if !known || e.val != l.Val {
			return projection{}, false
		}
		p.matched = append(p.matched, l)
	}
	p.local = csp.MustNogood(localLits...)
	return p, true
}

// localIndex maps owned variables to dense indices for the block solver.
func (a *Agent) localIndex() map[csp.Var]csp.Var {
	idx := make(map[csp.Var]csp.Var, len(a.vars))
	for i, v := range a.vars {
		idx[v] = csp.Var(i)
	}
	return idx
}

// buildLocalProblem assembles the block CSP: owned domains, local nogoods,
// and the given induced constraints (already projected to owned vars).
func (a *Agent) buildLocalProblem(induced []csp.Nogood) *csp.Problem {
	idx := a.localIndex()
	sub := csp.NewProblem()
	for _, v := range a.vars {
		sub.AddVar(a.problem.Domain(v)...)
	}
	remap := func(ng csp.Nogood) csp.Nogood {
		lits := ng.Lits()
		for i := range lits {
			lits[i].Var = idx[lits[i].Var]
		}
		return csp.MustNogood(lits...)
	}
	for _, ng := range a.localNogoods {
		if err := sub.AddNogood(remap(ng)); err != nil {
			panic("multi: local nogood remap: " + err.Error())
		}
	}
	for _, ng := range induced {
		if ng.Empty() {
			// An induced empty constraint means the view alone violates a
			// recorded nogood over... impossible: every stored nogood has
			// an owned literal, so projections are non-empty.
			panic("multi: empty induced constraint")
		}
		if err := sub.AddNogood(remap(ng)); err != nil {
			panic("multi: induced nogood remap: " + err.Error())
		}
	}
	return sub
}

// chargeSolver books the block solver's work as checks: one unit per search
// node and per pruning, the closest analogue of a nogood check.
func (a *Agent) chargeSolver(before, after central.Stats) {
	a.counter.Add(int(after.Nodes - before.Nodes + after.Prunings - before.Prunings))
}

// candidateView overlays a candidate block solution on the agent_view.
type candidateView struct {
	a   *Agent
	sol map[csp.Var]csp.Value
}

var _ csp.Assignment = candidateView{}

// Lookup implements csp.Assignment.
func (c candidateView) Lookup(v csp.Var) (csp.Value, bool) {
	if val, ok := c.sol[v]; ok {
		return val, true
	}
	e, ok := c.a.view[v]
	if !ok {
		return 0, false
	}
	return e.val, true
}

// solveLocal searches for a block assignment satisfying the local nogoods
// plus the active projections of `hard`. Among up to localSolutionLimit
// such assignments it returns the one minimizing violations of `minimize`
// (evaluated under the view, charging checks); ok is false when none
// exists.
func (a *Agent) solveLocal(hard, minimize []csp.Nogood) (map[csp.Var]csp.Value, bool) {
	a.stats.LocalSolves++
	induced := make([]csp.Nogood, 0, len(hard))
	for _, ng := range hard {
		if p, active := a.project(ng, nil); active {
			induced = append(induced, p.local)
		}
	}
	sub := a.buildLocalProblem(induced)
	solver := central.New(sub)
	limit := localSolutionLimit
	if len(minimize) == 0 {
		limit = 1
	}
	before := solver.Stats()
	solutions := solver.Enumerate(limit)
	a.chargeSolver(before, solver.Stats())
	if len(solutions) == 0 {
		return nil, false
	}

	bestIdx, bestViol := 0, -1
	for i, sol := range solutions {
		mapped := a.remapSolution(sol)
		viol := 0
		cv := candidateView{a: a, sol: mapped}
		for _, ng := range minimize {
			if nogood.Check(ng, cv, &a.counter) {
				viol++
			}
		}
		if bestViol < 0 || viol < bestViol {
			bestIdx, bestViol = i, viol
		}
	}
	return a.remapSolution(solutions[bestIdx]), true
}

// remapSolution converts a dense block solution back to original ids.
func (a *Agent) remapSolution(sol csp.SliceAssignment) map[csp.Var]csp.Value {
	out := make(map[csp.Var]csp.Value, len(a.vars))
	for i, v := range a.vars {
		out[v] = sol[i]
	}
	return out
}

// deriveNogood lifts resolvent-based learning to blocks: the assumptions
// are the external view literals that enabled the higher projections; they
// are greedily minimized by re-testing insolubility with each assumption
// withdrawn (the block analogue of the subset tests of mcs learning, with
// the block solver charged as checks).
func (a *Agent) deriveNogood(higher []csp.Nogood) csp.Nogood {
	assumptions := make(map[csp.Var]csp.Value)
	for _, ng := range higher {
		p, active := a.project(ng, nil)
		if !active {
			continue
		}
		for _, l := range p.matched {
			assumptions[l.Var] = l.Val
		}
	}
	vars := make([]csp.Var, 0, len(assumptions))
	for v := range assumptions {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })

	excluded := make(map[csp.Var]bool)
	for _, v := range vars {
		excluded[v] = true
		if !a.insolubleUnder(higher, excluded) {
			excluded[v] = false
			delete(excluded, v)
		}
	}
	lits := make([]csp.Lit, 0, len(vars))
	for _, v := range vars {
		if !excluded[v] {
			lits = append(lits, csp.Lit{Var: v, Val: assumptions[v]})
		}
	}
	return csp.MustNogood(lits...)
}

// insolubleUnder reports whether the block CSP stays unsatisfiable when the
// excluded external variables are treated as unknown.
func (a *Agent) insolubleUnder(higher []csp.Nogood, excluded map[csp.Var]bool) bool {
	induced := make([]csp.Nogood, 0, len(higher))
	for _, ng := range higher {
		if p, active := a.project(ng, excluded); active {
			induced = append(induced, p.local)
		}
	}
	solver := central.New(a.buildLocalProblem(induced))
	before := solver.Stats()
	_, ok := solver.Solve()
	a.chargeSolver(before, solver.Stats())
	return !ok
}
