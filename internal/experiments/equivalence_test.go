package experiments

import (
	"reflect"
	"testing"

	"github.com/discsp/discsp/internal/core"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/gen"
	"github.com/discsp/discsp/internal/nogood"
	"github.com/discsp/discsp/internal/sim"
)

// These tests pin the repository's cost-model invariant: the dense
// slice-backed agent representation (the default) and the map-backed
// reference representation (core.Learning.Reference, refpath.go) must be
// observationally identical — same per-cycle traces, same metrics, same
// final assignment, same charged check counts — on every problem family.
// The dense representation is allowed to be faster; it is not allowed to
// differ by a single bit.

// equivalenceInstance is one (problem, initial values) pair.
type equivalenceInstance struct {
	name    string
	problem *csp.Problem
	init    csp.SliceAssignment
}

// equivalenceInstances builds one instance per problem family: the paper's
// three (solvable graph coloring, forced-satisfiable 3SAT, single-solution
// 3SAT) plus a Model B random binary CSP.
func equivalenceInstances(t *testing.T) []equivalenceInstance {
	t.Helper()
	var out []equivalenceInstance

	inst, err := gen.Coloring(30, 81, 3, 401)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, equivalenceInstance{"D3C/n=30", inst.Problem, gen.RandomInitial(inst.Problem, 402)})

	sat, err := gen.ForcedSAT3(25, 90, 403)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, equivalenceInstance{"D3S/n=25", sat.Problem, gen.RandomInitial(sat.Problem, 404)})

	one, err := gen.UniqueSAT3(15, 50, 405)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, equivalenceInstance{"D3S1/n=15", one.Problem, gen.RandomInitial(one.Problem, 406)})

	bin, err := gen.RandomBinaryCSP(gen.BinaryCSPConfig{
		Vars: 20, DomainSize: 4, Density: 0.3, Tightness: 0.3, Force: true,
	}, 407)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, equivalenceInstance{"BinCSP/n=20", bin.Problem, gen.RandomInitial(bin.Problem, 408)})

	return out
}

// traced runs AWC capturing the per-cycle trace alongside the result.
func traced(t *testing.T, p *csp.Problem, init csp.SliceAssignment, l core.Learning) (TrialResult, []sim.CycleEvent) {
	t.Helper()
	var events []sim.CycleEvent
	opts := sim.Options{
		MaxCycles: 2000,
		Trace:     func(ev sim.CycleEvent) { events = append(events, ev) },
	}
	res, err := RunAWC(p, init, l, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, events
}

// TestDenseMatchesReference: for every learning configuration on every
// problem family, the dense and reference representations must produce
// bit-identical traces, metric results, and final assignments.
func TestDenseMatchesReference(t *testing.T) {
	learners := []core.Learning{
		{Kind: core.LearnResolvent},
		{Kind: core.LearnMCS},
		{Kind: core.LearnNone},
		{Kind: core.LearnResolvent, SizeBound: 3},
		{Kind: core.LearnResolvent, SubsumptionPruning: true},
		{Kind: core.LearnMCS, MCSRestrictScan: true},
		{Kind: core.LearnResolvent, TieBreak: core.TieBreakRandom, Seed: 17},
		// Bounded retention evicts, and pruning removes, stored nogoods:
		// both shift store positions under the dense classification cache.
		{Kind: core.LearnResolvent, Retention: nogood.Retention{Kind: nogood.RetainLRU, Cap: 2}},
		{Kind: core.LearnMCS, Retention: nogood.Retention{Kind: nogood.RetainActivity, Cap: 2}},
		{Kind: core.LearnResolvent, SubsumptionPruning: true, Retention: nogood.Retention{Kind: nogood.RetainLRU, Cap: 2}},
	}
	for _, inst := range equivalenceInstances(t) {
		for _, l := range learners {
			ref := l
			ref.Reference = true
			if ref.Name() != l.Name() {
				t.Fatalf("Name() must ignore Reference: %q vs %q", ref.Name(), l.Name())
			}
			t.Run(inst.name+"/"+l.Name(), func(t *testing.T) {
				denseRes, denseTrace := traced(t, inst.problem, inst.init, l)
				refRes, refTrace := traced(t, inst.problem, inst.init, ref)

				if !reflect.DeepEqual(denseRes, refRes) {
					t.Errorf("results diverged:\ndense %+v\nref   %+v", denseRes, refRes)
				}
				if len(denseTrace) != len(refTrace) {
					t.Fatalf("trace lengths diverged: dense %d, ref %d", len(denseTrace), len(refTrace))
				}
				for i := range denseTrace {
					if denseTrace[i] != refTrace[i] {
						t.Fatalf("cycle %d diverged:\ndense %+v\nref   %+v",
							i, denseTrace[i], refTrace[i])
					}
				}
			})
		}
	}
}

// TestDenseMatchesReferenceCell covers the aggregated harness path: a whole
// table cell (multiple instances × initializations, parallel workers) must
// aggregate to identical numbers under both representations.
func TestDenseMatchesReferenceCell(t *testing.T) {
	for _, kind := range []ProblemKind{D3C, D3S} {
		l := core.Learning{Kind: core.LearnResolvent}
		ref := l
		ref.Reference = true

		want, err := RunCell(kind, 30, AWC(ref), QuickScale())
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunCell(kind, 30, AWC(l), QuickScale())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v cell diverged:\ndense %+v\nref   %+v", kind, got, want)
		}
	}
}
