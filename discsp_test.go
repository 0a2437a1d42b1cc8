package discsp_test

import (
	"bytes"
	"testing"

	"github.com/discsp/discsp"
)

func chain(t *testing.T, n int, colors int) *discsp.Problem {
	t.Helper()
	p := discsp.NewProblemUniform(n, colors)
	for i := 0; i < n-1; i++ {
		if err := p.AddNotEqual(discsp.Var(i), discsp.Var(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestSolveDefaultsToAWC(t *testing.T) {
	p := chain(t, 6, 3)
	res, err := discsp.Solve(p, discsp.Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.Solved {
		t.Fatalf("not solved: %+v", res)
	}
	if !p.IsSolution(res.Assignment) {
		t.Fatalf("assignment invalid")
	}
}

func TestSolveAllAlgorithms(t *testing.T) {
	for _, algo := range []discsp.AlgorithmKind{discsp.AWC, discsp.DB, discsp.ABT} {
		t.Run(algo.String(), func(t *testing.T) {
			p := chain(t, 6, 3)
			res, err := discsp.Solve(p, discsp.Options{Algorithm: algo, InitialSeed: 5})
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if !res.Solved {
				t.Fatalf("%v failed: %+v", algo, res)
			}
		})
	}
}

func TestSolveAllLearningModes(t *testing.T) {
	cases := []struct {
		name string
		opts discsp.Options
	}{
		{"resolvent", discsp.Options{Learning: discsp.LearnResolvent}},
		{"mcs", discsp.Options{Learning: discsp.LearnMCS}},
		{"none", discsp.Options{Learning: discsp.LearnNone}},
		{"3rdRslv", discsp.Options{Learning: discsp.LearnResolvent, LearningSizeBound: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := chain(t, 8, 3)
			tc.opts.InitialSeed = 9
			res, err := discsp.Solve(p, tc.opts)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if !res.Solved {
				t.Fatalf("not solved: %+v", res)
			}
		})
	}
}

func TestSolveInsolubleReported(t *testing.T) {
	p := discsp.NewProblemUniform(3, 2)
	for _, e := range [][2]discsp.Var{{0, 1}, {1, 2}, {0, 2}} {
		if err := p.AddNotEqual(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := discsp.Solve(p, discsp.Options{Algorithm: discsp.ABT})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Solved || !res.Insoluble {
		t.Fatalf("triangle 2-coloring: %+v", res)
	}
}

// TestWipedDomainInsolubleOnEveryRuntime: x0's unary constraints forbid
// both of its values, so its Init alone proves insolubility, while the
// unrelated pair x1≠x2 keeps other agents busy. x0 has no neighbour and
// never steps, so every runtime must look for insolubility after Init,
// not only after steps, and report Insoluble rather than Quiescent.
func TestWipedDomainInsolubleOnEveryRuntime(t *testing.T) {
	p := discsp.NewProblemUniform(3, 2)
	for val := discsp.Value(0); val < 2; val++ {
		if err := p.AddNogood(discsp.MustNogood(discsp.Lit{Var: 0, Val: val})); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.AddNotEqual(1, 2); err != nil {
		t.Fatal(err)
	}
	runtimes := []struct {
		name  string
		solve func(*discsp.Problem, discsp.Options) (discsp.Result, error)
	}{
		{"sync", discsp.Solve},
		{"async", discsp.SolveAsync},
		{"tcp", discsp.SolveTCP},
	}
	for _, rt := range runtimes {
		t.Run(rt.name, func(t *testing.T) {
			res, err := rt.solve(p, discsp.Options{InitialSeed: 1})
			if err != nil {
				t.Fatalf("solve: %v", err)
			}
			if !res.Insoluble || res.Solved {
				t.Fatalf("wiped domain on %s: %+v, want Insoluble", rt.name, res)
			}
		})
	}
}

func TestSolveInitialValidation(t *testing.T) {
	p := chain(t, 4, 3)
	_, err := discsp.Solve(p, discsp.Options{Initial: discsp.SliceAssignment{0, 1}})
	if err == nil {
		t.Fatal("accepted wrong-length initial assignment")
	}
}

func TestSolveExplicitInitial(t *testing.T) {
	p := chain(t, 3, 3)
	init := discsp.SliceAssignment{0, 1, 0}
	res, err := discsp.Solve(p, discsp.Options{Initial: init})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Already a solution → solved in 0 cycles.
	if !res.Solved || res.Cycles != 0 {
		t.Fatalf("res = %+v, want immediate solve", res)
	}
}

func TestSolveAsync(t *testing.T) {
	p := chain(t, 8, 3)
	res, err := discsp.SolveAsync(p, discsp.Options{InitialSeed: 3})
	if err != nil {
		t.Fatalf("SolveAsync: %v", err)
	}
	if !res.Solved {
		t.Fatalf("not solved: %+v", res)
	}
	if res.Duration <= 0 {
		t.Errorf("duration not reported")
	}
}

func TestGenerators(t *testing.T) {
	col, err := discsp.GenerateColoring(20, 54, 3, 1)
	if err != nil {
		t.Fatalf("GenerateColoring: %v", err)
	}
	if !col.Problem.IsSolution(col.Hidden) {
		t.Errorf("coloring witness invalid")
	}
	sat3, err := discsp.GenerateForcedSAT3(20, 86, 1)
	if err != nil {
		t.Fatalf("GenerateForcedSAT3: %v", err)
	}
	if !sat3.Problem.IsSolution(sat3.Hidden) {
		t.Errorf("forced SAT witness invalid")
	}
	uniq, err := discsp.GenerateUniqueSAT3(20, 68, 1)
	if err != nil {
		t.Fatalf("GenerateUniqueSAT3: %v", err)
	}
	if !uniq.Unique {
		t.Errorf("unique instance not marked unique")
	}

	init := discsp.RandomInitial(col.Problem, 2)
	if len(init) != col.Problem.NumVars() {
		t.Errorf("RandomInitial length %d", len(init))
	}
}

func TestDIMACSRoundTripThroughFacade(t *testing.T) {
	sat3, err := discsp.GenerateForcedSAT3(10, 43, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := discsp.WriteCNF(&buf, sat3.CNF, "facade round trip"); err != nil {
		t.Fatal(err)
	}
	parsed, err := discsp.ParseCNF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.NumVars != 10 || len(parsed.Clauses) != 43 {
		t.Errorf("round trip shape: %d vars %d clauses", parsed.NumVars, len(parsed.Clauses))
	}

	col, err := discsp.GenerateColoring(10, 20, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := discsp.WriteCOL(&buf, col.Graph); err != nil {
		t.Fatal(err)
	}
	g, err := discsp.ParseCOL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes != 10 || len(g.Edges) != 20 {
		t.Errorf("graph round trip shape: %d nodes %d edges", g.NumNodes, len(g.Edges))
	}
}

func TestAlgorithmKindString(t *testing.T) {
	if discsp.AWC.String() != "AWC" || discsp.DB.String() != "DB" || discsp.ABT.String() != "ABT" {
		t.Errorf("algorithm names: %v %v %v", discsp.AWC, discsp.DB, discsp.ABT)
	}
}

func TestSolveSyncAsyncAgree(t *testing.T) {
	// Both runtimes must find (possibly different) valid solutions of the
	// same instance.
	inst, err := discsp.GenerateColoring(20, 54, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	syncRes, err := discsp.Solve(inst.Problem, discsp.Options{InitialSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	asyncRes, err := discsp.SolveAsync(inst.Problem, discsp.Options{InitialSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !syncRes.Solved || !asyncRes.Solved {
		t.Fatalf("sync=%v async=%v", syncRes.Solved, asyncRes.Solved)
	}
	if !inst.Problem.IsSolution(syncRes.Assignment) || !inst.Problem.IsSolution(asyncRes.Assignment) {
		t.Fatalf("invalid solutions")
	}
}

func TestSolvePartitioned(t *testing.T) {
	inst, err := discsp.GenerateColoring(18, 48, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := discsp.SolvePartitioned(inst.Problem, discsp.UniformPartition(18, 3), discsp.PartitionedOptions{InitialSeed: 9})
	if err != nil {
		t.Fatalf("SolvePartitioned: %v", err)
	}
	if !res.Solved {
		t.Fatalf("not solved: %+v", res)
	}
	if !inst.Problem.IsSolution(res.Assignment) {
		t.Fatalf("assignment invalid")
	}
}

func TestSolvePartitionedValidatesPartition(t *testing.T) {
	p := discsp.NewProblemUniform(4, 2)
	_, err := discsp.SolvePartitioned(p, discsp.Partition{{0, 1}}, discsp.PartitionedOptions{})
	if err == nil {
		t.Fatal("accepted incomplete partition")
	}
}

func TestSolveTCP(t *testing.T) {
	inst, err := discsp.GenerateColoring(15, 40, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := discsp.SolveTCP(inst.Problem, discsp.Options{InitialSeed: 11})
	if err != nil {
		t.Fatalf("SolveTCP: %v", err)
	}
	if !res.Solved {
		t.Fatalf("not solved over TCP: %+v", res)
	}
	if !inst.Problem.IsSolution(res.Assignment) {
		t.Fatalf("assignment invalid")
	}
}
