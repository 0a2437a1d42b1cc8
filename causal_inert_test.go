package discsp_test

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/discsp/discsp"
	"github.com/discsp/discsp/internal/causal"
	"github.com/discsp/discsp/internal/telemetry"
)

// readCausal flushes a causal stream, decodes it, and builds its graph,
// failing on any well-formedness defect (duplicate or dangling trace IDs).
func readCausal(t *testing.T, ct *discsp.Telemetry, stream *bytes.Buffer) *causal.Graph {
	t.Helper()
	if err := ct.Flush(); err != nil {
		t.Fatalf("causal flush: %v", err)
	}
	events, err := telemetry.Read(stream)
	if err != nil {
		t.Fatalf("causal stream unreadable: %v", err)
	}
	if err := telemetry.CheckComplete(events); err != nil {
		t.Fatalf("causal stream incomplete: %v", err)
	}
	g, err := causal.BuildGraph(events)
	if err != nil {
		t.Fatalf("causal graph: %v", err)
	}
	if dang := g.Dangling(); len(dang) > 0 {
		t.Fatalf("%d dangling cause IDs (first %s)", len(dang), dang[0])
	}
	return g
}

// TestCausalInertSync pins the tentpole's non-negotiable: attaching the
// causal tracer to a synchronous run changes nothing — verdict, cycles,
// maxcck, totals, the assignment, and the cycle events are identical with
// tracing on and off, across learners.
func TestCausalInertSync(t *testing.T) {
	p := hardColoring(t)
	learners := []struct {
		name string
		opts discsp.Options
	}{
		{"rslv", discsp.Options{Learning: discsp.LearnResolvent}},
		{"mcs", discsp.Options{Learning: discsp.LearnMCS}},
	}
	for _, lc := range learners {
		t.Run(lc.name, func(t *testing.T) {
			opts := lc.opts
			opts.InitialSeed = 11

			off, offTrace := runSyncWithTrace(t, p, opts)

			var stream bytes.Buffer
			opts.Causal = discsp.NewTelemetry(nil, &stream)
			on, onTrace := runSyncWithTrace(t, p, opts)

			if off.Solved != on.Solved || off.Insoluble != on.Insoluble {
				t.Errorf("verdict changed: off=%v/%v on=%v/%v", off.Solved, off.Insoluble, on.Solved, on.Insoluble)
			}
			if off.Cycles != on.Cycles || off.MaxCCK != on.MaxCCK {
				t.Errorf("cycles/maxcck changed: off=%d/%d on=%d/%d", off.Cycles, off.MaxCCK, on.Cycles, on.MaxCCK)
			}
			if off.TotalChecks != on.TotalChecks || off.Messages != on.Messages {
				t.Errorf("totals changed: off checks=%d msgs=%d, on checks=%d msgs=%d",
					off.TotalChecks, off.Messages, on.TotalChecks, on.Messages)
			}
			if !reflect.DeepEqual(off.Assignment, on.Assignment) {
				t.Errorf("assignment changed")
			}
			if !reflect.DeepEqual(off.MessagesByType, on.MessagesByType) {
				t.Errorf("message profile changed: off=%v on=%v", off.MessagesByType, on.MessagesByType)
			}
			if !reflect.DeepEqual(offTrace, onTrace) {
				t.Errorf("cycle events changed with causal tracing on (%d vs %d cycles)", len(offTrace), len(onTrace))
			}

			g := readCausal(t, opts.Causal, &stream)
			spans := 0
			for _, id := range g.Order {
				switch g.Nodes[id].Kind {
				case causal.SpanInit, causal.SpanStep:
					spans++
				}
			}
			if spans == 0 {
				t.Error("causal stream holds no activation spans")
			}
		})
	}
}

// TestCausalInertAsync: tracing must not perturb the asynchronous runtime's
// verdict, and the stream must be a well-formed single-run trace despite
// concurrent per-agent emission.
func TestCausalInertAsync(t *testing.T) {
	p := hardColoring(t)
	opts := discsp.Options{InitialSeed: 11}
	off, err := discsp.SolveAsync(p, opts)
	if err != nil {
		t.Fatalf("SolveAsync (causal off): %v", err)
	}

	var stream bytes.Buffer
	opts.Causal = discsp.NewTelemetry(nil, &stream)
	on, err := discsp.SolveAsync(p, opts)
	if err != nil {
		t.Fatalf("SolveAsync (causal on): %v", err)
	}
	if off.Solved != on.Solved {
		t.Errorf("verdict changed: off=%v on=%v", off.Solved, on.Solved)
	}
	if on.Solved && !p.IsSolution(on.Assignment) {
		t.Errorf("traced run produced an invalid solution")
	}
	g := readCausal(t, opts.Causal, &stream)
	if g.Runtime != "async" {
		t.Errorf("stream runtime = %q, want async", g.Runtime)
	}
}

// TestCausalInertTCP: same over the loopback TCP runtime, where trace IDs
// additionally ride the wire as an envelope extension.
func TestCausalInertTCP(t *testing.T) {
	p := chain(t, 8, 3)
	opts := discsp.Options{InitialSeed: 3}
	off, err := discsp.SolveTCP(p, opts)
	if err != nil {
		t.Fatalf("SolveTCP (causal off): %v", err)
	}

	var stream bytes.Buffer
	opts.Causal = discsp.NewTelemetry(nil, &stream)
	on, err := discsp.SolveTCP(p, opts)
	if err != nil {
		t.Fatalf("SolveTCP (causal on): %v", err)
	}
	if off.Solved != on.Solved {
		t.Errorf("verdict changed: off=%v on=%v", off.Solved, on.Solved)
	}
	g := readCausal(t, opts.Causal, &stream)
	if g.Runtime != "tcp" {
		t.Errorf("stream runtime = %q, want tcp", g.Runtime)
	}
	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatalf("critical path: %v", err)
	}
	if cp.TransitKind != "wire" {
		t.Errorf("TransitKind = %q, want wire on the tcp runtime", cp.TransitKind)
	}
}

// TestCausalCriticalPathChain extracts the critical path from a traced
// solve of an implication chain and pins its structural invariants: the
// path is non-empty, every step after the first was released by a message,
// span finish times are monotone along the path, and the latency split is
// consistent with the path's wall-clock span.
func TestCausalCriticalPathChain(t *testing.T) {
	p := chain(t, 12, 3)
	var stream bytes.Buffer
	opts := discsp.Options{InitialSeed: 7, Causal: discsp.NewTelemetry(nil, &stream)}
	res, err := discsp.Solve(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("chain not solved: %+v", res)
	}
	g := readCausal(t, opts.Causal, &stream)
	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Steps) == 0 {
		t.Fatal("empty critical path")
	}
	if cp.Steps[0].Msg != nil {
		t.Error("first step has an inbound critical message")
	}
	prevEnd := int64(-1)
	for i, s := range cp.Steps {
		if i > 0 && s.Msg == nil {
			t.Errorf("step %d has no releasing message", i)
		}
		if s.ComputeUS < 0 || s.TransitUS < 0 {
			t.Errorf("step %d has negative latency: compute=%d transit=%d", i, s.ComputeUS, s.TransitUS)
		}
		if s.Span.EndUS < prevEnd {
			t.Errorf("step %d finishes at %dus, before its predecessor's %dus", i, s.Span.EndUS, prevEnd)
		}
		prevEnd = s.Span.EndUS
	}
	if cp.TransitKind != "queue" {
		t.Errorf("TransitKind = %q, want queue on the sync runtime", cp.TransitKind)
	}
	// The sync runtime activates agents sequentially, so the path's compute
	// and transit segments never overlap and must fit its wall-clock span.
	if cp.ComputeUS+cp.TransitUS > cp.TotalUS {
		t.Errorf("latency split %d+%dus exceeds the path's %dus span",
			cp.ComputeUS, cp.TransitUS, cp.TotalUS)
	}
	var perAgent int64
	for _, us := range cp.PerAgent {
		perAgent += us
	}
	if perAgent != cp.ComputeUS {
		t.Errorf("per-agent compute sums to %dus, path reports %dus", perAgent, cp.ComputeUS)
	}
}

// TestCausalProvenanceTermination runs four problem families under both
// learners and requires every derivation DAG to be closed: no dangling
// cause, and the walk from every learn event bottoms out on a terminal
// frontier that includes the initial constraints.
func TestCausalProvenanceTermination(t *testing.T) {
	coloring := func(t *testing.T) *discsp.Problem { return hardColoring(t) }
	forced := func(t *testing.T) *discsp.Problem {
		inst, err := discsp.GenerateForcedSAT3(10, 43, 9)
		if err != nil {
			t.Fatal(err)
		}
		return inst.Problem
	}
	unique := func(t *testing.T) *discsp.Problem {
		inst, err := discsp.GenerateUniqueSAT3(8, 35, 13)
		if err != nil {
			t.Fatal(err)
		}
		return inst.Problem
	}
	binary := func(t *testing.T) *discsp.Problem {
		inst, err := discsp.GenerateBinaryCSP(discsp.BinaryCSPConfig{
			Vars: 12, DomainSize: 3, Density: 0.4, Tightness: 0.3, Force: true,
		}, 17)
		if err != nil {
			t.Fatal(err)
		}
		return inst.Problem
	}
	families := []struct {
		name string
		make func(*testing.T) *discsp.Problem
	}{
		{"coloring", coloring},
		{"forcedSAT3", forced},
		{"uniqueSAT3", unique},
		{"binaryCSP", binary},
	}
	learners := []struct {
		name string
		kind discsp.LearningKind
	}{
		{"rslv", discsp.LearnResolvent},
		{"mcs", discsp.LearnMCS},
	}
	for _, fam := range families {
		for _, lc := range learners {
			t.Run(fam.name+"/"+lc.name, func(t *testing.T) {
				p := fam.make(t)
				var stream bytes.Buffer
				opts := discsp.Options{
					InitialSeed: 23,
					Learning:    lc.kind,
					Causal:      discsp.NewTelemetry(nil, &stream),
				}
				if _, err := discsp.Solve(p, opts); err != nil {
					t.Fatal(err)
				}
				g := readCausal(t, opts.Causal, &stream)

				learns := 0
				for _, id := range g.Order {
					if g.Nodes[id].Kind == causal.SpanLearn {
						learns++
					}
				}
				if learns == 0 {
					t.Skipf("instance solved without learning; nothing to walk")
				}
				prov, err := g.Provenance("all")
				if err != nil {
					t.Fatal(err)
				}
				if len(prov.Dangling) > 0 {
					t.Fatalf("provenance dangles: %v", prov.Dangling)
				}
				constraints := 0
				for _, term := range prov.Terminals() {
					switch term.Kind {
					case causal.SpanConstraint:
						constraints++
					case causal.SpanSeed, causal.SpanInit, causal.SpanStep:
						// Terminal frontier also admits seeds and the
						// cause-free activations that opened the run.
					default:
						t.Errorf("walk terminated at %s node %s: a %s must have causes",
							term.Kind, term.ID, term.Kind)
					}
				}
				if constraints == 0 {
					t.Error("no derivation bottomed out at an initial constraint")
				}
			})
		}
	}
}
