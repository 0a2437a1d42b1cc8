package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"github.com/discsp/discsp/internal/abt"
	"github.com/discsp/discsp/internal/async"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/netrun"
	"github.com/discsp/discsp/internal/sim"
)

// fakeAgent implements sim.Agent; the optional interfaces come from the
// embedding test types below.
type fakeAgent struct{ stepped int }

func (f *fakeAgent) ID() sim.AgentID                     { return 0 }
func (f *fakeAgent) Init() []sim.Message                 { return nil }
func (f *fakeAgent) Step(in []sim.Message) []sim.Message { f.stepped++; return nil }
func (f *fakeAgent) CurrentValue() csp.Value             { return 0 }
func (f *fakeAgent) Checks() int64                       { return 0 }

type reporter struct{}

func (reporter) Insoluble() bool { return true }

type checkpointer struct{}

func (checkpointer) Checkpoint() any        { return "snapshot" }
func (checkpointer) Restore(snap any) error { return nil }

type reannouncer struct{}

func (reannouncer) Reannounce(peer sim.AgentID) []sim.Message { return nil }

func TestWrapAgentForwardsExactlyTheOptionalInterfaces(t *testing.T) {
	for mask := 0; mask < 8; mask++ {
		base := &fakeAgent{}
		var a sim.Agent = base
		switch mask {
		case 1:
			a = struct {
				*fakeAgent
				reporter
			}{base, reporter{}}
		case 2:
			a = struct {
				*fakeAgent
				checkpointer
			}{base, checkpointer{}}
		case 3:
			a = struct {
				*fakeAgent
				reporter
				checkpointer
			}{base, reporter{}, checkpointer{}}
		case 4:
			a = struct {
				*fakeAgent
				reannouncer
			}{base, reannouncer{}}
		case 5:
			a = struct {
				*fakeAgent
				reporter
				reannouncer
			}{base, reporter{}, reannouncer{}}
		case 6:
			a = struct {
				*fakeAgent
				checkpointer
				reannouncer
			}{base, checkpointer{}, reannouncer{}}
		case 7:
			a = struct {
				*fakeAgent
				reporter
				checkpointer
				reannouncer
			}{base, reporter{}, checkpointer{}, reannouncer{}}
		}
		var st stepStats
		w := wrapAgent(a, &st)
		r, isR := w.(sim.InsolubleReporter)
		c, isC := w.(sim.Checkpointer)
		_, isN := w.(sim.Reannouncer)
		if isR != (mask&1 != 0) || isC != (mask&2 != 0) || isN != (mask&4 != 0) {
			t.Errorf("mask %03b: wrapped agent implements reporter=%v checkpointer=%v reannouncer=%v", mask, isR, isC, isN)
			continue
		}
		if isR && !r.Insoluble() {
			t.Errorf("mask %03b: Insoluble not forwarded", mask)
		}
		if isC && c.Checkpoint() != "snapshot" {
			t.Errorf("mask %03b: Checkpoint not forwarded", mask)
		}
		w.Step(nil)
		if base.stepped != 1 || st.calls != 1 {
			t.Errorf("mask %03b: Step reached the agent %d times, counted %d", mask, base.stepped, st.calls)
		}
	}
}

// k4 is 3-coloring the complete graph on four nodes: insoluble.
func k4(t *testing.T) *csp.Problem {
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

func TestWrappedABTStillProvesInsolubility(t *testing.T) {
	p := k4(t)
	stats := make([]stepStats, p.NumVars())
	makeAgent := func(v csp.Var) sim.Agent { return wrapAgent(abt.NewAgent(v, p, 0), &stats[v]) }

	agents := make([]sim.Agent, p.NumVars())
	for v := range agents {
		agents[v] = makeAgent(csp.Var(v))
	}
	res, err := sim.Run(p, agents, sim.Options{MaxCycles: 10000})
	if err != nil || !res.Insoluble {
		t.Errorf("sync: insoluble=%v err=%v, want an insolubility proof", res.Insoluble, err)
	}
	ares, err := async.Run(p, makeAgent, async.Options{Timeout: time.Minute})
	if err != nil || !ares.Insoluble {
		t.Errorf("async: insoluble=%v err=%v, want an insolubility proof", ares.Insoluble, err)
	}
	nres, err := netrun.Run(p, makeAgent, netrun.Options{Timeout: time.Minute, Shards: 2})
	if err != nil || !nres.Insoluble {
		t.Errorf("tcp: insoluble=%v err=%v, want an insolubility proof", nres.Insoluble, err)
	}
}

// toy shrinks a workload to a fraction of a second.
func toy(w workload) workload {
	w.name = "toy-" + w.name
	if w.solve != nil {
		s := *w.solve
		s.n = 12
		s.instances = 4
		w.solve = &s
		return w
	}
	m := *w.mixed
	m.classes = append([]jobClass(nil), m.classes...)
	for i := range m.classes {
		m.classes[i].n = 10
	}
	m.rates = [3]float64{20, 40, 60}
	w.mixed = &m
	return w
}

// TestEveryWorkloadPrintsEveryMetric runs each workload at toy size with
// the traced pass, which measures the end-to-end metrics too, and checks
// that every metric BENCHMARK.json names is printed with its unit, both as
// a line and in the result object.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	for _, w := range workloads {
		tw := toy(w)
		seconds := 50 * time.Millisecond
		if tw.mixed != nil {
			seconds = 150 * time.Millisecond
		}
		rep, _, err := measureWorkload(tw, config{seed: 3, seconds: seconds, trace: true, setupReps: 1})
		if err != nil {
			t.Fatalf("%s: %v", tw.name, err)
		}
		if !rep.correct() {
			t.Errorf("%s: incorrect run: %v", tw.name, rep.faults)
		}
		for _, c := range []struct {
			defs []metricDef
			want map[string]string
		}{{endToEnd, e2e}, {perLayer, layers}} {
			var out bytes.Buffer
			if err := rep.write(&out, c.defs); err != nil {
				t.Fatalf("%s: %v", tw.name, err)
			}
			checkOutput(t, tw.name, out.Bytes(), c.want)
		}
		if rep.values["cpu.samples"] > 0 {
			var sum float64
			for _, b := range cpuBuckets {
				sum += rep.values[b]
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("%s: cpu shares sum to %v, want 1", tw.name, sum)
			}
		}
	}
}

func checkOutput(t *testing.T, name string, out []byte, want map[string]string) {
	t.Helper()
	lines := map[string]string{}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) == 3 {
			lines[f[0]] = f[2]
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", name, err)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: result has %d metrics, BENCHMARK.json lists %d", name, len(res.Metrics), len(want))
	}
	for m, unit := range want {
		if lines[m] != unit {
			t.Errorf("%s: line for %s has unit %q, want %q", name, m, lines[m], unit)
		}
		if got, ok := res.Metrics[m]; !ok || got.Unit != unit {
			t.Errorf("%s: result metric %s = %+v, want unit %q", name, m, got, unit)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON holds the program's metric and workload
// lists equal to BENCHMARK.json's.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layers, names []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var wantE2E, wantLayers []string
	for _, d := range endToEnd {
		wantE2E = append(wantE2E, d.name+" "+d.unit)
	}
	for _, d := range perLayer {
		wantLayers = append(wantLayers, d.name+" "+d.unit)
	}
	if strings.Join(e2e, ",") != strings.Join(wantE2E, ",") {
		t.Errorf("end_to_end = %v, program reports %v", e2e, wantE2E)
	}
	if strings.Join(layers, ",") != strings.Join(wantLayers, ",") {
		t.Errorf("per_layer = %v, program reports %v", layers, wantLayers)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads = %v, program runs %v", names, workloadNames())
	}
}

// TestGoldenPinsTheSyncCostModel checks the embedded golden file covers
// every sync workload and that its first trials still reproduce.
func TestGoldenPinsTheSyncCostModel(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if g.Seed != defaultSeed {
		t.Errorf("golden seed %d, want %d", g.Seed, defaultSeed)
	}
	for _, w := range workloads {
		if w.solve == nil || w.solve.runtime != "sync" {
			continue
		}
		if len(g.Workloads[w.name]) != goldenTrials {
			t.Errorf("%s: golden pins %d trials, want %d", w.name, len(g.Workloads[w.name]), goldenTrials)
			continue
		}
		src := w.solve.source(defaultSeed)
		for i := 0; i < 2; i++ {
			in, err := src.trial(i)
			if err != nil {
				t.Fatal(err)
			}
			o := w.solve.runTrial(in, false, false)
			if m := g.check(w.name, i, o); m != "" {
				t.Errorf("%s: %s", w.name, m)
			}
			o.cycles++
			if g.check(w.name, i, o) == "" {
				t.Errorf("%s: a changed cycle count passes the golden check", w.name)
			}
		}
	}
}

//go:noinline
func busy(until time.Time) uint64 {
	x := uint64(1)
	for time.Now().Before(until) {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var sink uint64

// TestCPUProfileAttributesBenchCode records a CPU profile of a busy loop in
// this package and checks the reader and bucket rule put it in cpu.bench.
func TestCPUProfileAttributesBenchCode(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	sink = busy(time.Now().Add(400 * time.Millisecond))
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares, total := cpuShares(samples)
	if total < 10 {
		t.Fatalf("only %d samples recorded", total)
	}
	var sum float64
	for _, b := range cpuBuckets {
		sum += shares[b]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if shares["cpu.bench"] < 0.5 {
		t.Errorf("cpu.bench share %v of %d samples, want most of them: %v", shares["cpu.bench"], total, shares)
	}
	found := false
	for _, s := range samples {
		for _, f := range s.stack {
			if strings.HasSuffix(f.function, ".busy") && strings.HasSuffix(f.file, "bench_test.go") {
				found = true
			}
		}
	}
	if !found {
		t.Error("no sample names busy in bench_test.go")
	}
}

func TestBucketRule(t *testing.T) {
	core := func(fn, file string) frame {
		return frame{"github.com/discsp/discsp/internal/core." + fn, "/src/internal/core/" + file}
	}
	cases := []struct {
		stack []frame
		want  string
	}{
		{[]frame{{"runtime.mallocgc", ""}, core("(*Agent).deriveResolvent", "learn.go"), core("(*Agent).Step", "agent.go")}, "cpu.core.learn"},
		{[]frame{core("(*Agent).checkAgentView", "agent.go"), {"github.com/discsp/discsp/internal/sim.RunAgents", ""}}, "cpu.core.step"},
		{[]frame{{"internal/runtime/syscall.Syscall6", ""}, {"syscall.write", ""}, {"github.com/discsp/discsp/internal/netrun.(*hub).route", ""}}, "cpu.syscall"},
		{[]frame{{"github.com/discsp/discsp/internal/wire.(*Decoder).Decode", ""}}, "cpu.wire"},
		{[]frame{{"github.com/discsp/discsp.Solve", ""}}, "cpu.other"},
		{[]frame{{"github.com/discsp/discsp/internal/gen.Coloring", ""}}, "cpu.other"},
		{[]frame{{"main.(*timedAgent).Step", ""}, {"github.com/discsp/discsp/internal/sim.RunAgents", ""}}, "cpu.bench"},
		{[]frame{{"github.com/discsp/discsp/bench.busy", ""}}, "cpu.bench"},
		{[]frame{{"runtime.gcBgMarkWorker", ""}}, "cpu.runtime"},
		{nil, "cpu.runtime"},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 2.75, 5.5, 8.25},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestDeriveIsStableAndSpreads(t *testing.T) {
	if derive(1, 2) != derive(1, 2) {
		t.Fatal("derive is not deterministic")
	}
	seen := map[int64]bool{}
	for s := int64(0); s < 4; s++ {
		for i := int64(0); i < 4; i++ {
			seen[derive(s, i)] = true
		}
	}
	if len(seen) != 16 {
		t.Errorf("derive collides: %d distinct of 16", len(seen))
	}
}
