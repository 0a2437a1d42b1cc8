package discsp_test

import (
	"bytes"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/discsp/discsp"
	"github.com/discsp/discsp/internal/causal"
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

// TestSolveTCPWorkerTransport runs a SolveTCP hub whose agents live in two
// SolveTCPWorker goroutines, split by parity, that share the hub's Options.
// Half of the hub's first delivery attempts are corrupted: on a link whose
// worker armed the CRC trailer from Options.TCPTransport the receiver
// detects and counts each one, while an unarmed link would turn every
// corruption into a silent drop.
func TestSolveTCPWorkerTransport(t *testing.T) {
	inst, err := discsp.GenerateColoring(15, 40, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	opts := discsp.Options{
		InitialSeed:  11,
		Timeout:      30 * time.Second,
		FaultProfile: "corrupt=0.5",
		FaultSeed:    9,
		TCPShards:    2,
		TCPExternal:  true,
		TCPTransport: discsp.TCPTransport{Checksum: true},
	}
	var addrs []string
	listening := make(chan struct{})
	opts.TCPOnListen = func(a []string) {
		addrs = a
		close(listening)
	}
	// A hub that fails before it listens never calls TCPOnListen; hubDone
	// releases the workers then.
	hubDone := make(chan struct{})
	var corrupt atomic.Int64
	var wg sync.WaitGroup
	for parity := 0; parity < 2; parity++ {
		var vars []int
		for v := parity; v < inst.Problem.NumVars(); v += 2 {
			vars = append(vars, v)
		}
		wg.Add(1)
		go func(vars []int) {
			defer wg.Done()
			select {
			case <-listening:
			case <-hubDone:
				return
			}
			st, err := discsp.SolveTCPWorker(inst.Problem, opts, discsp.TCPWorkerOptions{Addrs: addrs, Vars: vars})
			if err != nil {
				t.Errorf("worker %v: %v", vars, err)
			}
			corrupt.Add(st.CorruptFrames)
		}(vars)
	}
	res, err := discsp.SolveTCP(inst.Problem, opts)
	close(hubDone)
	wg.Wait()
	if err != nil {
		t.Fatalf("SolveTCP: %v (res=%+v)", err, res)
	}
	if !res.Solved || !inst.Problem.IsSolution(res.Assignment) {
		t.Fatalf("not solved: %+v", res)
	}
	if corrupt.Load() == 0 {
		t.Errorf("workers counted no corrupt frames: their links did not arm the checksum")
	}
}

// TestSolveTCPWorkerTracesFromOptions runs an untraced SolveTCP hub whose
// agents all live in one SolveTCPWorker, traced through the same
// Options.Causal every other entry point reads. The worker's stream is
// whole: complete, free of dangling IDs, and its step spans cite the
// messages that released them, whose trace IDs crossed the hub.
func TestSolveTCPWorkerTracesFromOptions(t *testing.T) {
	inst, err := discsp.GenerateColoring(15, 40, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	hub := discsp.Options{InitialSeed: 11, Timeout: 30 * time.Second, TCPExternal: true}
	var addrs []string
	listening := make(chan struct{})
	hub.TCPOnListen = func(a []string) {
		addrs = a
		close(listening)
	}
	var stream bytes.Buffer
	worker := discsp.Options{InitialSeed: 11, Causal: discsp.NewTelemetry(nil, &stream)}
	// A hub that fails before it listens never calls TCPOnListen; hubDone
	// releases the worker then.
	hubDone := make(chan struct{})
	workerErr := make(chan error, 1)
	go func() {
		select {
		case <-listening:
		case <-hubDone:
			workerErr <- nil
			return
		}
		vars := make([]int, inst.Problem.NumVars())
		for v := range vars {
			vars[v] = v
		}
		_, err := discsp.SolveTCPWorker(inst.Problem, worker, discsp.TCPWorkerOptions{Addrs: addrs, Vars: vars})
		workerErr <- err
	}()
	res, err := discsp.SolveTCP(inst.Problem, hub)
	close(hubDone)
	werr := <-workerErr
	if err != nil {
		t.Fatalf("SolveTCP: %v (res=%+v)", err, res)
	}
	if !res.Solved || !inst.Problem.IsSolution(res.Assignment) {
		t.Fatalf("not solved: %+v", res)
	}
	if werr != nil {
		t.Fatalf("worker: %v", werr)
	}
	g := readCausal(t, worker.Causal, &stream)
	cited := 0
	for _, id := range g.Order {
		if n := g.Nodes[id]; n.Kind == causal.SpanStep {
			for _, c := range n.Causes {
				if g.Nodes[c].Kind == causal.KindMessage {
					cited++
				}
			}
		}
	}
	if cited == 0 {
		t.Error("no step span cites a message: trace IDs did not cross the untraced hub")
	}
}

// TestSolveTCPWorkerRejectsTelemetry: a worker has no event sink, so
// Options.Telemetry is an error returned before any node dials the hub.
func TestSolveTCPWorkerRejectsTelemetry(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var dialed atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			dialed.Add(1)
			conn.Close()
		}
	}()
	p := chain(t, 4, 3)
	opts := discsp.Options{Telemetry: discsp.NewTelemetry(discsp.NewMetricsRegistry(), nil)}
	_, err = discsp.SolveTCPWorker(p, opts, discsp.TCPWorkerOptions{
		Addrs:          []string{ln.Addr().String()},
		Vars:           []int{0, 1, 2, 3},
		ConnectTimeout: 500 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "Options.Telemetry") {
		t.Errorf("SolveTCPWorker with Options.Telemetry: err = %v, want one naming Options.Telemetry", err)
	}
	if n := dialed.Load(); n != 0 {
		t.Errorf("the worker dialed the hub %d times", n)
	}
}

// TestParseRunVocabulary pins the names every surface accepts for -algo
// and -learn, and that anything else, the empty string included, is an
// error.
func TestParseRunVocabulary(t *testing.T) {
	algos := map[string]discsp.AlgorithmKind{"awc": discsp.AWC, "db": discsp.DB, "abt": discsp.ABT}
	for name, want := range algos {
		if got, err := discsp.ParseAlgorithm(name); err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	learners := map[string]discsp.LearningKind{"rslv": discsp.LearnResolvent, "mcs": discsp.LearnMCS, "none": discsp.LearnNone}
	for name, want := range learners {
		if got, err := discsp.ParseLearning(name); err != nil || got != want {
			t.Errorf("ParseLearning(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, bad := range []string{"", "AWC", "central"} {
		if _, err := discsp.ParseAlgorithm(bad); err == nil {
			t.Errorf("ParseAlgorithm(%q) accepted", bad)
		}
		if _, err := discsp.ParseLearning(bad); err == nil {
			t.Errorf("ParseLearning(%q) accepted", bad)
		}
	}
}

// TestSolveTCPExternalRejectsCausal: a hub whose agents all live in
// external workers has no spans to record, so Options.Causal is an error
// that names where the spans are recorded, returned before the hub listens
// and before anything reaches the stream.
func TestSolveTCPExternalRejectsCausal(t *testing.T) {
	var stream bytes.Buffer
	listened := false
	opts := discsp.Options{
		Timeout:     time.Second,
		TCPExternal: true,
		TCPOnListen: func([]string) { listened = true },
		Causal:      discsp.NewTelemetry(nil, &stream),
	}
	_, err := discsp.SolveTCP(chain(t, 4, 3), opts)
	if err == nil || !strings.Contains(err.Error(), "SolveTCPWorker") || !strings.Contains(err.Error(), "dcspnode -causal") {
		t.Errorf("SolveTCP with TCPExternal and Causal: err = %v, want one naming SolveTCPWorker and dcspnode -causal", err)
	}
	if listened {
		t.Error("the hub listened before rejecting Causal")
	}
	if err := opts.Causal.Flush(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stream.String(), `"runtime"`) {
		t.Errorf("the rejected run wrote its meta event: %s", stream.String())
	}
}

// TestMessagesByTypeNamesAWCKinds pins the delivery profile's keys on a
// seeded sync AWC+Rslv solve: the ok? and nogood kinds appear under their
// package-qualified names, whatever representation they travel in, no
// other key appears, and the kinds sum to the delivered total.
func TestMessagesByTypeNamesAWCKinds(t *testing.T) {
	inst, err := discsp.GenerateColoring(30, 81, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := discsp.Solve(inst.Problem, discsp.Options{Learning: discsp.LearnResolvent, InitialSeed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("not solved: %+v", res)
	}
	for _, kind := range []string{"core.Ok", "core.NogoodMsg"} {
		if res.MessagesByType[kind] == 0 {
			t.Errorf("MessagesByType = %v, want %s deliveries", res.MessagesByType, kind)
		}
	}
	var sum int64
	for kind, n := range res.MessagesByType {
		switch kind {
		case "core.Ok", "core.NogoodMsg", "core.Request":
		default:
			t.Errorf("MessagesByType has unexpected kind %q", kind)
		}
		sum += int64(n)
	}
	if sum != res.Messages {
		t.Errorf("MessagesByType sums to %d, want Messages = %d", sum, res.Messages)
	}
}
