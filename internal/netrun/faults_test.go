package netrun

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/discsp/discsp/internal/abt"
	"github.com/discsp/discsp/internal/breakout"
	"github.com/discsp/discsp/internal/core"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/faults"
	"github.com/discsp/discsp/internal/gen"
	"github.com/discsp/discsp/internal/sim"
)

func insolubleTriangle(t *testing.T) *csp.Problem {
	t.Helper()
	p := csp.NewProblemUniform(3, 2)
	for _, e := range [][2]csp.Var{{0, 1}, {1, 2}, {0, 2}} {
		if err := p.AddNotEqual(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestNetrunDisconnectFastFail pins the satellite regression: a node that
// dies mid-run without a scheduled restart must surface as a prompt
// diagnostic error from the hub's send path, not as a silent 30-second
// timeout. DB on an insoluble triangle keeps traffic flowing forever, so
// retransmissions to the dead node guarantee a send failure quickly.
func TestNetrunDisconnectFastFail(t *testing.T) {
	p := insolubleTriangle(t)
	init := csp.SliceAssignment{0, 0, 0}
	start := time.Now()
	res, err := Run(p, func(v csp.Var) sim.Agent {
		return breakout.NewAgent(v, p, init[v])
	}, Options{
		Timeout: 30 * time.Second,
		Faults: &faults.Config{Seed: 1, Crashes: []faults.Crash{
			{Agent: 1, AfterSteps: 2, Restart: false},
		}},
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatalf("dead node produced no error: %+v", res)
	}
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
	if errors.Is(err, ErrTimeout) {
		t.Fatalf("dead node reported as timeout: %v", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("fast-fail took %v; the run idled toward the timeout", elapsed)
	}
	if !strings.Contains(err.Error(), "node") {
		t.Errorf("diagnostic %q does not identify the node", err)
	}
}

// TestNetrunTimeoutErrorState pins the satellite contract: a timed-out run
// returns a *TimeoutError carrying the hub's last snapshot.
func TestNetrunTimeoutErrorState(t *testing.T) {
	p := insolubleTriangle(t)
	init := csp.SliceAssignment{0, 0, 0}
	_, err := Run(p, func(v csp.Var) sim.Agent {
		return breakout.NewAgent(v, p, init[v])
	}, Options{Timeout: 500 * time.Millisecond})
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %T %v, want *TimeoutError", err, err)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("TimeoutError does not wrap ErrTimeout: %v", err)
	}
	if len(te.Processed) != 3 {
		t.Fatalf("Processed = %v, want 3 entries", te.Processed)
	}
	if te.Messages == 0 {
		t.Errorf("Messages = 0; DB exchanges traffic before the deadline")
	}
	for _, want := range []string{"in flight", "routed", "processed"} {
		if !strings.Contains(te.Error(), want) {
			t.Errorf("error message %q missing %q", te.Error(), want)
		}
	}
}

func TestNetrunAWCUnderDropAndDup(t *testing.T) {
	inst, err := gen.Coloring(15, 35, 3, 71)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 72)
	res, err := Run(inst.Problem, func(v csp.Var) sim.Agent {
		return core.NewAgent(v, inst.Problem, init[v], core.Learning{Kind: core.LearnResolvent})
	}, Options{
		Timeout: 60 * time.Second,
		Faults:  &faults.Config{Seed: 4, Drop: 0.1, Duplicate: 0.3, MaxDelay: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Solved {
		t.Fatalf("not solved under drop+dup: %+v", res)
	}
	if !inst.Problem.IsSolution(res.Assignment) {
		t.Fatalf("assignment is not a solution")
	}
	if res.Retransmits == 0 {
		t.Errorf("no retransmits at 10%% drop: %+v", res)
	}
	if res.DuplicatesSuppressed == 0 {
		t.Errorf("no duplicates suppressed at 30%% dup: %+v", res)
	}
}

// mustRejoin is the crash-restart instance whose verdict cannot arrive
// before the restart: x0 != x1 over {0, 1}, both starting at 0, and agent 1
// crashing in its first step. Agent 0 outranks agent 1 under AWC (equal
// priorities break toward the smaller id), so agent 1 must move to 1, and
// it does so in exactly the step the crash kills before its state report
// leaves. The hub can therefore learn x1 = 1 only from the restarted
// incarnation's re-report, and Restarts is counted before that incarnation
// starts. A restart that races the verdict (TestNetrunCrashRestartAWC's
// 15-variable coloring, where the crashed agent's value may already be
// part of a solution) can pin only Restarts <= 1.
func mustRejoin(t *testing.T) (*csp.Problem, csp.SliceAssignment, *faults.Config) {
	t.Helper()
	p := csp.NewProblemUniform(2, 2)
	if err := p.AddNotEqual(0, 1); err != nil {
		t.Fatal(err)
	}
	return p, csp.SliceAssignment{0, 0}, &faults.Config{Seed: 5, Crashes: []faults.Crash{
		{Agent: 1, AfterSteps: 0, Restart: true},
	}}
}

func TestNetrunCrashRestartAWC(t *testing.T) {
	inst, err := gen.Coloring(15, 35, 3, 73)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 74)
	res, err := Run(inst.Problem, awcMaker(inst.Problem, init), Options{
		Timeout: 60 * time.Second,
		Faults: &faults.Config{Seed: 5, Crashes: []faults.Crash{
			{Agent: 2, AfterSteps: 0, Restart: true},
		}},
	})
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Solved || !inst.Problem.IsSolution(res.Assignment) {
		t.Fatalf("not solved across crash-restart: %+v", res)
	}
	if res.Restarts > 1 {
		t.Fatalf("restarts = %d, want at most 1: %+v", res.Restarts, res)
	}

	p, init, fcfg := mustRejoin(t)
	res, err = Run(p, awcMaker(p, init), Options{Timeout: 30 * time.Second, Faults: fcfg})
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Solved || !p.IsSolution(res.Assignment) {
		t.Fatalf("not solved across crash-restart: %+v", res)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1: %+v", res.Restarts, res)
	}
}

// TestAcceptAfterShutdownSweepCloses pins the shutdown race a restart can
// lose: a connection accepted after Run's shutdown sweep closed every
// known connection must be closed by its accept loop. Otherwise the
// dialing node waits forever for a welcome no route loop will send, and
// Run never returns. TestNetrunCrashRestartAWC hit this when agent 2's
// restart coincided with the verdict.
func TestAcceptAfterShutdownSweepCloses(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	h := &hub{connsClosed: true}
	var readWG sync.WaitGroup
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.acceptLoop(&relay{ln: ln}, &readWG)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("late connection left open: read returned %v, want EOF", err)
	}
	<-done
	readWG.Wait()
	if len(h.allConns) != 0 {
		t.Errorf("late connection joined the byte sweep")
	}
}

func TestNetrunCrashRestartABTInsoluble(t *testing.T) {
	// K4 with 3 colors: the insolubility proof must survive a node crash.
	// The restarted node resumes from its checkpoint with its nogood store
	// intact, so no derivation restarts from scratch.
	p := csp.NewProblemUniform(4, 3)
	for i := csp.Var(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if err := p.AddNotEqual(i, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := Run(p, func(v csp.Var) sim.Agent {
		return abt.NewAgent(v, p, 0)
	}, Options{
		Timeout: 60 * time.Second,
		Faults: &faults.Config{Seed: 6, Crashes: []faults.Crash{
			{Agent: 1, AfterSteps: 1, Restart: true},
		}},
	})
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Insoluble {
		t.Fatalf("insolubility not proven across restart: %+v", res)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", res.Restarts)
	}
}
