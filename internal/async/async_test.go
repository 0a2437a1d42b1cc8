package async

import (
	"errors"
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

func awcFactory(p *csp.Problem, init csp.SliceAssignment, l core.Learning) func(csp.Var) sim.Agent {
	return func(v csp.Var) sim.Agent { return core.NewAgent(v, p, init[v], l) }
}

func TestRunEmptyProblem(t *testing.T) {
	p := csp.NewProblem()
	res, err := Run(p, nil, Options{})
	if err != nil || !res.Solved {
		t.Fatalf("empty problem: res=%+v err=%v", res, err)
	}
}

func TestRunValidatesAgentIDs(t *testing.T) {
	p := csp.NewProblemUniform(2, 2)
	_, err := Run(p, func(csp.Var) sim.Agent {
		return core.NewAgent(0, p, 0, core.Learning{Kind: core.LearnResolvent})
	}, Options{})
	if err == nil {
		t.Fatal("accepted misnumbered agents")
	}
}

func TestAsyncAWCSolvesColoring(t *testing.T) {
	inst, err := gen.Coloring(30, 81, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 12)
	res, err := Run(inst.Problem, awcFactory(inst.Problem, init, core.Learning{Kind: core.LearnResolvent}), Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Solved {
		t.Fatalf("not solved: %+v", res)
	}
	if !inst.Problem.IsSolution(res.Assignment) {
		t.Fatalf("assignment is not a solution")
	}
	if res.Messages == 0 || res.TotalChecks == 0 {
		t.Errorf("metrics empty: %+v", res)
	}
}

func TestAsyncDBSolvesColoring(t *testing.T) {
	inst, err := gen.Coloring(20, 54, 3, 13)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 14)
	res, err := Run(inst.Problem, func(v csp.Var) sim.Agent {
		return breakout.NewAgent(v, inst.Problem, init[v])
	}, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Solved {
		t.Fatalf("DB async not solved: %+v", res)
	}
}

func TestAsyncABTDetectsInsolubility(t *testing.T) {
	// K4 with 3 colors is insoluble; ABT must prove it asynchronously.
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
	}, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Insoluble {
		t.Fatalf("insolubility not detected: %+v", res)
	}
}

// TestAsyncAWCWithJitter injects the fault schedule's per-message delivery
// delays (FIFO per link, reordered across links) on small, loosely
// constrained instances; the algorithm must still converge.
func TestAsyncAWCWithJitter(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		inst, err := gen.Coloring(15, 30, 3, seed)
		if err != nil {
			t.Fatal(err)
		}
		init := gen.RandomInitial(inst.Problem, seed+20)
		res, err := Run(inst.Problem,
			awcFactory(inst.Problem, init, core.Learning{Kind: core.LearnResolvent}),
			Options{Faults: &faults.Config{Seed: seed, MaxDelay: 100 * time.Microsecond}, Timeout: 20 * time.Second})
		if err != nil {
			t.Fatalf("seed %d: %v (res=%+v)", seed, err, res)
		}
		if !res.Solved {
			t.Fatalf("seed %d: not solved under delay: %+v", seed, res)
		}
	}
}

func TestAsyncQuiescenceOnConsistentStart(t *testing.T) {
	// Two unconstrained variables: the system exchanges no repair traffic
	// and the run must end promptly (already a solution).
	p := csp.NewProblemUniform(2, 2)
	init := csp.SliceAssignment{0, 0}
	res, err := Run(p, awcFactory(p, init, core.Learning{Kind: core.LearnResolvent}), Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Solved {
		t.Fatalf("trivial problem unsolved: %+v", res)
	}
}

func TestAsyncTimeout(t *testing.T) {
	// An insoluble problem under an algorithm that cannot prove
	// insolubility (DB) runs until the timeout.
	p := csp.NewProblemUniform(3, 2)
	for _, e := range [][2]csp.Var{{0, 1}, {1, 2}, {0, 2}} {
		if err := p.AddNotEqual(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	init := csp.SliceAssignment{0, 0, 0}
	start := time.Now()
	res, err := Run(p, func(v csp.Var) sim.Agent {
		return breakout.NewAgent(v, p, init[v])
	}, Options{Timeout: 300 * time.Millisecond})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v (res=%+v), want ErrTimeout", err, res)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout took %v", elapsed)
	}
}

func TestMailbox(t *testing.T) {
	mb := newMailbox()
	type m struct {
		sim.Message
		id int
	}
	mb.put(m{})
	mb.put(m{})
	batch, ok := mb.take()
	if !ok || len(batch) != 2 {
		t.Fatalf("take = %d msgs, ok=%v", len(batch), ok)
	}

	// The next take recycles batch: it is cleared and becomes the queue, so
	// later puts land in its backing array.
	var msg sim.Message = m{id: 1}
	mb.put(msg)
	if next, _ := mb.take(); len(next) != 1 {
		t.Fatalf("second take = %d msgs, want 1", len(next))
	}
	mb.put(msg)
	if batch[0] != msg || batch[1] != nil {
		t.Errorf("after a recycling take and one put, the old batch holds %v, want [put message, cleared]", batch)
	}
	if again, _ := mb.take(); &again[0] != &batch[0] {
		t.Errorf("put after a take did not land in the previous batch's array")
	}
	// A warmed cycle of puts and one take allocates nothing.
	cycle := func() {
		for i := 0; i < 8; i++ {
			mb.put(msg)
		}
		if got, _ := mb.take(); len(got) != 8 {
			t.Fatalf("take = %d msgs, want 8", len(got))
		}
	}
	cycle()
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warmed put/take cycle allocated %v times, want 0", allocs)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := mb.take(); ok {
			t.Errorf("take on closed mailbox returned ok")
		}
	}()
	time.Sleep(10 * time.Millisecond)
	mb.close()
	<-done
	// put after close is a no-op.
	mb.put(m{})
	if _, ok := mb.take(); ok {
		t.Errorf("message accepted after close")
	}
}

func TestAsyncDBWithJitter(t *testing.T) {
	inst, err := gen.Coloring(12, 24, 3, 41)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 42)
	res, err := Run(inst.Problem, func(v csp.Var) sim.Agent {
		return breakout.NewAgent(v, inst.Problem, init[v])
	}, Options{Faults: &faults.Config{Seed: 7, MaxDelay: 50 * time.Microsecond}, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatalf("%v (res=%+v)", err, res)
	}
	if !res.Solved {
		t.Fatalf("DB under delay not solved: %+v", res)
	}
}

func TestAsyncGoroutinesDrainAfterRun(t *testing.T) {
	before := runtimeNumGoroutine()
	inst, err := gen.Coloring(20, 54, 3, 43)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 44)
	for i := 0; i < 3; i++ {
		if _, err := Run(inst.Problem, awcFactory(inst.Problem, init, core.Learning{Kind: core.LearnResolvent}), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	// All agent goroutines, the monitor, and the dispatcher must have
	// exited; allow slack for runtime background goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		after := runtimeNumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
