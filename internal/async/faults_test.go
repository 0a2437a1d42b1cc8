package async

import (
	"errors"
	"strings"
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

// TestAsyncQuiescenceWithInFlightDuplicates pins the satellite property: the
// quiescence detector must stay sound while duplicate copies are still
// sitting in the dispatcher's delay heap. Duplicates are never counted in
// flight (they are suppressed, not delivered), so a run whose real traffic
// has drained terminates promptly instead of waiting out the timeout — and
// conversely a duplicate must never be double-delivered to make up the
// count. DB is the sharpest probe: its ok?-wave counter (oks == neighbor
// count) genuinely breaks if a duplicate slips through.
func TestAsyncQuiescenceWithInFlightDuplicates(t *testing.T) {
	inst, err := gen.Coloring(12, 24, 3, 41)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 42)
	res, err := Run(inst.Problem, func(v csp.Var) sim.Agent {
		return breakout.NewAgent(v, inst.Problem, init[v])
	}, Options{
		Timeout: 20 * time.Second,
		Faults:  &faults.Config{Seed: 3, Duplicate: 0.5, MaxDelay: 500 * time.Microsecond},
	})
	if err != nil {
		t.Fatalf("%v (res=%+v)", err, res)
	}
	if !res.Solved {
		t.Fatalf("DB under delay+duplicates not solved: %+v", res)
	}
	if res.DuplicatesSuppressed == 0 {
		t.Fatalf("no duplicates suppressed at 50%% dup rate: %+v", res)
	}
	if res.Duration > 15*time.Second {
		t.Errorf("run crawled to the deadline (%v): quiescence likely stuck on dup copies", res.Duration)
	}
}

// TestAsyncConsistentStartQuiescesUnderDuplicates runs an already-consistent
// system whose only traffic is the initial ok? exchange — with every message
// duplicated, the run must still end promptly.
func TestAsyncConsistentStartQuiescesUnderDuplicates(t *testing.T) {
	p := csp.NewProblemUniform(2, 2)
	if err := p.AddNotEqual(0, 1); err != nil {
		t.Fatal(err)
	}
	init := csp.SliceAssignment{0, 1}
	res, err := Run(p, awcFactory(p, init, core.Learning{Kind: core.LearnResolvent}), Options{
		Timeout: 10 * time.Second,
		Faults:  &faults.Config{Seed: 5, Duplicate: 1.0, MaxDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Solved && !res.Quiescent {
		t.Fatalf("consistent start did not terminate cleanly: %+v", res)
	}
	if res.Duration > 5*time.Second {
		t.Errorf("termination took %v with duplicates in flight", res.Duration)
	}
}

func TestAsyncAWCDropRetransmit(t *testing.T) {
	inst, err := gen.Coloring(15, 30, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 22)
	res, err := Run(inst.Problem,
		awcFactory(inst.Problem, init, core.Learning{Kind: core.LearnResolvent}),
		Options{
			Timeout: 20 * time.Second,
			Faults:  &faults.Config{Seed: 9, Drop: 0.2},
		})
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Solved {
		t.Fatalf("not solved under 20%% drop: %+v", res)
	}
	if res.Retransmits == 0 {
		t.Fatalf("no retransmits recorded at 20%% drop: %+v", res)
	}
}

// TestAsyncCorruptDegradesToDrop runs a corrupt-only schedule: with no wire
// there is no checksum to catch a damaged copy, so every corrupted attempt
// must cost a retransmission, exactly like a lost one, and none may count
// as a detected corrupt frame.
func TestAsyncCorruptDegradesToDrop(t *testing.T) {
	inst, err := gen.Coloring(15, 30, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 22)
	res, err := Run(inst.Problem,
		awcFactory(inst.Problem, init, core.Learning{Kind: core.LearnResolvent}),
		Options{
			Timeout: 20 * time.Second,
			Faults:  &faults.Config{Seed: 9, Corrupt: 0.2},
		})
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Solved {
		t.Fatalf("not solved under 20%% corruption: %+v", res)
	}
	if res.Retransmits == 0 {
		t.Fatalf("no retransmits recorded at 20%% corruption: %+v", res)
	}
	if res.CorruptFrames != 0 {
		t.Fatalf("CorruptFrames = %d, want 0: a corruption here is a drop", res.CorruptFrames)
	}
}

// burstMsg is the n-th message of a sender's burst.
type burstMsg struct {
	from, to sim.AgentID
	n        int
}

func (m burstMsg) From() sim.AgentID { return m.from }
func (m burstMsg) To() sim.AgentID   { return m.to }

// burstAgent sends burst numbered messages to agent to at Init, and records
// what it receives. It holds value 0 until it has received want messages,
// then moves to value 1.
type burstAgent struct {
	id, to      sim.AgentID
	burst, want int
	got         []burstMsg
}

func (a *burstAgent) ID() sim.AgentID { return a.id }

func (a *burstAgent) Init() []sim.Message {
	out := make([]sim.Message, a.burst)
	for i := range out {
		out[i] = burstMsg{from: a.id, to: a.to, n: i}
	}
	return out
}

func (a *burstAgent) Step(in []sim.Message) []sim.Message {
	for _, m := range in {
		a.got = append(a.got, m.(burstMsg))
	}
	return nil
}

func (a *burstAgent) CurrentValue() csp.Value {
	if a.want > 0 && len(a.got) == a.want {
		return 1
	}
	return 0
}

func (a *burstAgent) Checks() int64 { return 0 }

// TestAsyncDelayKeepsLinkFIFO checks route's per-link clamp under the fault
// schedule's delays. Agents 0 and 1 each send a numbered burst to agent 2,
// and Run routes agent 0's whole burst before agent 1's. The seed is chosen
// so that the hashed delays on link 0→2 are out of order and link 1→2's
// first delay is far below link 0→2's largest. Every link must still
// deliver in send order, while the two links interleave out of send order.
func TestAsyncDelayKeepsLinkFIFO(t *testing.T) {
	const (
		burst    = 16
		maxDelay = 20 * time.Millisecond
	)
	cfg := faults.Config{Seed: 10, MaxDelay: maxDelay}
	inj := faults.New(cfg)
	var largest0 time.Duration
	inverted := false
	for seq := int64(1); seq <= burst; seq++ {
		d := inj.Delay(0, 2, seq, 0)
		inverted = inverted || d < largest0
		largest0 = max(largest0, d)
	}
	if !inverted || largest0-inj.Delay(1, 2, 1, 0) < maxDelay/2 {
		t.Fatalf("seed %d does not reorder: link 0→2 inverted=%v, largest delay %v, link 1→2's first %v",
			cfg.Seed, inverted, largest0, inj.Delay(1, 2, 1, 0))
	}

	// Agent 2 must not take value 0 (a unary constraint), so the run is
	// solved only once it has received both bursts.
	p := csp.NewProblemUniform(3, 2)
	if err := p.AddNogood(csp.MustNogood(csp.Lit{Var: 2, Val: 0})); err != nil {
		t.Fatal(err)
	}
	recv := &burstAgent{id: 2, want: 2 * burst}
	res, err := Run(p, func(v csp.Var) sim.Agent {
		if v == 2 {
			return recv
		}
		return &burstAgent{id: sim.AgentID(v), to: 2, burst: burst}
	}, Options{Timeout: 10 * time.Second, Faults: &cfg})
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Solved || len(recv.got) != 2*burst {
		t.Fatalf("received %d of %d messages: %+v", len(recv.got), 2*burst, res)
	}
	next := [2]int{}
	firstOf1, lastOf0 := -1, -1
	for i, m := range recv.got {
		if m.n != next[m.from] {
			t.Fatalf("link %d→2 delivered message %d where %d was next: arrivals %v", m.from, m.n, next[m.from], recv.got)
		}
		next[m.from]++
		if m.from == 1 && firstOf1 < 0 {
			firstOf1 = i
		}
		if m.from == 0 {
			lastOf0 = i
		}
	}
	if firstOf1 > lastOf0 {
		t.Fatalf("links did not interleave: all of 0→2 arrived before 1→2: arrivals %v", recv.got)
	}
}

func TestAsyncCrashRestartAWC(t *testing.T) {
	inst, err := gen.Coloring(15, 30, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 33)
	res, err := Run(inst.Problem,
		awcFactory(inst.Problem, init, core.Learning{Kind: core.LearnResolvent}),
		Options{
			Timeout: 20 * time.Second,
			Faults: &faults.Config{Seed: 1, Crashes: []faults.Crash{
				{Agent: 2, AfterSteps: 0, Restart: true},
				{Agent: 7, AfterSteps: 1, Restart: true},
			}},
		})
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Solved {
		t.Fatalf("not solved across crash-restarts: %+v", res)
	}
	// The run may legitimately finish before every scheduled crash point is
	// reached, but agent 2 crashes on its very first batch, which is routed
	// before any goroutine starts.
	if res.Restarts < 1 {
		t.Fatalf("restarts = %d, want >= 1: %+v", res.Restarts, res)
	}
	if res.Retransmits == 0 {
		t.Errorf("lost batches were not recorded as retransmitted: %+v", res)
	}
}

func TestAsyncCrashRestartABTInsoluble(t *testing.T) {
	// K4 with 3 colors is insoluble; the proof must survive an agent losing
	// its process mid-derivation and resuming from its checkpoint (the
	// nogood store is durable, so no derivation is repeated from scratch).
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
		Timeout: 20 * time.Second,
		Faults: &faults.Config{Seed: 2, Crashes: []faults.Crash{
			{Agent: 1, AfterSteps: 2, Restart: true},
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

// TestAsyncTimeoutErrorState pins the satellite contract: a timed-out run
// returns a *TimeoutError whose fields diagnose the stuck state without any
// further instrumentation.
func TestAsyncTimeoutErrorState(t *testing.T) {
	// An insoluble triangle under DB (which cannot prove insolubility)
	// runs until the deadline.
	p := csp.NewProblemUniform(3, 2)
	for _, e := range [][2]csp.Var{{0, 1}, {1, 2}, {0, 2}} {
		if err := p.AddNotEqual(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	init := csp.SliceAssignment{0, 0, 0}
	_, err := Run(p, func(v csp.Var) sim.Agent {
		return breakout.NewAgent(v, p, init[v])
	}, Options{Timeout: 300 * time.Millisecond})
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %T %v, want *TimeoutError", err, err)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("TimeoutError does not wrap ErrTimeout: %v", err)
	}
	if te.Timeout != 300*time.Millisecond {
		t.Errorf("Timeout = %v", te.Timeout)
	}
	if len(te.Processed) != 3 {
		t.Fatalf("Processed = %v, want 3 entries", te.Processed)
	}
	if te.Delivered == 0 {
		t.Errorf("Delivered = 0; DB exchanges traffic before the deadline")
	}
	var total int64
	for _, n := range te.Processed {
		total += n
	}
	if total != te.Delivered {
		t.Errorf("per-agent processed %v does not sum to delivered %d", te.Processed, te.Delivered)
	}
	for _, want := range []string{"in flight", "delivered", "processed"} {
		if !strings.Contains(te.Error(), want) {
			t.Errorf("error message %q missing %q", te.Error(), want)
		}
	}
}
