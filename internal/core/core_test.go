package core

import (
	"testing"

	"github.com/discsp/discsp/internal/causal"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/sim"
)

func TestLearningKindString(t *testing.T) {
	tests := []struct {
		kind LearningKind
		want string
	}{
		{LearnNone, "No"},
		{LearnResolvent, "Rslv"},
		{LearnMCS, "Mcs"},
		{LearningKind(42), "LearningKind(42)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.kind), got, tt.want)
		}
	}
}

func TestLearningName(t *testing.T) {
	tests := []struct {
		l    Learning
		want string
	}{
		{Learning{Kind: LearnResolvent}, "Rslv"},
		{Learning{Kind: LearnMCS}, "Mcs"},
		{Learning{Kind: LearnNone}, "No"},
		{Learning{Kind: LearnResolvent, SizeBound: 3}, "3rdRslv"},
		{Learning{Kind: LearnResolvent, SizeBound: 4}, "4thRslv"},
		{Learning{Kind: LearnResolvent, SizeBound: 5}, "5thRslv"},
		{Learning{Kind: LearnResolvent, SizeBound: 1}, "1stRslv"},
		{Learning{Kind: LearnResolvent, SizeBound: 2}, "2ndRslv"},
		{Learning{Kind: LearnResolvent, SizeBound: 11}, "11thRslv"},
		{Learning{Kind: LearnResolvent, SizeBound: 12}, "12thRslv"},
		{Learning{Kind: LearnResolvent, SizeBound: 13}, "13thRslv"},
		{Learning{Kind: LearnResolvent, SizeBound: 21}, "21stRslv"},
		{Learning{Kind: LearnResolvent, SizeBound: 22}, "22ndRslv"},
		{Learning{Kind: LearnResolvent, SizeBound: 23}, "23rdRslv"},
		{Learning{Kind: LearnResolvent, NoRecord: true}, "Rslv/norec"},
		{Learning{Kind: LearnNone, SizeBound: 3}, "No"},
	}
	for _, tt := range tests {
		if got := tt.l.Name(); got != tt.want {
			t.Errorf("Name(%+v) = %q, want %q", tt.l, got, tt.want)
		}
	}
}

func TestShouldRecord(t *testing.T) {
	small := csp.MustNogood(csp.Lit{Var: 0, Val: 0}, csp.Lit{Var: 1, Val: 1})
	big := csp.MustNogood(
		csp.Lit{Var: 0, Val: 0}, csp.Lit{Var: 1, Val: 1},
		csp.Lit{Var: 2, Val: 0}, csp.Lit{Var: 3, Val: 1},
	)
	tests := []struct {
		name string
		l    Learning
		ng   csp.Nogood
		want bool
	}{
		{"unrestricted records all", Learning{Kind: LearnResolvent}, big, true},
		{"within bound", Learning{Kind: LearnResolvent, SizeBound: 3}, small, true},
		{"over bound", Learning{Kind: LearnResolvent, SizeBound: 3}, big, false},
		{"at bound", Learning{Kind: LearnResolvent, SizeBound: 4}, big, true},
		{"norec records nothing", Learning{Kind: LearnResolvent, NoRecord: true}, small, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.l.shouldRecord(tt.ng); got != tt.want {
				t.Errorf("shouldRecord = %v, want %v", got, tt.want)
			}
		})
	}
}

// TestOkWithCausalIDCopies pins that stamping an ok? message leaves the
// original alone: a broadcast's messages share one array, and a recipient
// may still read the unstamped one.
func TestOkWithCausalIDCopies(t *testing.T) {
	orig := &Ok{Sender: 1, Receiver: 2, Value: 1, Priority: 3}
	id := causal.ID{Agent: 1, Seq: 7}
	stamped, ok := orig.WithCausalID(id).(*Ok)
	if !ok {
		t.Fatalf("WithCausalID returned %T, want *Ok", orig.WithCausalID(id))
	}
	if stamped == orig {
		t.Fatal("WithCausalID returned its receiver, want a copy")
	}
	if stamped.CausalID() != id || stamped.Sender != 1 || stamped.Receiver != 2 || stamped.Value != 1 || stamped.Priority != 3 {
		t.Errorf("stamped = %+v, want the original's fields with TID %v", *stamped, id)
	}
	if !orig.TID.IsZero() {
		t.Errorf("receiver's TID = %v after stamping, want zero", orig.TID)
	}
}

func TestRankOutranks(t *testing.T) {
	tests := []struct {
		a, b rank
		want bool
	}{
		{rank{p: 2, v: 5}, rank{p: 1, v: 0}, true}, // higher priority wins
		{rank{p: 1, v: 0}, rank{p: 2, v: 5}, false},
		{rank{p: 1, v: 2}, rank{p: 1, v: 5}, true}, // tie: smaller id wins
		{rank{p: 1, v: 5}, rank{p: 1, v: 2}, false},
		{rank{p: 0, v: 3}, rank{p: 0, v: 3}, false}, // equal: not strictly higher
	}
	for _, tt := range tests {
		if got := tt.a.outranks(tt.b); got != tt.want {
			t.Errorf("%v.outranks(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

// colorValue names for the Figure 1 test.
const (
	red    csp.Value = 0
	yellow csp.Value = 1
	green  csp.Value = 2
)

// figure1Agent reconstructs the worked example of Section 3.2: agent x5
// (here variable 4) with arc constraints to x1..x4 (variables 0..3), the
// received ternary nogood ((x3,g)(x4,r)(x5,y)), agent_view x1=r, x2=y,
// x3=g, x4=r with priorities 5, 3, 4, 2, and own priority 0.
func figure1Agent(t *testing.T, learning Learning) (*Agent, []sim.Message) {
	t.Helper()
	p := csp.NewProblemUniform(5, 3)
	for other := csp.Var(0); other < 4; other++ {
		if err := p.AddNotEqual(other, 4); err != nil {
			t.Fatal(err)
		}
	}
	a := NewAgent(4, p, red, learning)

	in := []sim.Message{
		&Ok{Sender: 0, Receiver: 4, Value: red, Priority: 5},
		&Ok{Sender: 1, Receiver: 4, Value: yellow, Priority: 3},
		&Ok{Sender: 2, Receiver: 4, Value: green, Priority: 4},
		&Ok{Sender: 3, Receiver: 4, Value: red, Priority: 2},
		NogoodMsg{Sender: 3, Receiver: 4, Nogood: csp.MustNogood(
			csp.Lit{Var: 2, Val: green},
			csp.Lit{Var: 3, Val: red},
			csp.Lit{Var: 4, Val: yellow},
		)},
	}
	return a, in
}

// TestFigure1Resolvent reproduces the paper's worked example end to end:
// the deadend must produce exactly the resolvent ((x1,r)(x2,y)(x3,g)) —
// here {(0,r),(1,y),(2,g)} — sent to agents 0, 1, and 2, with the priority
// raised above every view entry.
func TestFigure1Resolvent(t *testing.T) {
	a, in := figure1Agent(t, Learning{Kind: LearnResolvent})
	out := a.Step(in)

	want := csp.MustNogood(
		csp.Lit{Var: 0, Val: red},
		csp.Lit{Var: 1, Val: yellow},
		csp.Lit{Var: 2, Val: green},
	)
	var nogoodTargets []sim.AgentID
	for _, m := range out {
		nm, ok := m.(NogoodMsg)
		if !ok {
			continue
		}
		if !nm.Nogood.Equal(want) {
			t.Errorf("sent nogood %v, want %v", nm.Nogood, want)
		}
		nogoodTargets = append(nogoodTargets, nm.Receiver)
	}
	if len(nogoodTargets) != 3 {
		t.Fatalf("nogood sent to %v, want agents 0,1,2", nogoodTargets)
	}
	for i, wantTo := range []sim.AgentID{0, 1, 2} {
		if nogoodTargets[i] != wantTo {
			t.Errorf("nogood target %d = %d, want %d", i, nogoodTargets[i], wantTo)
		}
	}
	if a.Priority() != 6 {
		t.Errorf("priority = %d, want 6 (1 + max view priority 5)", a.Priority())
	}
	st := a.Stats()
	if st.Deadends != 1 || st.NogoodsGenerated != 1 {
		t.Errorf("stats = %+v", st)
	}
	// ok? messages must go to every neighbor with the new priority.
	okCount := 0
	for _, m := range out {
		if ok, isOk := m.(*Ok); isOk {
			okCount++
			if ok.Priority != 6 {
				t.Errorf("ok priority = %d, want 6", ok.Priority)
			}
		}
	}
	if okCount != 4 {
		t.Errorf("ok messages = %d, want 4", okCount)
	}
}

// TestFigure1MCS: on the same deadend, mcs-based learning must find a
// conflict set no larger than the resolvent (here the resolvent is already
// minimal, so the same nogood) while charging strictly more checks.
func TestFigure1MCS(t *testing.T) {
	rslv, inR := figure1Agent(t, Learning{Kind: LearnResolvent})
	rslv.Step(inR)
	mcs, inM := figure1Agent(t, Learning{Kind: LearnMCS})
	out := mcs.Step(inM)

	want := csp.MustNogood(
		csp.Lit{Var: 0, Val: red},
		csp.Lit{Var: 1, Val: yellow},
		csp.Lit{Var: 2, Val: green},
	)
	found := false
	for _, m := range out {
		if nm, ok := m.(NogoodMsg); ok {
			found = true
			if nm.Nogood.Len() > want.Len() {
				t.Errorf("mcs nogood %v larger than resolvent %v", nm.Nogood, want)
			}
		}
	}
	if !found {
		t.Fatalf("mcs deadend sent no nogood")
	}
	if mcs.Checks() <= rslv.Checks() {
		t.Errorf("mcs charged %d checks, resolvent %d; mcs identification must cost more",
			mcs.Checks(), rslv.Checks())
	}
}

// TestFigure1NoLearning: with learning off the deadend must still raise the
// priority and move, but send no nogood.
func TestFigure1NoLearning(t *testing.T) {
	a, in := figure1Agent(t, Learning{Kind: LearnNone})
	out := a.Step(in)
	for _, m := range out {
		if _, isNogood := m.(NogoodMsg); isNogood {
			t.Fatalf("no-learning agent sent a nogood")
		}
	}
	if a.Priority() != 6 {
		t.Errorf("priority = %d, want 6", a.Priority())
	}
	if a.Stats().NogoodsGenerated != 0 {
		t.Errorf("generated = %d, want 0", a.Stats().NogoodsGenerated)
	}
}
