package core

import (
	"math/rand"
	"testing"

	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/nogood"
	"github.com/discsp/discsp/internal/sim"
)

// assertHigherCache brings the agent's classification cache up to date the
// way its own scans do, then compares every entry with a from-scratch
// isHigher pass over the store.
func assertHigherCache(t *testing.T, a *Agent, step int) {
	t.Helper()
	a.ensureHigher()
	all := a.store.All()
	if len(a.higher) != len(all) {
		t.Fatalf("step %d: cache covers %d entries, store holds %d", step, len(a.higher), len(all))
	}
	for pos, ng := range all {
		if want := a.isHigher(ng); a.higher[pos] != want {
			t.Fatalf("step %d: position %d (%v, owner priority %d): cached higher=%v, from scratch %v",
				step, pos, ng, a.priority, a.higher[pos], want)
		}
	}
}

// TestHigherCacheMatchesFromScratch drives one agent through seeded random
// batches — ok? messages whose priorities rise and fall around the agent's
// own, received nogoods under pruning and bounded retention, the deadend
// priority raises they provoke, and checkpoint restores into the live agent
// and into a fresh one — and after every Step requires the incrementally
// kept higher/lower classification to equal a from-scratch one.
func TestHigherCacheMatchesFromScratch(t *testing.T) {
	const (
		n     = 8
		owner = csp.Var(3) // ties on priority break both ways around it
		steps = 400
	)
	p := csp.NewProblemUniform(n, 3)
	for _, nb := range []csp.Var{1, 2, 5, 6} {
		if err := p.AddNotEqual(owner, nb); err != nil {
			t.Fatal(err)
		}
	}
	learners := []Learning{
		{Kind: LearnResolvent},
		{Kind: LearnResolvent, SubsumptionPruning: true, Retention: nogood.Retention{Kind: nogood.RetainLRU, Cap: 3}},
		{Kind: LearnMCS, Retention: nogood.Retention{Kind: nogood.RetainActivity, Cap: 2}},
	}
	for _, l := range learners {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			a := NewAgent(owner, p, 0, l)
			a.Init()
			assertHigherCache(t, a, 0)
			var saved any
			raises := a.Stats().PriorityRaises
			for step := 1; step <= steps; step++ {
				batch := make([]sim.Message, 1+rng.Intn(4))
				for i := range batch {
					from := csp.Var(rng.Intn(n - 1))
					if from >= owner {
						from++
					}
					switch r := rng.Intn(10); {
					case r < 6:
						prio := a.Priority() + rng.Intn(5) - 2
						if prio < 0 {
							prio = 0
						}
						batch[i] = &Ok{Sender: sim.AgentID(from), Receiver: sim.AgentID(owner),
							Value: csp.Value(rng.Intn(3)), Priority: prio}
					case r < 9:
						lits := []csp.Lit{{Var: owner, Val: csp.Value(rng.Intn(3))}}
						for _, v := range rng.Perm(n)[:1+rng.Intn(3)] {
							if csp.Var(v) != owner {
								lits = append(lits, csp.Lit{Var: csp.Var(v), Val: csp.Value(rng.Intn(3))})
							}
						}
						batch[i] = NogoodMsg{Sender: sim.AgentID(from), Receiver: sim.AgentID(owner),
							Nogood: csp.MustNogood(lits...)}
					default:
						batch[i] = Request{Sender: sim.AgentID(from), Receiver: sim.AgentID(owner)}
					}
				}
				a.Step(batch)
				assertHigherCache(t, a, step)
				switch {
				case step%50 == 0:
					saved = a.Checkpoint()
				case step%70 == 0 && saved != nil:
					// Roll the live agent back: positions and priorities
					// change wholesale under its cache.
					if err := a.Restore(saved); err != nil {
						t.Fatal(err)
					}
					assertHigherCache(t, a, step)
				case step%90 == 0:
					fresh := NewAgent(owner, p, 0, l)
					if err := fresh.Restore(a.Checkpoint()); err != nil {
						t.Fatal(err)
					}
					a = fresh
					assertHigherCache(t, a, step)
				}
			}
			if a.Stats().PriorityRaises == raises {
				t.Errorf("%s seed %d: no deadend priority raise; the drive misses that case", l.Name(), seed)
			}
		}
	}
}

// TestStepAllocatesOnlyItsMessages pins the agent-owned output buffer and
// the one-array broadcast: a warmed agent whose every Step moves and
// broadcasts to its k links allocates at most once per Step — the array
// its k ok? messages point into — with no slice growth and no per-message
// boxing.
func TestStepAllocatesOnlyItsMessages(t *testing.T) {
	const k = 6
	p := csp.NewProblemUniform(k+1, 3)
	for v := csp.Var(1); v <= k; v++ {
		if err := p.AddNotEqual(0, v); err != nil {
			t.Fatal(err)
		}
	}
	a := NewAgent(0, p, 0, Learning{Kind: LearnResolvent})
	a.Init()
	// Neighbour 1 outranks the agent and always holds the agent's current
	// value, so every step must move. The batches are built up front.
	conflict := make([][]sim.Message, 3)
	for val := range conflict {
		conflict[val] = []sim.Message{&Ok{Sender: 1, Receiver: 0, Value: csp.Value(val), Priority: 1}}
	}
	step := func() {
		if out := a.Step(conflict[a.CurrentValue()]); len(out) != k {
			t.Fatalf("step sent %d messages, want %d", len(out), k)
		}
	}
	for i := 0; i < 10; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs > 1 {
		t.Errorf("Step allocated %v times, want at most 1 (the broadcast's array)", allocs)
	}
}
