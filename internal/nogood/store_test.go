package nogood

import (
	"math/rand"
	"testing"

	"github.com/discsp/discsp/internal/csp"
)

func lit(v csp.Var, val csp.Value) csp.Lit { return csp.Lit{Var: v, Val: val} }

func TestCounter(t *testing.T) {
	var c Counter
	if c.Total() != 0 {
		t.Fatalf("fresh counter total = %d", c.Total())
	}
	c.Add(3)
	c.Add(2)
	if c.Total() != 5 {
		t.Errorf("Total = %d, want 5", c.Total())
	}
	c.Reset()
	if c.Total() != 0 {
		t.Errorf("Total after Reset = %d", c.Total())
	}
}

func TestCheckChargesOne(t *testing.T) {
	var c Counter
	ng := csp.MustNogood(lit(0, 1))
	a := csp.NewMapAssignment(lit(0, 1))
	if !Check(ng, a, &c) {
		t.Errorf("Check = false, want violated")
	}
	if c.Total() != 1 {
		t.Errorf("one Check charged %d", c.Total())
	}
	// nil counter: no accounting, still evaluates.
	if !Check(ng, a, nil) {
		t.Errorf("Check with nil counter mis-evaluated")
	}
}

func TestStoreAddDeduplicates(t *testing.T) {
	s := New()
	ng := csp.MustNogood(lit(0, 1), lit(1, 2))
	if !s.Add(ng) {
		t.Fatalf("first Add returned false")
	}
	if s.Add(csp.MustNogood(lit(1, 2), lit(0, 1))) {
		t.Errorf("duplicate (reordered) Add returned true")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	if !s.Contains(ng) {
		t.Errorf("Contains = false")
	}
	if !s.At(0).Equal(ng) {
		t.Errorf("At(0) = %v", s.At(0))
	}
}

func TestStorePreservesInsertionOrder(t *testing.T) {
	s := New()
	ngs := []csp.Nogood{
		csp.MustNogood(lit(3, 0)),
		csp.MustNogood(lit(1, 1)),
		csp.MustNogood(lit(2, 2)),
	}
	for _, ng := range ngs {
		s.Add(ng)
	}
	for i, ng := range ngs {
		if !s.All()[i].Equal(ng) {
			t.Errorf("All()[%d] = %v, want %v", i, s.All()[i], ng)
		}
	}
}

func TestNewFromSlice(t *testing.T) {
	ng := csp.MustNogood(lit(0, 0))
	s := NewFromSlice([]csp.Nogood{ng, ng, csp.MustNogood(lit(1, 1))})
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2 (duplicates collapse)", s.Len())
	}
}

func TestAnyViolatedShortCircuits(t *testing.T) {
	s := New()
	s.Add(csp.MustNogood(lit(0, 0))) // violated
	s.Add(csp.MustNogood(lit(1, 0))) // would also be violated
	a := csp.SliceAssignment{0, 0}
	var c Counter
	if !s.AnyViolated(a, &c) {
		t.Fatalf("AnyViolated = false")
	}
	if c.Total() != 1 {
		t.Errorf("short-circuit charged %d checks, want 1", c.Total())
	}
}

func TestCountViolated(t *testing.T) {
	s := New()
	s.Add(csp.MustNogood(lit(0, 0)))
	s.Add(csp.MustNogood(lit(1, 1)))
	s.Add(csp.MustNogood(lit(0, 0), lit(1, 0)))
	a := csp.SliceAssignment{0, 0}
	var c Counter
	if got := s.CountViolated(a, &c); got != 2 {
		t.Errorf("CountViolated = %d, want 2", got)
	}
	if c.Total() != 3 {
		t.Errorf("full scan charged %d checks, want 3", c.Total())
	}
}

// TestStoreRandomized cross-checks Store against a map-based model.
func TestStoreRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New()
	model := make(map[string]csp.Nogood)
	for i := 0; i < 5000; i++ {
		n := rng.Intn(4)
		lits := make([]csp.Lit, 0, n)
		seen := make(map[csp.Var]bool, n)
		for len(lits) < n {
			v := csp.Var(rng.Intn(5))
			if seen[v] {
				continue
			}
			seen[v] = true
			lits = append(lits, lit(v, csp.Value(rng.Intn(3))))
		}
		ng := csp.MustNogood(lits...)
		_, dup := model[ng.Key()]
		if added := s.Add(ng); added == dup {
			t.Fatalf("Add(%v) = %v, model dup = %v", ng, added, dup)
		}
		model[ng.Key()] = ng
		if s.Len() != len(model) {
			t.Fatalf("Len = %d, model = %d", s.Len(), len(model))
		}
	}
}

func TestAddPruningKeepsSubsumedInserts(t *testing.T) {
	// A new nogood subsumed by a recorded one is still added: rejecting it
	// would stall AWC's progress (see the AddPruning doc comment).
	s := New()
	small := csp.MustNogood(lit(0, 1))
	big := csp.MustNogood(lit(0, 1), lit(1, 2))
	var c Counter
	if added, _ := s.AddPruning(small, &c); !added {
		t.Fatalf("first insert rejected")
	}
	if added, removed := s.AddPruning(big, &c); !added || removed != 0 {
		t.Fatalf("subsumed insert: added=%v removed=%d, want true,0", added, removed)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if c.Total() == 0 {
		t.Errorf("subset tests not charged")
	}
}

func TestAddPruningDiscardsSupersets(t *testing.T) {
	s := New()
	s.Add(csp.MustNogood(lit(0, 1), lit(1, 2)))
	s.Add(csp.MustNogood(lit(0, 1), lit(2, 0)))
	s.Add(csp.MustNogood(lit(3, 0)))
	added, removed := s.AddPruning(csp.MustNogood(lit(0, 1)), nil)
	if !added || removed != 2 {
		t.Fatalf("added=%v removed=%d, want true,2", added, removed)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	// The survivors: the unrelated nogood and the new subsumer.
	if !s.Contains(csp.MustNogood(lit(3, 0))) || !s.Contains(csp.MustNogood(lit(0, 1))) {
		t.Errorf("wrong survivors: %v", s.All())
	}
	// The index stays consistent after pruning.
	if s.Add(csp.MustNogood(lit(3, 0))) {
		t.Errorf("duplicate accepted after reindex")
	}
}

func TestAddPruningDuplicate(t *testing.T) {
	s := New()
	ng := csp.MustNogood(lit(0, 1))
	s.Add(ng)
	if added, removed := s.AddPruning(ng, nil); added || removed != 0 {
		t.Errorf("duplicate AddPruning: %v %d", added, removed)
	}
}

// TestAddPruningPreservesProhibitions: pruning must never change which
// assignments the store prohibits.
func TestAddPruningPreservesProhibitions(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const vars, vals = 4, 2
	for trial := 0; trial < 200; trial++ {
		plain := New()
		pruned := New()
		for i := 0; i < 12; i++ {
			n := 1 + rng.Intn(3)
			lits := make([]csp.Lit, 0, n)
			seen := map[csp.Var]bool{}
			for len(lits) < n {
				v := csp.Var(rng.Intn(vars))
				if seen[v] {
					continue
				}
				seen[v] = true
				lits = append(lits, lit(v, csp.Value(rng.Intn(vals))))
			}
			ng := csp.MustNogood(lits...)
			plain.Add(ng)
			pruned.AddPruning(ng, nil)
		}
		// Exhaustively compare violation behaviour.
		assign := make(csp.SliceAssignment, vars)
		for code := 0; code < 1<<vars; code++ {
			for v := 0; v < vars; v++ {
				assign[v] = csp.Value(code >> v & 1)
			}
			if plain.AnyViolated(assign, nil) != pruned.AnyViolated(assign, nil) {
				t.Fatalf("trial %d: prohibition changed at %v\nplain: %v\npruned: %v",
					trial, assign, plain.All(), pruned.All())
			}
		}
		if pruned.Len() > plain.Len() {
			t.Fatalf("trial %d: pruned store larger", trial)
		}
	}
}

// TestAddPruningCounterDelta pins the store's cost-model contract: every
// non-duplicate AddPruning charges exactly one check per nogood stored at
// the moment of insertion — the cost of the reference linear subset scan —
// no matter how much wall-clock work the structural indexes saved, and no
// matter whether the insert pruned anything. Duplicates charge nothing.
func TestAddPruningCounterDelta(t *testing.T) {
	s := New()
	var c Counter

	type op struct {
		ng          csp.Nogood
		wantAdded   bool
		wantRemoved int
	}
	ops := []op{
		{csp.MustNogood(lit(0, 1), lit(1, 1), lit(2, 1)), true, 0},
		{csp.MustNogood(lit(0, 1), lit(3, 0)), true, 0},
		// Strict subset of the first: prunes it.
		{csp.MustNogood(lit(0, 1), lit(1, 1)), true, 1},
		// Exact duplicate: rejected before any charge.
		{csp.MustNogood(lit(0, 1), lit(3, 0)), false, 0},
		// Subsumed by an existing nogood: still added, prunes nothing.
		{csp.MustNogood(lit(0, 1), lit(1, 1), lit(4, 0)), true, 0},
		// Subset of two stored supersets at once.
		{csp.MustNogood(lit(0, 1)), true, 3},
		// Empty nogood subsumes everything left.
		{csp.MustNogood(), true, 1},
	}
	for i, o := range ops {
		lenBefore := s.Len()
		before := c.Total()
		added, removed := s.AddPruning(o.ng, &c)
		delta := c.Total() - before
		if added != o.wantAdded || removed != o.wantRemoved {
			t.Fatalf("op %d (%v): added=%v removed=%d, want %v %d",
				i, o.ng, added, removed, o.wantAdded, o.wantRemoved)
		}
		wantDelta := int64(lenBefore)
		if !o.wantAdded {
			wantDelta = 0
		}
		if delta != wantDelta {
			t.Fatalf("op %d (%v): charged %d checks, want %d (store had %d nogoods)",
				i, o.ng, delta, wantDelta, lenBefore)
		}
	}
}

// refPruningStore is the unindexed reference implementation of AddPruning's
// semantics: linear dup scan, linear strict-superset scan, order-preserving
// compaction. The randomized test below drives it in lockstep with Store.
type refPruningStore struct {
	ngs []csp.Nogood
}

func (m *refPruningStore) addPruning(ng csp.Nogood, c *Counter) (bool, int) {
	for _, x := range m.ngs {
		if x.Key() == ng.Key() {
			return false, 0
		}
	}
	if c != nil {
		c.Add(len(m.ngs))
	}
	kept := m.ngs[:0]
	removed := 0
	for _, x := range m.ngs {
		if ng.SubsetOf(x) {
			removed++
			continue
		}
		kept = append(kept, x)
	}
	m.ngs = append(kept, ng)
	return true, removed
}

// TestStoreIndexedMatchesReference drives the indexed store and the
// unindexed reference through the same random operation sequence and
// demands identical contents (order included), identical return values, and
// identical charged checks after every operation.
func TestStoreIndexedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const vars, vals = 5, 2
	for trial := 0; trial < 100; trial++ {
		s := New()
		ref := &refPruningStore{}
		var sc, refc Counter
		for i := 0; i < 60; i++ {
			n := rng.Intn(4)
			lits := make([]csp.Lit, 0, n)
			seen := map[csp.Var]bool{}
			for len(lits) < n {
				v := csp.Var(rng.Intn(vars))
				if seen[v] {
					continue
				}
				seen[v] = true
				lits = append(lits, lit(v, csp.Value(rng.Intn(vals))))
			}
			ng := csp.MustNogood(lits...)
			gotAdded, gotRemoved := s.AddPruning(ng, &sc)
			wantAdded, wantRemoved := ref.addPruning(ng, &refc)
			if gotAdded != wantAdded || gotRemoved != wantRemoved {
				t.Fatalf("trial %d op %d: AddPruning(%v) = %v,%d, reference %v,%d",
					trial, i, ng, gotAdded, gotRemoved, wantAdded, wantRemoved)
			}
			if sc.Total() != refc.Total() {
				t.Fatalf("trial %d op %d: charged %d, reference %d", trial, i, sc.Total(), refc.Total())
			}
			if s.Len() != len(ref.ngs) {
				t.Fatalf("trial %d op %d: Len %d, reference %d", trial, i, s.Len(), len(ref.ngs))
			}
			for j, want := range ref.ngs {
				if !s.At(j).Equal(want) {
					t.Fatalf("trial %d op %d: position %d holds %v, reference %v",
						trial, i, j, s.At(j), want)
				}
				if !s.Contains(want) {
					t.Fatalf("trial %d op %d: Contains(%v) false", trial, i, want)
				}
			}
		}
	}
}

// TestStateRestore checkpoints a store, mutates it past the checkpoint, and
// restores: the state must not alias the store's later mutations, and the
// rebuilt indexes must drive pruning over the restored contents.
func TestStateRestore(t *testing.T) {
	s := New()
	ngs := []csp.Nogood{
		csp.MustNogood(csp.Lit{Var: 0, Val: 1}, csp.Lit{Var: 1, Val: 2}),
		csp.MustNogood(csp.Lit{Var: 1, Val: 0}),
		csp.MustNogood(csp.Lit{Var: 0, Val: 1}, csp.Lit{Var: 1, Val: 2}, csp.Lit{Var: 2, Val: 0}),
	}
	for _, ng := range ngs {
		s.Add(ng)
	}
	st := s.State()
	if len(st.Nogoods) != 3 {
		t.Fatalf("state has %d nogoods, want 3", len(st.Nogoods))
	}

	// Mutate past the checkpoint: prune (the 2-lit nogood subsumes the 3-lit
	// one) and add.
	s.AddPruning(csp.MustNogood(csp.Lit{Var: 0, Val: 1}), nil)
	s.Add(csp.MustNogood(csp.Lit{Var: 3, Val: 3}))
	for i, ng := range ngs {
		if !st.Nogoods[i].Equal(ng) {
			t.Fatalf("state aliased store mutations at %d: %v", i, st.Nogoods[i])
		}
	}
	if s.Contains(ngs[2]) {
		t.Fatal("pruning did not remove the superset")
	}

	s.RestoreState(st)
	if s.Len() != 3 {
		t.Fatalf("restored store has %d nogoods, want 3", s.Len())
	}
	for i, ng := range ngs {
		if !s.At(i).Equal(ng) {
			t.Fatalf("restored order wrong at %d: %v", i, s.At(i))
		}
		if !s.Contains(ng) {
			t.Fatalf("restored store lost %v", ng)
		}
	}

	// The rebuilt indexes must still drive pruning correctly: inserting the
	// 1-lit subset now removes both supersets, charging the reference scan.
	var c Counter
	added, removed := s.AddPruning(csp.MustNogood(csp.Lit{Var: 1, Val: 2}), &c)
	if !added || removed != 2 {
		t.Fatalf("AddPruning after restore: added=%v removed=%d, want true, 2", added, removed)
	}
	if c.Total() != 3 {
		t.Fatalf("AddPruning after restore charged %d, want 3", c.Total())
	}
}

// TestRestoreAfterPruningChurn checkpoints a store whose positions and
// posting lists have been shifted by superset pruning, keeps mutating, and
// restores — the crash-recovery path a node takes when the crash lands
// between pruning operations. The restored store must reproduce the
// checkpoint exactly and its rebuilt indexes must keep pruning correctly,
// with no phantom state left from either the pre-restore churn or the
// post-checkpoint mutations.
func TestRestoreAfterPruningChurn(t *testing.T) {
	s := New()
	// Three supersets of {x0=1}, interleaved with unrelated nogoods so the
	// pruning removals shift positions in the middle of the slice.
	s.Add(csp.MustNogood(lit(0, 1), lit(1, 0), lit(2, 0)))
	s.Add(csp.MustNogood(lit(4, 2)))
	s.Add(csp.MustNogood(lit(0, 1), lit(3, 1)))
	s.Add(csp.MustNogood(lit(5, 0), lit(6, 1)))
	s.Add(csp.MustNogood(lit(0, 1), lit(6, 2)))

	// Prune: {x0=1} subsumes the three supersets, leaving shifted survivors.
	if _, removed := s.AddPruning(csp.MustNogood(lit(0, 1)), nil); removed != 3 {
		t.Fatalf("setup pruning removed %d, want 3", removed)
	}
	st := s.State()
	want := st.Nogoods // {4=2}, {5=0,6=1}, {0=1}

	// Post-checkpoint churn: new variables enter the posting lists, another
	// pruning pass removes a survivor, the empty-adjacent case runs.
	s.Add(csp.MustNogood(lit(7, 0), lit(5, 0)))
	if _, removed := s.AddPruning(csp.MustNogood(lit(5, 0)), nil); removed != 2 {
		t.Fatalf("churn pruning removed %d, want 2", removed)
	}

	s.RestoreState(st)
	if s.Len() != len(want) {
		t.Fatalf("restored Len = %d, want %d", s.Len(), len(want))
	}
	for i, ng := range want {
		if !s.At(i).Equal(ng) || !s.Contains(ng) {
			t.Fatalf("restored position %d holds %v, want %v", i, s.At(i), ng)
		}
	}
	// Post-checkpoint state must be gone: no phantom membership, and a scan
	// keyed on the churn-only variable x7 must find nothing.
	if s.Contains(csp.MustNogood(lit(7, 0), lit(5, 0))) || s.Contains(csp.MustNogood(lit(5, 0))) {
		t.Fatal("restore kept post-checkpoint nogoods")
	}
	if added, removed := s.AddPruning(csp.MustNogood(lit(7, 0)), nil); !added || removed != 0 {
		t.Fatalf("AddPruning on churn-only variable: added=%v removed=%d, want true, 0", added, removed)
	}

	// The rebuilt indexes must drive pruning over the restored contents:
	// {x5=0} again subsumes the restored {x5=0, x6=1} — exactly once.
	if added, removed := s.AddPruning(csp.MustNogood(lit(5, 0)), nil); !added || removed != 1 {
		t.Fatalf("AddPruning after restore: added=%v removed=%d, want true, 1", added, removed)
	}

	// A state with duplicates restores each nogood once.
	s.RestoreState(State{Nogoods: []csp.Nogood{want[0], want[0], want[1]}})
	if s.Len() != 2 {
		t.Fatalf("duplicate-bearing state restored %d nogoods, want 2", s.Len())
	}

	// The empty state clears the store and every index.
	s.RestoreState(State{})
	if s.Len() != 0 {
		t.Fatalf("empty restore left %d nogoods", s.Len())
	}
	if added, removed := s.AddPruning(csp.MustNogood(lit(0, 1)), nil); !added || removed != 0 {
		t.Fatalf("AddPruning into cleared store: added=%v removed=%d, want true, 0", added, removed)
	}
}

func TestCounterRestore(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Restore(99)
	if c.Total() != 99 {
		t.Fatalf("restored counter = %d, want 99", c.Total())
	}
}
