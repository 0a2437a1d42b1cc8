package nogood

import (
	"fmt"
	"slices"
	"testing"

	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/telemetry"
)

func TestParseRetention(t *testing.T) {
	cases := []struct {
		in      string
		want    Retention
		wantErr bool
	}{
		{in: "", want: Retention{}},
		{in: "all", want: Retention{}},
		{in: "unbounded", want: Retention{}},
		{in: "lru:512", want: Retention{Kind: RetainLRU, Cap: 512}},
		{in: "activity:64", want: Retention{Kind: RetainActivity, Cap: 64}},
		{in: "lru:0", want: Retention{Kind: RetainLRU, Cap: 0}},
		{in: "lru", wantErr: true},
		{in: "fifo:10", wantErr: true},
		{in: "lru:-1", wantErr: true},
		{in: "lru:x", wantErr: true},
	}
	for _, tc := range cases {
		got, err := ParseRetention(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseRetention(%q) = %v, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseRetention(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseRetention(%q) = %v, want %v", tc.in, got, tc.want)
		}
		// String round-trips through ParseRetention.
		back, err := ParseRetention(got.String())
		if err != nil || back != got {
			t.Errorf("round-trip %q -> %q -> %v (%v)", tc.in, got.String(), back, err)
		}
	}
}

func TestRetentionSuffix(t *testing.T) {
	if got := (Retention{}).Suffix(); got != "" {
		t.Errorf("unbounded Suffix = %q, want empty", got)
	}
	if got := (Retention{Kind: RetainLRU, Cap: 512}).Suffix(); got != "/lru512" {
		t.Errorf("lru Suffix = %q, want /lru512", got)
	}
	if got := (Retention{Kind: RetainActivity, Cap: 8}).Suffix(); got != "/activity8" {
		t.Errorf("activity Suffix = %q, want /activity8", got)
	}
}

// TestEvictionPolicies pins the victim order of each bounded policy against
// hand-computed expectations, including the cap boundaries: a store at its
// cap holds every entry; one past it evicts exactly one.
func TestEvictionPolicies(t *testing.T) {
	ngA := csp.MustNogood(lit(0, 1))
	ngB := csp.MustNogood(lit(1, 1), lit(2, 1))
	ngC := csp.MustNogood(lit(3, 1))
	ngD := csp.MustNogood(lit(4, 1))

	cases := []struct {
		name string
		ret  Retention
		run  func(s *Store)
		want []csp.Nogood // surviving nogoods in insertion order
	}{
		{
			name: "lru evicts oldest insert",
			ret:  Retention{Kind: RetainLRU, Cap: 2},
			run: func(s *Store) {
				s.Add(ngA)
				s.Add(ngB)
				s.Add(ngC) // over cap: A is least recent
			},
			want: []csp.Nogood{ngB, ngC},
		},
		{
			name: "lru bump refreshes recency",
			ret:  Retention{Kind: RetainLRU, Cap: 2},
			run: func(s *Store) {
				s.Add(ngA)
				s.Add(ngB)
				s.Bump(0)  // touch A: B becomes least recent
				s.Add(ngC) // evicts B
			},
			want: []csp.Nogood{ngA, ngC},
		},
		{
			name: "at cap nothing is evicted",
			ret:  Retention{Kind: RetainLRU, Cap: 2},
			run: func(s *Store) {
				s.Add(ngA)
				s.Add(ngB)
			},
			want: []csp.Nogood{ngA, ngB},
		},
		{
			name: "activity evicts fewest hits",
			ret:  Retention{Kind: RetainActivity, Cap: 2},
			run: func(s *Store) {
				s.Add(ngA)
				s.Add(ngB)
				s.Bump(1) // B has one hit
				s.Bump(1) // ...two
				s.Bump(0) // A has one
				// Zero-hit newcomers lose to entries that have fired: each
				// insert past the cap evicts the newcomer itself.
				s.Add(ngC)
				s.Add(ngD)
			},
			want: []csp.Nogood{ngA, ngB},
		},
		{
			name: "activity hit tie prefers evicting longer",
			ret:  Retention{Kind: RetainActivity, Cap: 1},
			run: func(s *Store) {
				s.Add(ngB) // 2 literals, zero hits
				s.Add(ngC) // 1 literal, zero hits: ngB is less general, goes first
			},
			want: []csp.Nogood{ngC},
		},
		{
			name: "activity full tie falls back to stamp",
			ret:  Retention{Kind: RetainActivity, Cap: 1},
			run: func(s *Store) {
				s.Add(ngA) // same length, same (zero) hits, older stamp
				s.Add(ngC)
			},
			want: []csp.Nogood{ngC},
		},
		{
			name: "cap of one keeps only the newest",
			ret:  Retention{Kind: RetainLRU, Cap: 1},
			run: func(s *Store) {
				s.Add(ngA)
				s.Add(ngB)
				s.Add(ngC)
			},
			want: []csp.Nogood{ngC},
		},
		{
			name: "zero cap is learn-and-forget",
			ret:  Retention{Kind: RetainLRU, Cap: 0},
			run: func(s *Store) {
				if !s.Add(ngA) {
					t.Error("zero-cap Add returned false; the learning event still happened")
				}
				s.Add(ngB)
			},
			want: nil,
		},
		{
			name: "activity cap applies too",
			ret:  Retention{Kind: RetainActivity, Cap: 2},
			run: func(s *Store) {
				s.Add(ngA)
				s.Add(ngB)
				s.Add(ngC)
				s.Add(ngD)
			},
			want: []csp.Nogood{ngC, ngD},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewRetention(tc.ret)
			tc.run(s)
			if s.LearnedLen() > tc.ret.Cap {
				t.Fatalf("learned population %d exceeds cap %d", s.LearnedLen(), tc.ret.Cap)
			}
			got := s.Learned()
			if len(got) != len(tc.want) {
				t.Fatalf("surviving = %v, want %v", got, tc.want)
			}
			for i := range got {
				if !got[i].Equal(tc.want[i]) {
					t.Fatalf("survivor %d = %v, want %v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestPinnedNeverEvicted pins the cap semantics: pinned entries are exempt
// from the cap and never chosen as victims, so a store holds at most
// pinned+cap nogoods and never fewer pinned than it was seeded with.
func TestPinnedNeverEvicted(t *testing.T) {
	pinnedNGs := []csp.Nogood{
		csp.MustNogood(lit(0, 0), lit(1, 0)),
		csp.MustNogood(lit(1, 1), lit(2, 1)),
		csp.MustNogood(lit(2, 2), lit(3, 2)),
	}
	for _, ret := range []Retention{
		{Kind: RetainLRU, Cap: 2},
		{Kind: RetainActivity, Cap: 2},
		{Kind: RetainLRU, Cap: 0},
	} {
		s := NewFromSliceRetention(pinnedNGs, ret)
		for i := 0; i < 20; i++ {
			s.Add(csp.MustNogood(lit(csp.Var(4+i), 1)))
		}
		if s.PinnedLen() != len(pinnedNGs) {
			t.Fatalf("%v: pinned = %d, want %d", ret, s.PinnedLen(), len(pinnedNGs))
		}
		for _, ng := range pinnedNGs {
			if !s.Contains(ng) {
				t.Fatalf("%v: pinned nogood %v was evicted", ret, ng)
			}
		}
		if s.Len() > len(pinnedNGs)+ret.Cap {
			t.Fatalf("%v: store holds %d, want at most pinned+cap = %d",
				ret, s.Len(), len(pinnedNGs)+ret.Cap)
		}
		if want := int64(20 - ret.Cap); s.Evictions() != want {
			t.Fatalf("%v: evictions = %d, want %d", ret, s.Evictions(), want)
		}
	}
}

// TestAddPinnedPromotesDuplicate pins the seed/learn interleaving: a learned
// entry re-seeded as pinned is promoted in place and stops counting against
// the cap.
func TestAddPinnedPromotesDuplicate(t *testing.T) {
	s := NewRetention(Retention{Kind: RetainLRU, Cap: 1})
	ng := csp.MustNogood(lit(0, 1))
	if !s.Add(ng) {
		t.Fatal("Add returned false")
	}
	if s.AddPinned(ng) {
		t.Fatal("AddPinned of a duplicate returned true")
	}
	if s.PinnedLen() != 1 || s.LearnedLen() != 0 {
		t.Fatalf("after promotion: pinned=%d learned=%d, want 1/0", s.PinnedLen(), s.LearnedLen())
	}
	// The promoted entry no longer occupies the cap: a new learned nogood
	// fits without evicting it.
	s.Add(csp.MustNogood(lit(1, 1)))
	if !s.Contains(ng) || s.Len() != 2 || s.Evictions() != 0 {
		t.Fatalf("promotion did not exempt the entry from the cap: len=%d evictions=%d",
			s.Len(), s.Evictions())
	}
}

// TestEvictionDeterminism pins the tie-breaking contract: identical operation
// sequences produce identical stores, byte for byte, regardless of how many
// times or in what interleaving unrelated stores run — eviction consults
// only per-store logical clocks, never wall time or map order.
func TestEvictionDeterminism(t *testing.T) {
	build := func(ret Retention) string {
		s := NewRetention(ret)
		s.AddPinned(csp.MustNogood(lit(0, 0), lit(1, 0)))
		for i := 0; i < 40; i++ {
			s.Add(csp.MustNogood(lit(csp.Var(i%7), csp.Value(i%3)), lit(csp.Var(7+i%5), 1)))
			s.Bump(i % s.Len())
			if i%11 == 0 {
				s.AddPruning(csp.MustNogood(lit(csp.Var(i%7), csp.Value(i%3))), nil)
			}
		}
		out := ""
		for _, ng := range s.All() {
			out += ng.Key() + ";"
		}
		return fmt.Sprintf("%s ev=%d", out, s.Evictions())
	}
	for _, ret := range []Retention{
		{Kind: RetainLRU, Cap: 5},
		{Kind: RetainActivity, Cap: 5},
	} {
		first := build(ret)
		for rep := 0; rep < 3; rep++ {
			if got := build(ret); got != first {
				t.Fatalf("%v: run %d diverged:\n%s\nvs\n%s", ret, rep, got, first)
			}
		}
	}
}

// TestAddPruningPinnedTransfer pins the soundness rule for subsumption under
// bounded retention: when a learned subset replaces a pinned superset, the
// subset inherits the pin — evicting it later would silently drop the only
// entry prohibiting a problem constraint.
func TestAddPruningPinnedTransfer(t *testing.T) {
	s := NewRetention(Retention{Kind: RetainLRU, Cap: 1})
	super := csp.MustNogood(lit(0, 1), lit(1, 1))
	s.AddPinned(super)

	sub := csp.MustNogood(lit(0, 1))
	added, removed := s.AddPruning(sub, nil)
	if !added || removed != 1 {
		t.Fatalf("AddPruning = (%v, %d), want (true, 1)", added, removed)
	}
	if s.PinnedLen() != 1 || s.LearnedLen() != 0 {
		t.Fatalf("after transfer: pinned=%d learned=%d, want 1/0", s.PinnedLen(), s.LearnedLen())
	}
	// Flood with learned nogoods: the inheriting subset must survive.
	for i := 0; i < 10; i++ {
		s.Add(csp.MustNogood(lit(csp.Var(2+i), 1)))
	}
	if !s.Contains(sub) {
		t.Fatal("pin-inheriting subset was evicted")
	}

	// A subset replacing only learned supersets stays evictable.
	s2 := NewRetention(Retention{Kind: RetainLRU, Cap: 2})
	s2.Add(super)
	s2.AddPruning(sub, nil)
	if s2.PinnedLen() != 0 {
		t.Fatalf("learned-only transfer pinned %d entries, want 0", s2.PinnedLen())
	}
}

// TestShiftsTrackPositionMoves pins the shift counter agents key their
// per-position classification caches on. An append or a duplicate moves no
// existing position and leaves Shifts unchanged; an evict+insert (the case
// a length comparison misses), a pruning insert and a restore move
// positions and change it. After every step the posting lists must list,
// in ascending order, exactly the positions whose nogood mentions the
// variable.
func TestShiftsTrackPositionMoves(t *testing.T) {
	s := NewRetention(Retention{Kind: RetainLRU, Cap: 2})
	shifts := s.Shifts()
	checkPostings := func(what string) {
		t.Helper()
		for v := csp.Var(0); v < 6; v++ {
			var want []int
			for pos, ng := range s.All() {
				if ng.Contains(v) {
					want = append(want, pos)
				}
			}
			if got := s.PostingList(v); !slices.Equal(got, want) {
				t.Fatalf("after %s: PostingList(%d) = %v, want %v", what, v, got, want)
			}
		}
	}
	step := func(what string, moved bool) {
		t.Helper()
		if got := s.Shifts() != shifts; got != moved {
			t.Fatalf("%s: Shifts changed = %v, want %v", what, got, moved)
		}
		shifts = s.Shifts()
		checkPostings(what)
	}

	s.Add(csp.MustNogood(lit(0, 1), lit(1, 1), lit(2, 1)))
	step("append", false)
	s.Add(csp.MustNogood(lit(1, 0), lit(3, 0)))
	step("second append", false)
	s.Add(csp.MustNogood(lit(1, 0), lit(3, 0)))
	step("duplicate Add", false)
	s.AddPinned(csp.MustNogood(lit(2, 1), lit(4, 0)))
	step("pinned append", false)
	if added, removed := s.AddPruning(csp.MustNogood(lit(0, 1), lit(2, 1)), nil); !added || removed != 1 {
		t.Fatalf("AddPruning = (%v, %d), want (true, 1)", added, removed)
	}
	step("pruning insert", true)
	lenBefore := s.Len()
	s.Add(csp.MustNogood(lit(5, 1))) // evict+insert: length unchanged
	if s.Len() != lenBefore || s.Evictions() != 1 {
		t.Fatalf("evict+insert: Len %d -> %d, %d evictions; test premise broken", lenBefore, s.Len(), s.Evictions())
	}
	step("evict+insert", true)
	s.RestoreState(s.State())
	step("RestoreState", true)
}

// TestEvictionTelemetry pins the PR-5 surfacing: the size gauge tracks the
// bounded store through eviction churn (never exceeding pinned+cap) and the
// evictions counter matches Store.Evictions.
func TestEvictionTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	size := reg.Gauge("store")
	lens := reg.Histogram("len", telemetry.NogoodLenBuckets)
	evs := reg.Counter("evictions")

	s := NewFromSliceRetention([]csp.Nogood{csp.MustNogood(lit(0, 0), lit(1, 0))},
		Retention{Kind: RetainActivity, Cap: 3})
	s.Instrument(telemetry.StoreMetrics{Size: size, Lengths: lens, Evictions: evs})
	cap := 1 + 3 // pinned + cap
	for i := 0; i < 25; i++ {
		s.Add(csp.MustNogood(lit(csp.Var(i%9), csp.Value(i%4)), lit(csp.Var(9+i%4), 0)))
		if size.Value() != int64(s.Len()) {
			t.Fatalf("step %d: gauge=%d store=%d", i, size.Value(), s.Len())
		}
		if size.Value() > int64(cap) {
			t.Fatalf("step %d: gauge %d exceeds pinned+cap %d", i, size.Value(), cap)
		}
	}
	if evs.Value() != s.Evictions() {
		t.Fatalf("evictions counter=%d, store=%d", evs.Value(), s.Evictions())
	}
	if evs.Value() == 0 {
		t.Fatal("no evictions recorded; test exercised nothing")
	}
}

// TestStateRoundTripRetention pins the checkpoint path for bounded stores:
// State/RestoreState reproduces the retention metadata exactly, so a
// restored store makes the same future eviction decisions as one that never
// crashed.
func TestStateRoundTripRetention(t *testing.T) {
	for _, ret := range []Retention{
		{Kind: RetainLRU, Cap: 3},
		{Kind: RetainActivity, Cap: 3},
	} {
		t.Run(ret.String(), func(t *testing.T) {
			mutate := func(s *Store, from, to int) {
				for i := from; i < to; i++ {
					s.Add(csp.MustNogood(lit(csp.Var(i%8), csp.Value(i%3)), lit(csp.Var(8+i%3), 1)))
					s.Bump(i % s.Len())
				}
			}
			live := NewFromSliceRetention([]csp.Nogood{csp.MustNogood(lit(0, 0), lit(1, 0))}, ret)
			mutate(live, 0, 12)
			st := live.State()

			restored := NewRetention(ret)
			restored.RestoreState(st)

			// Divergence check: drive both stores through the same suffix of
			// operations and require identical contents and eviction counts.
			mutate(live, 12, 30)
			mutate(restored, 12, 30)
			if live.Len() != restored.Len() || live.Evictions() != restored.Evictions() {
				t.Fatalf("diverged: live len=%d ev=%d, restored len=%d ev=%d",
					live.Len(), live.Evictions(), restored.Len(), restored.Evictions())
			}
			for i := 0; i < live.Len(); i++ {
				if !live.At(i).Equal(restored.At(i)) {
					t.Fatalf("position %d: live %v, restored %v", i, live.At(i), restored.At(i))
				}
			}
			if live.PinnedLen() != restored.PinnedLen() {
				t.Fatalf("pinned: live %d, restored %d", live.PinnedLen(), restored.PinnedLen())
			}
		})
	}
}

// TestRestoreAfterEvictionChurn extends TestRestoreAfterPruningChurn to
// bounded stores: RestoreState into a store whose positions have been
// shifted by eviction churn must rebuild every index correctly (no drift
// between the nogood slice, the key index, and the posting lists), restore
// the pin flags as checkpointed, and keep the structural indexes driving
// pruning correctly.
func TestRestoreAfterEvictionChurn(t *testing.T) {
	s := NewRetention(Retention{Kind: RetainLRU, Cap: 4})
	s.AddPinned(csp.MustNogood(lit(0, 1), lit(1, 0), lit(2, 0)))
	for i := 0; i < 12; i++ {
		s.Add(csp.MustNogood(lit(csp.Var(i%6), 1), lit(csp.Var(6+i%4), csp.Value(i%2))))
		s.Bump(i % s.Len())
	}
	if s.Evictions() == 0 {
		t.Fatal("setup produced no evictions")
	}
	st := s.State()

	// Churn past the checkpoint, then restore.
	for i := 0; i < 9; i++ {
		s.Add(csp.MustNogood(lit(csp.Var(10+i), 0)))
	}
	s.RestoreState(st)
	if s.Len() != len(st.Nogoods) {
		t.Fatalf("restored Len=%d, want %d", s.Len(), len(st.Nogoods))
	}
	for i, ng := range st.Nogoods {
		if !s.At(i).Equal(ng) || !s.Contains(ng) {
			t.Fatalf("restored position %d holds %v, want %v", i, s.At(i), ng)
		}
	}
	if s.PinnedLen() != 1 {
		t.Fatalf("RestoreState pinned %d entries, want the 1 checkpointed pin", s.PinnedLen())
	}

	// The rebuilt indexes must drive pruning over restored contents: a
	// 1-literal subset of the pinned 3-literal seed removes it and inherits
	// the pin, exactly once, with the reference scan charged.
	var c Counter
	added, removed := s.AddPruning(csp.MustNogood(lit(0, 1)), &c)
	if !added || removed < 1 {
		t.Fatalf("AddPruning after restore: added=%v removed=%d", added, removed)
	}
	if c.Total() != int64(s.Len()+removed-1) {
		t.Fatalf("AddPruning charged %d, want %d (reference scan of pre-insert store)",
			c.Total(), s.Len()+removed-1)
	}
}
