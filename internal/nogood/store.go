// Package nogood provides the nogood store used by the learning algorithms:
// a deduplicated, insertion-ordered collection of nogoods with explicit
// check accounting.
//
// The paper's computational cost measure is the "nogood check": one
// evaluation of one nogood against an assignment (Section 4, the maxcck
// metric is built from per-cycle maxima of this count). Every evaluation
// path in this repository that models agent computation is therefore routed
// through a Counter so the cost accounting is total and auditable.
//
// The store's cost-model contract: structural indexes (the by-size buckets
// and per-variable posting lists) may make an operation's wall-clock cost
// cheaper, but every operation charges exactly the Counter units its
// unindexed reference implementation would — optimizations never skip or
// add charged checks. TestAddPruningCounterDelta pins this.
package nogood

import (
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/telemetry"
)

// Counter accumulates nogood checks. Agents own one Counter each; the
// simulator snapshots totals around each cycle to compute per-cycle maxima.
// The zero value is ready to use.
type Counter struct {
	total int64
}

// Add charges n checks.
func (c *Counter) Add(n int) { c.total += int64(n) }

// Total returns the number of checks charged so far.
func (c *Counter) Total() int64 { return c.total }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.total = 0 }

// Restore sets the counter to a previously observed total. It exists for
// crash-restart recovery (a restored agent resumes its check accounting
// where the checkpoint left it), not for algorithm code, which must only
// ever charge checks through Check/CheckDense/Add.
func (c *Counter) Restore(total int64) { c.total = total }

// Check evaluates ng against a, charging one check to c. This is the single
// costed evaluation primitive; algorithm code must use it (rather than
// calling Nogood.Violated directly) whenever the evaluation models agent
// computation. A nil counter performs the evaluation without accounting.
func Check(ng csp.Nogood, a csp.Assignment, c *Counter) bool {
	if c != nil {
		c.total++
	}
	return ng.Violated(a)
}

// CheckDense is Check specialized to a dense view: same accounting, but the
// evaluation never constructs an Assignment interface value, so a steady-
// state check performs zero allocations. Agent hot loops use this.
func CheckDense(ng csp.Nogood, d *csp.DenseView, c *Counter) bool {
	if c != nil {
		c.total++
	}
	return ng.ViolatedDense(d)
}

// Store is a deduplicated set of nogoods preserving insertion order. An AWC
// agent keeps one Store holding its initial constraints followed by every
// learned nogood it has recorded. The zero value is not usable; construct
// with New.
//
// Alongside the key index the store maintains two structural indexes,
// updated incrementally on insert and repaired in place (one merge walk per
// posting list) when pruning removes entries:
//
//   - bySize buckets positions by literal count, so AddPruning can prove
//     "no stored nogood can be a strict superset" without touching any
//     nogood;
//   - byVar posting lists map each variable (variables are dense small
//     ints, so the "map" is a slice grown on demand) to the positions of
//     the nogoods mentioning it, so superset candidates are found by
//     scanning one posting list instead of the whole store.
//
// Callers that cache derived state by position (the agents' higher/lower
// classification) read the posting lists through PostingList and detect
// moved positions through Shifts: an insert appends and leaves every
// existing position where it was, while a removal or a restore shifts them.
type Store struct {
	nogoods []csp.Nogood
	index   map[string]int
	byVar   [][]int // byVar[v] = positions of nogoods mentioning Var(v)
	bySize  [][]int // bySize[k] = positions of nogoods with Len() == k

	// Retention state. meta is parallel to nogoods; pinnedLen counts the
	// pinned entries (initial constraints, never evicted, exempt from the
	// cap). clock is a logical timestamp advanced on every insert and Bump
	// — stamps are therefore unique, which is what makes eviction
	// tie-breaking deterministic at any worker count. shifts counts the
	// removals and resets that may move positions (see Shifts).
	ret       Retention
	meta      []entryMeta
	pinnedLen int
	clock     int64
	shifts    int64
	evicted   int64

	// Telemetry hooks, attached by Instrument. All are nil in the
	// default (uninstrumented) configuration; the telemetry metric
	// methods no-op on nil receivers, so the store pays one branch per
	// mutation and nothing per check. The gauge is an atomic, which is
	// what lets the async runtimes' monitor goroutine sample store sizes
	// mid-run without racing agent goroutines.
	sizeGauge *telemetry.Gauge
	lenHist   *telemetry.Histogram
	evictCtr  *telemetry.Counter
}

// entryMeta is the per-nogood retention bookkeeping, parallel to
// Store.nogoods. None of it is consulted under RetainAll.
type entryMeta struct {
	pinned bool  // initial constraint: never evicted, exempt from cap
	stamp  int64 // logical time of insert or last Bump (unique)
	hits   int64 // violation hits recorded by Bump
}

// Instrument attaches telemetry to the store: Size tracks the live nogood
// count across inserts, prunes, evictions, and restores; Lengths observes
// the literal count of each newly recorded nogood (for AWC, the
// resolvent-length distribution — initial constraints seeded before
// Instrument are not observed); Evictions counts retention evictions. Any
// field may be nil.
func (s *Store) Instrument(m telemetry.StoreMetrics) {
	s.sizeGauge = m.Size
	s.lenHist = m.Lengths
	s.evictCtr = m.Evictions
	m.Size.Set(int64(len(s.nogoods)))
}

// New returns an empty unbounded store.
func New() *Store {
	return NewRetention(Retention{})
}

// NewRetention returns an empty store with the given retention policy.
func NewRetention(ret Retention) *Store {
	return &Store{index: make(map[string]int), ret: ret}
}

// NewFromSlice returns an unbounded store seeded with ngs (duplicates
// collapse). Seeds are pinned: they are the problem's own constraints.
func NewFromSlice(ngs []csp.Nogood) *Store {
	return NewFromSliceRetention(ngs, Retention{})
}

// NewFromSliceRetention returns a store with the given retention policy,
// seeded with ngs as pinned entries (duplicates collapse). Pinned entries
// are never evicted and do not count against the cap — forgetting an
// initial constraint would change the problem, not the search.
func NewFromSliceRetention(ngs []csp.Nogood, ret Retention) *Store {
	s := &Store{
		nogoods: make([]csp.Nogood, 0, len(ngs)),
		index:   make(map[string]int, len(ngs)),
		ret:     ret,
	}
	for _, ng := range ngs {
		s.AddPinned(ng)
	}
	return s
}

// Retention returns the store's retention policy.
func (s *Store) Retention() Retention { return s.ret }

// Shifts returns the shift counter: it changes whenever an existing
// position may have come to hold a different nogood (a prune, an eviction,
// Restore or RestoreState) and stays put on an append, which adds a
// position without moving any. Callers holding per-position caches compare
// shift counters, not lengths: an evict+insert pair leaves the length
// unchanged while moving positions.
func (s *Store) Shifts() int64 { return s.shifts }

// LearnedLen returns the number of unpinned (learned) entries — the
// population the retention cap bounds.
func (s *Store) LearnedLen() int { return len(s.nogoods) - s.pinnedLen }

// PinnedLen returns the number of pinned entries.
func (s *Store) PinnedLen() int { return s.pinnedLen }

// Evictions returns the total number of retention evictions so far.
func (s *Store) Evictions() int64 { return s.evicted }

// tick advances the logical clock and returns the new stamp.
func (s *Store) tick() int64 {
	s.clock++
	return s.clock
}

// insert appends ng with the given retention metadata and updates every
// index incrementally. The caller has already established that ng is not a
// duplicate and enforces the cap afterwards if the insert was unpinned.
func (s *Store) insert(ng csp.Nogood, m entryMeta) {
	pos := len(s.nogoods)
	s.nogoods = append(s.nogoods, ng)
	s.meta = append(s.meta, m)
	if m.pinned {
		s.pinnedLen++
	}
	s.index[ng.Key()] = pos
	for i := 0; i < ng.Len(); i++ {
		v := int(ng.At(i).Var)
		for len(s.byVar) <= v {
			s.byVar = append(s.byVar, nil)
		}
		s.byVar[v] = append(s.byVar[v], pos)
	}
	size := ng.Len()
	for len(s.bySize) <= size {
		s.bySize = append(s.bySize, nil)
	}
	s.bySize[size] = append(s.bySize[size], pos)
	s.sizeGauge.Set(int64(len(s.nogoods)))
	s.lenHist.Observe(int64(ng.Len()))
}

// Add records ng as a learned (evictable) nogood unless an identical one is
// already present. It reports whether the nogood was newly added — true
// even if the retention policy evicts it (or, under a zero cap, ng itself)
// immediately: the learning event happened and was observed.
func (s *Store) Add(ng csp.Nogood) bool {
	if _, ok := s.index[ng.Key()]; ok {
		return false
	}
	s.insert(ng, entryMeta{stamp: s.tick()})
	s.enforceCap()
	return true
}

// AddPinned records ng as a pinned entry: never evicted, exempt from the
// retention cap. Initial constraints are seeded this way. If an identical
// nogood is already present it is promoted to pinned and false is
// returned.
func (s *Store) AddPinned(ng csp.Nogood) bool {
	if pos, ok := s.index[ng.Key()]; ok {
		if !s.meta[pos].pinned {
			s.meta[pos].pinned = true
			s.pinnedLen++
		}
		return false
	}
	s.insert(ng, entryMeta{pinned: true, stamp: s.tick()})
	return true
}

// Bump records that the nogood at pos fired during a consistency check:
// it refreshes the entry's recency stamp and increments its hit count,
// feeding the LRU and activity eviction orders. No-op under RetainAll, so
// the reference configuration pays one branch. Bump is uncharged — it is
// bookkeeping about a check that was already charged by Check/CheckDense.
func (s *Store) Bump(pos int) {
	if s.ret.Kind == RetainAll {
		return
	}
	m := &s.meta[pos]
	m.stamp = s.tick()
	m.hits++
}

// enforceCap evicts learned entries until the learned population fits the
// cap. Eviction charges no checks: choosing a victim reads bookkeeping the
// store maintains anyway, and the paper's metric counts constraint
// evaluations, not memory management (DESIGN.md §11 discusses why — the
// *cost* of forgetting shows up as re-derivation checks, which are
// charged). Victim choice is fully deterministic: stamps are unique, and
// the final position tie-break is unreachable in practice but keeps the
// order total.
func (s *Store) enforceCap() {
	if !s.ret.Bounded() {
		return
	}
	for s.LearnedLen() > s.ret.Cap {
		victim := s.chooseVictim()
		if victim < 0 {
			return
		}
		s.removeAt([]int{victim})
		s.evicted++
		s.evictCtr.Inc()
	}
}

// chooseVictim returns the position of the next entry to evict, or -1 if
// every entry is pinned.
func (s *Store) chooseVictim() int {
	best := -1
	for i := range s.meta {
		if s.meta[i].pinned {
			continue
		}
		if best < 0 || s.evictBefore(i, best) {
			best = i
		}
	}
	return best
}

// evictBefore reports whether entry i is a better eviction victim than
// entry j under the store's policy. LRU: smallest stamp (least recently
// inserted or bumped). Activity: fewest hits, then longest nogood (least
// general), then smallest stamp. Stamps are unique so the comparison is a
// total order; the position fallback is belt-and-braces.
func (s *Store) evictBefore(i, j int) bool {
	a, b := s.meta[i], s.meta[j]
	switch s.ret.Kind {
	case RetainActivity:
		if a.hits != b.hits {
			return a.hits < b.hits
		}
		if li, lj := s.nogoods[i].Len(), s.nogoods[j].Len(); li != lj {
			return li > lj
		}
		fallthrough
	default: // RetainLRU
		if a.stamp != b.stamp {
			return a.stamp < b.stamp
		}
	}
	return i < j
}

// Contains reports whether an identical nogood is present.
func (s *Store) Contains(ng csp.Nogood) bool {
	_, ok := s.index[ng.Key()]
	return ok
}

// Len returns the number of stored nogoods.
func (s *Store) Len() int { return len(s.nogoods) }

// At returns the i-th nogood in insertion order.
func (s *Store) At(i int) csp.Nogood { return s.nogoods[i] }

// All returns the underlying slice. Callers must treat it as read-only; it
// is exposed without copying because the AWC hot loop iterates it every
// cycle and nogoods are immutable.
func (s *Store) All() []csp.Nogood { return s.nogoods }

// Learned returns the unpinned (learned) entries in insertion order as a
// fresh slice: the surviving knowledge a warm-start cache harvests after a
// run. Pinned entries are the problem's own constraints and are excluded —
// the target problem supplies its own.
func (s *Store) Learned() []csp.Nogood {
	out := make([]csp.Nogood, 0, s.LearnedLen())
	for i, ng := range s.nogoods {
		if !s.meta[i].pinned {
			out = append(out, ng)
		}
	}
	return out
}

// reset empties the store in place, keeping allocated index storage.
func (s *Store) reset(sizeHint int) {
	s.nogoods = s.nogoods[:0]
	s.meta = s.meta[:0]
	s.pinnedLen = 0
	s.index = make(map[string]int, sizeHint)
	for i := range s.byVar {
		s.byVar[i] = s.byVar[i][:0]
	}
	for i := range s.bySize {
		s.bySize[i] = s.bySize[i][:0]
	}
	s.shifts++
}

// State is the store's complete checkpointable state: the nogoods plus the
// retention metadata needed to resume eviction decisions exactly where the
// checkpoint left them. The parallel slices (Pinned/Stamps/Hits) index
// Nogoods.
type State struct {
	Nogoods []csp.Nogood
	Pinned  []bool
	Stamps  []int64
	Hits    []int64
	Clock   int64
	Evicted int64
}

// State captures the store's full state, including retention metadata.
// The returned slices are fresh copies: nogoods are immutable, so sharing
// them is safe, and later inserts and prunes leave the state untouched.
// Together with RestoreState this is the durable-state API crash-restart
// recovery checkpoints through.
func (s *Store) State() State {
	st := State{
		Nogoods: make([]csp.Nogood, len(s.nogoods)),
		Pinned:  make([]bool, len(s.meta)),
		Stamps:  make([]int64, len(s.meta)),
		Hits:    make([]int64, len(s.meta)),
		Clock:   s.clock,
		Evicted: s.evicted,
	}
	copy(st.Nogoods, s.nogoods)
	for i, m := range s.meta {
		st.Pinned[i] = m.pinned
		st.Stamps[i] = m.stamp
		st.Hits[i] = m.hits
	}
	return st
}

// RestoreState replaces the store's contents with a State, rebuilding every
// index and resuming the retention clock; a nogood listed twice is restored
// once. Charging: none — recovery replays state that was already paid for
// when first learned; re-charging it would double-count the paper's check
// metric across a restart. The retention policy itself is not part of the
// state — it belongs to the store (the run's configuration), not the
// checkpoint.
func (s *Store) RestoreState(st State) {
	s.reset(len(st.Nogoods))
	// Replayed nogoods were observed in the length histogram when first
	// learned; re-observing them across a restart would double-count, so
	// the histogram hook is parked for the replay. The size gauge is kept
	// live — it tracks current state, not accumulation.
	hist := s.lenHist
	s.lenHist = nil
	for i, ng := range st.Nogoods {
		if _, dup := s.index[ng.Key()]; dup {
			continue
		}
		m := entryMeta{}
		if i < len(st.Pinned) {
			m.pinned = st.Pinned[i]
		}
		if i < len(st.Stamps) {
			m.stamp = st.Stamps[i]
		}
		if i < len(st.Hits) {
			m.hits = st.Hits[i]
		}
		s.insert(ng, m)
	}
	s.lenHist = hist
	s.clock = st.Clock
	s.evicted = st.Evicted
	s.sizeGauge.Set(int64(len(s.nogoods)))
}

// AddPruning inserts ng and discards stored strict supersets of it. It
// returns whether ng was added (false only for an exact duplicate) and how
// many stored nogoods were removed.
//
// Dropping a superset is sound: any assignment violating the superset also
// violates its subset, so the store keeps prohibiting at least the same
// assignments with fewer checks per scan. This implements the optimization
// the paper's Section 4.2 observation invites ("a large nogood is likely to
// become redundant after a smaller nogood is discovered. ... such redundant
// nogoods increase maxcck"); the operation charges one check per stored
// nogood — the cost of the reference linear subset scan — so the
// bookkeeping cost stays visible in the metric (see
// BenchmarkAblationSubsumption). The structural indexes only cut the
// wall-clock work: a strict superset of ng must be longer than ng (bySize
// rules that out wholesale when no longer nogood exists) and must mention
// every variable of ng (so only one posting list needs scanning); the
// charged units are Len() regardless.
//
// Deliberately NOT pruned: a new nogood that is itself subsumed by a
// recorded one. Rejecting those looks sound — the recipient already knows
// something stronger — but it removes the store growth AWC's progress
// argument rests on: a system state that regenerates the same rejected
// nogoods repeats verbatim, and runs livelock in priority-escalation
// cycles (observed on the single-solution family before this was fixed).
func (s *Store) AddPruning(ng csp.Nogood, c *Counter) (added bool, removed int) {
	if _, dup := s.index[ng.Key()]; dup {
		return false, 0
	}
	// Charge the reference scan: one check per stored nogood, exactly what
	// the unindexed implementation paid.
	if c != nil {
		c.Add(len(s.nogoods))
	}

	var doomed []int // positions of strict supersets, ascending
	if ng.Empty() {
		// The empty nogood subsumes everything.
		doomed = make([]int, len(s.nogoods))
		for i := range doomed {
			doomed[i] = i
		}
	} else if s.anyLongerThan(ng.Len()) {
		// Scan the shortest posting list among ng's variables: a strict
		// superset mentions every variable of ng, so any single list
		// contains all candidates. Posting lists are position-sorted, so
		// doomed stays ascending.
		for _, pos := range s.shortestPostingList(ng) {
			stored := s.nogoods[pos]
			if stored.Len() > ng.Len() && ng.SubsetOf(stored) {
				doomed = append(doomed, pos)
			}
		}
	}

	if len(doomed) == 0 {
		s.insert(ng, entryMeta{stamp: s.tick()})
		s.enforceCap()
		return true, 0
	}
	// Pinnedness transfers: if any doomed superset was an initial
	// constraint, the subsuming subset inherits its pinned status —
	// otherwise a later eviction of the subset would silently drop a
	// problem constraint, which is unsound (the subset is the only
	// remaining entry prohibiting those assignments).
	pinned := false
	for _, pos := range doomed {
		if s.meta[pos].pinned {
			pinned = true
			break
		}
	}
	s.removeAt(doomed)
	s.insert(ng, entryMeta{pinned: pinned, stamp: s.tick()})
	if !pinned {
		s.enforceCap()
	}
	return true, len(doomed)
}

// anyLongerThan reports whether any stored nogood has more than n literals,
// using the size buckets only.
func (s *Store) anyLongerThan(n int) bool {
	for size := n + 1; size < len(s.bySize); size++ {
		if len(s.bySize[size]) > 0 {
			return true
		}
	}
	return false
}

// shortestPostingList returns the positions of the nogoods mentioning the
// variable of ng with the fewest occurrences. ng must be non-empty.
func (s *Store) shortestPostingList(ng csp.Nogood) []int {
	best := s.PostingList(ng.At(0).Var)
	for i := 1; i < ng.Len(); i++ {
		if list := s.PostingList(ng.At(i).Var); len(list) < len(best) {
			best = list
		}
	}
	return best
}

// PostingList returns the positions of the nogoods mentioning v, in
// ascending order; a never-seen variable has an empty list. The slice is
// the store's own index: callers must treat it as read-only and must not
// keep it across a mutation.
func (s *Store) PostingList(v csp.Var) []int {
	if int(v) >= len(s.byVar) {
		return nil
	}
	return s.byVar[v]
}

// removeAt deletes the nogoods at the given ascending positions, compacting
// the slice in place, and repairs the indexes: removed keys are deleted,
// survivors after the first removal get their shifted position written
// back, and the structural indexes are repaired in place.
func (s *Store) removeAt(doomed []int) {
	for _, pos := range doomed {
		delete(s.index, s.nogoods[pos].Key())
		if s.meta[pos].pinned {
			s.pinnedLen--
		}
	}
	kept := s.nogoods[:doomed[0]]
	keptMeta := s.meta[:doomed[0]]
	d := 0
	for pos := doomed[0]; pos < len(s.nogoods); pos++ {
		if d < len(doomed) && doomed[d] == pos {
			d++
			continue
		}
		s.index[s.nogoods[pos].Key()] = len(kept)
		kept = append(kept, s.nogoods[pos])
		keptMeta = append(keptMeta, s.meta[pos])
	}
	s.nogoods = kept
	s.meta = keptMeta
	s.repairStructural(doomed)
	s.shifts++
	s.sizeGauge.Set(int64(len(s.nogoods)))
}

// repairStructural drops the doomed positions (ascending) from every
// posting list and size bucket and shifts the survivors down, reusing each
// list's storage. Both the lists and doomed are position-sorted, so one
// merge walk per list does it — no per-literal map hashing, no
// reallocation; this keeps a pruning insert's uncharged bookkeeping near
// the cost of the compaction itself.
func (s *Store) repairStructural(doomed []int) {
	for v, list := range s.byVar {
		s.byVar[v] = shiftPositions(list, doomed)
	}
	for i, bucket := range s.bySize {
		s.bySize[i] = shiftPositions(bucket, doomed)
	}
}

// shiftPositions filters the ascending position list against the ascending
// doomed list in place: doomed positions drop out, survivors shift down by
// the number of doomed positions before them.
func shiftPositions(list, doomed []int) []int {
	kept := list[:0]
	d := 0
	for _, p := range list {
		for d < len(doomed) && doomed[d] < p {
			d++
		}
		if d < len(doomed) && doomed[d] == p {
			continue
		}
		kept = append(kept, p-d)
	}
	return kept
}

// AnyViolated reports whether any stored nogood is violated under a,
// charging one check per evaluated nogood (short-circuiting on the first
// violation, as an agent implementation would). A hit bumps the violated
// entry's retention activity.
func (s *Store) AnyViolated(a csp.Assignment, c *Counter) bool {
	for pos, ng := range s.nogoods {
		if Check(ng, a, c) {
			s.Bump(pos)
			return true
		}
	}
	return false
}

// CountViolated returns how many stored nogoods are violated under a,
// charging one check each and bumping each violated entry's retention
// activity.
func (s *Store) CountViolated(a csp.Assignment, c *Counter) int {
	count := 0
	for pos, ng := range s.nogoods {
		if Check(ng, a, c) {
			s.Bump(pos)
			count++
		}
	}
	return count
}
