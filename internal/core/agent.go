package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"github.com/discsp/discsp/internal/causal"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/nogood"
	"github.com/discsp/discsp/internal/sim"
	"github.com/discsp/discsp/internal/telemetry"
)

// Stats exposes per-agent bookkeeping for the experiment harness.
type Stats struct {
	// Deadends counts check_agent_view invocations that found no value
	// consistent with the higher nogoods.
	Deadends int64
	// NogoodsGenerated counts nogoods actually derived and sent (a deadend
	// whose derived nogood equals the previous one is suppressed and not
	// counted, per the paper's "the agent does nothing" rule).
	NogoodsGenerated int64
	// RedundantGenerations counts generations of a nogood this agent had
	// already generated before (the Table 4 measure).
	RedundantGenerations int64
	// NogoodsRecorded counts received nogoods that passed the recording
	// rules and were new to the store.
	NogoodsRecorded int64
	// NogoodsPruned counts stored nogoods discarded by subsumption
	// pruning (Learning.SubsumptionPruning).
	NogoodsPruned int64
	// PriorityRaises counts deadend priority escalations.
	PriorityRaises int64
}

// Agent is one AWC agent owning one variable.
//
// The agent view has two interchangeable representations. The default is
// dense: values live in a csp.DenseView indexed by variable (with the own
// variable's slot doubling as the probe value during evaluation), priorities
// in a parallel slice, and every stored nogood's higher/lower classification
// is cached by store position. The cache is kept incrementally: only the
// nogoods mentioning a variable whose outranks-the-owner relation flipped
// are reclassified, and appended nogoods are classified once. The
// map-backed representation of the paper-faithful first implementation is
// kept verbatim behind Learning.Reference as a verification oracle (see
// refpath.go); both representations charge bit-identical nogood checks and
// make bit-identical decisions, which the cross-representation equivalence
// tests enforce.
//
// Init and Step return slices of one buffer the agent owns and clears at
// its next Init or Step call, so a steady-state step allocates only the
// messages it sends.
type Agent struct {
	id       csp.Var
	domain   []csp.Value
	learning Learning

	store   *nogood.Store
	counter nogood.Counter

	value    csp.Value
	priority int

	// Dense representation (default).
	dv     *csp.DenseView // agent_view plus own variable (= probe slot)
	prios  []int          // prios[v] = last announced priority of v (0 unknown)
	links  []csp.Var      // sorted ok? broadcast targets
	linked []bool         // membership mirror of links
	// higher caches each stored nogood's higher/lower classification by
	// store position (see ensureHigher). Rank depends only on priorities,
	// so an entry goes stale only when one of its variables flips between
	// outranking the owner and not; observe queues such variables in
	// flipped. higherValid false (an own-priority change, SeedNogoods,
	// Restore) and a changed store shift counter force a full rebuild.
	higher       []bool
	higherValid  bool
	higherShifts int64
	flipped      []csp.Var
	mcsView      *csp.DenseView // scratch assignment for conflict-set tests
	litScratch   []csp.Lit      // scratch for resolvent assembly
	subScratch   []csp.Lit      // scratch for mcs subset candidates

	// Reference representation (Learning.Reference).
	view     map[csp.Var]viewEntry
	outLinks map[csp.Var]struct{}

	lastLearned   *csp.Nogood
	generatedKeys map[string]struct{}
	insoluble     bool
	stats         Stats
	rng           *rand.Rand // non-nil only under TieBreakRandom

	// causalT, when non-nil, records nogood lineage: store events for
	// recorded nogoods, learn events (with the consulted store entries as
	// causes) for derivations. Nil when tracing is off; every use is
	// nil-checked in the tracer, so the hot paths stay allocation-free.
	causalT *causal.AgentTracer

	// scratch reused across check_agent_view invocations.
	violatedHigher [][]csp.Nogood
	lowerViol      []int

	// out is the buffer Init and Step append their messages to and
	// return; each call clears it first.
	out []sim.Message

	// seedRequests are the non-neighbor variables mentioned by warm-start
	// nogoods (SeedNogoods); Init asks each for its current value instead
	// of adopting the stale values the previous run saw.
	seedRequests []csp.Var
}

var _ sim.Agent = (*Agent)(nil)

// NewAgent builds the AWC agent for variable id of problem, starting at the
// given initial value. The agent's store is seeded with the problem nogoods
// relevant to its variable (Section 2.1: agent i knows the nogoods relevant
// to its variable, including inter-agent nogoods).
func NewAgent(id csp.Var, problem *csp.Problem, initial csp.Value, learning Learning) *Agent {
	a := &Agent{
		id:            id,
		domain:        problem.Domain(id),
		learning:      learning,
		store:         nogood.NewFromSliceRetention(problem.NogoodsOf(id), learning.Retention),
		value:         initial,
		generatedKeys: make(map[string]struct{}),
	}
	neighbors := problem.Neighbors(id)
	if learning.Reference {
		a.view = make(map[csp.Var]viewEntry)
		a.outLinks = make(map[csp.Var]struct{})
		for _, nb := range neighbors {
			a.outLinks[nb] = struct{}{}
		}
	} else {
		n := problem.NumVars()
		a.dv = csp.NewDenseView(n)
		a.dv.Assign(id, initial)
		a.prios = make([]int, n)
		a.mcsView = csp.NewDenseView(n)
		a.linked = make([]bool, n)
		a.links = make([]csp.Var, len(neighbors))
		copy(a.links, neighbors) // Neighbors returns sorted variables
		for _, nb := range neighbors {
			a.linked[nb] = true
		}
	}
	a.violatedHigher = make([][]csp.Nogood, len(a.domain))
	a.lowerViol = make([]int, len(a.domain))
	if learning.TieBreak == TieBreakRandom {
		// Independent per-agent stream: runs stay pure functions of the
		// configured seed.
		a.rng = rand.New(rand.NewSource(learning.Seed*1_000_003 + int64(id)*7919 + 1))
	}
	return a
}

// chooseMin returns the index in [0,n) minimizing score among eligible
// indices, resolving ties per the configured tie-break; -1 when nothing is
// eligible.
func (a *Agent) chooseMin(n int, eligible func(int) bool, score func(int) int) int {
	best, bestScore := -1, 0
	for i := 0; i < n; i++ {
		if !eligible(i) {
			continue
		}
		if s := score(i); best < 0 || s < bestScore {
			best, bestScore = i, s
		}
	}
	if best < 0 || a.rng == nil {
		return best
	}
	// Reservoir-sample uniformly among the tied minima.
	picked, ties := -1, 0
	for i := 0; i < n; i++ {
		if !eligible(i) || score(i) != bestScore {
			continue
		}
		ties++
		if a.rng.Intn(ties) == 0 {
			picked = i
		}
	}
	return picked
}

// ID implements sim.Agent.
func (a *Agent) ID() sim.AgentID { return sim.AgentID(a.id) }

// CurrentValue implements sim.Agent.
func (a *Agent) CurrentValue() csp.Value { return a.value }

// Checks implements sim.Agent.
func (a *Agent) Checks() int64 { return a.counter.Total() }

// Priority returns the agent's current priority value.
func (a *Agent) Priority() int { return a.priority }

// Insoluble reports whether this agent derived the empty nogood, proving the
// problem has no solution.
func (a *Agent) Insoluble() bool { return a.insoluble }

// Stats returns the agent's bookkeeping counters.
func (a *Agent) Stats() Stats { return a.stats }

// StoreSize returns the number of nogoods currently recorded (initial
// constraints plus learned).
func (a *Agent) StoreSize() int { return a.store.Len() }

// LearnedNogoods returns the surviving learned (unpinned) nogoods, for
// warm-start harvesting.
func (a *Agent) LearnedNogoods() []csp.Nogood { return a.store.Learned() }

// StoreEvictions returns the number of retention evictions so far.
func (a *Agent) StoreEvictions() int64 { return a.store.Evictions() }

// StoreLearnedLen returns the number of learned (unpinned, evictable)
// nogoods currently stored — the population a retention cap bounds.
func (a *Agent) StoreLearnedLen() int { return a.store.LearnedLen() }

// SetCausal attaches the causal tracing handle. Called after construction
// (and again on each crash-restart incarnation, which receives the same
// handle so trace IDs stay stable). A nil handle disables lineage
// recording.
func (a *Agent) SetCausal(at *causal.AgentTracer) { a.causalT = at }

// Instrument attaches telemetry to the agent's nogood store: Size tracks
// the live store size, Lengths the distribution of learned-nogood
// (resolvent) literal counts, Evictions the retention evictions. Called
// after construction so the initial constraints do not pollute the length
// histogram. Observationally inert: the hooks only read state the agent
// already maintains.
func (a *Agent) Instrument(m telemetry.StoreMetrics) {
	a.store.Instrument(m)
}

// SeedNogoods warm-starts the store with nogoods learned by a previous run
// on a compatible problem (see nogood.Cache for the admissibility rule the
// caller enforces). Called after construction, before the run begins.
// Seeding charges no checks — the knowledge was paid for when it was first
// learned — and honours the learning configuration's recording rules
// (size bound, no-record). Unlike receiveNogood, the values a seeded
// nogood asserts are NOT adopted into the agent_view: they were true at
// some view of the previous run and are meaningless now. Mentioned
// variables outside the constraint neighborhood are remembered and asked
// for their current value at Init (the add-link mechanism); until an owner
// answers, the seeded nogood simply cannot fire, which is exactly the
// semantics of an unknown variable.
func (a *Agent) SeedNogoods(ngs []csp.Nogood) {
	requested := make(map[csp.Var]bool)
	for _, ng := range ngs {
		if ng.Empty() || !a.learning.shouldRecord(ng) {
			continue
		}
		if !a.store.Add(ng) {
			continue
		}
		for i := 0; i < ng.Len(); i++ {
			v := ng.At(i).Var
			if v == a.id || requested[v] || a.isNeighbor(v) {
				continue
			}
			requested[v] = true
			a.seedRequests = append(a.seedRequests, v)
		}
	}
	sort.Slice(a.seedRequests, func(i, j int) bool { return a.seedRequests[i] < a.seedRequests[j] })
	a.higherValid = false
}

// isNeighbor reports whether v is already an ok? broadcast target (a
// constraint-graph neighbor, whose value will arrive in the first cycle
// without being asked).
func (a *Agent) isNeighbor(v csp.Var) bool {
	if a.learning.Reference {
		_, ok := a.outLinks[v]
		return ok
	}
	return a.linked[v]
}

// Init implements sim.Agent: repair unary-constraint violations of the
// initial value (with an empty agent_view only unary nogoods can fire, and
// those are always "higher"), then announce the value to all neighbors. A
// variable whose unary constraints wipe out its whole domain derives the
// empty resolvent here, immediately proving insolubility; it then has no
// value to announce and sends nothing. Warm-start value requests
// (SeedNogoods, one per variable in ascending order) ride along in front.
func (a *Agent) Init() []sim.Message {
	a.resetOut()
	for _, v := range a.seedRequests {
		a.out = append(a.out, Request{Sender: a.ID(), Receiver: sim.AgentID(v)})
	}
	acted := a.checkAgentView()
	if a.insoluble {
		return nil
	}
	if !acted {
		a.broadcastOk()
	}
	return a.output()
}

// resetOut clears the output buffer for a new Init or Step call, leaving
// no message of the previous call reachable from it.
func (a *Agent) resetOut() {
	clear(a.out)
	a.out = a.out[:0]
}

// output returns the output buffer, or nil when the call sends nothing.
func (a *Agent) output() []sim.Message {
	if len(a.out) == 0 {
		return nil
	}
	return a.out
}

// Reannounce implements sim.Reannouncer: restate the current value and
// priority to one peer whose process relaunched without memory. Only ok?
// broadcast targets get an announcement — a non-neighbor that wants the
// value will ask for it with a Request, exactly as in a fresh run.
func (a *Agent) Reannounce(peer sim.AgentID) []sim.Message {
	if !a.isNeighbor(csp.Var(peer)) {
		return nil
	}
	return []sim.Message{Ok{
		Sender:   a.ID(),
		Receiver: peer,
		Value:    a.value,
		Priority: a.priority,
	}}
}

// Step implements sim.Agent: absorb the cycle's messages, then run
// check_agent_view once and emit the resulting messages. An empty batch
// changes nothing and sends nothing.
func (a *Agent) Step(in []sim.Message) []sim.Message {
	if a.insoluble || len(in) == 0 {
		return nil
	}
	a.resetOut()
	var mustAnswer []csp.Var // fresh requesters needing an ok? reply
	for _, m := range in {
		switch msg := m.(type) {
		case Ok:
			a.observe(csp.Var(msg.Sender), msg.Value, msg.Priority)
		case Request:
			// Always answer with the current value, even on an existing
			// link: the requester asked because it lacks the value.
			v := csp.Var(msg.Sender)
			a.addLink(v)
			mustAnswer = append(mustAnswer, v)
		case NogoodMsg:
			a.receiveNogood(msg)
		default:
			panic(fmt.Sprintf("core: unexpected message type %T", m))
		}
	}
	if !a.checkAgentView() {
		// The agent's state did not change, but fresh requesters still
		// need to learn the current value.
		for _, v := range mustAnswer {
			a.out = append(a.out, Ok{
				Sender:   a.ID(),
				Receiver: sim.AgentID(v),
				Value:    a.value,
				Priority: a.priority,
			})
		}
	}
	return a.output()
}

// observe records an ok? announcement in the agent_view. A priority change
// that flips whether v outranks the owner queues v for ensureHigher; any
// other priority change leaves every cached classification as it was.
func (a *Agent) observe(v csp.Var, val csp.Value, prio int) {
	if a.learning.Reference {
		a.view[v] = viewEntry{val: val, prio: prio}
		return
	}
	if a.prios[v] != prio {
		was := a.outranksOwner(v)
		a.prios[v] = prio
		if a.higherValid && a.outranksOwner(v) != was {
			a.flipped = append(a.flipped, v)
		}
	}
	a.dv.Assign(v, val)
}

// knows reports whether v appears in the agent_view.
func (a *Agent) knows(v csp.Var) bool {
	if a.learning.Reference {
		_, known := a.view[v]
		return known
	}
	return a.dv.Known(v)
}

// adopt enters an unknown variable's value into the agent_view at priority
// 0 (the value asserted by a received nogood). Priority 0 equals the rank
// an unknown variable already had, so the higher-nogood cache stays valid.
func (a *Agent) adopt(v csp.Var, val csp.Value) {
	if a.learning.Reference {
		a.view[v] = viewEntry{val: val, prio: 0}
		return
	}
	a.dv.Assign(v, val)
}

// addLink adds v to the ok? broadcast targets.
func (a *Agent) addLink(v csp.Var) {
	if a.learning.Reference {
		a.outLinks[v] = struct{}{}
		return
	}
	if a.linked[v] {
		return
	}
	a.linked[v] = true
	i := sort.Search(len(a.links), func(i int) bool { return a.links[i] >= v })
	a.links = append(a.links, 0)
	copy(a.links[i+1:], a.links[i:])
	a.links[i] = v
}

// receiveNogood implements the nogood-message handler of Section 2.2:
// record the nogood (subject to the learning configuration's recording
// rules), and request values for unknown variables. The store's shift
// counter tells ensureHigher whether the insert moved positions (a prune
// or an eviction); a plain append only extends the classification cache.
func (a *Agent) receiveNogood(msg NogoodMsg) {
	ng := msg.Nogood
	for i := 0; i < ng.Len(); i++ {
		l := ng.At(i)
		if l.Var == a.id {
			continue
		}
		if !a.knows(l.Var) {
			// Adopt the value asserted by the nogood (it was true at the
			// sender's view) and ask the owner to keep us posted.
			a.adopt(l.Var, l.Val)
			a.out = append(a.out, Request{Sender: a.ID(), Receiver: sim.AgentID(l.Var)})
		}
	}
	if a.learning.shouldRecord(ng) {
		if a.learning.SubsumptionPruning {
			added, removed := a.store.AddPruning(ng, &a.counter)
			if added {
				a.stats.NogoodsRecorded++
				a.causalT.Store(ng, msg.TID)
			}
			a.stats.NogoodsPruned += int64(removed)
		} else if a.store.Add(ng) {
			a.stats.NogoodsRecorded++
			a.causalT.Store(ng, msg.TID)
		}
	}
}

// rank is a variable's total-order priority: larger priority value wins,
// ties break toward the smaller variable id (the paper: "all ties in
// priorities are broken due to the alphabetical order of variables' ids").
type rank struct {
	p int
	v csp.Var
}

// outranks reports whether a is strictly higher-priority than b.
func (a rank) outranks(b rank) bool {
	if a.p != b.p {
		return a.p > b.p
	}
	return a.v < b.v
}

func (a *Agent) rankOf(v csp.Var) rank {
	if v == a.id {
		return rank{p: a.priority, v: v}
	}
	if a.learning.Reference {
		e, ok := a.view[v]
		if !ok {
			return rank{p: 0, v: v}
		}
		return rank{p: e.prio, v: v}
	}
	// prios[v] is 0 for unknown variables — the same rank an absent view
	// entry yields in the reference representation.
	return rank{p: a.prios[v], v: v}
}

// nogoodRank returns the nogood's priority: the lowest rank among its
// variables excluding the owner's variable. A nogood with no other variable
// (a unary constraint on the owner) outranks everything — it must always be
// respected — signalled by ok=false.
func (a *Agent) nogoodRank(ng csp.Nogood) (rank, bool) {
	var (
		low   rank
		found bool
	)
	for i := 0; i < ng.Len(); i++ {
		v := ng.At(i).Var
		if v == a.id {
			continue
		}
		r := a.rankOf(v)
		if !found || low.outranks(r) {
			low, found = r, true
		}
	}
	return low, found
}

// isHigher reports whether ng is a higher nogood for this agent: its
// priority exceeds the owner variable's priority. The reference path
// classifies with it; the dense path's cache uses higherDense.
func (a *Agent) isHigher(ng csp.Nogood) bool {
	ngRank, ok := a.nogoodRank(ng)
	if !ok {
		return true // unary constraint on own variable
	}
	return ngRank.outranks(rank{p: a.priority, v: a.id})
}

// outranksOwner reports whether variable v, not the owner's, outranks the
// owner under the dense view's priorities.
func (a *Agent) outranksOwner(v csp.Var) bool {
	return rank{p: a.prios[v], v: v}.outranks(rank{p: a.priority, v: a.id})
}

// higherDense is isHigher for the dense representation: the lowest-ranked
// other variable outranks the owner exactly when every other variable
// does, so it stops at the first one that does not.
func (a *Agent) higherDense(ng csp.Nogood) bool {
	for i := 0; i < ng.Len(); i++ {
		if v := ng.At(i).Var; v != a.id && !a.outranksOwner(v) {
			return false
		}
	}
	return true
}

// ensureHigher brings the per-nogood higher/lower classification cache up
// to date: a full rebuild when the own priority changed or store positions
// moved, otherwise a reclassification of the nogoods mentioning a flipped
// variable; then it classifies the entries appended since the last call.
// Dense representation only.
func (a *Agent) ensureHigher() {
	all := a.store.All()
	if !a.higherValid || a.higherShifts != a.store.Shifts() {
		a.higher = slices.Grow(a.higher[:0], len(all))
		a.higherValid = true
		a.higherShifts = a.store.Shifts()
	} else {
		for _, v := range a.flipped {
			for _, pos := range a.store.PostingList(v) {
				if pos >= len(a.higher) {
					break // appended since the last call: classified below
				}
				a.higher[pos] = a.higherDense(all[pos])
			}
		}
	}
	a.flipped = a.flipped[:0]
	for _, ng := range all[len(a.higher):] {
		a.higher = append(a.higher, a.higherDense(ng))
	}
}

// checkAgentView is the heart of AWC (Section 2.2). It appends the messages
// to send to the output buffer and returns whether the agent acted (changed
// value and/or priority).
func (a *Agent) checkAgentView() bool {
	// Fast path: is the current value consistent with all higher nogoods?
	// Scans until the first violated higher nogood, charging one check per
	// evaluated nogood.
	if a.consistent() {
		return false
	}

	// Full evaluation: every stored nogood against every domain value,
	// classifying each nogood as higher or lower and recording violations.
	a.classifyViolations()

	// Candidates repair every higher violation; among them minimize
	// violations of lower nogoods.
	bestIdx := a.chooseMin(len(a.domain),
		func(i int) bool { return len(a.violatedHigher[i]) == 0 },
		func(i int) int { return a.lowerViol[i] })
	if bestIdx >= 0 {
		a.setValue(a.domain[bestIdx])
		a.broadcastOk()
		return true
	}

	// Deadend: every value violates some higher nogood.
	a.stats.Deadends++
	if a.learning.Kind != LearnNone {
		learned := a.deriveNogood()
		// Generation statistics count every derivation — Table 4 measures
		// "nogoods generated", and the derivation work happens whether or
		// not the suppression guard below then swallows the result.
		a.stats.NogoodsGenerated++
		key := learned.Key()
		if _, seen := a.generatedKeys[key]; seen {
			a.stats.RedundantGenerations++
		} else {
			a.generatedKeys[key] = struct{}{}
		}
		if a.lastLearned != nil && learned.Equal(*a.lastLearned) {
			// Required for completeness (Section 2.2): regenerating the
			// same nogood means nothing new was learned; do nothing.
			return false
		}
		cp := learned
		a.lastLearned = &cp
		// Record the derivation (causes: the enclosing span plus the store
		// entries the learner consulted). The empty resolvent is recorded
		// too — it is the insolubility proof, the provenance DAG's root.
		a.causalT.Learn(learned)
		if learned.Empty() {
			a.insoluble = true
			return false
		}
		for i := 0; i < learned.Len(); i++ {
			a.out = append(a.out, NogoodMsg{
				Sender:   a.ID(),
				Receiver: sim.AgentID(learned.At(i).Var),
				Nogood:   learned,
			})
		}
	}

	// Raise priority above everything currently in view, then move to the
	// value violating the fewest nogoods overall (higher and lower).
	a.priority = a.maxViewPriority() + 1
	a.higherValid = false
	a.stats.PriorityRaises++

	bestIdx = a.chooseMin(len(a.domain),
		func(int) bool { return true },
		func(i int) int { return len(a.violatedHigher[i]) + a.lowerViol[i] })
	a.setValue(a.domain[bestIdx])
	a.broadcastOk()
	return true
}

// setValue moves the own variable, keeping the dense view's probe slot in
// sync.
func (a *Agent) setValue(val csp.Value) {
	a.value = val
	if !a.learning.Reference {
		a.dv.Assign(a.id, val)
	}
}

// maxViewPriority returns the highest priority in the agent_view, floored
// at the own priority.
func (a *Agent) maxViewPriority() int {
	maxPrio := a.priority
	if a.learning.Reference {
		for _, e := range a.view {
			if e.prio > maxPrio {
				maxPrio = e.prio
			}
		}
		return maxPrio
	}
	// Unknown variables sit at priority 0, which can never exceed the own
	// priority (priorities start at 0 and only rise), so scanning the whole
	// dense slice matches the reference map scan.
	for v, p := range a.prios {
		if csp.Var(v) != a.id && p > maxPrio {
			maxPrio = p
		}
	}
	return maxPrio
}

// consistent reports whether the current value violates no higher nogood,
// charging one check per evaluated nogood (short-circuiting on the first
// violation).
func (a *Agent) consistent() bool {
	if a.learning.Reference {
		return a.consistentRef()
	}
	a.ensureHigher()
	dv := a.dv // holds the agent_view with the own variable at a.value
	for i, ng := range a.store.All() {
		if !a.higher[i] {
			continue
		}
		if nogood.CheckDense(ng, dv, &a.counter) {
			a.store.Bump(i)
			return false
		}
	}
	return true
}

// classifyViolations fills violatedHigher/lowerViol for every domain value
// and charges one check per stored nogood and domain value, the cost of
// evaluating each nogood once per value. The dense path evaluates each
// nogood once: one without the owner's variable is violated at every value
// or at none, and one with it can be violated only at the value it names.
// Bumps and the order of violatedHigher entries match the per-value scan.
func (a *Agent) classifyViolations() {
	for i := range a.domain {
		a.violatedHigher[i] = a.violatedHigher[i][:0]
		a.lowerViol[i] = 0
	}
	if a.learning.Reference {
		a.classifyViolationsRef()
		return
	}
	a.ensureHigher()
	dv := a.dv
	all := a.store.All()
	a.counter.Add(len(all) * len(a.domain))
	for i, ng := range all {
		first, end := 0, len(a.domain) // the values ng can be violated at
		if val, mentions := ng.ValueOf(a.id); mentions {
			if first = slices.Index(a.domain, val); first < 0 {
				continue // a value outside the domain is never taken
			}
			end = first + 1
			dv.Assign(a.id, val)
		}
		if !ng.ViolatedDense(dv) {
			continue
		}
		higher := a.higher[i]
		for j := first; j < end; j++ {
			a.store.Bump(i)
			if higher {
				a.violatedHigher[j] = append(a.violatedHigher[j], ng)
			} else {
				a.lowerViol[j]++
			}
		}
	}
	dv.Assign(a.id, a.value) // restore the probe slot
}

// broadcastOk appends an ok? message for every outgoing link to the output
// buffer, in deterministic (ascending id) order.
func (a *Agent) broadcastOk() {
	if a.learning.Reference {
		a.out = a.broadcastOkRef(a.out)
		return
	}
	for _, v := range a.links {
		a.out = append(a.out, Ok{
			Sender:   a.ID(),
			Receiver: sim.AgentID(v),
			Value:    a.value,
			Priority: a.priority,
		})
	}
}
