package multi

import (
	"fmt"
	"sort"

	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/nogood"
	"github.com/discsp/discsp/internal/sim"
)

// Options tunes the multi-variable agent.
type Options struct {
	// SizeBound, when positive, is the kthRslv recording rule lifted to
	// blocks: received nogoods larger than k are not recorded.
	SizeBound int
}

// localSolutionLimit caps how many local solutions are enumerated when
// choosing the one minimizing lower-priority violations.
const localSolutionLimit = 16

// Agent owns a block of variables of problem and runs block-wise AWC.
type Agent struct {
	id      sim.AgentID
	problem *csp.Problem
	vars    []csp.Var
	owned   map[csp.Var]bool
	owner   map[csp.Var]sim.AgentID
	opts    Options

	// localNogoods involve only owned variables and are always enforced.
	localNogoods []csp.Nogood
	// store holds cross-boundary constraint nogoods plus learned nogoods.
	store   *nogood.Store
	counter nogood.Counter

	values     map[csp.Var]csp.Value
	priority   int
	view       map[csp.Var]viewEntry
	agentPrios map[sim.AgentID]int
	outLinks   map[sim.AgentID]struct{}

	lastLearned *csp.Nogood
	insoluble   bool
	stats       Stats
}

var (
	_ sim.Agent             = (*Agent)(nil)
	_ sim.InsolubleReporter = (*Agent)(nil)
)

// NewAgent builds the agent with the given id owning partition[id]. initial
// supplies starting values for the owned variables (repaired at Init if
// they violate local constraints).
func NewAgent(id sim.AgentID, problem *csp.Problem, partition Partition, initial csp.SliceAssignment, opts Options) *Agent {
	vars := make([]csp.Var, len(partition[id]))
	copy(vars, partition[id])
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	a := &Agent{
		id:         id,
		problem:    problem,
		vars:       vars,
		owned:      make(map[csp.Var]bool, len(vars)),
		owner:      partition.Owner(),
		opts:       opts,
		store:      nogood.New(),
		values:     make(map[csp.Var]csp.Value, len(vars)),
		view:       make(map[csp.Var]viewEntry),
		agentPrios: make(map[sim.AgentID]int),
		outLinks:   make(map[sim.AgentID]struct{}),
	}
	for _, v := range vars {
		a.owned[v] = true
		a.values[v] = clampToDomain(problem.Domain(v), initial[v])
	}
	seen := make(map[string]bool)
	for _, v := range vars {
		for _, ng := range problem.NogoodsOf(v) {
			if seen[ng.Key()] {
				continue
			}
			seen[ng.Key()] = true
			if a.allOwned(ng) {
				a.localNogoods = append(a.localNogoods, ng)
				continue
			}
			a.store.AddPinned(ng)
			for i := 0; i < ng.Len(); i++ {
				if u := ng.At(i).Var; !a.owned[u] {
					a.outLinks[a.owner[u]] = struct{}{}
				}
			}
		}
	}
	return a
}

// clampToDomain substitutes the first domain value for an initial value
// outside the domain (e.g. the Unassigned sentinel).
func clampToDomain(domain []csp.Value, val csp.Value) csp.Value {
	for _, d := range domain {
		if d == val {
			return val
		}
	}
	return domain[0]
}

func (a *Agent) allOwned(ng csp.Nogood) bool {
	for i := 0; i < ng.Len(); i++ {
		if !a.owned[ng.At(i).Var] {
			return false
		}
	}
	return true
}

// ID implements sim.Agent.
func (a *Agent) ID() sim.AgentID { return a.id }

// CurrentValue implements sim.Agent; it is only meaningful for singleton
// blocks. Use Values for the full local solution.
func (a *Agent) CurrentValue() csp.Value { return a.values[a.vars[0]] }

// Values returns the agent's current local solution as literals in
// variable order.
func (a *Agent) Values() []csp.Lit {
	lits := make([]csp.Lit, len(a.vars))
	for i, v := range a.vars {
		lits[i] = csp.Lit{Var: v, Val: a.values[v]}
	}
	return lits
}

// Checks implements sim.Agent: direct nogood checks plus local-search
// effort (one unit per search node and per forward-checking pruning, the
// closest analogue of a nogood check inside the block solver).
func (a *Agent) Checks() int64 { return a.counter.Total() }

// Insoluble implements sim.InsolubleReporter.
func (a *Agent) Insoluble() bool { return a.insoluble }

// Priority returns the agent's current priority.
func (a *Agent) Priority() int { return a.priority }

// Stats returns the agent's bookkeeping counters.
func (a *Agent) Stats() Stats { return a.stats }

// Init implements sim.Agent: repair the initial block against local
// constraints (externals are unknown, so only local nogoods bind) and
// announce it.
func (a *Agent) Init() []sim.Message {
	if !a.locallyConsistent() {
		sol, ok := a.solveLocal(nil, nil)
		if !ok {
			// The agent's own CSP is unsatisfiable: the whole problem is.
			a.insoluble = true
			return nil
		}
		a.adopt(sol)
	}
	return a.broadcastOk(nil)
}

// Step implements sim.Agent.
func (a *Agent) Step(in []sim.Message) []sim.Message {
	if a.insoluble {
		return nil
	}
	var (
		out        []sim.Message
		mustAnswer []sim.AgentID
		sawTraffic bool
	)
	for _, m := range in {
		sawTraffic = true
		switch msg := m.(type) {
		case Ok:
			a.agentPrios[msg.Sender] = msg.Priority
			for _, l := range msg.Values {
				if !a.owned[l.Var] {
					a.view[l.Var] = viewEntry{val: l.Val, prio: msg.Priority}
				}
			}
		case Request:
			// Always answer with the current block, even on an existing
			// link: the requester asked because it lacks the values.
			a.outLinks[msg.Sender] = struct{}{}
			mustAnswer = append(mustAnswer, msg.Sender)
		case NogoodMsg:
			out = append(out, a.receiveNogood(msg.Nogood)...)
		default:
			panic(fmt.Sprintf("multi: unexpected message type %T", m))
		}
	}
	if !sawTraffic {
		return nil
	}
	acted, actOut := a.checkLocal()
	out = append(out, actOut...)
	if !acted {
		for _, id := range mustAnswer {
			out = append(out, Ok{Sender: a.id, Receiver: id, Values: a.Values(), Priority: a.priority})
		}
	}
	return out
}

func (a *Agent) receiveNogood(ng csp.Nogood) []sim.Message {
	var out []sim.Message
	requested := make(map[sim.AgentID]bool)
	for i := 0; i < ng.Len(); i++ {
		l := ng.At(i)
		if a.owned[l.Var] {
			continue
		}
		if _, known := a.view[l.Var]; !known {
			a.view[l.Var] = viewEntry{val: l.Val, prio: a.agentPrios[a.owner[l.Var]]}
			target := a.owner[l.Var]
			if !requested[target] {
				requested[target] = true
				out = append(out, Request{Sender: a.id, Receiver: target})
			}
		}
	}
	if a.opts.SizeBound > 0 && ng.Len() > a.opts.SizeBound {
		return out
	}
	if a.store.Add(ng) {
		a.stats.NogoodsRecorded++
	}
	return out
}

// fullView is the assignment combining the local solution with the view.
type fullView struct{ a *Agent }

var _ csp.Assignment = fullView{}

// Lookup implements csp.Assignment.
func (f fullView) Lookup(v csp.Var) (csp.Value, bool) {
	if f.a.owned[v] {
		return f.a.values[v], true
	}
	e, ok := f.a.view[v]
	if !ok {
		return 0, false
	}
	return e.val, true
}

func (a *Agent) myRank() rank { return rank{p: a.priority, id: a.id} }

// nogoodRank is the lowest rank among the nogood's external owner agents;
// ok=false when the nogood has no external participant (purely local).
func (a *Agent) nogoodRank(ng csp.Nogood) (rank, bool) {
	var (
		low   rank
		found bool
	)
	for i := 0; i < ng.Len(); i++ {
		v := ng.At(i).Var
		if a.owned[v] {
			continue
		}
		ownerID := a.owner[v]
		r := rank{p: a.agentPrios[ownerID], id: ownerID}
		if !found || low.outranks(r) {
			low, found = r, true
		}
	}
	return low, found
}

func (a *Agent) isHigher(ng csp.Nogood) bool {
	r, ok := a.nogoodRank(ng)
	if !ok {
		return true
	}
	return r.outranks(a.myRank())
}

// locallyConsistent reports whether the current block violates any local
// nogood (externals ignored).
func (a *Agent) locallyConsistent() bool {
	fv := fullView{a: a}
	for _, ng := range a.localNogoods {
		if nogood.Check(ng, fv, &a.counter) {
			return false
		}
	}
	return true
}

// checkLocal is block-wise check_agent_view.
func (a *Agent) checkLocal() (bool, []sim.Message) {
	// Fast path: current block consistent with local nogoods and violated
	// higher nogoods?
	fv := fullView{a: a}
	consistent := a.locallyConsistent()
	if consistent {
		for _, ng := range a.store.All() {
			if !a.isHigher(ng) {
				continue
			}
			if nogood.Check(ng, fv, &a.counter) {
				consistent = false
				break
			}
		}
	}
	if consistent {
		return false, nil
	}

	higher, lower := a.splitStore()
	if sol, ok := a.solveLocal(higher, lower); ok {
		a.adopt(sol)
		return true, a.broadcastOk(nil)
	}

	// Local deadend: no block assignment satisfies the local constraints
	// plus the higher nogoods under the current view.
	a.stats.Deadends++
	learned := a.deriveNogood(higher)
	if a.lastLearned != nil && learned.Equal(*a.lastLearned) {
		return false, nil
	}
	cp := learned
	a.lastLearned = &cp
	a.stats.NogoodsGenerated++
	if learned.Empty() {
		a.insoluble = true
		return false, nil
	}
	var msgs []sim.Message
	for _, target := range a.nogoodOwners(learned) {
		msgs = append(msgs, NogoodMsg{Sender: a.id, Receiver: target, Nogood: learned})
	}

	maxPrio := a.priority
	for _, p := range a.agentPrios {
		if p > maxPrio {
			maxPrio = p
		}
	}
	a.priority = maxPrio + 1
	a.stats.PriorityRaises++

	// Move to the local solution minimizing violations over all cross
	// nogoods (local constraints stay hard).
	if sol, ok := a.solveLocal(nil, a.store.All()); ok {
		a.adopt(sol)
	}
	return true, a.broadcastOk(msgs)
}

// splitStore classifies stored nogoods by priority.
func (a *Agent) splitStore() (higher, lower []csp.Nogood) {
	for _, ng := range a.store.All() {
		if a.isHigher(ng) {
			higher = append(higher, ng)
		} else {
			lower = append(lower, ng)
		}
	}
	return higher, lower
}

// nogoodOwners returns the distinct owner agents of the nogood's variables,
// ascending.
func (a *Agent) nogoodOwners(ng csp.Nogood) []sim.AgentID {
	set := make(map[sim.AgentID]struct{})
	for i := 0; i < ng.Len(); i++ {
		set[a.owner[ng.At(i).Var]] = struct{}{}
	}
	owners := make([]sim.AgentID, 0, len(set))
	for id := range set {
		owners = append(owners, id)
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
	return owners
}

func (a *Agent) adopt(sol map[csp.Var]csp.Value) {
	for v, val := range sol {
		a.values[v] = val
	}
}

func (a *Agent) broadcastOk(msgs []sim.Message) []sim.Message {
	targets := make([]sim.AgentID, 0, len(a.outLinks))
	for id := range a.outLinks {
		targets = append(targets, id)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	for _, id := range targets {
		msgs = append(msgs, Ok{Sender: a.id, Receiver: id, Values: a.Values(), Priority: a.priority})
	}
	return msgs
}
