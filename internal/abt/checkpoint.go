package abt

import (
	"fmt"
	"sort"

	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/nogood"
	"github.com/discsp/discsp/internal/sim"
)

// Snapshot is an ABT agent's durable state for crash-restart recovery. View
// entries and links are canonically sorted by variable.
type Snapshot struct {
	Value csp.Value
	// Store is the full store in insertion order (initial constraints the
	// agent evaluates plus recorded nogoods) with its retention metadata
	// (pinned flags, stamps, hits), so bounded-store runs resume eviction
	// decisions exactly.
	Store    nogood.State
	Checks   int64
	ViewVars []csp.Var
	ViewVals []csp.Value
	// OutLinks are the lower-priority ok? targets, sorted.
	OutLinks  []csp.Var
	Insoluble bool
	Stats     Stats
}

var _ sim.Checkpointer = (*Agent)(nil)

// Checkpoint implements sim.Checkpointer.
func (a *Agent) Checkpoint() any {
	s := &Snapshot{
		Value:     a.value,
		Store:     a.store.State(),
		Checks:    a.counter.Total(),
		Insoluble: a.insoluble,
		Stats:     a.stats,
	}
	vars := make([]csp.Var, 0, len(a.view))
	for v := range a.view {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	for _, v := range vars {
		s.ViewVars = append(s.ViewVars, v)
		s.ViewVals = append(s.ViewVals, a.view[v])
	}
	s.OutLinks = make([]csp.Var, 0, len(a.outLinks))
	for v := range a.outLinks {
		s.OutLinks = append(s.OutLinks, v)
	}
	sort.Slice(s.OutLinks, func(i, j int) bool { return s.OutLinks[i] < s.OutLinks[j] })
	return s
}

// Restore implements sim.Checkpointer.
func (a *Agent) Restore(snapshot any) error {
	s, ok := snapshot.(*Snapshot)
	if !ok {
		return fmt.Errorf("abt: cannot restore %T into an ABT agent", snapshot)
	}
	if len(s.ViewVars) != len(s.ViewVals) {
		return fmt.Errorf("abt: corrupt snapshot: view slices of unequal length")
	}
	a.value = s.Value
	a.store.RestoreState(s.Store)
	a.counter.Restore(s.Checks)
	a.insoluble = s.Insoluble
	a.stats = s.Stats
	a.view = make(map[csp.Var]csp.Value, len(s.ViewVars))
	for i, v := range s.ViewVars {
		a.view[v] = s.ViewVals[i]
	}
	a.outLinks = make(map[csp.Var]struct{}, len(s.OutLinks))
	for _, v := range s.OutLinks {
		a.outLinks[v] = struct{}{}
	}
	return nil
}
