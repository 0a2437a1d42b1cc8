// Package core implements the paper's primary contribution: the asynchronous
// weak-commitment search algorithm (AWC) with pluggable nogood learning,
// including the resolvent-based learning of Section 3, mcs-based learning,
// no learning, the size-bounded variants of Section 4.2, and the no-record
// ablation of Table 4.
//
// Each Agent owns exactly one variable (the class of distributed CSPs the
// paper studies). Agents communicate with three message kinds:
//
//   - Ok: "my variable now has this value, at this priority";
//   - NogoodMsg: a newly derived nogood, sent to every agent whose variable
//     appears in it;
//   - Request: "start sending me your value" (the add-link mechanism used
//     when a received nogood mentions an unknown variable).
//
// The Agent type is runtime-agnostic: it consumes messages and produces
// messages, so the same implementation runs on the synchronous simulator
// (internal/sim) and the goroutine-per-agent asynchronous runtime
// (internal/async).
package core

import (
	"fmt"

	"github.com/discsp/discsp/internal/causal"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/nogood"
	"github.com/discsp/discsp/internal/sim"
)

// LearningKind selects how an agent derives a nogood at a deadend.
type LearningKind int

const (
	// LearnNone performs no learning: at a deadend the agent only raises
	// its priority and moves (footnote 1 of the paper). This makes AWC
	// incomplete but never stuck.
	LearnNone LearningKind = iota + 1
	// LearnResolvent is the paper's resolvent-based learning (Section 3.1):
	// per domain value, select the smallest violated higher nogood (ties:
	// highest priority), union the selections, drop the own variable.
	LearnResolvent
	// LearnMCS is mcs-based learning (Mammen & Lesser style, Section 4.1):
	// derive the resolvent, then search its subsets from larger to smaller
	// for a minimum conflict set, charging nogood checks for every test.
	LearnMCS
)

// String implements fmt.Stringer.
func (k LearningKind) String() string {
	switch k {
	case LearnNone:
		return "No"
	case LearnResolvent:
		return "Rslv"
	case LearnMCS:
		return "Mcs"
	default:
		return fmt.Sprintf("LearningKind(%d)", int(k))
	}
}

// TieBreak selects how ties between equally good candidate values are
// resolved during value selection.
type TieBreak int

const (
	// TieBreakFirst deterministically picks the smallest value — the
	// repository default, which makes whole runs pure functions of their
	// seeds.
	TieBreakFirst TieBreak = iota
	// TieBreakRandom picks uniformly among the minima, as Yokoo's original
	// min-conflict value selection does; still deterministic given
	// Learning.Seed.
	TieBreakRandom
)

// Learning configures the learning strategy — and, more broadly, the agent
// policy knobs — shared by all agents of a run.
type Learning struct {
	// Kind selects the derivation method.
	Kind LearningKind
	// SizeBound, when positive, is the k of kthRslv (Section 4.2): derived
	// nogoods are still sent (the deadend must be broadcast) but a
	// recipient records one only when its size is at most k.
	SizeBound int
	// NoRecord, when true, is the Rslv/norec ablation of Table 4:
	// recipients never record received nogoods.
	NoRecord bool
	// SubsumptionPruning, when true, stores received nogoods with
	// subsumption pruning: a nogood subsumed by a recorded one is dropped,
	// and recorded supersets of a new nogood are discarded. This is the
	// store-level answer to Section 4.2's observation that redundant large
	// nogoods inflate maxcck; subset tests are charged as checks so the
	// bookkeeping cost stays inside the metric.
	SubsumptionPruning bool
	// MCSRestrictScan, when true, restricts mcs conflict-set tests to the
	// nogoods that were violated at the deadend instead of scanning the
	// whole store of higher nogoods. The restriction is sound (a conflict
	// subset of the agent_view can only trip already-violated nogoods) and
	// much cheaper; it is off by default because the unoptimized scan is
	// what reproduces the paper's Mcs cost profile. Exposed as an ablation.
	MCSRestrictScan bool
	// TieBreak selects how ties between equally good candidate values are
	// resolved; the zero value means TieBreakFirst.
	TieBreak TieBreak
	// Seed drives TieBreakRandom (each agent derives an independent
	// stream from it, so runs stay reproducible).
	Seed int64
	// MCSExhaustiveLimit bounds the resolvent size up to which mcs-based
	// learning enumerates all subsets from larger to smaller (the paper's
	// description); above it the implementation falls back to greedy
	// destructive minimization, which yields a minimal (not necessarily
	// minimum) conflict set at polynomial cost. 0 means
	// DefaultMCSExhaustiveLimit.
	MCSExhaustiveLimit int
	// Reference, when true, runs agents on the original map-backed
	// agent-view representation (refpath.go) instead of the dense
	// slice-backed default. Both representations make bit-identical
	// decisions and charge bit-identical nogood checks — the
	// cross-representation equivalence tests enforce it — so Reference only
	// trades speed for the simpler code path. It exists as the verification
	// oracle and as the reproducible "before" side of the benchmark pairs.
	// Name() deliberately ignores it: table labels must match across
	// representations.
	Reference bool
	// Retention bounds each agent's nogood store (initial constraints are
	// pinned and exempt). The zero value is the unbounded reference policy
	// of the paper's experiments. Any bounded policy is sound — learned
	// nogoods are consequences of the initial constraints, so forgetting
	// one never changes a verdict, only (possibly) the work to reach it —
	// which the retention oracle tests in internal/experiments pin.
	Retention nogood.Retention
}

// DefaultMCSExhaustiveLimit is the default cap on exhaustive mcs subset
// enumeration. 2^10 subset tests per deadend is the most the exhaustive
// search may spend before the greedy fallback takes over.
const DefaultMCSExhaustiveLimit = 10

// Name returns the paper's label for the configuration: "Rslv", "Mcs", "No",
// "3rdRslv", "5thRslv", "Rslv/norec", ...
func (l Learning) Name() string {
	name := l.Kind.String()
	if l.SizeBound > 0 && l.Kind != LearnNone {
		name = fmt.Sprintf("%s%s", ordinal(l.SizeBound), name)
	}
	if l.NoRecord {
		name += "/norec"
	}
	if l.SubsumptionPruning {
		name += "/prune"
	}
	name += l.Retention.Suffix()
	return name
}

func ordinal(k int) string {
	suffix := "th"
	switch {
	case k%100/10 == 1:
		// 11th, 12th, 13th
	case k%10 == 1:
		suffix = "st"
	case k%10 == 2:
		suffix = "nd"
	case k%10 == 3:
		suffix = "rd"
	}
	return fmt.Sprintf("%d%s", k, suffix)
}

// shouldRecord reports whether a recipient records a received nogood under
// this configuration.
func (l Learning) shouldRecord(ng csp.Nogood) bool {
	if l.NoRecord {
		return false
	}
	if l.SizeBound > 0 && ng.Len() > l.SizeBound {
		return false
	}
	return true
}

// Ok is the ok? message: the sender's current value and priority. It
// travels as *Ok, and a broadcast points its messages into one backing
// array, so announcing a value to k links costs one allocation, not k.
type Ok struct {
	Sender   sim.AgentID
	Receiver sim.AgentID
	Value    csp.Value
	Priority int
	// TID is the message's causal trace ID; zero when tracing is off.
	TID causal.ID
}

// From implements sim.Message.
func (m *Ok) From() sim.AgentID { return m.Sender }

// To implements sim.Message.
func (m *Ok) To() sim.AgentID { return m.Receiver }

// CausalID implements causal.Traced.
func (m *Ok) CausalID() causal.ID { return m.TID }

// WithCausalID implements causal.Traced: it returns a stamped copy and
// leaves the receiver, which may share a broadcast's array, untouched.
func (m *Ok) WithCausalID(id causal.ID) any { c := *m; c.TID = id; return &c }

// NogoodMsg carries a newly derived nogood to an agent whose variable
// appears in it.
type NogoodMsg struct {
	Sender   sim.AgentID
	Receiver sim.AgentID
	Nogood   csp.Nogood
	// TID is the message's causal trace ID; zero when tracing is off.
	TID causal.ID
}

// From implements sim.Message.
func (m NogoodMsg) From() sim.AgentID { return m.Sender }

// To implements sim.Message.
func (m NogoodMsg) To() sim.AgentID { return m.Receiver }

// CausalID implements causal.Traced.
func (m NogoodMsg) CausalID() causal.ID { return m.TID }

// WithCausalID implements causal.Traced.
func (m NogoodMsg) WithCausalID(id causal.ID) any { m.TID = id; return m }

// CarriedNogoodKey implements causal.NogoodCarrier: the stamping path links
// this message to the learn/store node that introduced its nogood.
func (m NogoodMsg) CarriedNogoodKey() string { return m.Nogood.Key() }

// Request asks the receiver to add the sender to its ok? recipients and to
// answer with its current value (the add-link mechanism of Section 2.2:
// "if the new nogood includes an unknown variable, the agent has to request
// the corresponding agent to send its value").
type Request struct {
	Sender   sim.AgentID
	Receiver sim.AgentID
	// TID is the message's causal trace ID; zero when tracing is off.
	TID causal.ID
}

// From implements sim.Message.
func (m Request) From() sim.AgentID { return m.Sender }

// To implements sim.Message.
func (m Request) To() sim.AgentID { return m.Receiver }

// CausalID implements causal.Traced.
func (m Request) CausalID() causal.ID { return m.TID }

// WithCausalID implements causal.Traced.
func (m Request) WithCausalID(id causal.ID) any { m.TID = id; return m }
