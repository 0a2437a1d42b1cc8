package nogood

import (
	"fmt"
	"strconv"
	"strings"
)

// RetentionKind selects the store's forgetting policy. The zero value is
// RetainAll — today's unbounded behavior and the reference the oracle tests
// compare every bounded policy against.
type RetentionKind int

const (
	// RetainAll never evicts: the store grows monotonically, exactly as in
	// the paper's experiments. This is the reference policy.
	RetainAll RetentionKind = iota
	// RetainLRU evicts the least-recently-used learned nogood when the
	// learned population exceeds the cap. "Used" means touched by Bump —
	// i.e. the nogood fired during a consistency check — or inserted.
	RetainLRU
	// RetainActivity evicts by quality score: fewest violation hits first,
	// then longest (least general) nogood, then least recently touched.
	// This is the LBD-flavoured policy: short, frequently-firing resolvents
	// are the most valuable and survive longest.
	RetainActivity
)

// String returns the kind's flag spelling.
func (k RetentionKind) String() string {
	switch k {
	case RetainLRU:
		return "lru"
	case RetainActivity:
		return "activity"
	default:
		return "all"
	}
}

// Retention configures a store's forgetting policy. Cap bounds the number
// of *learned* (unpinned) nogoods; pinned entries — the agent's initial
// constraints — are never evicted and do not count against the cap, so a
// store holds at most pinned+Cap nogoods. Cap is ignored for RetainAll.
//
// Soundness: every learned nogood is a logical consequence of the initial
// constraints, so evicting one can never admit an assignment the problem
// forbids, and a cap that never binds is bit-identical to the reference.
// Completeness is not kept: forgetting costs re-derived knowledge, which
// the charged-check metric makes visible, and a cap that binds can end an
// async or tcp run quiescent and unsolved, because AWC does not resend a
// nogood it has just sent although the recipient may have evicted it.
type Retention struct {
	Kind RetentionKind
	Cap  int
}

// Bounded reports whether the policy ever evicts.
func (r Retention) Bounded() bool { return r.Kind != RetainAll }

// String renders the policy in the -retention flag syntax: "all",
// "lru:512", "activity:512".
func (r Retention) String() string {
	if !r.Bounded() {
		return "all"
	}
	return r.Kind.String() + ":" + strconv.Itoa(r.Cap)
}

// Suffix returns the policy's algorithm-name decoration: "" for the
// reference, "/lru512"-style otherwise. It keeps bounded runs visually
// distinct in tables and journals.
func (r Retention) Suffix() string {
	if !r.Bounded() {
		return ""
	}
	return "/" + r.Kind.String() + strconv.Itoa(r.Cap)
}

// ParseRetention parses the -retention flag syntax: "all" (or ""), or
// "<policy>:<cap>" where policy is "lru" or "activity" and cap is a
// non-negative learned-nogood budget (0 is legal: learn-and-forget).
func ParseRetention(s string) (Retention, error) {
	switch s {
	case "", "all", "unbounded":
		return Retention{}, nil
	}
	kindStr, capStr, ok := strings.Cut(s, ":")
	if !ok {
		return Retention{}, fmt.Errorf("retention %q: want \"all\" or \"<lru|activity>:<cap>\"", s)
	}
	var kind RetentionKind
	switch kindStr {
	case "lru":
		kind = RetainLRU
	case "activity":
		kind = RetainActivity
	default:
		return Retention{}, fmt.Errorf("retention %q: unknown policy %q (want lru or activity)", s, kindStr)
	}
	cap, err := strconv.Atoi(capStr)
	if err != nil || cap < 0 {
		return Retention{}, fmt.Errorf("retention %q: cap must be a non-negative integer", s)
	}
	return Retention{Kind: kind, Cap: cap}, nil
}
