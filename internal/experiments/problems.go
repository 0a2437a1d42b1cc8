package experiments

import (
	"fmt"
	"math"

	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/gen"
)

// ProblemKind selects one of the paper's three benchmark families.
type ProblemKind int

const (
	// D3C is the distributed 3-coloring family: solvable instances with
	// m = 2.7n arcs (Section 4, Minton et al. generation).
	D3C ProblemKind = iota + 1
	// D3S is the distributed 3SAT family in the style of 3SAT-GEN:
	// forced-satisfiable random 3SAT with m = 4.3n clauses.
	D3S
	// D3S1 is the distributed 3SAT family in the style of 3ONESAT-GEN:
	// single-solution instances with m = 3.4n clauses.
	D3S1
)

// String returns the paper's abbreviation (Table 4 uses d3c/d3s/d3s1).
func (k ProblemKind) String() string {
	switch k {
	case D3C:
		return "d3c"
	case D3S:
		return "d3s"
	case D3S1:
		return "d3s1"
	default:
		return fmt.Sprintf("ProblemKind(%d)", int(k))
	}
}

// ParseKind returns the family String names.
func ParseKind(s string) (ProblemKind, error) {
	for _, k := range []ProblemKind{D3C, D3S, D3S1} {
		if s == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown family %q (want d3c, d3s, or d3s1)", s)
}

// Ratio returns the paper's constraint/variable ratio for the family.
func (k ProblemKind) Ratio() float64 {
	switch k {
	case D3C:
		return 2.7
	case D3S:
		return 4.3
	case D3S1:
		return 3.4
	default:
		return 0
	}
}

// PaperNs returns the n values the paper evaluates for the family.
func (k ProblemKind) PaperNs() []int {
	switch k {
	case D3C:
		return []int{60, 90, 120, 150}
	case D3S:
		return []int{50, 100, 150}
	case D3S1:
		return []int{50, 100, 200}
	default:
		return nil
	}
}

// PaperTrials returns the paper's (instances, initial-value sets per
// instance) trial structure for the family; every cell totals 100 trials.
func (k ProblemKind) PaperTrials() (instances, inits int) {
	switch k {
	case D3C:
		return 10, 10
	case D3S:
		return 25, 4
	case D3S1:
		return 4, 25
	default:
		return 0, 0
	}
}

// MakeInstance generates one instance of the family at size n, with the
// paper's ratio, deterministically from seed.
func MakeInstance(kind ProblemKind, n int, seed int64) (*csp.Problem, error) {
	return makeInstanceM(kind, n, int(math.Round(kind.Ratio()*float64(n))), seed)
}

// makeInstanceM generates an instance with an explicit constraint count
// (used by the hardness sweeps).
func makeInstanceM(kind ProblemKind, n, m int, seed int64) (*csp.Problem, error) {
	switch kind {
	case D3C:
		inst, err := gen.Coloring(n, m, 3, seed)
		if err != nil {
			return nil, err
		}
		return inst.Problem, nil
	case D3S:
		inst, err := gen.ForcedSAT3(n, m, seed)
		if err != nil {
			return nil, err
		}
		return inst.Problem, nil
	case D3S1:
		inst, err := gen.UniqueSAT3(n, m, seed)
		if err != nil {
			return nil, err
		}
		return inst.Problem, nil
	default:
		return nil, fmt.Errorf("experiments: unknown problem kind %d", int(kind))
	}
}

// instanceSeed and initSeed derive deterministic per-trial seeds so every
// table cell is reproducible and different cells never share RNG streams.
func instanceSeed(base int64, kind ProblemKind, n, instance int) int64 {
	return base + int64(kind)*1_000_000_000 + int64(n)*1_000_000 + int64(instance)*1_000
}

func initSeed(base int64, kind ProblemKind, n, instance, init int) int64 {
	return instanceSeed(base, kind, n, instance) + 500_000_000_000 + int64(init)
}
