package experiments

import (
	"fmt"

	"github.com/discsp/discsp"
	"github.com/discsp/discsp/internal/gen"
)

// WarmStartResult aggregates the repeat-solve workload for one family × n:
// the same instances solved cold (empty store) and warm (store seeded from a
// cross-run nogood cache harvested off an earlier solve of the same
// instance). Cold and warm trials share problem, initial assignment, and
// learning configuration — the seeded nogoods are the only difference — so
// the deltas isolate the value of remembering.
type WarmStartResult struct {
	Kind ProblemKind
	N    int
	// Pairs is the number of cold/warm trial pairs measured.
	Pairs int
	// ColdCycles and WarmCycles are mean cycles to termination.
	ColdCycles, WarmCycles float64
	// ColdChecks and WarmChecks are mean total charged checks.
	ColdChecks, WarmChecks float64
	// ColdSolved and WarmSolved are the percentage of trials finished
	// within the cutoff.
	ColdSolved, WarmSolved float64
	// CacheNogoods is the total number of nogoods harvested into the
	// per-instance caches by the priming runs.
	CacheNogoods int
	// SeededPairs counts pairs whose warm run actually received seeds (a
	// priming run that learned nothing leaves its cache empty).
	SeededPairs int
}

// CycleReduction is the relative mean-cycle saving of warm over cold
// (positive = warm cheaper).
func (r WarmStartResult) CycleReduction() float64 { return reduction(r.ColdCycles, r.WarmCycles) }

// CheckReduction is the relative mean-check saving of warm over cold.
func (r WarmStartResult) CheckReduction() float64 { return reduction(r.ColdChecks, r.WarmChecks) }

func reduction(cold, warm float64) float64 {
	if cold == 0 {
		return 0
	}
	return (cold - warm) / cold
}

// WarmStart measures the warm-start benefit on a repeat-solve workload.
//
// For each (instance, initialization) trial of the scale, discsp.Solve runs
// twice on one Options value whose WarmCache starts empty. The cold run
// solves the instance from scratch and harvests its surviving learned
// nogoods into the cache — the Solve/harvest/Save/Load/seed path the facade
// runs across processes, minus the disk round-trip. The warm run then
// re-solves the *same* instance from the *same* initial assignment with
// every agent's store seeded from the cache: the crash-restart /
// re-verification scenario the resumable-experiment machinery exists for,
// where the second solve should not pay to re-derive what the first one
// learned. Seeding is uncharged (structural bookkeeping, like receiving a
// NogoodMsg before the clock starts), so warm checks are directly
// comparable to cold.
//
// Learning is the family's best size-bounded configuration (BestLearning),
// matching how a user would actually run a repeat-solve workload. Retention
// from the scale is applied to both sides of every pair.
func WarmStart(kind ProblemKind, n int, scale Scale) (WarmStartResult, error) {
	instances, inits := scale.trials(kind)
	learning := BestLearning(kind)

	type pair struct {
		cold, warm discsp.Result
		seeded     bool
	}
	type instResult struct {
		pairs      []pair
		cacheCount int
	}
	results := make([]instResult, instances)

	if err := ForEach(scale.Workers, instances, func(i int) error {
		problem, err := MakeInstance(kind, n, instanceSeed(scale.SeedBase, kind, n, i))
		if err != nil {
			return fmt.Errorf("warmstart %v n=%d instance %d: %w", kind, n, i, err)
		}
		for j := 0; j < inits; j++ {
			opts := discsp.Options{
				Learning:          discsp.LearnResolvent,
				LearningSizeBound: learning.SizeBound,
				Retention:         scale.Retention,
				Initial:           gen.RandomInitial(problem, initSeed(scale.SeedBase, kind, n, i, j)),
				MaxCycles:         scale.maxCycles(),
				WarmCache:         discsp.NewNogoodCache(),
			}
			cold, err := discsp.Solve(problem, opts)
			if err != nil {
				return fmt.Errorf("warmstart %v n=%d instance %d init %d cold: %w", kind, n, i, j, err)
			}
			harvested := opts.WarmCache.Len()
			results[i].cacheCount += harvested
			warm, err := discsp.Solve(problem, opts)
			if err != nil {
				return fmt.Errorf("warmstart %v n=%d instance %d init %d warm: %w", kind, n, i, j, err)
			}
			results[i].pairs = append(results[i].pairs, pair{cold: cold, warm: warm, seeded: harvested > 0})
		}
		return nil
	}); err != nil {
		return WarmStartResult{}, err
	}

	// Aggregate in instance order: means independent of worker scheduling.
	out := WarmStartResult{Kind: kind, N: n}
	var coldSolved, warmSolved int
	for i := range results {
		out.CacheNogoods += results[i].cacheCount
		for _, p := range results[i].pairs {
			out.Pairs++
			if p.seeded {
				out.SeededPairs++
			}
			out.ColdCycles += float64(p.cold.Cycles)
			out.WarmCycles += float64(p.warm.Cycles)
			out.ColdChecks += float64(p.cold.TotalChecks)
			out.WarmChecks += float64(p.warm.TotalChecks)
			if p.cold.Solved {
				coldSolved++
			}
			if p.warm.Solved {
				warmSolved++
			}
		}
	}
	if out.Pairs > 0 {
		np := float64(out.Pairs)
		out.ColdCycles /= np
		out.WarmCycles /= np
		out.ColdChecks /= np
		out.WarmChecks /= np
		out.ColdSolved = 100 * float64(coldSolved) / np
		out.WarmSolved = 100 * float64(warmSolved) / np
	}
	return out, nil
}
