package experiments

import "testing"

// TestWarmStartPinned pins the repeat-solve workload's exact figures on a
// small d3c grid: mean cold and warm cycles and charged checks, the nogoods
// the priming runs harvested, and how many warm runs received seeds. Any
// change to how a trial is assembled, seeded or harvested moves one of them.
func TestWarmStartPinned(t *testing.T) {
	for _, workers := range []int{1, 2} {
		r, err := WarmStart(D3C, 30, Scale{Instances: 2, Inits: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		want := WarmStartResult{
			Kind: D3C, N: 30, Pairs: 4,
			ColdCycles: 35.5, WarmCycles: 24,
			ColdChecks: 32171, WarmChecks: 33982,
			ColdSolved: 100, WarmSolved: 100,
			CacheNogoods: 493, SeededPairs: 4,
		}
		if r != want {
			t.Errorf("workers=%d:\n got %+v\nwant %+v", workers, r, want)
		}
	}
}
