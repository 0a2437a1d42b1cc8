package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// The sync workloads pin the paper's cost model: at the default seed the
// first goldenTrials trials of each must reproduce, exactly, the cycles,
// maxcck and total checks recorded in testdata/golden.json. Wall-clock work
// on the solver never changes these values (DESIGN.md, "Cost model vs. wall
// clock"), so a mismatch means the benchmark no longer measures the same
// computation. Regenerate the file only with -update-golden.

// goldenTrials is the number of trials per sync workload the file pins;
// the set-up warm-ups replay the first few of them on every run.
const goldenTrials = 12

//go:embed testdata/golden.json
var goldenJSON []byte

// costModel is one trial's deterministic cost.
type costModel struct {
	Cycles int   `json:"cycles"`
	MaxCCK int64 `json:"maxcck"`
	Checks int64 `json:"checks"`
}

// goldenFile is the layout of testdata/golden.json.
type goldenFile struct {
	Seed      int64                  `json:"seed"`
	Workloads map[string][]costModel `json:"workloads"`
}

func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("testdata/golden.json: %w", err)
	}
	return g, nil
}

// check compares trial i of workload name at the golden seed; trials the
// file does not pin, and every trial of the async, tcp and dcspd workloads,
// pass.
func (g goldenFile) check(name string, i int, o outcome) string {
	want := g.Workloads[name]
	if i >= len(want) {
		return ""
	}
	got := costModel{Cycles: o.cycles, MaxCCK: o.maxcck, Checks: o.checks}
	if got != want[i] {
		return fmt.Sprintf("golden mismatch on trial %d: got %+v, want %+v", i, got, want[i])
	}
	return ""
}

// updateGolden reruns the pinned trials of every sync workload at the
// default seed and writes them to path.
func updateGolden(path string) error {
	g := goldenFile{Seed: defaultSeed, Workloads: map[string][]costModel{}}
	for _, w := range workloads {
		if w.solve == nil || w.solve.runtime != "sync" {
			continue
		}
		src := w.solve.source(defaultSeed)
		for i := 0; i < goldenTrials; i++ {
			in, err := src.trial(i)
			if err != nil {
				return err
			}
			o := w.solve.runTrial(in, false, false)
			if o.fault != "" {
				return fmt.Errorf("%s trial %d: %s", w.name, i, o.fault)
			}
			g.Workloads[w.name] = append(g.Workloads[w.name], costModel{Cycles: o.cycles, MaxCCK: o.maxcck, Checks: o.checks})
		}
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
