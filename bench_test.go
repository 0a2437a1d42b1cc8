// Benchmarks regenerating the paper's evaluation: one benchmark per table
// (Tables 1–10) and one for Figure 2, at a reduced but shape-preserving
// scale, plus ablation and micro benchmarks for the design choices called
// out in DESIGN.md.
//
// Each table benchmark runs its experiment grid once per iteration and
// reports the paper's measures as custom metrics, named
// "<measure>:<algorithm>/n=<size>" (cycles and nogood checks per trial).
// Paper-scale runs are the domain of cmd/dcspbench; these benchmarks keep
// `go test -bench=.` affordable while still reproducing who-wins-where.
package discsp_test

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/discsp/discsp"
	"github.com/discsp/discsp/internal/core"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/experiments"
	"github.com/discsp/discsp/internal/gen"
	"github.com/discsp/discsp/internal/nogood"
	"github.com/discsp/discsp/internal/sim"
	"github.com/discsp/discsp/internal/telemetry"
)

// benchScale trades the paper's 100 trials per cell for 4, and evaluates
// each family at a single size chosen so every paper comparison stays
// visible (the forced-SAT family needs n≥50 for the no-learning gap).
func benchScale(kind experiments.ProblemKind) experiments.Scale {
	n := 40
	if kind == experiments.D3S {
		n = 50
	}
	return experiments.Scale{Ns: []int{n}, Instances: 2, Inits: 2}
}

func tableKind(num int) experiments.ProblemKind {
	switch num {
	case 1, 5, 8:
		return experiments.D3C
	case 2, 6, 9:
		return experiments.D3S
	default:
		return experiments.D3S1
	}
}

// benchTable runs one paper table per iteration and reports its cells.
func benchTable(b *testing.B, num int) {
	b.Helper()
	scale := benchScale(tableKind(num))
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := experiments.Tables(num, scale)
		if err != nil {
			b.Fatalf("table %d: %v", num, err)
		}
		last = t
	}
	for _, cell := range last.Cells {
		label := fmt.Sprintf("%s/n=%d", cell.Algorithm, cell.N)
		b.ReportMetric(cell.Cycle, "cycles:"+label)
		b.ReportMetric(cell.MaxCCK, "maxcck:"+label)
		if num == 4 {
			b.ReportMetric(cell.Redundant, "redundant:"+label)
		}
	}
}

// BenchmarkTable1 regenerates Table 1: learning methods (Rslv, Mcs, No) on
// distributed 3-coloring problems.
func BenchmarkTable1(b *testing.B) { benchTable(b, 1) }

// BenchmarkTable1SerialVsParallel pairs the serial harness against the
// worker pool on a Table-1-sized cell grid: identical trials, identical
// aggregates, so the wall-clock ratio is the pool's speedup (≈ the core
// count on a multi-core runner, 1× on a single core).
func BenchmarkTable1SerialVsParallel(b *testing.B) {
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			scale := benchScale(experiments.D3C)
			scale.Workers = workers
			var last *experiments.Table
			for i := 0; i < b.N; i++ {
				t, err := experiments.Tables(1, scale)
				if err != nil {
					b.Fatal(err)
				}
				last = t
			}
			b.ReportMetric(float64(len(last.Cells)), "cells")
		})
	}
}

// BenchmarkRunCellSerialVsParallel is the single-cell companion pair: one
// family × size × algorithm grid of independently seeded trials.
func BenchmarkRunCellSerialVsParallel(b *testing.B) {
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			scale := experiments.Scale{Ns: []int{40}, Instances: 2, Inits: 4, Workers: workers}
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunCell(experiments.D3C, 40,
					experiments.AWC(core.Learning{Kind: core.LearnResolvent}), scale); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2 regenerates Table 2: learning methods on distributed 3SAT
// problems (3SAT-GEN style).
func BenchmarkTable2(b *testing.B) { benchTable(b, 2) }

// BenchmarkTable3 regenerates Table 3: learning methods on distributed 3SAT
// problems (3ONESAT-GEN style).
func BenchmarkTable3(b *testing.B) { benchTable(b, 3) }

// BenchmarkTable4 regenerates Table 4: redundant nogood generation with and
// without recording.
func BenchmarkTable4(b *testing.B) { benchTable(b, 4) }

// BenchmarkTable5 regenerates Table 5: size-bounded resolvent learning on
// distributed 3-coloring problems.
func BenchmarkTable5(b *testing.B) { benchTable(b, 5) }

// BenchmarkTable6 regenerates Table 6: size-bounded resolvent learning on
// distributed 3SAT problems (3SAT-GEN style).
func BenchmarkTable6(b *testing.B) { benchTable(b, 6) }

// BenchmarkTable7 regenerates Table 7: size-bounded resolvent learning on
// distributed 3SAT problems (3ONESAT-GEN style).
func BenchmarkTable7(b *testing.B) { benchTable(b, 7) }

// BenchmarkTable8 regenerates Table 8: AWC+3rdRslv vs DB on distributed
// 3-coloring problems.
func BenchmarkTable8(b *testing.B) { benchTable(b, 8) }

// BenchmarkTable9 regenerates Table 9: AWC+5thRslv vs DB on distributed
// 3SAT problems (3SAT-GEN style).
func BenchmarkTable9(b *testing.B) { benchTable(b, 9) }

// BenchmarkTable10 regenerates Table 10: AWC+4thRslv vs DB on distributed
// 3SAT problems (3ONESAT-GEN style).
func BenchmarkTable10(b *testing.B) { benchTable(b, 10) }

// BenchmarkFigure2 regenerates Figure 2: estimated total time vs
// communication delay for AWC+kthRslv and DB on the single-solution family,
// reporting the crossover delay beyond which AWC is estimated cheaper.
func BenchmarkFigure2(b *testing.B) {
	scale := experiments.Scale{Instances: 2, Inits: 2}
	var last *experiments.Figure2Result
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure2(experiments.D3S1, 40, nil, scale)
		if err != nil {
			b.Fatal(err)
		}
		last = fig
	}
	b.ReportMetric(last.Crossover, "crossover-delay")
	b.ReportMetric(last.AWCCycle, "cycles:AWC")
	b.ReportMetric(last.DBCycle, "cycles:DB")
	b.ReportMetric(last.AWCMaxCCK, "maxcck:AWC")
	b.ReportMetric(last.DBMaxCCK, "maxcck:DB")
}

// BenchmarkAblationMCSScan compares the paper-faithful mcs conflict-set
// test (scanning the whole store of higher nogoods) against the derived
// optimization that scans only deadend-violated nogoods. Both must produce
// identical search behaviour (cycles); the ablation shows the check-count
// gap is pure identification cost.
func BenchmarkAblationMCSScan(b *testing.B) {
	for _, cfg := range []struct {
		name     string
		learning core.Learning
	}{
		{"FullScan", core.Learning{Kind: core.LearnMCS}},
		{"RestrictedScan", core.Learning{Kind: core.LearnMCS, MCSRestrictScan: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var cycles, maxcck float64
			for i := 0; i < b.N; i++ {
				cell, err := experiments.RunCell(experiments.D3C, 40, experiments.AWC(cfg.learning), experiments.Scale{
					Ns: []int{40}, Instances: 2, Inits: 2,
				})
				if err != nil {
					b.Fatal(err)
				}
				cycles, maxcck = cell.Cycle, cell.MaxCCK
			}
			b.ReportMetric(cycles, "cycles")
			b.ReportMetric(maxcck, "maxcck")
		})
	}
}

// BenchmarkAblationMCSExhaustiveLimit sweeps the exhaustive-search cap of
// mcs learning (above the cap, greedy minimization takes over).
func BenchmarkAblationMCSExhaustiveLimit(b *testing.B) {
	for _, limit := range []int{1, 4, 10} {
		b.Run(fmt.Sprintf("limit=%d", limit), func(b *testing.B) {
			var maxcck float64
			for i := 0; i < b.N; i++ {
				cell, err := experiments.RunCell(experiments.D3C, 40,
					experiments.AWC(core.Learning{Kind: core.LearnMCS, MCSExhaustiveLimit: limit}),
					experiments.Scale{Ns: []int{40}, Instances: 2, Inits: 2})
				if err != nil {
					b.Fatal(err)
				}
				maxcck = cell.MaxCCK
			}
			b.ReportMetric(maxcck, "maxcck")
		})
	}
}

// BenchmarkSolveSyncVsAsync compares wall-clock of the synchronous
// simulator against the goroutine-per-agent runtime on one instance.
func BenchmarkSolveSyncVsAsync(b *testing.B) {
	inst, err := discsp.GenerateColoring(40, 108, 3, 21)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Sync", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := discsp.Solve(inst.Problem, discsp.Options{InitialSeed: 22})
			if err != nil || !res.Solved {
				b.Fatalf("res=%+v err=%v", res, err)
			}
		}
	})
	b.Run("Async", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := discsp.SolveAsync(inst.Problem, discsp.Options{InitialSeed: 22})
			if err != nil || !res.Solved {
				b.Fatalf("res=%+v err=%v", res, err)
			}
		}
	})
}

// BenchmarkNogoodCheck measures the costed evaluation primitive that the
// maxcck metric counts.
func BenchmarkNogoodCheck(b *testing.B) {
	ng := csp.MustNogood(
		csp.Lit{Var: 1, Val: 0}, csp.Lit{Var: 5, Val: 1}, csp.Lit{Var: 9, Val: 2},
	)
	a := csp.SliceAssignment{0, 0, 0, 0, 0, 1, 0, 0, 0, 2}
	var c nogood.Counter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nogood.Check(ng, a, &c)
	}
}

// benchProbe reproduces the reference representation's probe: a map-backed
// view plus the own variable's hypothetical value, boxed into the
// Assignment interface on every Check call (one heap allocation per check —
// the cost the dense representation eliminates).
type benchProbe struct {
	view map[csp.Var]csp.Value
	own  csp.Var
	val  csp.Value
}

func (p benchProbe) Lookup(v csp.Var) (csp.Value, bool) {
	if v == p.own {
		return p.val, true
	}
	val, ok := p.view[v]
	return val, ok
}

// BenchmarkProbeViewCheckLoop measures the agent hot loop: evaluate every
// stored nogood against the agent_view for each domain value. The ref
// variant is the map-backed probe of the reference representation; the
// dense variant runs CheckDense against a DenseView. Same charged checks,
// different machine cost — this is the before/after pair behind the
// tentpole's allocs-per-check claim.
func BenchmarkProbeViewCheckLoop(b *testing.B) {
	inst, err := gen.Coloring(40, 108, 3, 7)
	if err != nil {
		b.Fatal(err)
	}
	p := inst.Problem
	const own = csp.Var(0)
	store := nogood.NewFromSlice(p.NogoodsOf(own))
	domain := p.Domain(own)
	neighbors := p.Neighbors(own)

	b.Run("ref", func(b *testing.B) {
		view := make(map[csp.Var]csp.Value, len(neighbors))
		for _, nb := range neighbors {
			view[nb] = 1
		}
		var c nogood.Counter
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, d := range domain {
				probe := benchProbe{view: view, own: own, val: d}
				for _, ng := range store.All() {
					nogood.Check(ng, probe, &c)
				}
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		dv := csp.NewDenseView(p.NumVars())
		for _, nb := range neighbors {
			dv.Assign(nb, 1)
		}
		var c nogood.Counter
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, d := range domain {
				dv.Assign(own, d)
				for _, ng := range store.All() {
					nogood.CheckDense(ng, dv, &c)
				}
			}
		}
	})
	// dense+telemetry runs the identical loop on a store carrying live
	// telemetry hooks (the -telemetry configuration): the checking path never
	// touches them, so allocs/op must stay at the dense variant's zero. This
	// is the tentpole's inertness claim at the machine level — metrics hang
	// off mutation edges (Add/Restore), never the per-check hot loop.
	b.Run("dense+telemetry", func(b *testing.B) {
		reg := telemetry.NewRegistry()
		instrumented := nogood.NewFromSlice(p.NogoodsOf(own))
		instrumented.Instrument(telemetry.StoreMetrics{
			Size:      reg.Gauge(telemetry.Name("discsp_store_nogoods", "agent", "0")),
			Lengths:   reg.Histogram(telemetry.Name("discsp_learned_nogood_len", "agent", "0"), telemetry.NogoodLenBuckets),
			Evictions: reg.Counter(telemetry.Name("discsp_store_evictions", "agent", "0")),
		})
		dv := csp.NewDenseView(p.NumVars())
		for _, nb := range neighbors {
			dv.Assign(nb, 1)
		}
		var c nogood.Counter
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, d := range domain {
				dv.Assign(own, d)
				for _, ng := range instrumented.All() {
					nogood.CheckDense(ng, dv, &c)
				}
			}
		}
	})
}

// refAddPruning is the seed's unindexed AddPruning: linear dup scan via the
// key map is replaced here by a linear key scan plus the full subset scan
// and index rebuild the seed performed. It exists only as the benchmark's
// "before" side.
type refPruneStore struct {
	ngs   []csp.Nogood
	index map[string]int
}

func (s *refPruneStore) addPruning(ng csp.Nogood, c *nogood.Counter) (bool, int) {
	if _, dup := s.index[ng.Key()]; dup {
		return false, 0
	}
	if c != nil {
		c.Add(len(s.ngs))
	}
	removed := 0
	keep := s.ngs[:0]
	for _, stored := range s.ngs {
		if ng.SubsetOf(stored) {
			removed++
			continue
		}
		keep = append(keep, stored)
	}
	s.ngs = append(keep, ng)
	for k := range s.index {
		delete(s.index, k)
	}
	for i, stored := range s.ngs {
		s.index[stored.Key()] = i
	}
	return true, removed
}

// pruningWorkload is a chain of inserts exercising both outcomes: supersets
// recorded first, then the shorter nogoods that prune them.
func pruningWorkload() []csp.Nogood {
	var ngs []csp.Nogood
	for base := csp.Var(0); base < 30; base++ {
		ngs = append(ngs,
			csp.MustNogood(csp.Lit{Var: base, Val: 0}, csp.Lit{Var: base + 1, Val: 0},
				csp.Lit{Var: base + 2, Val: 0}, csp.Lit{Var: base + 3, Val: 0}),
			csp.MustNogood(csp.Lit{Var: base, Val: 0}, csp.Lit{Var: base + 1, Val: 0},
				csp.Lit{Var: base + 2, Val: 0}),
			csp.MustNogood(csp.Lit{Var: base + 1, Val: 0}, csp.Lit{Var: base + 2, Val: 0}),
		)
	}
	return ngs
}

// BenchmarkStoreAddPruning pairs the seed's linear-scan AddPruning (ref)
// against the indexed store (dense). Both charge identical Counter units;
// the indexes only cut the uncharged machine work (subset tests against
// non-candidates, full key-map rebuilds).
func BenchmarkStoreAddPruning(b *testing.B) {
	workload := pruningWorkload()
	b.Run("ref", func(b *testing.B) {
		var c nogood.Counter
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := &refPruneStore{index: make(map[string]int)}
			for _, ng := range workload {
				s.addPruning(ng, &c)
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		var c nogood.Counter
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := nogood.New()
			for _, ng := range workload {
				s.AddPruning(ng, &c)
			}
		}
	})
}

// BenchmarkResolventDerivation measures one deadend's learning step on the
// paper's Figure 1 scenario, under both agent-view representations.
func BenchmarkResolventDerivation(b *testing.B) {
	p := csp.NewProblemUniform(5, 3)
	for other := csp.Var(0); other < 4; other++ {
		if err := p.AddNotEqual(other, 4); err != nil {
			b.Fatal(err)
		}
	}
	in := []sim.Message{
		&core.Ok{Sender: 0, Receiver: 4, Value: 0, Priority: 5},
		&core.Ok{Sender: 1, Receiver: 4, Value: 1, Priority: 3},
		&core.Ok{Sender: 2, Receiver: 4, Value: 2, Priority: 4},
		&core.Ok{Sender: 3, Receiver: 4, Value: 0, Priority: 2},
	}
	for _, repr := range []struct {
		name string
		l    core.Learning
	}{
		{"ref", core.Learning{Kind: core.LearnResolvent, Reference: true}},
		{"dense", core.Learning{Kind: core.LearnResolvent}},
	} {
		b.Run(repr.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a := core.NewAgent(4, p, 0, repr.l)
				a.Step(in)
			}
		})
	}
}

// BenchmarkTable1Representations runs the Table 1 learner grid (Rslv, Mcs,
// No on distributed 3-coloring) under both representations: the macro
// before/after pair of BENCH_2.json. Search trajectories are bit-identical
// (TestDenseMatchesReference), so the ns/op ratio is pure representation
// cost.
func BenchmarkTable1Representations(b *testing.B) {
	for _, repr := range []struct {
		name      string
		reference bool
	}{
		{"ref", true},
		{"dense", false},
	} {
		b.Run(repr.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, kind := range []core.LearningKind{core.LearnResolvent, core.LearnMCS, core.LearnNone} {
					l := core.Learning{Kind: kind, Reference: repr.reference}
					if _, err := experiments.RunCell(experiments.D3C, 40, experiments.AWC(l),
						experiments.Scale{Ns: []int{40}, Instances: 2, Inits: 2}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkGenerators measures instance construction for the three
// families at the paper's smallest sizes.
func BenchmarkGenerators(b *testing.B) {
	b.Run("Coloring-n60", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gen.Coloring(60, 162, 3, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ForcedSAT3-n50", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gen.ForcedSAT3(50, 215, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("UniqueSAT3-n50", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gen.UniqueSAT3(50, 170, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSubsumption compares the plain store against
// subsumption pruning (drop recorded supersets of a new nogood, reject
// subsumed inserts) — the store-level response to Section 4.2's
// redundant-nogood observation. Subset tests are charged as checks, so
// maxcck shows the net effect.
func BenchmarkAblationSubsumption(b *testing.B) {
	for _, cfg := range []struct {
		name     string
		learning core.Learning
	}{
		{"Plain", core.Learning{Kind: core.LearnResolvent}},
		{"Pruning", core.Learning{Kind: core.LearnResolvent, SubsumptionPruning: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var cycles, maxcck float64
			for i := 0; i < b.N; i++ {
				cell, err := experiments.RunCell(experiments.D3S1, 40, experiments.AWC(cfg.learning),
					experiments.Scale{Ns: []int{40}, Instances: 2, Inits: 2})
				if err != nil {
					b.Fatal(err)
				}
				cycles, maxcck = cell.Cycle, cell.MaxCCK
			}
			b.ReportMetric(cycles, "cycles")
			b.ReportMetric(maxcck, "maxcck")
		})
	}
}

// BenchmarkAblationTieBreak compares deterministic smallest-value
// tie-breaking against Yokoo's uniform-random tie-breaking in min-conflict
// value selection.
func BenchmarkAblationTieBreak(b *testing.B) {
	for _, cfg := range []struct {
		name     string
		learning core.Learning
	}{
		{"First", core.Learning{Kind: core.LearnResolvent}},
		{"Random", core.Learning{Kind: core.LearnResolvent, TieBreak: core.TieBreakRandom, Seed: 99}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var cycles, maxcck float64
			for i := 0; i < b.N; i++ {
				cell, err := experiments.RunCell(experiments.D3C, 40, experiments.AWC(cfg.learning),
					experiments.Scale{Ns: []int{40}, Instances: 2, Inits: 2})
				if err != nil {
					b.Fatal(err)
				}
				cycles, maxcck = cell.Cycle, cell.MaxCCK
			}
			b.ReportMetric(cycles, "cycles")
			b.ReportMetric(maxcck, "maxcck")
		})
	}
}

// BenchmarkBlockSweep measures the multi-variable extension across block
// sizes: fewer, bigger agents trade messages for local solving. Blocks of
// 4+ on dense coloring instances can thrash (the block solver's
// solution-enumeration cap interacts badly with tight local CSPs), so the
// benchmark stays at 1–3; dcspbench -blocks explores further.
func BenchmarkBlockSweep(b *testing.B) {
	scale := experiments.Scale{Instances: 2, Inits: 2, MaxCycles: 3000}
	var last *experiments.BlockSweepResult
	for i := 0; i < b.N; i++ {
		sweep, err := experiments.BlockSweep(experiments.D3C, 24, []int{1, 2, 3}, scale)
		if err != nil {
			b.Fatal(err)
		}
		last = sweep
	}
	for _, p := range last.Points {
		b.ReportMetric(p.Cycle, fmt.Sprintf("cycles:block=%d", p.Block))
		b.ReportMetric(p.MaxCCK, fmt.Sprintf("maxcck:block=%d", p.Block))
	}
}

// BenchmarkHardnessSweep regenerates the density sweep behind the paper's
// m=2.7n choice for 3-coloring ("known to be hard").
func BenchmarkHardnessSweep(b *testing.B) {
	scale := experiments.Scale{Instances: 2, Inits: 2, MaxCycles: 5000}
	var last *experiments.SweepResult
	for i := 0; i < b.N; i++ {
		sweep, err := experiments.RatioSweep(experiments.D3C, 40,
			experiments.AWC(core.Learning{Kind: core.LearnResolvent}), nil, scale)
		if err != nil {
			b.Fatal(err)
		}
		last = sweep
	}
	for _, p := range last.Points {
		b.ReportMetric(p.Cycle, fmt.Sprintf("cycles:ratio=%.1f", p.Ratio))
	}
}
