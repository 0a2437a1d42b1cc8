package experiments

import (
	"github.com/discsp/discsp/internal/core"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/nogood"
	"github.com/discsp/discsp/internal/sim"
	"github.com/discsp/discsp/internal/stats"
	"github.com/discsp/discsp/internal/telemetry"
)

// Algorithm names a runnable algorithm configuration for the harness.
type Algorithm struct {
	// Name is the label printed in table rows ("Rslv", "3rdRslv", "DB", ...).
	Name string
	// Run executes one trial.
	Run func(problem *csp.Problem, initial csp.SliceAssignment, opts sim.Options) (TrialResult, error)
	// WithRetention, when non-nil, returns this algorithm running under the
	// given nogood retention policy. runCells applies it to every cell when
	// Scale.Retention is bounded; algorithms without a nogood store (DB)
	// leave it nil and run unchanged.
	WithRetention func(nogood.Retention) Algorithm
}

// AWC returns the Algorithm for AWC with the given learning configuration.
func AWC(l core.Learning) Algorithm {
	return Algorithm{
		Name: l.Name(),
		Run: func(p *csp.Problem, init csp.SliceAssignment, opts sim.Options) (TrialResult, error) {
			return RunAWC(p, init, l, opts)
		},
		WithRetention: func(ret nogood.Retention) Algorithm {
			bounded := l
			bounded.Retention = ret
			return AWC(bounded)
		},
	}
}

// DB returns the Algorithm for the distributed breakout baseline.
func DB() Algorithm {
	return Algorithm{Name: "DB", Run: RunDB}
}

// ABT returns the Algorithm for asynchronous backtracking.
func ABT() Algorithm {
	return Algorithm{
		Name: "ABT",
		Run:  RunABT,
		WithRetention: func(ret nogood.Retention) Algorithm {
			return Algorithm{
				Name: "ABT" + ret.Suffix(),
				Run: func(p *csp.Problem, init csp.SliceAssignment, opts sim.Options) (TrialResult, error) {
					return RunABTRetention(p, init, ret, opts)
				},
			}
		},
	}
}

// Scale sets the trial structure of a harness run. PaperScale reproduces
// the paper's 100-trials-per-cell setup; smaller scales keep benchmarks and
// CI affordable while preserving the comparisons.
type Scale struct {
	// Ns overrides the problem sizes; nil means the family's paper sizes.
	Ns []int
	// Instances and Inits override the per-cell trial structure; 0 means
	// the family's paper structure.
	Instances int
	Inits     int
	// MaxCycles is the cutoff; 0 means the paper's 10000.
	MaxCycles int
	// SeedBase shifts every derived seed, giving independent replications.
	SeedBase int64
	// Workers is the number of goroutines trials are fanned across; 0
	// means runtime.NumCPU(), 1 preserves the serial execution path.
	// Trials are independently seeded, so every Workers value produces
	// bit-identical aggregates (see RunTrials).
	Workers int
	// Progress, when non-nil, is called (serialized) after each completed
	// trial of the current grid with the running and total trial counts;
	// see ProgressPrinter for the CLI's periodic line.
	Progress func(done, total int)
	// Journal, when non-nil, records every completed trial and skips trials
	// it already holds — crash-safe resume for long grids. Because trials
	// are independently seeded and aggregation order is fixed, a resumed
	// grid produces bit-identical aggregates to an uninterrupted one.
	Journal *Journal
	// Telemetry, when non-nil, receives one trial event per completed trial
	// of every grid, emitted during the index-ordered aggregation pass (so
	// the stream is identical for every Workers value), plus a metrics
	// snapshot per grid. It never changes trial results or aggregates.
	Telemetry *telemetry.Run
	// Retention bounds every agent's nogood store. The zero value keeps
	// stores unbounded (the paper's setup). Bounded retention reshapes each
	// algorithm via Algorithm.WithRetention and suffixes cell keys, so
	// journals never mix trials across retention policies.
	Retention nogood.Retention
}

// PaperScale is the paper's full experimental setup.
func PaperScale() Scale { return Scale{} }

// QuickScale is a reduced setup for tests and benchmarks: smallest paper n,
// 3 instances × 2 initializations.
func QuickScale() Scale {
	return Scale{Instances: 3, Inits: 2}
}

func (s Scale) ns(kind ProblemKind) []int {
	if len(s.Ns) > 0 {
		return s.Ns
	}
	return kind.PaperNs()
}

func (s Scale) trials(kind ProblemKind) (int, int) {
	instances, inits := kind.PaperTrials()
	if s.Instances > 0 {
		instances = s.Instances
	}
	if s.Inits > 0 {
		inits = s.Inits
	}
	return instances, inits
}

func (s Scale) maxCycles() int {
	if s.MaxCycles > 0 {
		return s.MaxCycles
	}
	return sim.DefaultMaxCycles
}

// JournalMeta returns the journal metadata pinning this scale's run
// parameters — what OpenJournal validates before a resume skips trials.
func (s Scale) JournalMeta() JournalMeta {
	return JournalMeta{SeedBase: s.SeedBase, MaxCycles: s.maxCycles()}
}

// CellResult aggregates one table cell (one family × n × algorithm).
type CellResult struct {
	Kind      ProblemKind
	N         int
	Algorithm string
	// Cycle is the mean cycles over all trials (cutoff trials contribute
	// their at-cutoff value, per the paper).
	Cycle float64
	// MaxCCK is the mean maxcck over all trials.
	MaxCCK float64
	// Percent is the percentage of trials finished within the cutoff.
	Percent float64
	// Redundant is the mean total redundant nogood generations per trial
	// (Table 4's measure; zero for non-AWC algorithms).
	Redundant float64
	// Trials is the number of trials aggregated.
	Trials int
}

// cellRunner accumulates trial measurements for one cell. Trials are
// always added in (instance, init) index order — the same floating-point
// accumulation order as a serial run — so the filled means do not depend
// on how the worker pool scheduled the trials.
type cellRunner struct {
	cycle     stats.Sample
	maxcck    stats.Sample
	redundant stats.Sample
	solved    stats.Counter
}

func (r *cellRunner) add(tr TrialResult) {
	r.cycle.Add(float64(tr.Cycles))
	r.maxcck.Add(float64(tr.MaxCCK))
	r.redundant.Add(float64(tr.RedundantGenerations))
	r.solved.Observe(tr.Solved)
}

func (r *cellRunner) fill(cell *CellResult) {
	cell.Cycle = r.cycle.Mean()
	cell.MaxCCK = r.maxcck.Mean()
	cell.Percent = r.solved.Percent()
	cell.Redundant = r.redundant.Mean()
	cell.Trials = r.cycle.N()
}

// RunCell measures one cell: instances × inits trials of alg on fresh
// instances of the family at size n, fanned across scale.Workers
// goroutines.
func RunCell(kind ProblemKind, n int, alg Algorithm, scale Scale) (CellResult, error) {
	cells, err := runCells([]cellSpec{paperCell(kind, n, alg)}, scale)
	if err != nil {
		return CellResult{}, err
	}
	return cells[0], nil
}
