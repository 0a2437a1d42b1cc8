package discsp

import (
	"github.com/discsp/discsp/internal/multi"
	"github.com/discsp/discsp/internal/sim"
)

// Partition assigns every problem variable to exactly one agent: entry i
// lists the variables owned by agent i. Most real distributed problems come
// pre-partitioned ("the distribution of local problems is given in
// advance", Section 2.1); UniformPartition and SingletonPartition cover the
// synthetic cases.
type Partition = multi.Partition

// UniformPartition gives each agent `block` consecutive variables.
func UniformPartition(numVars, block int) Partition {
	return multi.Uniform(numVars, block)
}

// SingletonPartition is the one-variable-per-agent partition.
func SingletonPartition(numVars int) Partition {
	return multi.Singletons(numVars)
}

// PartitionedOptions configures SolvePartitioned.
type PartitionedOptions struct {
	// LearningSizeBound, when positive, applies the kthRslv recording rule
	// to the block-level nogoods.
	LearningSizeBound int
	// Initial supplies per-variable initial values; nil starts every
	// variable at its first domain value, and InitialSeed != 0 draws them
	// at random.
	Initial SliceAssignment
	// InitialSeed draws random initial values when Initial is nil.
	InitialSeed int64
	// MaxCycles is the synchronous cutoff; 0 means 10000.
	MaxCycles int
}

// SolvePartitioned runs the multi-variable-per-agent AWC extension
// (Section 5 of the paper, after Yokoo & Hirayama ICMAS-98): each agent
// owns a block of variables, solves its local CSP against the agent_view,
// and learns block-level resolvent nogoods at local deadends.
func SolvePartitioned(p *Problem, partition Partition, opts PartitionedOptions) (Result, error) {
	init, err := Options{Initial: opts.Initial, InitialSeed: opts.InitialSeed}.initial(p)
	if err != nil {
		return Result{}, err
	}
	res, _, err := multi.Run(p, partition, init, multi.Options{SizeBound: opts.LearningSizeBound},
		sim.Options{MaxCycles: opts.MaxCycles})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Solved:      res.Solved,
		Insoluble:   res.Insoluble,
		Assignment:  res.Assignment,
		Cycles:      res.Cycles,
		MaxCCK:      res.MaxCCK,
		TotalChecks: res.TotalChecks,
		Messages:    int64(res.Messages),
	}, nil
}
