package main

import (
	"fmt"
	"time"

	"github.com/discsp/discsp/internal/async"
	"github.com/discsp/discsp/internal/core"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/experiments"
	"github.com/discsp/discsp/internal/gen"
	"github.com/discsp/discsp/internal/netrun"
	"github.com/discsp/discsp/internal/sim"
)

// solveWorkload runs AWC trials back to back (a closed loop with one
// client) on one runtime. Trial i uses learner i mod len(learners) on the
// (i / len(learners))-th instance with its own initial values, so
// consecutive trials compare learners on identical inputs. A run's trial
// set is the seed's first instances × learners; the measured pass solves
// the whole set once per round, in the same order, round after round.
type solveWorkload struct {
	runtime   string // "sync", "async" or "tcp"
	kind      experiments.ProblemKind
	n         int
	learners  []core.Learning
	instances int
}

// trials is the size of the trial set.
func (w *solveWorkload) trials() int { return w.instances * len(w.learners) }

// trialTimeout bounds one async or tcp trial.
const trialTimeout = 30 * time.Second

// tcpShards is the relay count of the tcp workload: more than one, so the
// sharded read path runs, and the repository's scale-smoke setting.
const tcpShards = 4

// trialInput is one solve's inputs.
type trialInput struct {
	problem  *csp.Problem
	initial  csp.SliceAssignment
	learning core.Learning
}

// trialSource derives trial inputs from a seed and keeps the instances it
// generated.
type trialSource struct {
	w         *solveWorkload
	seed      int64
	instances []*csp.Problem
}

func (w *solveWorkload) source(seed int64) *trialSource {
	return &trialSource{w: w, seed: seed}
}

// prepare generates and keeps the seed's first count instances.
func (s *trialSource) prepare(count int) error {
	for k := len(s.instances); k < count; k++ {
		p, err := experiments.MakeInstance(s.w.kind, s.w.n, derive(s.seed, int64(k)))
		if err != nil {
			return fmt.Errorf("instance %d: %w", k, err)
		}
		s.instances = append(s.instances, p)
	}
	return nil
}

// instance returns the seed's k-th instance.
func (s *trialSource) instance(k int) (*csp.Problem, error) {
	if err := s.prepare(k + 1); err != nil {
		return nil, err
	}
	return s.instances[k], nil
}

func (s *trialSource) trial(i int) (trialInput, error) {
	inst := i / len(s.w.learners)
	p, err := s.instance(inst)
	if err != nil {
		return trialInput{}, err
	}
	return trialInput{
		problem:  p,
		initial:  gen.RandomInitial(p, derive(s.seed, int64(inst), 1)),
		learning: s.w.learners[i%len(s.w.learners)],
	}, nil
}

// outcome is one trial's measurements and its verification result.
type outcome struct {
	// wall runs from start, building the agents, to the verdict; run is
	// the part spent inside the runtime's Run call, from runStart.
	start, runStart time.Time
	wall, run       time.Duration
	// fault is non-empty when the trial failed: a runtime error, a
	// timeout, an insoluble verdict on a solvable instance, or a reported
	// solution that violates a constraint.
	fault string
	// cutoff marks a sync trial that reached the cycle cutoff unsolved, the
	// paper's censored outcome: valid, but not a solution.
	cutoff bool

	messages int64
	cycles   int
	maxcck   int64
	checks   int64

	generated, recorded, redundant int64
	storeLen                       float64

	retransmits, dups, wireBytes, batched int64

	// steps sums the agents' Init/Step timings (traced trials only).
	steps stepStats
	// sent holds messages captured for wire replay (capture only).
	sent []sim.Message
}

// runTrial solves one trial. With traced set every agent is wrapped in the
// timing decorator; with capture set it also keeps the agents' outgoing
// messages.
func (w *solveWorkload) runTrial(in trialInput, traced, capture bool) outcome {
	p, n := in.problem, in.problem.NumVars()
	agents := make([]*core.Agent, n)
	var stats []stepStats
	if traced {
		stats = make([]stepStats, n)
		for v := range stats {
			stats[v].capture = capture
		}
	}
	makeAgent := func(v csp.Var) sim.Agent {
		a := core.NewAgent(v, p, in.initial[v], in.learning)
		agents[v] = a
		if traced {
			return wrapAgent(a, &stats[v])
		}
		return a
	}

	var o outcome
	var (
		solved, insoluble bool
		assignment        csp.SliceAssignment
		err               error
	)
	o.start = time.Now()
	o.runStart = o.start
	switch w.runtime {
	case "sync":
		as := make([]sim.Agent, n)
		for v := range as {
			as[v] = makeAgent(csp.Var(v))
		}
		o.runStart = time.Now()
		var res sim.Result
		res, err = sim.Run(p, as, sim.Options{})
		o.run = time.Since(o.runStart)
		solved, insoluble, assignment = res.Solved, res.Insoluble, res.Assignment
		o.messages, o.cycles, o.maxcck, o.checks = int64(res.Messages), res.Cycles, res.MaxCCK, res.TotalChecks
	case "async":
		var res async.Result
		res, err = async.Run(p, makeAgent, async.Options{Timeout: trialTimeout})
		o.run = time.Since(o.runStart)
		solved, insoluble, assignment = res.Solved, res.Insoluble, res.Assignment
		o.messages, o.checks = res.Messages, res.TotalChecks
	case "tcp":
		var res netrun.Result
		res, err = netrun.Run(p, makeAgent, netrun.Options{Timeout: trialTimeout, Shards: tcpShards})
		o.run = time.Since(o.runStart)
		solved, insoluble, assignment = res.Solved, res.Insoluble, res.Assignment
		o.messages, o.checks = res.Messages, res.TotalChecks
		o.retransmits, o.dups = res.Retransmits, res.DuplicatesSuppressed
		o.wireBytes, o.batched = res.BytesSent+res.BytesRecv, res.BatchedFrames
	default:
		panic("unknown runtime " + w.runtime)
	}
	o.wall = time.Since(o.start)

	switch {
	case err != nil:
		o.fault = err.Error()
	case insoluble:
		o.fault = "insoluble verdict on a solvable instance"
	case solved && !p.IsSolution(assignment):
		o.fault = "reported solution violates a constraint"
	case !solved && w.runtime != "sync":
		o.fault = "run ended without a solution"
	case !solved:
		o.cutoff = true
	}

	var stores int
	for _, a := range agents {
		if a == nil {
			continue
		}
		st := a.Stats()
		o.generated += st.NogoodsGenerated
		o.recorded += st.NogoodsRecorded
		o.redundant += st.RedundantGenerations
		stores += a.StoreSize()
	}
	o.storeLen = float64(stores) / float64(n)
	for i := range stats {
		o.steps.calls += stats[i].calls
		o.steps.ns += stats[i].ns
		o.steps.msgsOut += stats[i].msgsOut
		o.sent = append(o.sent, stats[i].sent...)
	}
	return o
}

// derive mixes a seed with indices into an independent 63-bit seed, one
// splitmix64 round per part.
func derive(seed int64, parts ...int64) int64 {
	x := mix64(uint64(seed))
	for _, p := range parts {
		x = mix64(x + uint64(p))
	}
	return int64(x >> 1)
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
