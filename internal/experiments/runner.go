package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/gen"
	"github.com/discsp/discsp/internal/sim"
	"github.com/discsp/discsp/internal/telemetry"
)

// ForEach runs fn(i) for every i in [0, n) across a pool of workers
// goroutines. workers <= 0 means runtime.NumCPU(); workers == 1 runs the
// loop inline, preserving the exact serial execution order.
//
// On the first error the pool's context is cancelled: in-flight calls
// finish, queued indices are abandoned, and ForEach returns the error of
// the lowest index that failed. Because indices are handed out in order,
// the first worker to start always receives index 0, so a grid where the
// earliest trial fails surfaces that trial's error deterministically
// regardless of scheduling.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstIdx = n
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// RunTrials runs trial(i) for every slot i across scale's worker pool into
// slots[i]. Trials are independently seeded and slots index-addressed, so
// their contents depend on neither the worker count nor, with
// scale.Journal set, on which trials are replayed from the journal under
// key(i) rather than run and journaled. scale.Progress, when set, is called
// after every finished trial, one call at a time.
func RunTrials[T any](scale Scale, slots []T, key func(i int) string, trial func(i int) (T, error)) error {
	journal := scale.Journal
	var (
		mu   sync.Mutex
		done int
	)
	return ForEach(scale.Workers, len(slots), func(i int) error {
		if journal == nil || !journal.Lookup(key(i), &slots[i]) {
			res, err := trial(i)
			if err != nil {
				return err
			}
			slots[i] = res
			if journal != nil {
				if err := journal.Record(key(i), res); err != nil {
					return err
				}
			}
		}
		if scale.Progress != nil {
			mu.Lock()
			done++
			scale.Progress(done, len(slots))
			mu.Unlock()
		}
		return nil
	})
}

// cellSpec is one cell of a trial grid: a family × size × algorithm plus
// the per-instance generator (paper ratio or an explicit density).
type cellSpec struct {
	kind ProblemKind
	n    int
	alg  Algorithm
	// key names the cell in the trial journal; it must be unique within a
	// grid and stable across runs (algorithm names are unique per learning
	// configuration, so they qualify).
	key string
	// makeProblem generates the cell's instance'th problem.
	makeProblem func(scale Scale, instance int) (*csp.Problem, error)
}

// trialKey names one (instance, init) trial of the cell in the journal.
func (s cellSpec) trialKey(instance, init int) string {
	return fmt.Sprintf("%s/i%d/r%d", s.key, instance, init)
}

// paperCell is a cell at the family's paper constraint/variable ratio.
func paperCell(kind ProblemKind, n int, alg Algorithm) cellSpec {
	return cellSpec{kind: kind, n: n, alg: alg,
		key: fmt.Sprintf("paper/%s/n%d/%s", kind, n, alg.Name),
		makeProblem: func(scale Scale, instance int) (*csp.Problem, error) {
			return MakeInstance(kind, n, instanceSeed(scale.SeedBase, kind, n, instance))
		}}
}

// ratioCell is a cell with an explicit constraint count m (the hardness
// sweeps); the seed salt keeps different densities on distinct RNG streams.
func ratioCell(kind ProblemKind, n, m int, alg Algorithm) cellSpec {
	return cellSpec{kind: kind, n: n, alg: alg,
		key: fmt.Sprintf("ratio/%s/n%d/m%d/%s", kind, n, m, alg.Name),
		makeProblem: func(scale Scale, instance int) (*csp.Problem, error) {
			return makeInstanceM(kind, n, m, instanceSeed(scale.SeedBase, kind, n, instance)+int64(m)*7_000_000_000_000)
		}}
}

// applyRetention rebuilds a grid's algorithms under scale.Retention when it
// is bounded. Each supporting algorithm is re-wrapped via WithRetention, and
// the display name and journal key both gain the policy suffix: row labels
// read "3rdRslv/lru512" and a resumed journal can never replay a trial run
// under a different eviction policy. Algorithms without a store (DB) pass
// through unchanged. With unbounded retention the specs are returned as-is.
func applyRetention(specs []cellSpec, scale Scale) []cellSpec {
	if !scale.Retention.Bounded() {
		return specs
	}
	out := append([]cellSpec(nil), specs...)
	for i := range out {
		if out[i].alg.WithRetention == nil {
			continue
		}
		wrapped := out[i].alg.WithRetention(scale.Retention)
		wrapped.Name = out[i].alg.Name + scale.Retention.Suffix()
		out[i].alg = wrapped
		out[i].key += scale.Retention.Suffix()
	}
	return out
}

// runCells measures every spec'd cell, fanning both phases — instance
// generation, then every (instance, init) trial of every cell — across the
// scale's worker pool. Results are written to preallocated index-addressed
// slots (no two trials share one), then aggregated cell by cell in
// (instance, init) order: the identical floating-point accumulation the
// old serial loops performed, so aggregates do not depend on scheduling.
//
// With scale.Journal set, RunTrials replays the journaled trials, so the
// aggregates of a resumed grid are bit-identical to an uninterrupted run's,
// and an instance all of whose trials are journaled is never generated.
func runCells(specs []cellSpec, scale Scale) ([]CellResult, error) {
	specs = applyRetention(specs, scale)
	maxCycles := scale.maxCycles()
	journal := scale.Journal
	type cellPlan struct {
		// first indexes the cell's first trial; its (instance, init) trial
		// sits at first + instance*inits + init.
		first, inits int
		problems     []*csp.Problem
	}
	type job struct{ cell, instance, init int }
	plans := make([]cellPlan, len(specs))
	var instJobs, trialJobs []job
	for c, spec := range specs {
		instances, inits := scale.trials(spec.kind)
		plans[c] = cellPlan{first: len(trialJobs), inits: inits, problems: make([]*csp.Problem, instances)}
		for i := 0; i < instances; i++ {
			needProblem := journal == nil
			for j := 0; j < inits; j++ {
				trialJobs = append(trialJobs, job{cell: c, instance: i, init: j})
				if journal != nil && !journal.Has(spec.trialKey(i, j)) {
					needProblem = true
				}
			}
			if needProblem {
				instJobs = append(instJobs, job{cell: c, instance: i})
			}
		}
	}

	if err := ForEach(scale.Workers, len(instJobs), func(k int) error {
		j := instJobs[k]
		spec := specs[j.cell]
		problem, err := spec.makeProblem(scale, j.instance)
		if err != nil {
			return fmt.Errorf("cell %v n=%d instance %d: %w", spec.kind, spec.n, j.instance, err)
		}
		plans[j.cell].problems[j.instance] = problem
		return nil
	}); err != nil {
		return nil, err
	}

	trials := make([]TrialResult, len(trialJobs))
	if err := RunTrials(scale, trials, func(k int) string {
		j := trialJobs[k]
		return specs[j.cell].trialKey(j.instance, j.init)
	}, func(k int) (TrialResult, error) {
		j := trialJobs[k]
		spec := specs[j.cell]
		problem := plans[j.cell].problems[j.instance]
		init := gen.RandomInitial(problem, initSeed(scale.SeedBase, spec.kind, spec.n, j.instance, j.init))
		tr, err := spec.alg.Run(problem, init, sim.Options{MaxCycles: maxCycles})
		if err != nil {
			return tr, fmt.Errorf("cell %v n=%d instance %d init %d: %w", spec.kind, spec.n, j.instance, j.init, err)
		}
		return tr, nil
	}); err != nil {
		return nil, err
	}

	out := make([]CellResult, len(specs))
	reg := scale.Telemetry.Registry()
	cycleHist := reg.Histogram("discsp_trial_cycles", telemetry.CycleBuckets)
	maxcckHist := reg.Histogram("discsp_trial_maxcck", telemetry.ChecksBuckets)
	checksCtr := reg.Counter("discsp_checks_total")
	msgsCtr := reg.Counter("discsp_messages_total")
	for c, spec := range specs {
		agg := new(cellRunner)
		solvedCtr := reg.Counter(telemetry.Name("discsp_trials_solved_total", "cell", spec.key))
		trialCtr := reg.Counter(telemetry.Name("discsp_trials_total", "cell", spec.key))
		plan := plans[c]
		for t, tr := range trials[plan.first : plan.first+len(plan.problems)*plan.inits] {
			agg.add(tr)
			trialCtr.Inc()
			if tr.Solved {
				solvedCtr.Inc()
			}
			cycleHist.Observe(int64(tr.Cycles))
			maxcckHist.Observe(tr.MaxCCK)
			checksCtr.Add(tr.TotalChecks)
			msgsCtr.Add(int64(tr.Messages))
			scale.Telemetry.Emit(telemetry.Event{
				Kind:        telemetry.KindTrial,
				Cell:        spec.key,
				Trial:       t,
				Solved:      tr.Solved,
				Cycles:      tr.Cycles,
				MaxCCK:      tr.MaxCCK,
				TotalChecks: tr.TotalChecks,
				Messages:    int64(tr.Messages),
			})
		}
		cell := CellResult{Kind: spec.kind, N: spec.n, Algorithm: spec.alg.Name}
		agg.fill(&cell)
		out[c] = cell
	}
	scale.Telemetry.EmitSnapshot()
	return out, nil
}

// ProgressPrinter returns a Scale.Progress callback that writes a
// done/total line with an approximate trials-per-second rate to w, at most
// once per interval. A grid that finishes inside one interval prints
// nothing. RunTrials serializes Progress calls, so the returned closure
// needs no locking; the rate clock restarts whenever a new grid begins
// (the count resets to 1).
func ProgressPrinter(w io.Writer, interval time.Duration) func(done, total int) {
	var start, last time.Time
	return func(done, total int) {
		now := time.Now()
		if done == 1 || start.IsZero() {
			start, last = now, now
		}
		if now.Sub(last) < interval {
			return
		}
		last = now
		elapsed := now.Sub(start).Seconds()
		if elapsed <= 0 {
			return
		}
		fmt.Fprintf(w, "progress: %d/%d trials (%.1f trials/sec)\n", done, total, float64(done)/elapsed)
	}
}
