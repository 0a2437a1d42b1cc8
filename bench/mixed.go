package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/experiments"
	"github.com/discsp/discsp/internal/service"
)

// jobClass is one kind of job in the dcspd-mixed traffic mix.
type jobClass struct {
	// perBlock is the class's count in every block of consecutive jobs;
	// the block's size is the sum over classes. Fixed counts in a seeded
	// order keep the mix the same in every run, so seeds differ only in
	// instances and order.
	perBlock int
	runtime  string
	kind     experiments.ProblemKind
	n        int
	learning string
}

// mixedWorkload drives an in-process dcspd daemon with an open loop: one
// generator goroutine submits jobs on a fixed schedule at each rate in turn,
// whatever the daemon's progress, and every job is timed from the moment it
// was due, so a stall also delays the jobs scheduled behind it.
type mixedWorkload struct {
	classes []jobClass
	// rates are the arrival rates of the three phases in jobs per second,
	// about 0.3, 0.6 and 0.9 of the capacity measured on the reference
	// machine (see README.md).
	rates [3]float64
}

const (
	// measuredPhase is the phase (0-based) the end-to-end metrics come
	// from: the 0.3C one.
	measuredPhase = 0
	// latencyLimit is the verdict-latency p95 a phase must meet to count
	// toward service.max_rate_ok.
	latencyLimit = 250 * time.Millisecond
)

// tenants are the two tenants jobs alternate between, with fair-share
// weights 1 and 3.
var tenants = [2]struct {
	name   string
	weight int
}{{"light", 1}, {"heavy", 3}}

// jobPlan is one scheduled submission. It keeps the submit body but not the
// decoded instance, which verification regenerates from class and key: a
// run plans thousands of jobs, and keeping every instance doubled the
// process's memory.
type jobPlan struct {
	phase int
	due   time.Duration // offset from the phase-1 start
	class int
	key   int64
	spec  service.JobSpec
}

// jobResult is one submission's outcome. Each waiter goroutine writes only
// its own element; the generator reads them after every waiter has ended.
type jobResult struct {
	accept   time.Duration // Submit call
	lag      time.Duration // generator lateness at submit
	verdict  time.Duration // due time to verdict
	queueMS  int64
	runMS    int64
	messages int64
	fault    string
	shed     bool // Submit refused the job
	submit   time.Time
	done     time.Time
	// status and err are what Wait returned, verified after the run.
	status service.JobStatus
	err    error
}

// mixedState is one set-up of the workload: a running daemon.
type mixedState struct {
	w       *mixedWorkload
	dir     string
	daemon  *service.Daemon
	workers int
}

// setup starts a daemon with a journal in a fresh temporary directory.
func (w *mixedWorkload) setup() (*mixedState, error) {
	s := &mixedState{w: w, workers: runtime.GOMAXPROCS(0)}
	if err := s.start(); err != nil {
		return nil, err
	}
	return s, nil
}

// problem generates class ci's instance for job key.
func (w *mixedWorkload) problem(ci int, key int64) (*csp.Problem, error) {
	c := w.classes[ci]
	p, err := experiments.MakeInstance(c.kind, c.n, key)
	if err != nil {
		return nil, fmt.Errorf("class %d instance: %w", ci, err)
	}
	return p, nil
}

// instance generates class ci's instance for job key and encodes it as the
// submit body carries it.
func (w *mixedWorkload) instance(ci int, key int64) (*csp.Problem, []byte, error) {
	p, err := w.problem(ci, key)
	if err != nil {
		return nil, nil, err
	}
	var buf, body bytes.Buffer
	if err := csp.WriteProblemJSON(&buf, p); err != nil {
		return nil, nil, err
	}
	// Compacted, as a client would send it: the daemon keeps every job's
	// body, and the indented form is several times larger.
	if err := json.Compact(&body, buf.Bytes()); err != nil {
		return nil, nil, err
	}
	return p, bytes.Clone(body.Bytes()), nil
}

// start launches a fresh daemon on a fresh journal. Queue bounds are raised
// well past any backlog the schedule can build, so admission control never
// sheds a benchmark job; the worker pool is one solver per CPU.
func (s *mixedState) start() error {
	dir, err := os.MkdirTemp("", "bench-dcspd-")
	if err != nil {
		return err
	}
	d, err := service.New(service.Config{
		Workers:           s.workers,
		MaxQueue:          4096,
		MaxQueuePerTenant: 4096,
		JournalPath:       filepath.Join(dir, "jobs.journal"),
		Logf:              func(string, ...any) {},
	})
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	s.dir, s.daemon = dir, d
	return nil
}

// stop drains the daemon and removes its journal.
func (s *mixedState) stop() error {
	if s.daemon == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.daemon.Drain(ctx)
	s.daemon = nil
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// plan lays out the submissions of three phases of phaseDur each, drawn
// from the seed: classes block by block in shuffled order, a fresh instance
// per job, initial values by a nonzero job seed, tenants alternating.
func (w *mixedWorkload) plan(seed int64, phaseDur time.Duration) ([]jobPlan, error) {
	rng := rand.New(rand.NewSource(derive(seed, 0)))
	var jobs []jobPlan
	var block []int
	for ph, rate := range w.rates {
		count := int(rate * phaseDur.Seconds())
		base := time.Duration(ph) * phaseDur
		for k := 0; k < count; k++ {
			if len(block) == 0 {
				block = w.block(rng)
			}
			ci := block[0]
			block = block[1:]
			c := w.classes[ci]
			key := derive(seed, 1, int64(len(jobs)))
			_, body, err := w.instance(ci, key)
			if err != nil {
				return nil, err
			}
			t := tenants[len(jobs)%len(tenants)]
			jobs = append(jobs, jobPlan{
				phase: ph,
				due:   base + time.Duration(float64(k)/rate*float64(time.Second)),
				class: ci,
				key:   key,
				spec: service.JobSpec{
					Tenant:   t.name,
					Weight:   t.weight,
					Runtime:  c.runtime,
					Learning: c.learning,
					Seed:     1 + rng.Int63n(1<<40),
					Format:   "json",
					Problem:  body,
				},
			})
		}
	}
	return jobs, nil
}

// block returns one block's class indices in a shuffled order.
func (w *mixedWorkload) block(rng *rand.Rand) []int {
	var b []int
	for i, c := range w.classes {
		for j := 0; j < c.perBlock; j++ {
			b = append(b, i)
		}
	}
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// run submits jobs on schedule and waits for every verdict. It reports the
// backlog (queued plus running jobs) at the end of each phase's schedule, up
// to the last phase jobs has, and verifies every verdict once all have
// arrived. sp, when non-nil, takes a calibration sample after each
// submission of the measured phase. tr, when non-nil, records a span per
// job, from its due time to its verdict, and spans around its Submit and
// Wait calls.
func (s *mixedState) run(jobs []jobPlan, phaseDur time.Duration, sp *speedometer, tr *tracer) ([]jobResult, [3]int) {
	d := s.daemon
	results := make([]jobResult, len(jobs))
	var backlog [3]int
	var wg sync.WaitGroup
	ctx, cancel := context.WithTimeout(context.Background(), 3*phaseDur+time.Minute)
	defer cancel()

	start := time.Now()
	endPhase := func(ph int) {
		time.Sleep(time.Until(start.Add(time.Duration(ph+1) * phaseDur)))
		backlog[ph] = s.backlog()
	}
	phase := 0
	for i := range jobs {
		for ; phase < jobs[i].phase; phase++ {
			endPhase(phase)
		}
		due := start.Add(jobs[i].due)
		time.Sleep(time.Until(due))
		r := &results[i]
		r.submit = time.Now()
		r.lag = r.submit.Sub(due)
		st, err := d.Submit(jobs[i].spec)
		r.accept = time.Since(r.submit)
		if err != nil {
			r.fault = "submit: " + err.Error()
			r.shed = true
			r.done = time.Now()
			continue
		}
		if sp != nil && jobs[i].phase == measuredPhase {
			sp.sample()
		}
		wg.Add(1)
		go func(i int, id string, due time.Time) {
			defer wg.Done()
			r := &results[i]
			st, err := d.Wait(ctx, id)
			r.done = time.Now()
			r.verdict = r.done.Sub(due)
			r.queueMS, r.runMS, r.messages = st.QueueMS, st.RunMS, st.Messages
			r.status, r.err = st, err
		}(i, st.ID, due)
	}
	if len(jobs) > 0 {
		endPhase(phase)
	}
	wg.Wait()
	for i := range results {
		if r := &results[i]; !r.shed {
			r.fault = s.verify(jobs[i], r.status, r.err)
		}
	}
	if tr != nil {
		for i, r := range results {
			due := start.Add(jobs[i].due)
			accepted := r.submit.Add(r.accept)
			tr.add(i, "job", "", due, r.done.Sub(due), 0)
			tr.add(i, "service.Submit", "job", r.submit, r.accept, 0)
			tr.add(i, "service.Wait", "job", accepted, r.done.Sub(accepted), 0)
		}
	}
	return results, backlog
}

func (s *mixedState) backlog() int {
	st := s.daemon.Stats()
	return st.Queued + st.Running
}

// verify regenerates job's instance and checks its final status against it.
func (s *mixedState) verify(job jobPlan, st service.JobStatus, err error) string {
	p, perr := s.w.problem(job.class, job.key)
	if perr != nil {
		return perr.Error()
	}
	return jobFault(st, err, p)
}

// jobFault verifies one job's final status: it must be solved, and the
// returned assignment must satisfy every constraint.
func jobFault(st service.JobStatus, err error, p *csp.Problem) string {
	switch {
	case err != nil:
		return "wait: " + err.Error()
	case st.Verdict != service.VerdictSolved:
		return fmt.Sprintf("verdict %s: %s%s", st.Verdict, st.Error, st.Report)
	case len(st.Assignment) != p.NumVars():
		return fmt.Sprintf("assignment has %d values for %d variables", len(st.Assignment), p.NumVars())
	}
	a := make(csp.SliceAssignment, len(st.Assignment))
	for v, val := range st.Assignment {
		a[v] = csp.Value(val)
	}
	if !p.IsSolution(a) {
		return "reported solution violates a constraint"
	}
	return ""
}
