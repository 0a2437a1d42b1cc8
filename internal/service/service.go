// Package service implements dcspd's core: a long-lived, multi-tenant,
// crash-survivable DisCSP solver daemon.
//
// Robustness is the design axis, in five mechanisms:
//
//   - Admission control: the run queue is bounded globally and per tenant;
//     an over-limit submission is shed immediately (HTTP 429 + Retry-After)
//     instead of growing memory. Weighted-fair stride scheduling plus
//     per-tenant concurrency quotas keep one tenant from starving the rest
//     (queue.go).
//   - Deadlines: every job carries a wall-clock deadline from acceptance.
//     A job whose deadline expires in the queue is failed fast with a
//     queue-expiry report; a run that hits its deadline on the async/tcp
//     runtimes surfaces the stall watchdog's diagnosis (stalled / livelock
//     / converging, per-agent progress) instead of a bare timeout.
//   - Failure classification: a worker that panics mid-solve fails the
//     attempt with a *recoverable* verdict and is retried with exponential
//     backoff; a malformed instance is rejected at the door (HTTP 400) and
//     never accepted at all. Accepted jobs always reach a verdict.
//   - Durability: accepted jobs are fsync'd to an append-only job log
//     before the submit is acknowledged (journal.go, riding the PR-4
//     machinery). On restart the log is replayed: finished jobs serve
//     their recorded results without re-execution; interrupted jobs are
//     re-enqueued and re-run deterministically.
//   - Graceful drain: SIGTERM stops admission (HTTP 503), lets the backlog
//     and in-flight jobs finish, persists the warm-start cache, and exits
//     0 with zero lost accepted jobs. A hard kill loses nothing either —
//     that is what the journal is for.
//
// Long-lived learning: the daemon shares one nogood warm-start cache and a
// default retention policy across all jobs (PR-6), so repeated tenant
// instances get cheaper over the daemon's lifetime while every store stays
// bounded.
package service

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/discsp/discsp"
	backoffpkg "github.com/discsp/discsp/internal/backoff"
	"github.com/discsp/discsp/internal/telemetry"
)

// Config tunes a Daemon. The zero value of each field selects the
// documented default.
type Config struct {
	// Workers is the solver-pool size; default GOMAXPROCS. Negative runs
	// no workers at all — jobs are accepted and journaled but never
	// executed, the accept-only half the recovery tests freeze a daemon in.
	Workers int
	// MaxQueue bounds the global backlog; default 64.
	MaxQueue int
	// MaxQueuePerTenant bounds one tenant's backlog; default MaxQueue/4.
	MaxQueuePerTenant int
	// MaxRunningPerTenant is the per-tenant concurrency quota; default
	// max(1, Workers/2).
	MaxRunningPerTenant int
	// DefaultDeadline applies when a spec carries none; default 30s.
	DefaultDeadline time.Duration
	// MaxDeadline clamps requested deadlines; default 5m.
	MaxDeadline time.Duration
	// MaxCyclesCap clamps a spec's sync cutoff; default 100000.
	MaxCyclesCap int
	// MaxVars rejects instances larger than the daemon wants to host;
	// default 4096.
	MaxVars int
	// RetryMax is how many times a transient failure (worker panic) is
	// retried before the job fails recoverably; default 2.
	RetryMax int
	// RetryBackoff is the first retry delay, doubling per attempt;
	// default 50ms.
	RetryBackoff time.Duration
	// RetryAfter is the client backoff hint on shed and drain responses;
	// default 1s.
	RetryAfter time.Duration
	// Retention is the default nogood retention policy for every job
	// (overridable per spec) — a resident process must bound its stores.
	Retention discsp.Retention
	// WarmStart enables the shared cross-job nogood cache.
	WarmStart bool
	// WarmCachePath persists the warm cache across restarts (loaded at
	// start, saved at drain). Implies WarmStart.
	WarmCachePath string
	// JournalPath enables the durable job log; empty runs memory-only.
	JournalPath string
	// Registry receives the daemon's metrics; nil mints a fresh one.
	Registry *discsp.MetricsRegistry
	// AllowSyntheticDelay accepts specs with synthetic_delay_ms — the
	// load/crash-testing knob. Off by default.
	AllowSyntheticDelay bool
	// Logf logs operational events; default log.Printf. Tests silence it.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	} else if c.Workers < 0 {
		c.Workers = 0
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.MaxQueuePerTenant <= 0 {
		c.MaxQueuePerTenant = (c.MaxQueue + 3) / 4
	}
	if c.MaxRunningPerTenant <= 0 {
		c.MaxRunningPerTenant = max(1, c.Workers/2)
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.MaxCyclesCap <= 0 {
		c.MaxCyclesCap = 100000
	}
	if c.MaxVars <= 0 {
		c.MaxVars = 4096
	}
	if c.RetryMax < 0 {
		c.RetryMax = 0
	} else if c.RetryMax == 0 {
		c.RetryMax = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.WarmCachePath != "" {
		c.WarmStart = true
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

// durationMSBuckets sizes queue-wait and run-time histograms (milliseconds).
var durationMSBuckets = []int64{1, 3, 10, 30, 100, 300, 1_000, 3_000, 10_000, 30_000, 60_000, 300_000}

// Daemon is a running solver service. Construct with New; shut down with
// Drain (graceful) or Close (abandon).
type Daemon struct {
	cfg   Config
	reg   *discsp.MetricsRegistry
	log   *jobLog
	cache *discsp.NogoodCache
	sched *scheduler

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for List
	seq      int64
	draining bool
	logMu    sync.Mutex // serializes log writes that must pair with state

	wg     sync.WaitGroup
	stopCh chan struct{}

	m struct {
		accepted, shed, completed, failed, canceled *telemetry.Counter
		retries, replayed, cached, expired          *telemetry.Counter
		queueDepth, running, oldestAgeUS            *telemetry.Gauge
	}

	// beforeRun, when non-nil, observes every execution attempt before the
	// solver starts — the tests' execution counter and fault hook.
	beforeRun func(id string, attempt int)
}

// New builds the daemon: it opens and replays the job log, loads the warm
// cache, and starts the solver pool. The returned daemon is serving (its
// Handler can be mounted) once New returns.
func New(cfg Config) (*Daemon, error) {
	cfg.fill()
	d := &Daemon{
		cfg:    cfg,
		reg:    cfg.Registry,
		jobs:   make(map[string]*job),
		sched:  newScheduler(cfg.MaxQueue, cfg.MaxQueuePerTenant, cfg.MaxRunningPerTenant),
		stopCh: make(chan struct{}),
	}
	if d.reg == nil {
		d.reg = discsp.NewMetricsRegistry()
	}
	d.m.accepted = d.reg.Counter("dcspd_jobs_accepted_total")
	d.m.shed = d.reg.Counter("dcspd_jobs_shed_total")
	d.m.completed = d.reg.Counter("dcspd_jobs_completed_total")
	d.m.failed = d.reg.Counter("dcspd_jobs_failed_total")
	d.m.canceled = d.reg.Counter("dcspd_jobs_canceled_total")
	d.m.retries = d.reg.Counter("dcspd_job_retries_total")
	d.m.replayed = d.reg.Counter("dcspd_jobs_replayed_total")
	d.m.cached = d.reg.Counter("dcspd_jobs_cached_total")
	d.m.expired = d.reg.Counter("dcspd_jobs_deadline_expired_total")
	d.m.queueDepth = d.reg.Gauge("dcspd_queue_depth")
	d.m.running = d.reg.Gauge("dcspd_running")
	d.m.oldestAgeUS = d.reg.Gauge("dcspd_queue_oldest_age_us")

	if cfg.WarmStart {
		if cfg.WarmCachePath != "" {
			cache, err := discsp.LoadNogoodCache(cfg.WarmCachePath)
			if err != nil {
				return nil, fmt.Errorf("service: warm cache: %w", err)
			}
			d.cache = cache
		} else {
			d.cache = discsp.NewNogoodCache()
		}
	}
	if cfg.JournalPath != "" {
		l, err := openJobLog(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		d.log = l
		if err := d.replay(); err != nil {
			l.close()
			return nil, err
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		d.wg.Add(1)
		go d.worker()
	}
	return d, nil
}

// replay rebuilds state from the job log: done jobs become cached results,
// canceled jobs stay canceled, and accepted-but-unfinished jobs re-enter
// the queue (with fresh deadlines — the wall clock they were accepted under
// died with the old process; the verdict they reach does not depend on it
// for sync jobs, which re-run deterministically).
func (d *Daemon) replay() error {
	entries, err := d.log.replay()
	if err != nil {
		return err
	}
	sort.Slice(entries, func(i, k int) bool { return entries[i].accept.Seq < entries[k].accept.Seq })
	now := time.Now()
	for _, e := range entries {
		spec := e.accept.Spec
		p, perr := spec.problem()
		if perr != nil {
			// The spec was validated at accept; a parse failure here means
			// the daemon's caps changed between runs. Fail it permanently
			// rather than refusing to start.
			p = nil
		}
		j := newJob(e.accept.ID, e.accept.Seq, spec, p, now)
		j.replayed = true
		if e.accept.Seq > d.seq {
			d.seq = e.accept.Seq
		}
		d.jobs[j.id] = j
		d.order = append(d.order, j.id)
		switch {
		case e.done != nil:
			j.fromCache = true
			j.complete(e.done.status())
			d.m.cached.Inc()
		case e.canceled:
			j.fromCache = true
			j.complete(JobStatus{Verdict: VerdictCanceled})
			d.m.cached.Inc()
		case perr != nil:
			d.finish(j, JobStatus{Verdict: VerdictFailed, Error: perr.Error()})
		default:
			// Re-queue past the admission bounds: this job was admitted by
			// the previous process, and an acknowledged job is never shed.
			d.m.replayed.Inc()
			d.sched.enqueueReplay(j)
		}
	}
	if n := len(entries); n > 0 {
		d.cfg.Logf("dcspd: job log replayed %d jobs (%d already finished)", n, d.m.cached.Value())
	}
	d.refreshGauges()
	return nil
}

// Submit validates, journals, and enqueues one job. The returned status is
// the acknowledgment: when it is non-nil the job is durably accepted (the
// journal was fsync'd). Errors: *SpecError (permanent, HTTP 400),
// ErrQueueFull / ErrTenantQueueFull (shed, HTTP 429), errDraining (503).
func (d *Daemon) Submit(spec JobSpec) (JobStatus, error) {
	p, err := spec.normalize(&d.cfg)
	if err != nil {
		return JobStatus{}, err
	}
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return JobStatus{}, errDraining
	}
	d.seq++
	id := fmt.Sprintf("j%08d", d.seq)
	j := newJob(id, d.seq, spec, p, time.Now())
	d.mu.Unlock()

	// Enqueue before journaling would admit a job that a crash forgets;
	// journal before enqueue means a full queue sheds an already-durable
	// job. Neither is acceptable: probe the queue first (enqueue), and on
	// journal failure withdraw the probe. The accepted invariant holds:
	// acknowledged ⇒ journaled ⇒ survives any crash after this returns.
	if err := d.sched.enqueue(j); err != nil {
		d.m.shed.Inc()
		return JobStatus{}, err
	}
	if err := d.log.recordAccept(acceptRecord{ID: id, Seq: j.seq, Spec: spec}); err != nil {
		d.sched.remove(id)
		return JobStatus{}, fmt.Errorf("service: journal accept: %w", err)
	}
	d.mu.Lock()
	d.jobs[id] = j
	d.order = append(d.order, id)
	d.mu.Unlock()
	d.m.accepted.Inc()
	d.refreshGauges()
	return j.snapshot(time.Now()), nil
}

// Get returns a job's status.
func (d *Daemon) Get(id string) (JobStatus, bool) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return j.snapshot(time.Now()), true
}

// events returns a job's event log for streaming.
func (d *Daemon) events(id string) (*eventLog, bool) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		return nil, false
	}
	return j.events, true
}

// trace returns a job's causal-trace log for streaming. The bool reports
// whether the job exists; the log is nil when the job was not submitted
// with causal capture.
func (d *Daemon) trace(id string) (*eventLog, bool) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		return nil, false
	}
	return j.trace, true
}

// Wait blocks until the job completes or ctx expires, then returns its
// status.
func (d *Daemon) Wait(ctx context.Context, id string) (JobStatus, error) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("service: unknown job %q", id)
	}
	select {
	case <-j.done:
		return j.snapshot(time.Now()), nil
	case <-ctx.Done():
		return j.snapshot(time.Now()), ctx.Err()
	}
}

// List returns every job's status in submission order, optionally filtered
// by tenant.
func (d *Daemon) List(tenant string) []JobStatus {
	d.mu.Lock()
	ids := append([]string(nil), d.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, d.jobs[id])
	}
	d.mu.Unlock()
	now := time.Now()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		if tenant != "" && j.spec.Tenant != tenant {
			continue
		}
		out = append(out, j.snapshot(now))
	}
	return out
}

// Cancel withdraws a job. A queued job is canceled immediately; a running
// job is marked so the cancel is honored at the next boundary (the solver
// runtimes are not preemptible mid-run — graceful degradation, not a lie
// about having stopped work already spent). Canceling a done job is a
// no-op that returns its status.
func (d *Daemon) Cancel(id string) (JobStatus, error) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("service: unknown job %q", id)
	}
	j.mu.Lock()
	switch j.state {
	case StateDone:
		j.mu.Unlock()
		return j.snapshot(time.Now()), nil
	case StateRunning:
		j.canceled = true
		j.mu.Unlock()
		return j.snapshot(time.Now()), nil
	}
	j.canceled = true
	j.mu.Unlock()
	if d.sched.remove(id) {
		if err := d.log.recordCancel(id); err != nil {
			d.cfg.Logf("dcspd: journal cancel %s: %v", id, err)
		}
		now := time.Now()
		j.complete(JobStatus{Verdict: VerdictCanceled, QueueMS: now.Sub(j.submitted).Milliseconds()})
		d.m.canceled.Inc()
		d.refreshGauges()
	}
	return j.snapshot(time.Now()), nil
}

// worker is one solver-pool goroutine: claim, run, release, repeat, until
// the scheduler reports drained or stopped.
func (d *Daemon) worker() {
	defer d.wg.Done()
	for {
		j, ok := d.sched.next()
		if !ok {
			return
		}
		d.refreshGauges()
		d.runJob(j)
		d.sched.release(j.spec.Tenant)
		d.refreshGauges()
	}
}

// finish journals, counts and applies a final status. Journal-before-expose
// is the ordering that makes "done" durable: a crash between the two
// replays the recorded result instead of re-running. Count-before-expose
// makes /metrics agree with a verdict as soon as Wait returns it. A journal
// write failure downgrades durability, not availability — the result is
// still served, loudly.
func (d *Daemon) finish(j *job, st JobStatus) {
	if err := d.log.recordDone(j.id, toDoneRecord(st)); err != nil {
		d.cfg.Logf("dcspd: journal done %s: %v (result served from memory only)", j.id, err)
	}
	switch st.Verdict {
	case VerdictFailed, VerdictTimeout:
		d.m.failed.Inc()
	case VerdictCanceled:
		d.m.canceled.Inc()
	default:
		d.m.completed.Inc()
	}
	d.observeJob(j, st)
	j.complete(st)
}

// runJob executes one job to a verdict, with deadline enforcement, cancel
// checks, and transient-failure retries.
func (d *Daemon) runJob(j *job) {
	now := time.Now()
	if !j.markRunning(now) {
		// Cancel won the race between dequeue and start.
		if err := d.log.recordCancel(j.id); err != nil {
			d.cfg.Logf("dcspd: journal cancel %s: %v", j.id, err)
		}
		d.finish(j, JobStatus{Verdict: VerdictCanceled, QueueMS: now.Sub(j.submitted).Milliseconds()})
		return
	}
	queueMS := now.Sub(j.submitted).Milliseconds()
	if now.After(j.deadline) {
		// The deadline died in the queue: shed the work, keep the verdict
		// informative — this is the overload signal clients should widen
		// deadlines (or the operator should widen the pool) on.
		d.m.expired.Inc()
		queued, running := d.sched.depth()
		d.finish(j, JobStatus{
			Verdict: VerdictTimeout,
			Report: fmt.Sprintf("deadline expired after %dms in queue, before the job started (queue depth %d, running %d)",
				queueMS, queued, running),
			QueueMS: queueMS,
		})
		return
	}

	for attempt := 1; ; attempt++ {
		j.mu.Lock()
		j.attempts = attempt
		canceled := j.canceled
		j.mu.Unlock()
		if canceled {
			d.finish(j, JobStatus{Verdict: VerdictCanceled, Attempts: attempt - 1, QueueMS: queueMS})
			return
		}
		start := time.Now()
		st, transient := d.attempt(j, attempt, start)
		st.Attempts = attempt
		st.QueueMS = queueMS
		st.RunMS = time.Since(start).Milliseconds()
		if !transient {
			d.finish(j, st)
			return
		}
		// Transient failure: a crashed worker goroutine. Retry with
		// exponential backoff while the deadline and retry budget allow.
		d.m.retries.Inc()
		backoff := backoffpkg.Policy{Base: d.cfg.RetryBackoff}.Delay(attempt - 1)
		if attempt > d.cfg.RetryMax || time.Now().Add(backoff).After(j.deadline) {
			st.Verdict = VerdictFailed
			st.Recoverable = true
			d.finish(j, st)
			return
		}
		d.cfg.Logf("dcspd: job %s attempt %d crashed (%s); retrying in %v", j.id, attempt, st.Error, backoff)
		select {
		case <-time.After(backoff):
		case <-d.stopCh:
			// Abandon-style shutdown mid-retry: leave the job accepted in
			// the journal; the next process re-runs it.
			return
		}
	}
}

// attempt runs the solver once. transient=true marks a crashed worker (the
// recoverable class); the returned status is final otherwise.
func (d *Daemon) attempt(j *job, attempt int, start time.Time) (st JobStatus, transient bool) {
	defer func() {
		if r := recover(); r != nil {
			st = JobStatus{
				Verdict:     VerdictFailed,
				Recoverable: true,
				Error:       fmt.Sprintf("worker crashed: %v", r),
			}
			transient = true
		}
	}()
	// Inside the recover scope on purpose: a panicking hook is the tests'
	// stand-in for a worker goroutine crashing mid-solve.
	if d.beforeRun != nil {
		d.beforeRun(j.id, attempt)
	}
	if j.spec.SyntheticDelayMS > 0 {
		time.Sleep(time.Duration(j.spec.SyntheticDelayMS) * time.Millisecond)
	}
	remaining := time.Until(j.deadline)
	if remaining <= 0 {
		return JobStatus{Verdict: VerdictTimeout,
			Report: fmt.Sprintf("deadline expired before attempt %d started", attempt)}, false
	}
	tel := discsp.NewTelemetry(d.reg, j.events)
	opts := j.spec.options(remaining, d.cfg.Retention, d.cache)
	opts.Telemetry = tel
	if j.spec.Causal {
		// Each attempt restarts the trace stream: a causal trace holds
		// exactly one traced run, and a crashed attempt leaves a torn tail
		// the completeness check would (rightly) refuse.
		j.trace.reset()
		opts.Causal = discsp.NewTelemetry(nil, j.trace)
	}
	var res discsp.Result
	var err error
	switch j.spec.Runtime {
	case "async":
		res, err = discsp.SolveAsync(j.problem, opts)
	case "tcp":
		res, err = discsp.SolveTCP(j.problem, opts)
	default:
		res, err = discsp.Solve(j.problem, opts)
	}
	if ferr := tel.Flush(); ferr != nil {
		d.cfg.Logf("dcspd: job %s: event stream: %v", j.id, ferr)
	}
	if opts.Causal != nil {
		if ferr := opts.Causal.Flush(); ferr != nil {
			d.cfg.Logf("dcspd: job %s: causal trace stream: %v", j.id, ferr)
		}
	}
	st = JobStatus{
		Solved:      res.Solved,
		Insoluble:   res.Insoluble,
		Cycles:      res.Cycles,
		MaxCCK:      res.MaxCCK,
		TotalChecks: res.TotalChecks,
		Messages:    res.Messages,
	}
	if res.Solved {
		st.Assignment = make([]int, len(res.Assignment))
		for i, v := range res.Assignment {
			st.Assignment[i] = int(v)
		}
	}
	switch {
	case err != nil && discsp.IsTimeout(err):
		// The deadline expired mid-run. The stall watchdog's report is the
		// difference between "timed out" and a diagnosis.
		st.Verdict = VerdictTimeout
		if rep, ok := discsp.TimeoutReport(err); ok {
			st.Report = rep
		} else {
			st.Error = err.Error()
		}
	case err != nil:
		st.Verdict = VerdictFailed
		st.Error = err.Error()
	case res.Solved:
		st.Verdict = VerdictSolved
	case res.Insoluble:
		st.Verdict = VerdictInsoluble
	default:
		st.Verdict = VerdictExhausted
	}
	return st, false
}

// observeJob records per-tenant timing histograms and shared counters.
func (d *Daemon) observeJob(j *job, st JobStatus) {
	t := j.spec.Tenant
	d.reg.Histogram(telemetry.Name("dcspd_queue_wait_ms", "tenant", t), durationMSBuckets).Observe(st.QueueMS)
	if st.RunMS > 0 || st.Verdict == VerdictSolved || st.Verdict == VerdictInsoluble || st.Verdict == VerdictExhausted {
		d.reg.Histogram(telemetry.Name("dcspd_job_run_ms", "tenant", t), durationMSBuckets).Observe(st.RunMS)
	}
	d.reg.Counter(telemetry.Name("dcspd_jobs_done_total", "tenant", t)).Inc()
}

// refreshGauges recomputes the queue-shape gauges.
func (d *Daemon) refreshGauges() {
	queued, running := d.sched.depth()
	d.m.queueDepth.Set(int64(queued))
	d.m.running.Set(int64(running))
	d.m.oldestAgeUS.Set(d.sched.oldestAge(time.Now()).Microseconds())
}

// Draining reports whether the daemon has stopped admitting jobs.
func (d *Daemon) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// RetryAfter is the client backoff hint for shed and drain responses.
func (d *Daemon) RetryAfter() time.Duration { return d.cfg.RetryAfter }

// Registry exposes the daemon's metrics registry (for serving /metrics).
func (d *Daemon) Registry() *discsp.MetricsRegistry { return d.reg }

// Drain shuts down gracefully: stop admitting, let the backlog and
// in-flight jobs finish, persist the warm cache, close the job log. It
// returns nil when every accepted job reached a durable verdict; ctx
// expiry abandons the remainder (they stay journaled as accepted, so a
// restart finishes them — interrupted, not lost).
func (d *Daemon) Drain(ctx context.Context) error {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return fmt.Errorf("service: already draining")
	}
	d.draining = true
	d.mu.Unlock()
	d.sched.drain()

	workersDone := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(workersDone)
	}()
	var drainErr error
	select {
	case <-workersDone:
	case <-ctx.Done():
		close(d.stopCh)
		d.sched.stop()
		<-workersDone
		queued, running := d.sched.depth()
		drainErr = fmt.Errorf("service: drain deadline expired with %d queued and %d running jobs (journaled as accepted; a restart resumes them)", queued, running)
	}
	d.shutdownState()
	return drainErr
}

// Close abandons the daemon without draining: workers stop after their
// current job, the backlog stays journaled as accepted. It is the
// crash-shaped shutdown tests use to exercise replay.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return nil
	}
	d.draining = true
	d.mu.Unlock()
	select {
	case <-d.stopCh:
	default:
		close(d.stopCh)
	}
	d.sched.stop()
	d.wg.Wait()
	d.shutdownState()
	return nil
}

func (d *Daemon) shutdownState() {
	if d.cache != nil && d.cfg.WarmCachePath != "" {
		if err := d.cache.Save(d.cfg.WarmCachePath); err != nil {
			d.cfg.Logf("dcspd: save warm cache: %v", err)
		}
	}
	if err := d.log.close(); err != nil {
		d.cfg.Logf("dcspd: close job log: %v", err)
	}
}

// TenantStats is one tenant's slice of Stats.
type TenantStats struct {
	Queued int `json:"queued"`
}

// Stats is the service-shape snapshot served by GET /v1/stats.
type Stats struct {
	Queued         int                    `json:"queued"`
	Running        int                    `json:"running"`
	Jobs           int                    `json:"jobs"`
	Draining       bool                   `json:"draining"`
	OldestQueuedMS int64                  `json:"oldest_queued_ms,omitempty"`
	Tenants        map[string]TenantStats `json:"tenants,omitempty"`
	WarmNogoods    int                    `json:"warm_nogoods,omitempty"`
}

// Stats snapshots the daemon's shape.
func (d *Daemon) Stats() Stats {
	queued, running := d.sched.depth()
	d.mu.Lock()
	jobs := len(d.jobs)
	draining := d.draining
	d.mu.Unlock()
	st := Stats{
		Queued:         queued,
		Running:        running,
		Jobs:           jobs,
		Draining:       draining,
		OldestQueuedMS: d.sched.oldestAge(time.Now()).Milliseconds(),
	}
	depths := d.sched.tenantDepths()
	if len(depths) > 0 {
		st.Tenants = make(map[string]TenantStats, len(depths))
		for name, n := range depths {
			st.Tenants[name] = TenantStats{Queued: n}
		}
	}
	if d.cache != nil {
		st.WarmNogoods = d.cache.Len()
	}
	return st
}
