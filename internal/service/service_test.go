package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/experiments"
	"github.com/discsp/discsp/internal/gen"
)

// testProblemJSON renders p as the native problem JSON a submit body embeds.
func testProblemJSON(t *testing.T, p *csp.Problem) json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := csp.WriteProblemJSON(&buf, p); err != nil {
		t.Fatalf("WriteProblemJSON: %v", err)
	}
	return buf.Bytes()
}

// coloringSpec is a small solvable coloring instance as a submit body.
func coloringSpec(t *testing.T, seed int64) JobSpec {
	t.Helper()
	inst, err := gen.Coloring(8, 16, 3, seed)
	if err != nil {
		t.Fatalf("gen.Coloring: %v", err)
	}
	return JobSpec{Problem: testProblemJSON(t, inst.Problem)}
}

// insolubleProblem is the 1-variable problem whose only two values are both
// forbidden — the smallest instance with a nonexistence proof.
func insolubleProblem() *csp.Problem {
	p := csp.NewProblemUniform(1, 2)
	for val := 0; val < 2; val++ {
		ng, err := csp.NewNogood(csp.Lit{Var: 0, Val: csp.Value(val)})
		if err != nil {
			panic(err)
		}
		if err := p.AddNogood(ng); err != nil {
			panic(err)
		}
	}
	return p
}

func newTestDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func waitDone(t *testing.T, d *Daemon, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := d.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v (status %+v)", id, err, st)
	}
	return st
}

func TestSubmitSolveLifecycle(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2})
	st, err := d.Submit(coloringSpec(t, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Submit enqueues before it journals the accept and snapshots last, so a
	// worker may already have finished the small job: an accepted job can
	// legitimately come back done.
	if st.State != StateQueued && st.State != StateRunning && st.State != StateDone {
		t.Fatalf("submit state = %q", st.State)
	}
	if st.Tenant != "default" {
		t.Fatalf("tenant = %q, want default", st.Tenant)
	}
	fin := waitDone(t, d, st.ID)
	if fin.Verdict != VerdictSolved || !fin.Solved {
		t.Fatalf("verdict = %+v, want solved", fin)
	}
	if len(fin.Assignment) != 8 || fin.Cycles == 0 {
		t.Fatalf("result fields missing: %+v", fin)
	}
	if got, ok := d.Get(st.ID); !ok || got.State != StateDone {
		t.Fatalf("Get after done = %+v ok=%v", got, ok)
	}
	if l := d.List(""); len(l) != 1 || l[0].ID != st.ID {
		t.Fatalf("List = %+v", l)
	}
	if l := d.List("nobody"); len(l) != 0 {
		t.Fatalf("List(nobody) = %+v", l)
	}
}

func TestInsolubleVerdict(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1})
	st, err := d.Submit(JobSpec{Problem: testProblemJSON(t, insolubleProblem())})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if fin := waitDone(t, d, st.ID); fin.Verdict != VerdictInsoluble {
		t.Fatalf("verdict = %+v, want insoluble", fin)
	}
}

func TestSpecErrorsArePermanent(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: -1, MaxVars: 4})
	good := coloringSpec(t, 1)
	cases := []struct {
		name string
		mut  func(*JobSpec)
		want string
	}{
		{"bad runtime", func(s *JobSpec) { s.Runtime = "quantum" }, "runtime"},
		{"bad algorithm", func(s *JobSpec) { s.Algorithm = "dpll" }, "algorithm"},
		{"bad weight", func(s *JobSpec) { s.Weight = 99 }, "weight"},
		{"bad tenant", func(s *JobSpec) { s.Tenant = "a/b" }, "tenant"},
		{"negative deadline", func(s *JobSpec) { s.DeadlineMS = -1 }, "deadline_ms"},
		{"no problem", func(s *JobSpec) { s.Problem = nil }, "problem"},
		{"bad retention", func(s *JobSpec) { s.Retention = "fifo:9" }, "retention"},
		{"faults on sync", func(s *JobSpec) { s.FaultProfile = "drop=0.1" }, "fault_profile"},
		{"too many vars", func(s *JobSpec) {}, "caps jobs at 4"},
		{"synthetic delay gated", func(s *JobSpec) { s.SyntheticDelayMS = 10 }, "synthetic_delay_ms"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := good
			tc.mut(&spec)
			_, err := d.Submit(spec)
			var serr *SpecError
			if !errors.As(err, &serr) {
				t.Fatalf("err = %v, want *SpecError", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err %q does not mention %q", err, tc.want)
			}
		})
	}
	// Nothing was accepted: spec errors are rejected before the journal.
	if l := d.List(""); len(l) != 0 {
		t.Fatalf("rejected specs were admitted: %+v", l)
	}
}

// blockWorkers installs a beforeRun hook that parks every worker attempt on
// a channel, returning the release function. Release is also registered as
// a cleanup so a failing test cannot leave Close waiting on a parked worker.
func blockWorkers(t *testing.T, d *Daemon) (started <-chan string, release func()) {
	t.Helper()
	ch := make(chan string, 64)
	gate := make(chan struct{})
	d.beforeRun = func(id string, attempt int) {
		ch <- id
		<-gate
	}
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return ch, release
}

func TestAdmissionControlSheds(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1, MaxQueue: 2, MaxQueuePerTenant: 1, MaxRunningPerTenant: 1})
	started, release := blockWorkers(t, d)
	defer release()

	// Occupy the only worker.
	first, err := d.Submit(coloringSpec(t, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started

	// One queued job per tenant fits; the tenant's second is shed while
	// another tenant is still admitted — per-tenant isolation.
	specA := coloringSpec(t, 2)
	specA.Tenant = "alpha"
	if _, err := d.Submit(specA); err != nil {
		t.Fatalf("first alpha submit: %v", err)
	}
	if _, err := d.Submit(specA); !errors.Is(err, ErrTenantQueueFull) {
		t.Fatalf("second alpha submit err = %v, want ErrTenantQueueFull", err)
	}
	specB := coloringSpec(t, 3)
	specB.Tenant = "beta"
	if _, err := d.Submit(specB); err != nil {
		t.Fatalf("beta submit: %v", err)
	}
	// The global bound is now hit: everyone is shed.
	specC := coloringSpec(t, 4)
	specC.Tenant = "gamma"
	if _, err := d.Submit(specC); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-bound submit err = %v, want ErrQueueFull", err)
	}
	if got := d.Registry().Counter("dcspd_jobs_shed_total").Value(); got != 2 {
		t.Fatalf("shed counter = %d, want 2", got)
	}

	release()
	for _, id := range []string{first.ID} {
		if fin := waitDone(t, d, id); fin.Verdict != VerdictSolved {
			t.Fatalf("job %s verdict = %q", id, fin.Verdict)
		}
	}
}

func TestStrideSchedulerWeightedFairness(t *testing.T) {
	s := newScheduler(64, 64, 8)
	mk := func(tenant string, weight, n int) {
		for i := 0; i < n; i++ {
			spec := JobSpec{Tenant: tenant, Weight: weight, DeadlineMS: 60000}
			j := newJob(tenant+string(rune('0'+i)), int64(i), spec, nil, time.Now(), 0, 0)
			if err := s.enqueue(j); err != nil {
				t.Fatalf("enqueue: %v", err)
			}
		}
	}
	mk("heavy", 4, 8)
	mk("light", 1, 8)
	counts := map[string]int{}
	for i := 0; i < 10; i++ {
		j, ok := s.next()
		if !ok {
			t.Fatalf("next returned !ok at %d", i)
		}
		counts[j.spec.Tenant]++
		s.release(j.spec.Tenant)
	}
	// Weight 4 vs 1 → 4:1 service ratio over any window.
	if counts["heavy"] != 8 || counts["light"] != 2 {
		t.Fatalf("dispatch counts = %v, want heavy:8 light:2", counts)
	}
}

func TestDeadlineExpiresInQueue(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1, MaxQueue: 8})
	started, release := blockWorkers(t, d)

	first, err := d.Submit(coloringSpec(t, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	doomed, err := d.Submit(JobSpec{Problem: coloringSpec(t, 2).Problem, DeadlineMS: 30})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	time.Sleep(80 * time.Millisecond) // let the queued job's deadline lapse
	release()

	fin := waitDone(t, d, doomed.ID)
	if fin.Verdict != VerdictTimeout {
		t.Fatalf("verdict = %+v, want timeout", fin)
	}
	if !strings.Contains(fin.Report, "in queue") {
		t.Fatalf("report %q does not explain the queue expiry", fin.Report)
	}
	if d.Registry().Counter("dcspd_jobs_deadline_expired_total").Value() != 1 {
		t.Fatalf("expired counter not bumped")
	}
	waitDone(t, d, first.ID)
}

func TestRunTimeoutCarriesWatchdogReport(t *testing.T) {
	// A permanent partition from t=0 means the async run can never reach a
	// verdict (the all-zero initial coloring violates edges, and no message
	// crosses the cut): the deadline must expire mid-run, and the stall
	// watchdog's diagnosis must surface in the job's report.
	d := newTestDaemon(t, Config{Workers: 1})
	st, err := d.Submit(JobSpec{
		Problem:      coloringSpec(t, 1).Problem,
		Runtime:      "async",
		FaultProfile: "partition=0s+never",
		DeadlineMS:   500,
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	fin := waitDone(t, d, st.ID)
	if fin.Verdict != VerdictTimeout {
		t.Fatalf("verdict = %+v, want timeout", fin)
	}
	if fin.Report == "" {
		t.Fatalf("timeout carried no watchdog report: %+v", fin)
	}
}

func TestTransientCrashIsRetried(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1, RetryMax: 2, RetryBackoff: time.Millisecond})
	var calls atomic.Int64
	d.beforeRun = func(id string, attempt int) {
		if calls.Add(1) == 1 {
			panic("injected worker crash")
		}
	}
	st, err := d.Submit(coloringSpec(t, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	fin := waitDone(t, d, st.ID)
	if fin.Verdict != VerdictSolved {
		t.Fatalf("verdict = %+v, want solved after retry", fin)
	}
	if fin.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", fin.Attempts)
	}
	if d.Registry().Counter("dcspd_job_retries_total").Value() != 1 {
		t.Fatalf("retry counter not bumped")
	}
}

func TestRetryBudgetExhaustsRecoverably(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1, RetryMax: 1, RetryBackoff: time.Millisecond})
	d.beforeRun = func(id string, attempt int) { panic("always crashing") }
	st, err := d.Submit(coloringSpec(t, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	fin := waitDone(t, d, st.ID)
	if fin.Verdict != VerdictFailed || !fin.Recoverable {
		t.Fatalf("verdict = %+v, want recoverable failure", fin)
	}
	if !strings.Contains(fin.Error, "worker crashed") {
		t.Fatalf("error %q does not name the crash", fin.Error)
	}
	if fin.Attempts != 2 {
		t.Fatalf("attempts = %d, want RetryMax+1 = 2", fin.Attempts)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: -1})
	st, err := d.Submit(coloringSpec(t, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got, err := d.Cancel(st.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if got.State != StateDone || got.Verdict != VerdictCanceled {
		t.Fatalf("after cancel: %+v", got)
	}
	// Canceling again is a no-op returning the same status.
	if again, err := d.Cancel(st.ID); err != nil || again.Verdict != VerdictCanceled {
		t.Fatalf("re-cancel = %+v, %v", again, err)
	}
	if _, err := d.Cancel("j99999999"); err == nil {
		t.Fatalf("cancel of unknown job did not error")
	}
}

func TestDrainFinishesBacklogAndRefusesNewWork(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2, MaxQueue: 16, MaxQueuePerTenant: 16})
	var ids []string
	for i := int64(0); i < 6; i++ {
		st, err := d.Submit(coloringSpec(t, i+1))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := d.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, id := range ids {
		st, ok := d.Get(id)
		if !ok || st.State != StateDone || st.Verdict != VerdictSolved {
			t.Fatalf("after drain, job %s = %+v", id, st)
		}
	}
	if _, err := d.Submit(coloringSpec(t, 9)); !errors.Is(err, errDraining) {
		t.Fatalf("submit after drain err = %v, want errDraining", err)
	}
	if !d.Draining() {
		t.Fatalf("Draining() = false after Drain")
	}
}

func TestJournalRecoveryAfterCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	spec := coloringSpec(t, 7)

	// Phase 1: a daemon with no workers accepts two jobs — journaled, acked,
	// never executed — then dies (Close is the crash-shaped shutdown).
	d1 := newTestDaemon(t, Config{Workers: -1, JournalPath: path})
	a, err := d1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit a: %v", err)
	}
	b, err := d1.Submit(JobSpec{Problem: testProblemJSON(t, insolubleProblem())})
	if err != nil {
		t.Fatalf("Submit b: %v", err)
	}
	d1.Close()

	// Phase 2: restart replays the log and finishes the interrupted jobs.
	d2 := newTestDaemon(t, Config{Workers: 2, JournalPath: path})
	finA := waitDone(t, d2, a.ID)
	finB := waitDone(t, d2, b.ID)
	if finA.Verdict != VerdictSolved || finB.Verdict != VerdictInsoluble {
		t.Fatalf("replayed verdicts = %q, %q", finA.Verdict, finB.Verdict)
	}
	if d2.Registry().Counter("dcspd_jobs_replayed_total").Value() != 2 {
		t.Fatalf("replayed counter != 2")
	}
	if err := d2.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// Phase 3: another restart serves both results from the journal with
	// zero re-execution — the hook counts executions.
	d3 := newTestDaemon(t, Config{Workers: 2, JournalPath: path})
	var executions atomic.Int64
	d3.beforeRun = func(string, int) { executions.Add(1) }
	gotA, ok := d3.Get(a.ID)
	if !ok {
		t.Fatalf("job %s missing after second restart", a.ID)
	}
	gotB, _ := d3.Get(b.ID)
	if gotA.Verdict != VerdictSolved || gotB.Verdict != VerdictInsoluble {
		t.Fatalf("cached verdicts = %q, %q", gotA.Verdict, gotB.Verdict)
	}
	if !gotA.FromJournal || !gotB.FromJournal {
		t.Fatalf("results not marked from_journal: %+v %+v", gotA, gotB)
	}
	// The journaled assignment survives the round trip.
	if len(gotA.Assignment) != 8 {
		t.Fatalf("cached assignment lost: %+v", gotA)
	}
	time.Sleep(50 * time.Millisecond)
	if n := executions.Load(); n != 0 {
		t.Fatalf("restart re-executed %d completed jobs", n)
	}
	if d3.Registry().Counter("dcspd_jobs_cached_total").Value() != 2 {
		t.Fatalf("cached counter != 2")
	}
}

func TestJournalRecoveryOfCancel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	d1 := newTestDaemon(t, Config{Workers: -1, JournalPath: path})
	st, err := d1.Submit(coloringSpec(t, 3))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := d1.Cancel(st.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	d1.Close()

	d2 := newTestDaemon(t, Config{Workers: 2, JournalPath: path})
	got, ok := d2.Get(st.ID)
	if !ok || got.Verdict != VerdictCanceled || !got.FromJournal {
		t.Fatalf("replayed cancel = %+v ok=%v", got, ok)
	}
}

func TestWarmCacheSharedAcrossJobs(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1, WarmStart: true})
	// Seed 6 is an instance whose solve leaves surviving learned nogoods
	// (verified by the cross-run warm-start bench; seeds like 5 solve too
	// cleanly to learn anything worth caching).
	spec := coloringSpec(t, 6)
	first, err := d.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, d, first.ID)
	if n := d.Stats().WarmNogoods; n == 0 {
		t.Fatalf("warm cache empty after a solved AWC job")
	}
	// A second identical instance still reaches the same verdict when
	// warm-started from the first run's learned nogoods.
	second, err := d.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if fin := waitDone(t, d, second.ID); fin.Verdict != VerdictSolved {
		t.Fatalf("warm-started verdict = %q", fin.Verdict)
	}
}

func TestEventsCaptured(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1})
	st, err := d.Submit(coloringSpec(t, 2))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, d, st.ID)
	log, ok := d.events(st.ID)
	if !ok {
		t.Fatalf("events log missing")
	}
	chunk, _, closed, _ := log.snapshot(0)
	if !closed {
		t.Fatalf("event log not closed after completion")
	}
	lines := bytes.Split(bytes.TrimSpace(chunk), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("event stream has %d lines, want meta + end at least", len(lines))
	}
	var meta struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(lines[0], &meta); err != nil || meta.Kind != "meta" {
		t.Fatalf("first event = %s (err %v), want kind meta", lines[0], err)
	}
}

func TestEventLogBounds(t *testing.T) {
	l := newEventLog(32)
	if n, err := l.Write([]byte(strings.Repeat("a", 30) + "\n")); err != nil || n != 31 {
		t.Fatalf("write: %d, %v", n, err)
	}
	// The next event would exceed the cap: dropped whole, no error.
	if _, err := l.Write([]byte("bbbb\n")); err != nil {
		t.Fatalf("over-cap write errored: %v", err)
	}
	if !l.Truncated() {
		t.Fatalf("log not marked truncated")
	}
	chunk, _, _, _ := l.snapshot(0)
	if strings.Contains(string(chunk), "b") {
		t.Fatalf("dropped event leaked into the log: %q", chunk)
	}
}

func TestSubmitAckIsDurable(t *testing.T) {
	// The acknowledgment contract: once Submit returns, the job is in the
	// journal — byte-for-byte recoverable by a fresh jobLog reader.
	path := filepath.Join(t.TempDir(), "jobs.journal")
	d := newTestDaemon(t, Config{Workers: -1, JournalPath: path})
	st, err := d.Submit(coloringSpec(t, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Read the log via a copy while the daemon still holds its own handle —
	// the record must already be on disk.
	entries := readLogCopy(t, path)
	if len(entries) != 1 || entries[0].accept.ID != st.ID || entries[0].done != nil {
		t.Fatalf("journal after ack = %+v", entries)
	}
	if tenant := entries[0].accept.Spec.Tenant; tenant != "default" {
		t.Fatalf("journaled spec lost normalization: tenant %q", tenant)
	}
	d.Close()
}

// readLogCopy replays a journal file via a copy, so the daemon's own handle
// stays untouched.
func readLogCopy(t *testing.T, path string) []replayEntry {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	copyPath := filepath.Join(t.TempDir(), "copy.journal")
	if err := os.WriteFile(copyPath, data, 0o644); err != nil {
		t.Fatalf("write copy: %v", err)
	}
	l, err := openJobLog(copyPath)
	if err != nil {
		t.Fatalf("open copy: %v", err)
	}
	defer l.close()
	entries, err := l.replay()
	if err != nil {
		t.Fatalf("replay copy: %v", err)
	}
	return entries
}

func TestJobLogRejectsTrialJournal(t *testing.T) {
	// A PR-4 trial journal and a job log must never be confused: the format
	// pin in the header makes opening the wrong kind an error.
	path := filepath.Join(t.TempDir(), "trials.journal")
	trial, err := experiments.OpenJournal(path, experiments.JournalMeta{SeedBase: 1, MaxCycles: 100}, true)
	if err != nil {
		t.Fatalf("open trial journal: %v", err)
	}
	trial.Close()
	if _, err := openJobLog(path); err == nil {
		t.Fatalf("job log opened a trial journal")
	}
}
