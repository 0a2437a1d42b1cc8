// Job model for the dcspd daemon: the submit body clients POST, the status
// record they poll, and the validation that separates permanent spec errors
// (rejected up front, never retried) from everything the daemon owes a
// durable answer for once it has acknowledged the job.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/discsp/discsp"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/faults"
)

// State is a job's lifecycle position.
type State string

const (
	// StateQueued marks an accepted job waiting for a solver slot.
	StateQueued State = "queued"
	// StateRunning marks a job occupying a solver slot.
	StateRunning State = "running"
	// StateDone marks a finished job; Verdict says how it finished.
	StateDone State = "done"
)

// Verdict classifies how a done job finished. Timeouts and failures are
// verdicts, not protocol errors: once a job is accepted (journaled and
// acknowledged), every outcome is reported through its status record.
type Verdict string

const (
	// VerdictSolved: a satisfying assignment was found.
	VerdictSolved Verdict = "solved"
	// VerdictInsoluble: the run proved no solution exists.
	VerdictInsoluble Verdict = "insoluble"
	// VerdictExhausted: the synchronous cycle cutoff was hit without a
	// verdict (the paper's censored-run outcome).
	VerdictExhausted Verdict = "exhausted"
	// VerdictTimeout: the job's wall-clock deadline expired — in the queue
	// or mid-run. Report carries the stall watchdog's diagnosis when the
	// run got far enough to have one.
	VerdictTimeout Verdict = "timeout"
	// VerdictFailed: the job did not produce a verdict. Recoverable says
	// whether resubmitting is sensible (a crashed worker) or pointless (a
	// spec the solver rejects).
	VerdictFailed Verdict = "failed"
	// VerdictCanceled: the client withdrew the job before it finished.
	VerdictCanceled Verdict = "canceled"
)

// JobSpec is the submit body. The zero value of every optional field means
// "daemon default". Problem input rides in one of two forms: Format "json"
// embeds the repo's native problem JSON in Problem; Formats "cnf" and "col"
// carry the DIMACS text in Text.
type JobSpec struct {
	// Tenant attributes the job for quotas, fair-share weighting, and
	// per-tenant metrics; empty means the "default" tenant.
	Tenant string `json:"tenant,omitempty"`
	// Weight is the tenant's fair-share weight (1..16, default 1): a
	// tenant with weight 4 is scheduled four times as often as a tenant
	// with weight 1 when both have jobs queued. The last submitted weight
	// wins for the tenant.
	Weight int `json:"weight,omitempty"`
	// DeadlineMS bounds the job's wall-clock lifetime from acceptance,
	// queue wait included; 0 means the daemon default, and values above
	// the daemon maximum are clamped.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Runtime selects the execution runtime: "sync" (default; the
	// deterministic simulator, cycle-bounded), "async" (goroutine per
	// agent, deadline-bounded), or "tcp" (real sockets, deadline-bounded).
	Runtime string `json:"runtime,omitempty"`
	// Algorithm is "awc" (default), "db", or "abt".
	Algorithm string `json:"algorithm,omitempty"`
	// Learning is AWC's strategy: "rslv" (default), "mcs", or "none".
	Learning string `json:"learning,omitempty"`
	// K bounds learned-nogood size (kthRslv); 0 = unrestricted.
	K int `json:"k,omitempty"`
	// Seed draws random initial values; 0 means first-domain-value start.
	Seed int64 `json:"seed,omitempty"`
	// MaxCycles overrides the sync cutoff; clamped to the daemon cap.
	MaxCycles int `json:"max_cycles,omitempty"`
	// Retention overrides the daemon's nogood retention policy ("all",
	// "lru:512", "activity:512").
	Retention string `json:"retention,omitempty"`
	// FaultProfile injects a deterministic fault schedule (async/tcp
	// runtimes; faults.ProfileSyntax) — the chaos suite as a service.
	FaultProfile string `json:"fault_profile,omitempty"`
	// FaultSeed seeds the fault schedule; 0 means 1.
	FaultSeed int64 `json:"fault_seed,omitempty"`
	// Format names the problem encoding: "json" (default), "cnf", "col".
	Format string `json:"format,omitempty"`
	// Colors is the palette size for "col" problems; 0 means 3.
	Colors int `json:"colors,omitempty"`
	// Problem is the native problem JSON (Format "json").
	Problem json.RawMessage `json:"problem,omitempty"`
	// Text is the DIMACS source (Formats "cnf" and "col").
	Text string `json:"text,omitempty"`
	// SyntheticDelayMS makes the worker sleep before solving — a load- and
	// crash-testing aid (it widens the window in which a job is observably
	// running). Rejected unless the daemon enables synthetic faults.
	SyntheticDelayMS int64 `json:"synthetic_delay_ms,omitempty"`
	// Causal captures the job's causal trace stream (schema-3 span events)
	// into a second bounded buffer served by GET /v1/jobs/{id}/trace —
	// feed it to dcsptrace -critical-path / -provenance / -perfetto. The
	// buffer is memory-only: a restart replays the job's verdict from the
	// journal, not its trace bytes. Tracing is observationally inert; the
	// verdict is identical with it on or off.
	Causal bool `json:"causal,omitempty"`
}

// SpecError marks a permanently malformed submission: the request is
// rejected before acceptance (HTTP 400) and must not be retried as-is.
type SpecError struct{ msg string }

func (e *SpecError) Error() string { return e.msg }

func specErrf(format string, args ...any) error {
	return &SpecError{msg: fmt.Sprintf(format, args...)}
}

// normalize validates the spec against the daemon's limits, fills defaults
// in place, and returns the problem it parsed to validate it, so a submit
// costs one parse. Every error is a *SpecError — the permanent class.
func (s *JobSpec) normalize(cfg *Config) (*csp.Problem, error) {
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	if len(s.Tenant) > 64 || strings.ContainsAny(s.Tenant, " \t\n/") {
		return nil, specErrf("tenant %q: want a short name without spaces or slashes", s.Tenant)
	}
	if s.Weight == 0 {
		s.Weight = 1
	}
	if s.Weight < 1 || s.Weight > maxTenantWeight {
		return nil, specErrf("weight %d out of range [1,%d]", s.Weight, maxTenantWeight)
	}
	if s.DeadlineMS < 0 {
		return nil, specErrf("deadline_ms %d is negative", s.DeadlineMS)
	}
	if s.DeadlineMS == 0 {
		s.DeadlineMS = cfg.DefaultDeadline.Milliseconds()
	}
	if max := cfg.MaxDeadline.Milliseconds(); s.DeadlineMS > max {
		s.DeadlineMS = max
	}
	switch s.Runtime {
	case "":
		s.Runtime = "sync"
	case "sync", "async", "tcp":
	default:
		return nil, specErrf("runtime %q: want sync, async, or tcp", s.Runtime)
	}
	if s.Algorithm == "" {
		s.Algorithm = "awc"
	}
	if _, err := discsp.ParseAlgorithm(s.Algorithm); err != nil {
		return nil, specErrf("%v", err)
	}
	if s.Learning == "" {
		s.Learning = "rslv"
	}
	if _, err := discsp.ParseLearning(s.Learning); err != nil {
		return nil, specErrf("%v", err)
	}
	if s.K < 0 {
		return nil, specErrf("k %d is negative", s.K)
	}
	if s.MaxCycles < 0 {
		return nil, specErrf("max_cycles %d is negative", s.MaxCycles)
	}
	if s.MaxCycles == 0 || s.MaxCycles > cfg.MaxCyclesCap {
		s.MaxCycles = cfg.MaxCyclesCap
	}
	if s.Retention != "" {
		if _, err := discsp.ParseRetention(s.Retention); err != nil {
			return nil, specErrf("%v", err)
		}
	}
	if s.FaultProfile != "" {
		if s.Runtime == "sync" {
			return nil, specErrf("fault_profile needs the async or tcp runtime (sync has no network)")
		}
		seed := s.FaultSeed
		if seed == 0 {
			seed = 1
		}
		if _, err := faults.ParseProfile(s.FaultProfile, seed); err != nil {
			return nil, specErrf("%v", err)
		}
	}
	if s.SyntheticDelayMS < 0 {
		return nil, specErrf("synthetic_delay_ms %d is negative", s.SyntheticDelayMS)
	}
	if s.SyntheticDelayMS > 0 && !cfg.AllowSyntheticDelay {
		return nil, specErrf("synthetic_delay_ms requires the daemon's -synthetic-delay flag")
	}
	switch s.Format {
	case "":
		s.Format = "json"
	case "json", "cnf", "col":
	default:
		return nil, specErrf("format %q: want json, cnf, or col", s.Format)
	}
	if s.Colors == 0 {
		s.Colors = 3
	}
	if s.Colors < 2 {
		return nil, specErrf("colors %d: want at least 2", s.Colors)
	}
	// Parse the problem once here so a malformed instance is a permanent
	// 400 at the door, never an accepted job that can only fail.
	p, err := s.problem()
	if err != nil {
		return nil, err
	}
	if n := p.NumVars(); n > cfg.MaxVars {
		return nil, specErrf("problem has %d variables; this daemon caps jobs at %d", n, cfg.MaxVars)
	}
	return p, nil
}

// problem parses the spec's problem payload. Errors are *SpecError.
func (s *JobSpec) problem() (*csp.Problem, error) {
	switch s.Format {
	case "json":
		if len(s.Problem) == 0 {
			return nil, specErrf("format json needs a problem object")
		}
		p, err := csp.ReadProblemJSON(bytes.NewReader(s.Problem))
		if err != nil {
			return nil, specErrf("%v", err)
		}
		return p, nil
	case "cnf":
		if s.Text == "" {
			return nil, specErrf("format cnf needs the DIMACS text in \"text\"")
		}
		cnf, err := csp.ParseCNF(strings.NewReader(s.Text))
		if err != nil {
			return nil, specErrf("%v", err)
		}
		p, err := cnf.Problem()
		if err != nil {
			return nil, specErrf("%v", err)
		}
		return p, nil
	case "col":
		if s.Text == "" {
			return nil, specErrf("format col needs the DIMACS text in \"text\"")
		}
		g, err := csp.ParseCOL(strings.NewReader(s.Text))
		if err != nil {
			return nil, specErrf("%v", err)
		}
		p, err := g.Problem(s.Colors)
		if err != nil {
			return nil, specErrf("%v", err)
		}
		return p, nil
	default:
		return nil, specErrf("format %q: want json, cnf, or col", s.Format)
	}
}

// options builds the discsp.Options for one attempt. timeout bounds the
// async/tcp runtimes (ignored by sync, whose budget is MaxCycles).
func (s *JobSpec) options(timeout time.Duration, defaultRetention discsp.Retention, cache *discsp.NogoodCache) discsp.Options {
	opts := discsp.Options{
		InitialSeed:       s.Seed,
		MaxCycles:         s.MaxCycles,
		Timeout:           timeout,
		LearningSizeBound: s.K,
		FaultProfile:      s.FaultProfile,
		FaultSeed:         s.FaultSeed,
		Retention:         defaultRetention,
	}
	// normalize already vetted the names and the retention syntax.
	opts.Algorithm, _ = discsp.ParseAlgorithm(s.Algorithm)
	opts.Learning, _ = discsp.ParseLearning(s.Learning)
	if s.Retention != "" {
		opts.Retention, _ = discsp.ParseRetention(s.Retention)
	}
	// Warm-start only where the harvest loop exists: AWC. The cache keys
	// by instance signature, so repeated tenant instances get cheaper.
	if s.Algorithm == "awc" && s.Runtime == "sync" {
		opts.WarmCache = cache
	}
	return opts
}

// JobStatus is the wire form of a job's state, served by GET /v1/jobs/{id}
// and returned by submit.
type JobStatus struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	State  State  `json:"state"`
	// Verdict and its context; set once State is done.
	Verdict     Verdict `json:"verdict,omitempty"`
	Recoverable bool    `json:"recoverable,omitempty"`
	Error       string  `json:"error,omitempty"`
	// Report is the stall watchdog's diagnosis on timeout verdicts —
	// stalled / livelock / converging with per-agent progress — instead of
	// a bare "deadline exceeded".
	Report   string `json:"report,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	// Solver results (meaningful per runtime; zero otherwise).
	Solved      bool  `json:"solved,omitempty"`
	Insoluble   bool  `json:"insoluble,omitempty"`
	Assignment  []int `json:"assignment,omitempty"`
	Cycles      int   `json:"cycles,omitempty"`
	MaxCCK      int64 `json:"maxcck,omitempty"`
	TotalChecks int64 `json:"total_checks,omitempty"`
	Messages    int64 `json:"messages,omitempty"`
	// Timing: queue wait and run time in milliseconds.
	QueueMS int64 `json:"queue_ms"`
	RunMS   int64 `json:"run_ms,omitempty"`
	// FromJournal marks a result served from the job log after a restart —
	// the job was not executed again.
	FromJournal bool `json:"from_journal,omitempty"`
	// EventsTruncated reports that the job's progress-event buffer hit its
	// cap and later events were dropped (the job itself was unaffected).
	EventsTruncated bool `json:"events_truncated,omitempty"`
	// TraceTruncated reports that the job's causal-trace buffer hit its cap;
	// the served trace will fail dcsptrace's completeness check (its closing
	// end event was dropped with the rest of the tail).
	TraceTruncated bool `json:"trace_truncated,omitempty"`
}

// job is the daemon's in-memory record of one accepted submission.
type job struct {
	id        string
	seq       int64
	spec      JobSpec
	problem   *csp.Problem
	submitted time.Time
	deadline  time.Time
	events    *eventLog
	trace     *eventLog // causal trace capture; nil unless spec.Causal

	mu        sync.Mutex
	state     State
	attempts  int
	started   time.Time
	canceled  bool // cancel requested; honored at the next boundary
	status    JobStatus
	done      chan struct{}
	replayed  bool // re-enqueued by journal replay after a restart
	fromCache bool // completed result restored from the journal
}

func newJob(id string, seq int64, spec JobSpec, p *csp.Problem, now time.Time) *job {
	j := &job{
		id:        id,
		seq:       seq,
		spec:      spec,
		problem:   p,
		submitted: now,
		deadline:  now.Add(time.Duration(spec.DeadlineMS) * time.Millisecond),
		events:    newEventLog(eventLimit),
		state:     StateQueued,
		done:      make(chan struct{}),
	}
	if spec.Causal {
		j.trace = newEventLog(traceLimit)
	}
	return j
}

// snapshot renders the job's current JobStatus.
func (j *job) snapshot(now time.Time) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.status
	st.ID = j.id
	st.Tenant = j.spec.Tenant
	st.State = j.state
	st.Attempts = j.attempts
	st.FromJournal = j.fromCache
	st.EventsTruncated = j.events.Truncated()
	if j.trace != nil {
		st.TraceTruncated = j.trace.Truncated()
	}
	switch j.state {
	case StateQueued:
		st.QueueMS = now.Sub(j.submitted).Milliseconds()
	case StateRunning:
		st.QueueMS = j.started.Sub(j.submitted).Milliseconds()
		st.RunMS = now.Sub(j.started).Milliseconds()
	}
	return st
}

// markRunning transitions queued→running; false when a cancel won the race.
func (j *job) markRunning(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.canceled {
		return false
	}
	j.state = StateRunning
	j.started = now
	return true
}

// complete finalizes the job with st (the caller fills timing fields). A
// second completion is a programming error; the closed done channel makes
// it loud.
func (j *job) complete(st JobStatus) {
	j.mu.Lock()
	j.state = StateDone
	j.status = st
	j.mu.Unlock()
	j.events.closeLog()
	if j.trace != nil {
		j.trace.closeLog()
	}
	close(j.done)
}

// errDraining is returned by Submit while the daemon is draining.
var errDraining = errors.New("service: daemon is draining; not admitting jobs")
