// The durable job log: dcspd's crash-survivability rides on the PR-4
// journal machinery (internal/experiments) — an append-only JSONL file with
// fsync-per-record durability, exact torn-tail truncation, and refusal of
// mid-file corruption. The service pins its own JournalMeta.Format so a job
// log and a trial journal can never be mistaken for each other.
//
// Three record classes, all keyed by job id:
//
//	accept/<id>  the full spec — written and fsync'd BEFORE the submit is
//	             acknowledged, so an accepted job survives any crash
//	done/<id>    the final status — written before the job is reported done
//	cancel/<id>  a withdrawal of a still-queued job
//
// Restart replays the log: accept+done serves the cached result with no
// re-execution; accept+cancel stays canceled; accept alone re-enqueues the
// job, which re-runs deterministically (same spec, same seed).
package service

import (
	"fmt"
	"strings"
	"time"

	"github.com/discsp/discsp/internal/experiments"
	"github.com/discsp/discsp/internal/telemetry"
)

// jobLogFormat is the JournalMeta.Format pin; bump the suffix on any
// incompatible record change.
const jobLogFormat = "dcspd-jobs/1"

// acceptRecord is the journaled form of an accepted submission.
type acceptRecord struct {
	ID   string  `json:"id"`
	Seq  int64   `json:"seq"`
	Spec JobSpec `json:"spec"`
}

// doneRecord is the journaled form of a final status. It is the JobStatus
// minus the fields that are recomputed per process (state, from_journal).
type doneRecord struct {
	Verdict     Verdict `json:"verdict"`
	Recoverable bool    `json:"recoverable,omitempty"`
	Error       string  `json:"error,omitempty"`
	Report      string  `json:"report,omitempty"`
	Attempts    int     `json:"attempts"`
	Solved      bool    `json:"solved,omitempty"`
	Insoluble   bool    `json:"insoluble,omitempty"`
	Assignment  []int   `json:"assignment,omitempty"`
	Cycles      int     `json:"cycles,omitempty"`
	MaxCCK      int64   `json:"maxcck,omitempty"`
	TotalChecks int64   `json:"total_checks,omitempty"`
	Messages    int64   `json:"messages,omitempty"`
	QueueMS     int64   `json:"queue_ms"`
	RunMS       int64   `json:"run_ms,omitempty"`
}

func (r doneRecord) status() JobStatus {
	return JobStatus{
		Verdict: r.Verdict, Recoverable: r.Recoverable, Error: r.Error,
		Report: r.Report, Attempts: r.Attempts, Solved: r.Solved,
		Insoluble: r.Insoluble, Assignment: r.Assignment, Cycles: r.Cycles,
		MaxCCK: r.MaxCCK, TotalChecks: r.TotalChecks, Messages: r.Messages,
		QueueMS: r.QueueMS, RunMS: r.RunMS,
	}
}

func toDoneRecord(st JobStatus) doneRecord {
	return doneRecord{
		Verdict: st.Verdict, Recoverable: st.Recoverable, Error: st.Error,
		Report: st.Report, Attempts: st.Attempts, Solved: st.Solved,
		Insoluble: st.Insoluble, Assignment: st.Assignment, Cycles: st.Cycles,
		MaxCCK: st.MaxCCK, TotalChecks: st.TotalChecks, Messages: st.Messages,
		QueueMS: st.QueueMS, RunMS: st.RunMS,
	}
}

// recordUSBuckets sizes the job-log record histogram (microseconds): a
// record is an encode, a write and an fsync, a fraction of a millisecond
// on a local disk and tens of milliseconds on a slow one.
var recordUSBuckets = []int64{25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 100_000, 1_000_000}

// jobLog wraps the experiments journal with the service's key scheme. A nil
// jobLog is the no-durability configuration; every method no-ops.
type jobLog struct {
	j *experiments.Journal
	// recordUS observes how long each record took, encode, write and
	// fsync together; nil observes nothing.
	recordUS *telemetry.Histogram
}

// openJobLog opens (or creates) the job log at path. An existing file is
// always resumed — that is the point of a job log.
func openJobLog(path string) (*jobLog, error) {
	j, err := experiments.OpenJournal(path, experiments.JournalMeta{Format: jobLogFormat}, true)
	if err != nil {
		return nil, fmt.Errorf("service: job log: %w", err)
	}
	return &jobLog{j: j}, nil
}

func (l *jobLog) recordAccept(rec acceptRecord) error {
	return l.record("accept/"+rec.ID, rec)
}

func (l *jobLog) recordDone(id string, rec doneRecord) error {
	return l.record("done/"+id, rec)
}

func (l *jobLog) recordCancel(id string) error {
	return l.record("cancel/"+id, struct{}{})
}

// record journals v under key and times it.
func (l *jobLog) record(key string, v any) error {
	if l == nil {
		return nil
	}
	start := time.Now()
	err := l.j.Record(key, v)
	l.recordUS.Observe(time.Since(start).Microseconds())
	return err
}

// replayEntry is one accepted job recovered from the log. A finished job's
// spec carries no problem body: nothing reads it again.
type replayEntry struct {
	accept   acceptRecord
	done     *doneRecord // nil: the job never finished — re-run it
	canceled bool
}

// replay walks the log and reconstructs every accepted job, in submission
// (seq) order courtesy of Keys' sort over the zero-padded ids.
func (l *jobLog) replay() ([]replayEntry, error) {
	if l == nil {
		return nil, nil
	}
	var out []replayEntry
	for _, key := range l.j.Keys() {
		id, ok := strings.CutPrefix(key, "accept/")
		if !ok {
			continue
		}
		var e replayEntry
		if !l.j.Lookup(key, &e.accept) {
			return nil, fmt.Errorf("service: job log: accept record for %s is malformed", id)
		}
		var d doneRecord
		if l.j.Lookup("done/"+id, &d) {
			e.done = &d
		}
		e.canceled = l.j.Has("cancel/" + id)
		if e.done != nil || e.canceled {
			e.accept.Spec.Problem, e.accept.Spec.Text = nil, ""
		}
		out = append(out, e)
	}
	return out, nil
}

func (l *jobLog) close() error {
	if l == nil {
		return nil
	}
	return l.j.Close()
}
