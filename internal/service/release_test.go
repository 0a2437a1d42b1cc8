package service

import (
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// released reports whether job id holds neither a decoded instance nor a
// problem body.
func released(d *Daemon, id string) bool {
	d.mu.Lock()
	j := d.jobs[id]
	d.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.problem == nil && j.spec.Problem == nil && j.spec.Text == ""
}

// pathSpec is a three-vertex path in DIMACS col text, the body form of a
// text job.
func pathSpec() JobSpec {
	return JobSpec{Format: "col", Text: "p edge 3 2\ne 1 2\ne 2 3\n"}
}

// TestCompleteReleasesInstanceAndBody: a queued job holds its instance and
// body, and every way a job ends — a verdict, a cancel in the queue, a
// queue expiry — drops both. Replay is the fourth way, in
// TestReplayKeepsOnlyWhatItServes.
func TestCompleteReleasesInstanceAndBody(t *testing.T) {
	t.Run("verdict", func(t *testing.T) {
		d := newTestDaemon(t, Config{Workers: 1})
		for name, spec := range map[string]JobSpec{"json": coloringSpec(t, 1), "col": pathSpec()} {
			st, err := d.Submit(spec)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			if fin := waitDone(t, d, st.ID); fin.Verdict != VerdictSolved {
				t.Fatalf("verdict = %+v, want solved", fin)
			}
			if !released(d, st.ID) {
				t.Errorf("%s job keeps its instance or body after its verdict", name)
			}
		}
	})
	t.Run("cancel in queue", func(t *testing.T) {
		d := newTestDaemon(t, Config{Workers: -1})
		st, err := d.Submit(pathSpec())
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if released(d, st.ID) {
			t.Fatal("a queued job holds no instance or body")
		}
		if got, err := d.Cancel(st.ID); err != nil || got.Verdict != VerdictCanceled {
			t.Fatalf("Cancel = %+v, %v", got, err)
		}
		if !released(d, st.ID) {
			t.Error("a job canceled in the queue keeps its instance or body")
		}
	})
	t.Run("queue expiry", func(t *testing.T) {
		d := newTestDaemon(t, Config{Workers: 1})
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
		if fin := waitDone(t, d, doomed.ID); fin.Verdict != VerdictTimeout {
			t.Fatalf("verdict = %+v, want timeout", fin)
		}
		if !released(d, doomed.ID) {
			t.Error("a job expired in the queue keeps its instance or body")
		}
		waitDone(t, d, first.ID)
	})
}

// TestReplayKeepsOnlyWhatItServes restarts a daemon on a journal holding a
// done, a canceled and an unfinished job, with a variable cap below their
// instances' size. The done and canceled jobs are served from the journal
// as they were, since replay never parses a finished job's body; the
// unfinished one, whose body the cap now rejects, fails permanently. None
// of the three keeps an instance or a body.
func TestReplayKeepsOnlyWhatItServes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	d0 := newTestDaemon(t, Config{Workers: 1, JournalPath: path})
	done, err := d0.Submit(coloringSpec(t, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, d0, done.ID)
	d0.Close()
	d1 := newTestDaemon(t, Config{Workers: -1, JournalPath: path})
	canceled, err := d1.Submit(coloringSpec(t, 2))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := d1.Cancel(canceled.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	unfinished, err := d1.Submit(coloringSpec(t, 3))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	d1.Close()

	// The instances have 8 variables.
	d2 := newTestDaemon(t, Config{Workers: 1, JournalPath: path, MaxVars: 4})
	var executions atomic.Int64
	d2.beforeRun = func(string, int) { executions.Add(1) }
	if got, _ := d2.Get(done.ID); got.Verdict != VerdictSolved || !got.FromJournal || len(got.Assignment) != 8 {
		t.Errorf("done job after restart = %+v", got)
	}
	if got, _ := d2.Get(canceled.ID); got.Verdict != VerdictCanceled || !got.FromJournal {
		t.Errorf("canceled job after restart = %+v", got)
	}
	fin := waitDone(t, d2, unfinished.ID)
	if fin.Verdict != VerdictFailed || fin.Recoverable || !strings.Contains(fin.Error, "caps jobs at 4") {
		t.Errorf("unfinished job over the new cap = %+v, want a permanent failure naming the cap", fin)
	}
	if n := executions.Load(); n != 0 {
		t.Errorf("restart executed %d jobs", n)
	}
	for _, id := range []string{done.ID, canceled.ID, unfinished.ID} {
		if !released(d2, id) {
			t.Errorf("replayed job %s keeps its instance or body", id)
		}
	}
}
