//go:build !race

package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/experiments"
)

// TestSubmitParsesProblemOnce pins the accept path to one parse of the
// job's problem: normalize parses the body to validate it, and Submit must
// reuse that parse rather than decode the same bytes again. The body is
// what a dcspd-mixed job carries, a compacted d3c instance with n=30. The
// daemon runs no workers and no journal, so Submit's allocations are the
// parse plus the job's own bookkeeping.
func TestSubmitParsesProblemOnce(t *testing.T) {
	p, err := experiments.MakeInstance(experiments.D3C, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	body := compactBody(t, p)
	parse := testing.AllocsPerRun(20, func() {
		if _, err := csp.ReadProblemJSON(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	})
	d := newTestDaemon(t, Config{Workers: -1, MaxQueue: 1024, MaxQueuePerTenant: 1024})
	submit := testing.AllocsPerRun(20, func() {
		if _, err := d.Submit(JobSpec{Problem: body}); err != nil {
			t.Fatal(err)
		}
	})
	if bound := parse + 50; submit > bound {
		t.Errorf("Submit allocates %.0f times, above one parse (%.0f) plus 50", submit, parse)
	}
}

// compactBody is p as a client sends it: compacted native problem JSON.
func compactBody(t *testing.T, p *csp.Problem) []byte {
	t.Helper()
	var body bytes.Buffer
	if err := json.Compact(&body, testProblemJSON(t, p)); err != nil {
		t.Fatal(err)
	}
	return body.Bytes()
}

// TestReplayParsesOnlyWhatItReruns: a restart on a journal of finished
// jobs parses none of their bodies, so it allocates well under one parse
// per job. The journal holds 20 done and 20 canceled d3c n=30 jobs.
func TestReplayParsesOnlyWhatItReruns(t *testing.T) {
	p, err := experiments.MakeInstance(experiments.D3C, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	body := compactBody(t, p)
	parse := testing.AllocsPerRun(20, func() {
		if _, err := csp.ReadProblemJSON(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	})
	path := filepath.Join(t.TempDir(), "jobs.journal")
	l, err := openJobLog(path)
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 40
	for i := 1; i <= jobs; i++ {
		id := fmt.Sprintf("j%08d", i)
		rec := acceptRecord{ID: id, Seq: int64(i), Spec: JobSpec{Tenant: "default", Format: "json", Colors: 3, Problem: body}}
		if err := l.recordAccept(rec); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			err = l.recordCancel(id)
		} else {
			err = l.recordDone(id, doneRecord{Verdict: VerdictSolved, Attempts: 1})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	restart := testing.AllocsPerRun(3, func() {
		d, err := New(Config{Workers: -1, JournalPath: path, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		d.Close()
	})
	if bound := jobs * parse / 2; restart > bound {
		t.Errorf("a restart on %d finished jobs allocates %.0f times, above half a parse (%.0f) per job", jobs, restart, parse)
	}
}

// TestFinishedJobRetainedHeap bounds what a daemon keeps per finished job
// of the dcspd-mixed class mix (bench/main.go), submitted with a journal:
// the live heap may grow by at most 28 KB a job. A finished job keeps its
// status and its event log; its instance (about 28 KB for d3c n=30), its
// body (about 10 KB) and any copy of its accept record are gone.
func TestFinishedJobRetainedHeap(t *testing.T) {
	classes := []struct {
		count    int
		runtime  string
		kind     experiments.ProblemKind
		n        int
		learning string
	}{
		{12, "sync", experiments.D3C, 30, "rslv"},
		{4, "sync", experiments.D3S, 30, "mcs"},
		{3, "async", experiments.D3C, 30, "rslv"},
		{1, "tcp", experiments.D3C, 12, "rslv"},
	}
	d := newTestDaemon(t, Config{Workers: 2, MaxQueue: 1024, MaxQueuePerTenant: 1024,
		JournalPath: filepath.Join(t.TempDir(), "jobs.journal")})
	var key int64
	block := func() int {
		var ids []string
		for _, c := range classes {
			for i := 0; i < c.count; i++ {
				key++
				p, err := experiments.MakeInstance(c.kind, c.n, key)
				if err != nil {
					t.Fatal(err)
				}
				st, err := d.Submit(JobSpec{Runtime: c.runtime, Learning: c.learning, Seed: key, Problem: compactBody(t, p)})
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				ids = append(ids, st.ID)
			}
		}
		for _, id := range ids {
			if fin := waitDone(t, d, id); fin.Verdict != VerdictSolved {
				t.Fatalf("job %s: %+v", id, fin)
			}
		}
		return len(ids)
	}
	block() // the first jobs create the registry's series
	before := liveHeap()
	jobs := 0
	for i := 0; i < 5; i++ {
		jobs += block()
	}
	perJob := (int64(liveHeap()) - int64(before)) / int64(jobs)
	t.Logf("%d finished jobs retain %d bytes each", jobs, perJob)
	if perJob > 28<<10 {
		t.Errorf("a finished job retains %d KB, want at most 28 KB", perJob>>10)
	}
}

// liveHeap returns the heap in use after two full collections, the
// second of which frees what sync.Pool caches kept through the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
