package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"github.com/discsp/discsp/internal/core"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/sim"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.jsonl")
	meta := JournalMeta{SeedBase: 7, MaxCycles: 100}
	j, err := OpenJournal(path, meta, false)
	if err != nil {
		t.Fatal(err)
	}
	in := TrialResult{Result: sim.Result{Solved: true, Cycles: 42, MaxCCK: 1234}, NogoodsGenerated: 5}
	if err := j.Record("paper/d3c/n20/Rslv/i0/r0", in); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("paper/d3c/n20/Rslv/i0/r1", TrialResult{Result: sim.Result{Cycles: 100}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, meta, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Recovered() != 2 {
		t.Fatalf("recovered %d entries, want 2", j2.Recovered())
	}
	var out TrialResult
	if !j2.Lookup("paper/d3c/n20/Rslv/i0/r0", &out) {
		t.Fatal("journaled trial not found after reopen")
	}
	if !out.Solved || out.Cycles != 42 || out.MaxCCK != 1234 || out.NogoodsGenerated != 5 {
		t.Fatalf("round trip mangled the trial: %+v", out)
	}
	if j2.Lookup("paper/d3c/n20/Rslv/i9/r9", &out) {
		t.Fatal("lookup of unjournaled key succeeded")
	}
}

func TestJournalRefusesExistingWithoutResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.jsonl")
	meta := JournalMeta{SeedBase: 1}
	j, err := OpenJournal(path, meta, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("k", 1); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := OpenJournal(path, meta, false); !errors.Is(err, ErrJournalExists) {
		t.Fatalf("reopen without resume: %v, want ErrJournalExists", err)
	}
}

// TestJournalHeaderOnlyRewritten: a journal holding only its header (a run
// that died before its first trial) has nothing to replay, so reopening it
// without resume rewrites it under the new run's meta; a file holding
// entries, or one that is not a journal, is still refused.
func TestJournalHeaderOnlyRewritten(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trials.jsonl")
	j, err := OpenJournal(path, JournalMeta{SeedBase: 1, MaxCycles: 100}, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	fresh := filepath.Join(dir, "fresh.jsonl")
	meta := JournalMeta{SeedBase: 2, MaxCycles: 300}
	if j, err = OpenJournal(fresh, meta, false); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if j, err = OpenJournal(path, meta, false); err != nil {
		t.Fatalf("reopen of a header-only journal without resume: %v", err)
	}
	if err := j.Record("k", 1); err != nil {
		t.Fatal(err)
	}
	j.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, `{"k":"k","v":1}`+"\n"...); !bytes.Equal(got, want) {
		t.Errorf("rewritten journal holds\n%s\nwant\n%s", got, want)
	}
	if _, err := OpenJournal(path, meta, false); !errors.Is(err, ErrJournalExists) {
		t.Errorf("reopen of a journal with entries: %v, want ErrJournalExists", err)
	}
	notes := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(notes, []byte("just some notes\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(notes, meta, false); !errors.Is(err, ErrJournalExists) {
		t.Errorf("open of a file that is not a journal: %v, want ErrJournalExists", err)
	}
}

func TestJournalMetaMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.jsonl")
	j, err := OpenJournal(path, JournalMeta{SeedBase: 1, MaxCycles: 100}, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := OpenJournal(path, JournalMeta{SeedBase: 2, MaxCycles: 100}, true); !errors.Is(err, ErrJournalMeta) {
		t.Fatalf("seed mismatch: %v, want ErrJournalMeta", err)
	}
	if _, err := OpenJournal(path, JournalMeta{SeedBase: 1, MaxCycles: 200}, true); !errors.Is(err, ErrJournalMeta) {
		t.Fatalf("cutoff mismatch: %v, want ErrJournalMeta", err)
	}
}

// TestJournalTruncatedTail pins the crash-mid-write contract: a torn final
// line (with or without its newline) is dropped on resume, the file is
// truncated back to the last intact entry, and appending continues cleanly.
func TestJournalTruncatedTail(t *testing.T) {
	for _, tail := range []string{
		`{"k":"paper/d3c/n20/Rslv/i1/r0","v":{"Sol`,            // torn mid-JSON, no newline
		`{"k":"paper/d3c/n20/Rslv/i1/r0","v":{"Solved":true}}`, // intact JSON, newline lost
		"\x00\x00\x00", // raw garbage from a torn page write
	} {
		path := filepath.Join(t.TempDir(), "trials.jsonl")
		meta := JournalMeta{SeedBase: 3}
		j, err := OpenJournal(path, meta, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Record("a", TrialResult{Result: sim.Result{Cycles: 1}}); err != nil {
			t.Fatal(err)
		}
		if err := j.Record("b", TrialResult{Result: sim.Result{Cycles: 2}}); err != nil {
			t.Fatal(err)
		}
		j.Close()
		sizeBefore := fileSize(t, path)
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(tail); err != nil {
			t.Fatal(err)
		}
		f.Close()

		j2, err := OpenJournal(path, meta, true)
		if err != nil {
			t.Fatalf("tail %q: resume failed: %v", tail, err)
		}
		if j2.Recovered() != 2 {
			t.Fatalf("tail %q: recovered %d, want 2", tail, j2.Recovered())
		}
		if got := fileSize(t, path); got != sizeBefore {
			t.Fatalf("tail %q: file is %d bytes after resume, want truncation back to %d", tail, got, sizeBefore)
		}
		if err := j2.Record("c", TrialResult{Result: sim.Result{Cycles: 3}}); err != nil {
			t.Fatalf("tail %q: append after truncation: %v", tail, err)
		}
		j2.Close()
		j3, err := OpenJournal(path, meta, true)
		if err != nil {
			t.Fatal(err)
		}
		if j3.Recovered() != 3 {
			t.Fatalf("tail %q: second resume recovered %d, want 3", tail, j3.Recovered())
		}
		j3.Close()
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestJournalCorruptMidFileRefused pins that corruption *followed by more
// entries* — not a crash artifact — is an error, never silent data loss.
func TestJournalCorruptMidFileRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.jsonl")
	meta := JournalMeta{SeedBase: 3}
	j, err := OpenJournal(path, meta, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("a", 1); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("garbage line\n{\"k\":\"b\",\"v\":2}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := OpenJournal(path, meta, true); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

func TestJournalRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(path, []byte("just some notes\nmore notes\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, JournalMeta{}, true); err == nil {
		t.Fatal("resumed from a non-journal file")
	}
}

// flakyAlgorithm wraps alg to fail every trial after the first `allow` to
// start — a deterministic stand-in for a run killed partway through. It
// gates on start order, not completions: at several workers, every trial
// can start before `allow` of them finish. ForEach lets in-flight trials
// finish after the first error, so exactly `allow` trials are journaled and
// the run always fails once it has more than `allow` trials.
func flakyAlgorithm(alg Algorithm, allow int64) Algorithm {
	var started atomic.Int64
	return Algorithm{
		Name: alg.Name,
		Run: func(p *csp.Problem, init csp.SliceAssignment, opts sim.Options) (TrialResult, error) {
			if started.Add(1) > allow {
				return TrialResult{}, fmt.Errorf("injected interruption")
			}
			return alg.Run(p, init, opts)
		},
	}
}

// TestResumeCellDeterminism is the kill-and-resume acceptance check at the
// cell level: a grid interrupted partway (trials journaled up to the kill)
// and resumed with -resume semantics produces a CellResult that is
// bit-identical — float equality included — to an uninterrupted run, at
// more than one worker count.
func TestResumeCellDeterminism(t *testing.T) {
	clean := AWC(core.Learning{Kind: core.LearnResolvent})
	for _, workers := range []int{1, 4} {
		scale := Scale{Instances: 3, Inits: 2, Workers: workers, SeedBase: 11}
		meta := JournalMeta{SeedBase: scale.SeedBase, MaxCycles: scale.maxCycles()}

		baseline, err := RunCell(D3C, 20, clean, scale)
		if err != nil {
			t.Fatal(err)
		}

		path := filepath.Join(t.TempDir(), "trials.jsonl")
		j, err := OpenJournal(path, meta, false)
		if err != nil {
			t.Fatal(err)
		}
		interrupted := scale
		interrupted.Journal = j
		if _, err := RunCell(D3C, 20, flakyAlgorithm(clean, 3), interrupted); err == nil {
			t.Fatal("interrupted run did not fail")
		}
		j.Close()

		j2, err := OpenJournal(path, meta, true)
		if err != nil {
			t.Fatal(err)
		}
		if j2.Recovered() == 0 {
			t.Fatal("nothing journaled before the interruption")
		}
		resumed := scale
		resumed.Journal = j2
		got, err := RunCell(D3C, 20, clean, resumed)
		j2.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got != baseline {
			t.Fatalf("workers=%d: resumed cell differs from uninterrupted run:\n got %+v\nwant %+v", workers, got, baseline)
		}
	}
}

// TestResumeTableByteIdentical is the kill-and-resume acceptance check at
// the table level: a journal with a torn tail (the kill ate the final
// write) resumed into a fresh Table run renders byte-identical output to a
// run that was never interrupted.
func TestResumeTableByteIdentical(t *testing.T) {
	scale := Scale{Ns: []int{20}, Instances: 2, Inits: 2, Workers: 4, SeedBase: 3}
	meta := JournalMeta{SeedBase: scale.SeedBase, MaxCycles: scale.maxCycles()}

	baseline, err := Table1(scale)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := baseline.Fprint(&want); err != nil {
		t.Fatal(err)
	}

	// Run once with a journal, then simulate the kill: chop the file
	// mid-entry so the tail is torn and the last trials are lost.
	path := filepath.Join(t.TempDir(), "trials.jsonl")
	j, err := OpenJournal(path, meta, false)
	if err != nil {
		t.Fatal(err)
	}
	full := scale
	full.Journal = j
	if _, err := Table1(full); err != nil {
		t.Fatal(err)
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-150], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, meta, true)
	if err != nil {
		t.Fatal(err)
	}
	resumed := scale
	resumed.Journal = j2
	table, err := Table1(resumed)
	j2.Close()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := table.Fprint(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("resumed table differs from uninterrupted run:\n--- got ---\n%s--- want ---\n%s", got.String(), want.String())
	}
}
