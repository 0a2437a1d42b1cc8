package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"github.com/discsp/discsp/internal/sim"
)

// compatRecords are the entries of testdata/journal_v1.jsonl, in the order
// they were recorded: a harness trial, dcspd-style keys, keys that JSON
// escapes, values that hold the entry framing, and a key recorded twice.
var compatRecords = []struct {
	key string
	v   any
}{
	{"paper/d3c/n20/Rslv/i0/r0", TrialResult{Result: sim.Result{Solved: true, Cycles: 42, MaxCCK: 1234}, NogoodsGenerated: 5}},
	{"accept/j00000001", map[string]any{"id": "j00000001", "seq": 1, "spec": map[string]any{"tenant": "a<b>&c", "problem": map[string]any{"domains": [][]int{{0, 1}}, "nogoods": [][]any{}}}}},
	{"done/j00000001", map[string]any{"verdict": "solved", "attempts": 1, "assignment": []int{1}}},
	{"cancel/j00000002", struct{}{}},
	{`quote"back\slash`, "plain"},
	{"tab\tnew\nline sep", 7},
	{"<html>&amp;", []string{`,"v":`, `{"k":"x","v":1}`}},
	{"unicode ✓ é", map[string]string{"s": `,"v":{"k":"y"}`}},
	{`,"v":`, nil},
	{"dup", 1},
	{"dup", map[string]int{"second": 2}},
}

// compatMeta is the meta testdata/journal_v1.jsonl was written under.
var compatMeta = JournalMeta{SeedBase: 1, MaxCycles: 10000}

// TestJournalResumesEarlierFile resumes testdata/journal_v1.jsonl, written
// by the journal when it still kept every entry's bytes in memory: Lookup
// must return each entry's value as recorded, the last one for a key
// recorded twice, and recording the same entries now must write the same
// bytes.
func TestJournalResumesEarlierFile(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "journal_v1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "resumed.jsonl")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, compatMeta, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Recovered() != len(compatRecords) {
		t.Fatalf("recovered %d entries, want %d", j.Recovered(), len(compatRecords))
	}
	want := make(map[string]any)
	for _, r := range compatRecords {
		raw, err := json.Marshal(r.v)
		if err != nil {
			t.Fatal(err)
		}
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatal(err)
		}
		want[r.key] = v
	}
	for key, v := range want {
		var got any
		if !j.Lookup(key, &got) {
			t.Errorf("Lookup(%q) found nothing", key)
		} else if !reflect.DeepEqual(got, v) {
			t.Errorf("Lookup(%q) = %#v, want %#v", key, got, v)
		}
	}
	var trial TrialResult
	if !j.Lookup(compatRecords[0].key, &trial) || !reflect.DeepEqual(trial, compatRecords[0].v) {
		t.Errorf("Lookup(%q) = %+v, want %+v", compatRecords[0].key, trial, compatRecords[0].v)
	}

	fresh := filepath.Join(dir, "fresh.jsonl")
	j2, err := OpenJournal(fresh, compatMeta, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range compatRecords {
		if err := j2.Record(r.key, r.v); err != nil {
			t.Fatal(err)
		}
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(fresh); err != nil || !bytes.Equal(got, fixture) {
		t.Errorf("recording the fixture's entries wrote\n%s\nwant\n%s (err %v)", got, fixture, err)
	}
}

// journalFsizeEnv names the journal file of the child process of
// TestJournalFailedAppendTruncates.
const journalFsizeEnv = "DISCSP_JOURNAL_FSIZE_CHILD"

// TestJournalFailedAppendTruncates pins that a write failing part-way
// leaves no partial line: a file-size limit cuts one entry's write short,
// the journal reports the error, and the entries recorded after it load
// on resume. Left in place, the partial line would merge with the next
// entry, and resume would drop that entry as a torn tail or, with more
// entries after it, refuse the file as corrupt mid-file. The limit is set
// in a child process of the test binary, so no other test's writes are
// limited; Go ignores SIGXFSZ, so the write returns EFBIG.
func TestJournalFailedAppendTruncates(t *testing.T) {
	if path := os.Getenv(journalFsizeEnv); path != "" {
		failAppendUnderFsizeLimit(t, path)
		return
	}
	path := filepath.Join(t.TempDir(), "trials.jsonl")
	cmd := exec.Command(os.Args[0], "-test.run=^TestJournalFailedAppendTruncates$", "-test.count=1")
	cmd.Env = append(os.Environ(), journalFsizeEnv+"="+path)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	j, err := OpenJournal(path, JournalMeta{SeedBase: 9}, true)
	if err != nil {
		t.Fatalf("resume after a failed append: %v", err)
	}
	defer j.Close()
	for key, want := range map[string]bool{"a": true, "b": false, "c": true, "d": true} {
		var got int
		if ok := j.Lookup(key, &got); ok != want {
			t.Errorf("Lookup(%q) = %v, want %v", key, ok, want)
		} else if ok && got != len(key) {
			t.Errorf("Lookup(%q) = %d, want %d", key, got, len(key))
		}
	}
	if j.Recovered() != 3 {
		t.Errorf("recovered %d entries, want 3", j.Recovered())
	}
}

// failAppendUnderFsizeLimit is the child half of
// TestJournalFailedAppendTruncates: it records "a", limits the file size
// to 200 bytes past it, fails to record a 1 KB "b", and records "c" and "d"
// within the limit.
func failAppendUnderFsizeLimit(t *testing.T, path string) {
	j, err := OpenJournal(path, JournalMeta{SeedBase: 9}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Record("a", 1); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	limit := uint64(st.Size() + 200)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: limit, Max: limit}); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	if err := j.Record("b", strings.Repeat("x", 1024)); !errors.Is(err, syscall.EFBIG) {
		t.Fatalf("Record past the size limit: %v, want EFBIG", err)
	}
	if st, err := os.Stat(path); err != nil || uint64(st.Size()) >= limit {
		t.Fatalf("journal holds %d bytes after the failed append, want the %d before it (err %v)", st.Size(), limit-200, err)
	}
	for _, key := range []string{"c", "d"} {
		if err := j.Record(key, len(key)); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzJournalLoad holds a resumed journal to its load contract on any
// entry bytes after a valid header: OpenJournal either refuses the file or
// loads exactly its intact prefix (the complete lines that decode to an
// entry with a key), truncating the rest; every Lookup returns what
// encoding/json decodes from that key's last line; and a Record after the
// load is read back by the next resume. A body of intact lines alone is
// never refused.
func FuzzJournalLoad(f *testing.F) {
	valid := `{"k":"paper/d3c/n20/Rslv/i0/r0","v":{"Solved":true,"Cycles":42}}` + "\n" +
		`{"k":"accept/j00000001","v":{"id":"j00000001","seq":1}}` + "\n"
	for _, body := range []string{
		valid,
		// Torn tails: mid-JSON, intact JSON without its newline, garbage.
		valid + `{"k":"b","v":{"Sol`,
		valid + `{"k":"b","v":{"Solved":true}}`,
		valid + "\x00\x00\x00",
		// A partial line merged with the intact lines after it.
		valid + `{"k":"b","v":"xxxx{"k":"c","v":3}` + "\n" + `{"k":"d","v":4}` + "\n",
		valid + `{"k":"b","v":"xxxx{"k":"c","v":3}` + "\n",
		// Escaped keys and values holding the entry framing.
		`{"k":"quote\"d\\","v":1}` + "\n" + `{"k":"\u003chtml\u003e","v":",\"v\":"}` + "\n" +
			`{"k":",\"v\":","v":{"k":"x","v":1}}` + "\n" + `{"k":"tab\tnew\nline\u2028","v":null}` + "\n",
		// A key recorded twice, a line with no value, and blank lines.
		`{"k":"dup","v":1}` + "\n" + `{"k":"dup","v":2}` + "\n" + `{"k":"novalue"}` + "\n",
		"\n" + valid,
		valid + "\n",
		"",
	} {
		f.Add([]byte(body))
	}
	header, err := json.Marshal(journalHeader{Journal: journalMagic, Version: journalVersion, Meta: compatMeta})
	if err != nil {
		f.Fatal(err)
	}
	header = append(header, '\n')
	f.Fuzz(func(t *testing.T, body []byte) {
		// The model: the intact prefix and the last line of each key in it.
		var prefix int
		lines := make(map[string][]byte)
		intact := 0
		for prefix < len(body) {
			nl := bytes.IndexByte(body[prefix:], '\n')
			if nl < 0 {
				break
			}
			line := body[prefix : prefix+nl]
			var e journalEntry
			if json.Unmarshal(line, &e) != nil || e.Key == "" {
				break
			}
			lines[e.Key] = line
			intact++
			prefix += nl + 1
		}

		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, append(append([]byte(nil), header...), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path, compatMeta, true)
		if err != nil {
			if prefix == len(body) {
				t.Fatalf("refused a body of %d intact lines: %v", intact, err)
			}
			return
		}
		defer j.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(header) + prefix; len(data) != want {
			t.Fatalf("resume left %d bytes, want the header and intact prefix, %d", len(data), want)
		}
		if j.Recovered() != intact {
			t.Fatalf("recovered %d entries, want %d", j.Recovered(), intact)
		}
		if keys := j.Keys(); len(keys) != len(lines) {
			t.Fatalf("journal has keys %q, want the %d keys of the intact prefix", keys, len(lines))
		}
		for key, line := range lines {
			checkLookup(t, j, key, line)
		}
		const added = "fuzz/added"
		if err := j.Record(added, intact); err != nil {
			t.Fatal(err)
		}
		j.Close()
		j2, err := OpenJournal(path, compatMeta, true)
		if err != nil {
			t.Fatalf("resume after a Record: %v", err)
		}
		defer j2.Close()
		if j2.Recovered() != intact+1 {
			t.Fatalf("second resume recovered %d entries, want %d", j2.Recovered(), intact+1)
		}
		var n int
		if !j2.Lookup(added, &n) || n != intact {
			t.Fatalf("Lookup(%q) after resume = %d, want %d", added, n, intact)
		}
		for key, line := range lines {
			if key != added {
				checkLookup(t, j2, key, line)
			}
		}
	})
}

// checkLookup compares j.Lookup(key) with what encoding/json decodes from
// line, the entry's line in the file.
func checkLookup(t *testing.T, j *Journal, key string, line []byte) {
	t.Helper()
	var e journalEntry
	if err := json.Unmarshal(line, &e); err != nil {
		t.Fatal(err)
	}
	var want, got any
	wantOK := json.Unmarshal(e.Value, &want) == nil
	if ok := j.Lookup(key, &got); ok != wantOK || !reflect.DeepEqual(got, want) {
		t.Fatalf("Lookup(%q) = %#v, %v; line %q decodes %#v, %v", key, got, ok, line, want, wantOK)
	}
}
