// Crash-safe trial journal: an append-only JSONL file recording every
// completed trial of a grid run, keyed by (cell, instance, init). A run
// interrupted by a crash, OOM kill, or ^C is resumed by reopening the
// journal — already-journaled trials are skipped and their recorded results
// re-aggregated, which reproduces the uninterrupted run bit-identically
// because aggregation order is a pure function of the grid, never of which
// trials were live versus replayed (see runCells).
//
// Durability model: each entry is one JSON line, fsync'd after the write,
// so the file never holds a torn entry older than the crash itself. The one
// permitted corruption is a truncated final line (the crash interrupted the
// write); loading tolerates it by truncating the file back to the last
// intact line. Anything malformed before that is refused — it means the
// file is not a trial journal, and silently dropping entries would
// silently change results.

package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// journalMagic identifies the file format in the header line.
const journalMagic = "discsp-trials"

// journalVersion is bumped on any incompatible format change.
const journalVersion = 1

// ErrJournalExists is wrapped by OpenJournal when the journal file already
// holds entries and resume was not requested: refusing is what keeps a
// forgotten -journal flag from silently reusing stale results.
var ErrJournalExists = errors.New("experiments: journal already has entries (pass resume to continue it, or remove the file)")

// ErrJournalMeta is wrapped by OpenJournal when a resumed journal was
// written under different run parameters: its recorded trials would not be
// the trials this run is about to skip.
var ErrJournalMeta = errors.New("experiments: journal metadata does not match this run")

// JournalMeta pins the run parameters a journal's entries depend on. Resume
// validates it so a journal recorded under one seed or cutoff is never
// replayed into a run using another.
//
// Format discriminates uses of the journal machinery beyond trial grids:
// the experiment harness leaves it empty (so every pre-existing journal
// still validates), while other subsystems — the dcspd job log — pin their
// own format-and-version string there, which keeps a job log from ever
// being resumed as a trial journal or vice versa.
type JournalMeta struct {
	SeedBase  int64  `json:"seed_base"`
	MaxCycles int    `json:"max_cycles"`
	Format    string `json:"format,omitempty"`
}

type journalHeader struct {
	Journal string      `json:"journal"`
	Version int         `json:"version"`
	Meta    JournalMeta `json:"meta"`
}

type journalEntry struct {
	Key   string          `json:"k"`
	Value json.RawMessage `json:"v"`
}

// Journal is an append-only JSONL record of completed trials. It is safe
// for concurrent use by the worker pool.
type Journal struct {
	mu        sync.Mutex
	f         *os.File
	entries   map[string]json.RawMessage
	recovered int
}

// OpenJournal opens (or creates) the trial journal at path. With resume
// false the file must be absent or empty; with resume true an existing
// journal is loaded — its header meta must equal meta, and a truncated
// final line (a mid-write crash) is dropped by truncating the file back to
// the last intact entry.
func OpenJournal(path string, meta JournalMeta, resume bool) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("experiments: open journal: %w", err)
	}
	j := &Journal{f: f, entries: make(map[string]json.RawMessage)}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("experiments: stat journal: %w", err)
	}
	if st.Size() == 0 {
		if err := j.writeHeader(meta); err != nil {
			f.Close()
			return nil, err
		}
		return j, nil
	}
	if !resume {
		f.Close()
		return nil, fmt.Errorf("%w: %s", ErrJournalExists, path)
	}
	if err := j.load(meta); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

func (j *Journal) writeHeader(meta JournalMeta) error {
	b, err := json.Marshal(journalHeader{Journal: journalMagic, Version: journalVersion, Meta: meta})
	if err != nil {
		return err
	}
	return j.append(b)
}

// load replays an existing journal, tracking byte offsets explicitly so
// the truncation point after a torn tail is exact. A trailing partial or
// corrupt line — the signature of a crash mid-append — is cut off so the
// next Record continues a well-formed file; corruption *followed by more
// data* is not a crash artifact and is refused.
func (j *Journal) load(meta JournalMeta) error {
	if _, err := j.f.Seek(0, 0); err != nil {
		return err
	}
	data, err := io.ReadAll(j.f)
	if err != nil {
		return fmt.Errorf("experiments: read journal: %w", err)
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return fmt.Errorf("experiments: %s is not a trial journal (no complete header line)", j.f.Name())
	}
	var h journalHeader
	if err := json.Unmarshal(data[:nl], &h); err != nil || h.Journal != journalMagic {
		return fmt.Errorf("experiments: %s is not a trial journal", j.f.Name())
	}
	if h.Version != journalVersion {
		return fmt.Errorf("experiments: journal version %d, this binary writes %d", h.Version, journalVersion)
	}
	if h.Meta != meta {
		return fmt.Errorf("%w: journal has seed_base=%d max_cycles=%d format=%q, run has seed_base=%d max_cycles=%d format=%q",
			ErrJournalMeta, h.Meta.SeedBase, h.Meta.MaxCycles, h.Meta.Format, meta.SeedBase, meta.MaxCycles, meta.Format)
	}
	off := nl + 1
	good := off
	for off < len(data) {
		end := bytes.IndexByte(data[off:], '\n')
		complete := end >= 0
		var line []byte
		if complete {
			line = data[off : off+end]
		} else {
			line = data[off:]
		}
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil || e.Key == "" {
			if complete && len(bytes.TrimSpace(data[off+end+1:])) > 0 {
				return fmt.Errorf("experiments: journal corrupt mid-file at byte %d", good)
			}
			break // torn tail: drop it, the trial reruns
		}
		if !complete {
			// Intact JSON but no newline: the crash tore the write between
			// payload and terminator. The entry was never durably
			// committed by Record's contract; drop it too.
			break
		}
		j.entries[e.Key] = e.Value
		j.recovered++
		off += end + 1
		good = off
	}
	if err := j.f.Truncate(int64(good)); err != nil {
		return fmt.Errorf("experiments: truncate journal tail: %w", err)
	}
	if _, err := j.f.Seek(int64(good), 0); err != nil {
		return err
	}
	return nil
}

func (j *Journal) append(line []byte) error {
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("experiments: append journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("experiments: sync journal: %w", err)
	}
	return nil
}

// Record journals one completed trial under key. The entry is durable (the
// file is fsync'd) when Record returns.
func (j *Journal) Record(key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("experiments: marshal journal entry %q: %w", key, err)
	}
	line := entryLine(key, raw)
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.append(line); err != nil {
		return err
	}
	j.entries[key] = raw
	return nil
}

// entryLine frames raw, json.Marshal's output for a value, as the journal
// line {"k":key,"v":raw}: the bytes json.Marshal writes for the
// journalEntry, without its second pass over raw, which is already compact
// and escaped.
func entryLine(key string, raw []byte) []byte {
	// A string always encodes. The +1 leaves room for append's newline.
	k, _ := json.Marshal(key)
	line := make([]byte, 0, len(`{"k":,"v":}`)+len(k)+len(raw)+1)
	line = append(line, `{"k":`...)
	line = append(line, k...)
	line = append(line, `,"v":`...)
	line = append(line, raw...)
	return append(line, '}')
}

// Lookup unmarshals the journaled entry for key into out, reporting whether
// one exists.
func (j *Journal) Lookup(key string, out any) bool {
	j.mu.Lock()
	raw, ok := j.entries[key]
	j.mu.Unlock()
	if !ok {
		return false
	}
	return json.Unmarshal(raw, out) == nil
}

// Has reports whether key is journaled.
func (j *Journal) Has(key string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.entries[key]
	return ok
}

// Keys returns every journaled key in sorted order. Grid runs never need
// it (they probe with Has/Lookup); replay-style consumers like the dcspd
// job log use it to walk everything the crashed process had accepted.
func (j *Journal) Keys() []string {
	j.mu.Lock()
	keys := make([]string, 0, len(j.entries))
	for k := range j.entries {
		keys = append(keys, k)
	}
	j.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Recovered returns the number of entries loaded from disk at open — the
// trials a resumed run will skip.
func (j *Journal) Recovered() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recovered
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
