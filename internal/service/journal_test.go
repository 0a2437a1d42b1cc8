package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/discsp/discsp/internal/core"
	"github.com/discsp/discsp/internal/experiments"
	"github.com/discsp/discsp/internal/gen"
	"github.com/discsp/discsp/internal/sim"
)

// TestJournalLineOnePass pins the journal's bytes: Journal.Record frames
// each entry around one encoding of its value, and the line must equal the
// two-pass encoding (json.Marshal of the value, then of the {"k","v"}
// entry around it) for a harness trial and for a dcspd accept record
// carrying a compacted d3c n=30 body. Equal bytes also mean a journal
// written by the two-pass encoder loads unchanged.
func TestJournalLineOnePass(t *testing.T) {
	p, err := experiments.MakeInstance(experiments.D3C, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	trial, err := experiments.RunAWC(p, gen.RandomInitial(p, 1), core.Learning{Kind: core.LearnResolvent}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := json.Compact(&body, testProblemJSON(t, p)); err != nil {
		t.Fatal(err)
	}
	records := []struct {
		key string
		v   any
	}{
		{"paper/d3c/n30/Rslv/i0/r0", trial},
		{"accept/000001", acceptRecord{ID: "000001", Seq: 1, Spec: JobSpec{Tenant: "a<b>&c", Problem: body.Bytes()}}},
	}

	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := experiments.OpenJournal(path, experiments.JournalMeta{Format: jobLogFormat}, false)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for _, r := range records {
		if err := j.Record(r.key, r.v); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(r.v)
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(struct {
			Key   string          `json:"k"`
			Value json.RawMessage `json:"v"`
		}{r.key, raw})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, line)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))[1:] // after the header
	if len(got) != len(want) {
		t.Fatalf("journal holds %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("%s: one-pass line differs from the two-pass encoding:\n got %.200s\nwant %.200s", records[i].key, got[i], want[i])
		}
	}

	j, err = experiments.OpenJournal(path, experiments.JournalMeta{Format: jobLogFormat}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var back acceptRecord
	if !j.Lookup("accept/000001", &back) || !bytes.Equal(back.Spec.Problem, body.Bytes()) {
		t.Errorf("reopened journal does not return the accept record's body")
	}
}
