package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/discsp/discsp"
	"github.com/discsp/discsp/internal/telemetry"
)

// writeFixture drops content into a temp file and returns its path.
func writeFixture(t *testing.T, name string, content []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// tornTail drops the stream's closing events — the shape a writer that
// died mid-run (or a torn filesystem tail) leaves behind. The JSONL stays
// well-formed; only the terminator lines are gone (a telemetry stream
// closes with an end event plus a metrics snapshot, so both are torn).
func tornTail(t *testing.T, stream []byte) []byte {
	t.Helper()
	out := stream
	for {
		trimmed := bytes.TrimSuffix(out, []byte("\n"))
		i := bytes.LastIndexByte(trimmed, '\n')
		if i < 0 {
			t.Fatal("tore the fixture down to a single line")
		}
		last := trimmed[i:]
		out = trimmed[:i+1]
		if bytes.Contains(last, []byte(`"kind":"end"`)) ||
			bytes.Contains(last, []byte(`"kind":"snapshot"`)) {
			continue
		}
		return out
	}
}

// solveStream produces a telemetry stream from one real solve, so the
// fixtures are byte-genuine writer output.
func solveStream(t *testing.T) []byte {
	t.Helper()
	col, err := discsp.GenerateColoring(8, 12, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	opts := discsp.Options{InitialSeed: 3, Telemetry: discsp.NewTelemetry(nil, &buf)}
	if _, err := discsp.Solve(col.Problem, opts); err != nil {
		t.Fatal(err)
	}
	if err := opts.Telemetry.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAnalyzeAcceptsCompleteStreams(t *testing.T) {
	tel := solveStream(t)
	if err := analyze(writeFixture(t, "tel.jsonl", tel), analysis{cycles: true}); err != nil {
		t.Errorf("complete telemetry stream refused: %v", err)
	}
}

// TestAnalyzeRefusesTornTails: a stream whose tail was torn exits with the
// reader's versioned truncation error instead of rendering a silently
// partial table.
func TestAnalyzeRefusesTornTails(t *testing.T) {
	err := analyze(writeFixture(t, "tel-torn.jsonl", tornTail(t, solveStream(t))), analysis{})
	if !errors.Is(err, telemetry.ErrTruncatedStream) {
		t.Errorf("torn telemetry stream: want ErrTruncatedStream, got %v", err)
	}
}

// TestAnalyzeRefusesV1Trace: a file in the retired v1 cycle-trace layout
// (a start event, cycle events, an end event, no schema meta event) is a
// malformed stream for every analysis, not a format to fall back to.
func TestAnalyzeRefusesV1Trace(t *testing.T) {
	v1 := writeFixture(t, "v1.jsonl", []byte(`{"kind":"start","algorithm":"AWC/rslv","vars":8,"nogoods":36}
{"kind":"cycle","cycle":1,"messagesIn":20,"messagesOut":14,"maxChecks":12}
{"kind":"cycle","cycle":2,"messagesIn":14,"maxChecks":9,"solutionFound":true}
{"kind":"end","solutionFound":true,"cycles":2,"maxcck":21,"totalChecks":80,"messages":34}
`))
	for _, a := range []analysis{{}, {cycles: true}, {critical: true}} {
		if err := analyze(v1, a); !errors.Is(err, telemetry.ErrMalformedStream) {
			t.Errorf("%+v: want ErrMalformedStream, got %v", a, err)
		}
	}
}
