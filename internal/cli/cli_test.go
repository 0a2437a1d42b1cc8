package cli

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
)

// TestStreamsCheck pins which -causal/-trace-out/-telemetry combinations
// each kind of tool accepts.
func TestStreamsCheck(t *testing.T) {
	for _, c := range []struct {
		args             string
		spansInTelemetry bool
		ok               bool
	}{
		{"", false, true},
		{"-causal -trace-out c", false, true},
		{"-causal", false, false},
		{"-causal -telemetry t", false, false},
		{"-trace-out c", false, false},
		{"-causal -telemetry t", true, true},
		{"-causal -trace-out c", true, true},
		{"-causal", true, false},
		{"-trace-out c -telemetry t", true, false},
	} {
		var s Streams
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		s.Register(fs, c.spansInTelemetry)
		if err := fs.Parse(strings.Fields(c.args)); err != nil {
			t.Fatal(err)
		}
		if err := s.Check(); (err == nil) != c.ok {
			t.Errorf("%q (spans in telemetry %v): Check() = %v, want ok %v", c.args, c.spansInTelemetry, err, c.ok)
		}
	}
}

// TestOpenUndoesOnFailure: when a later step fails, Open stops the CPU
// profile and flushes and closes the stream it had already opened.
func TestOpenUndoesOnFailure(t *testing.T) {
	dir := t.TempDir()
	tel := filepath.Join(dir, "t.jsonl")
	s := &Streams{Telemetry: tel, Causal: true, TraceOut: filepath.Join(dir, "missing", "c.jsonl")}
	p := &Profiles{CPU: filepath.Join(dir, "cpu.prof")}
	if _, err := Open("tool", s, p); err == nil {
		t.Fatal("Open created a file in a missing directory")
	}
	if err := pprof.StartCPUProfile(&bytes.Buffer{}); err != nil {
		t.Errorf("the CPU profile is still running: %v", err)
	} else {
		pprof.StopCPUProfile()
	}
	if b, err := os.ReadFile(tel); err != nil || !bytes.Contains(b, []byte(`"schema"`)) {
		t.Errorf("the telemetry stream was not flushed: %q, %v", b, err)
	}
}
