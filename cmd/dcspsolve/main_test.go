package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/gen"
)

// runCLI runs the command on args, as if typed after "dcspsolve", and
// returns what it printed to standard output.
func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	oldArgs, oldFlags, oldStdout := os.Args, flag.CommandLine, os.Stdout
	defer func() { os.Args, flag.CommandLine, os.Stdout = oldArgs, oldFlags, oldStdout }()
	os.Args = append([]string{"dcspsolve"}, args...)
	flag.CommandLine = flag.NewFlagSet("dcspsolve", flag.ContinueOnError)
	os.Stdout = out
	runErr := run()
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b), runErr
}

// writeCOL writes a seeded 3-coloring instance with n nodes and the
// paper's 2.7n edges to dir/g.col.
func writeCOL(t *testing.T, dir string, n int) string {
	t.Helper()
	inst, err := gen.Coloring(n, n*27/10, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := csp.WriteCOL(&buf, inst.Graph, "test instance"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "g.col")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// listDir returns the names in dir, sorted.
func listDir(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

// TestRefusedLeavesNoFile runs command lines dcspsolve refuses and checks
// that each fails without creating a file: every check runs before the
// input loads or an output opens.
func TestRefusedLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	col := writeCOL(t, dir, 30)
	f := func(name string) string { return filepath.Join(dir, name) }
	for _, args := range [][]string{
		{"-trials", "4", "-async", "-telemetry", f("t.jsonl"), col},
		{"-journal", f("j.jsonl"), "-telemetry", f("t.jsonl"), "-cpuprofile", f("cpu.prof"), "-warm-cache", f("wc.json"), col},
		{"-trials", "4", "-warm-cache", f("wc.json"), "-telemetry", f("t.jsonl"), col},
		{"-async", "-faults", "drop=2", "-telemetry", f("t.jsonl"), "-memprofile", f("mem.prof"), col},
		{"-causal", "-trace-out", f("c.jsonl"), "-trials", "3", col},
		{"-telemetry", f("t.jsonl"), "-cpuprofile", f("cpu.prof"), f("missing.col")},
		{"-algo", "nope", "-telemetry", f("t.jsonl"), col},
	} {
		before := listDir(t, dir)
		if _, err := runCLI(t, args...); err == nil {
			t.Errorf("dcspsolve %v ran; want it refused", args)
		}
		if after := listDir(t, dir); after != before {
			t.Errorf("dcspsolve %v left files: %q, was %q", args, after, before)
		}
	}
}

// TestTrialsWorkerCountAndResume checks that -trials prints the same
// stdout on one worker and on four, and that a journaled run cut short
// after five trials and resumed prints the uninterrupted run's lines.
func TestTrialsWorkerCountAndResume(t *testing.T) {
	dir := t.TempDir()
	col := writeCOL(t, dir, 30)
	serial, err := runCLI(t, "-trials", "12", "-workers", "1", "-k", "3", "-v", col)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := runCLI(t, "-trials", "12", "-workers", "4", "-k", "3", "-v", col)
	if err != nil {
		t.Fatal(err)
	}
	if pooled != serial {
		t.Errorf("-workers 4 printed\n%s\n-workers 1 printed\n%s", pooled, serial)
	}

	journal := filepath.Join(dir, "trials.jsonl")
	full, err := runCLI(t, "-trials", "12", "-workers", "4", "-k", "3", "-journal", journal, col)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 13 {
		t.Fatalf("journal holds %d lines, want a header and 12 trials", len(lines))
	}
	if err := os.WriteFile(journal, []byte(strings.Join(lines[:6], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := runCLI(t, "-trials", "12", "-workers", "4", "-k", "3", "-journal", journal, "-resume", col)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != full || !strings.Contains(full, "trials=12") {
		t.Errorf("resumed run printed\n%s\nuninterrupted run printed\n%s", resumed, full)
	}
}

// TestExternalCausalLeavesNoFile checks that -tcp -tcp-external -causal is
// refused before -trace-out creates its file: the hub of an external run
// holds no agents, so the stream would hold no spans.
func TestExternalCausalLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	col := filepath.Join(dir, "g.col")
	if err := os.WriteFile(col, []byte("p edge 3 2\ne 1 2\ne 2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "trace.jsonl")

	oldArgs, oldFlags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = oldArgs, oldFlags }()
	os.Args = []string{"dcspsolve", "-tcp", "-tcp-external", "-causal", "-trace-out", out, col}
	flag.CommandLine = flag.NewFlagSet("dcspsolve", flag.ContinueOnError)
	if err := run(); err == nil {
		t.Fatal("dcspsolve -tcp -tcp-external -causal ran; want it refused")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("the refused run left %s behind (stat: %v)", out, err)
	}
}
