package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

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
