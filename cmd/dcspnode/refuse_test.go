package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestRefusedLeavesNoFile runs command lines dcspnode refuses and checks
// that each fails without creating a file. None gets as far as dialing.
func TestRefusedLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	col := filepath.Join(dir, "g.col")
	if err := os.WriteFile(col, []byte("p edge 3 2\ne 1 2\ne 2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(dir, "w.jsonl")
	for _, args := range [][]string{
		{"-connect", "127.0.0.1:9", "-vars", "0-5", "-causal", "-trace-out", trace, col},
		{"-connect", "127.0.0.1:9", "-vars", "0-2", "-trace-out", trace, col},
		{"-connect", "127.0.0.1:9", "-vars", "0-2", "-causal", "-trace-out", trace, "-retention", "lru:x", col},
		{"-connect", "127.0.0.1:9", "-vars", "0-2", "-causal", "-trace-out", trace, filepath.Join(dir, "missing.col")},
	} {
		oldArgs, oldFlags := os.Args, flag.CommandLine
		os.Args = append([]string{"dcspnode"}, args...)
		flag.CommandLine = flag.NewFlagSet("dcspnode", flag.ContinueOnError)
		err := run()
		os.Args, flag.CommandLine = oldArgs, oldFlags
		if err == nil {
			t.Errorf("dcspnode %v ran; want it refused", args)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 1 {
			t.Fatalf("dcspnode %v left files: %d entries in the directory, want only the instance", args, len(entries))
		}
	}
}
