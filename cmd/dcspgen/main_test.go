package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestRefusedLeavesNoFile runs command lines dcspgen refuses and checks
// that each fails without creating its -o file.
func TestRefusedLeavesNoFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.col")
	for _, args := range [][]string{
		{"-family", "nope"},
		{"-family", "d3c", "-n", "2"},
		{"-family", "d3s", "-n", "2"},
		{"-family", "bin", "-domain", "1"},
	} {
		args = append(args, "-o", out)
		oldArgs, oldFlags := os.Args, flag.CommandLine
		os.Args = append([]string{"dcspgen"}, args...)
		flag.CommandLine = flag.NewFlagSet("dcspgen", flag.ContinueOnError)
		err := run()
		os.Args, flag.CommandLine = oldArgs, oldFlags
		if err == nil {
			t.Errorf("dcspgen %v ran; want it refused", args)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Fatalf("dcspgen %v left %s behind (stat: %v)", args, out, err)
		}
	}
}
