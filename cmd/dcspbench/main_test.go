package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/discsp/discsp/internal/causal"
	"github.com/discsp/discsp/internal/telemetry"
)

// runCLI runs the command on args, as if typed after "dcspbench".
func runCLI(t *testing.T, args ...string) {
	t.Helper()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = oldArgs, oldFlags }()
	os.Args = append([]string{"dcspbench"}, args...)
	flag.CommandLine = flag.NewFlagSet("dcspbench", flag.ContinueOnError)
	if err := run(); err != nil {
		t.Fatalf("dcspbench %v: %v", args, err)
	}
}

// runCLIStdout runs the command on args and returns what it printed to
// standard output.
func runCLIStdout(t *testing.T, args ...string) string {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	oldStdout := os.Stdout
	os.Stdout = out
	defer func() { os.Stdout = oldStdout }()
	runCLI(t, args...)
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// syncRow returns the runtime, solved, cycles and messages columns of a
// runtime comparison's sync row: the deterministic part of the table.
func syncRow(t *testing.T, table string) string {
	t.Helper()
	for _, line := range strings.Split(table, "\n") {
		if f := strings.Fields(line); len(f) >= 4 && f[0] == "sync" {
			return strings.Join(f[:4], " ")
		}
	}
	t.Fatalf("no sync row in:\n%s", table)
	return ""
}

// TestCompareRuntimesRetention checks that -retention reaches the runtime
// comparison's stores: one slot per store changes the sync leg's search.
func TestCompareRuntimesRetention(t *testing.T) {
	all := syncRow(t, runCLIStdout(t, "-runtimes", "d3c", "-sweepn", "40", "-retention", "all"))
	lru := syncRow(t, runCLIStdout(t, "-runtimes", "d3c", "-sweepn", "40", "-retention", "lru:1"))
	t.Logf("sync row: all %q, lru:1 %q", all, lru)
	if all == lru {
		t.Errorf("sync row %q under -retention lru:1 is the same as under all", lru)
	}
}

// TestCompareRuntimesTracedTCP traces the tcp leg of a runtime comparison
// across two relay shards. The sync and async legs run untraced, so the
// stream holds exactly one run: after the schema header it opens with the
// tcp meta event, closes with one end event, holds step spans, and rebuilds
// into a causal graph with no dangling cause.
func TestCompareRuntimesTracedTCP(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runtimes.jsonl")
	runCLI(t, "-runtimes", "d3c", "-sweepn", "20", "-shards", "2", "-causal", "-trace-out", path)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := telemetry.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.CheckComplete(events); err != nil {
		t.Fatal(err)
	}
	g, err := causal.BuildGraph(events)
	if err != nil {
		t.Fatal(err)
	}
	if dang := g.Dangling(); len(dang) > 0 {
		t.Errorf("%d dangling cause IDs (first %s)", len(dang), dang[0])
	}
	if len(events) < 2 || events[0].Schema == 0 {
		t.Fatalf("the stream opens without its schema header: %d events", len(events))
	}
	if first := events[1]; first.Kind != telemetry.KindMeta || first.Runtime != "tcp" {
		t.Errorf("first run event = %+v, want the tcp meta event", first)
	}
	ends := 0
	for _, ev := range events {
		if ev.Kind == telemetry.KindEnd {
			ends++
		}
	}
	if last := events[len(events)-1]; ends != 1 || last.Kind != telemetry.KindEnd {
		t.Errorf("%d end events, last event %q; want exactly one, last", ends, last.Kind)
	}
	steps := 0
	for _, n := range g.Nodes {
		if n.Kind == causal.SpanStep {
			steps++
		}
	}
	if steps == 0 {
		t.Error("the stream holds no step spans")
	}
	if !g.Solved {
		t.Error("the tcp leg's end event carries no solved verdict")
	}
}

// TestRefusedLeavesNoFile runs command lines dcspbench refuses and checks
// that each fails without creating a file: every check, the mode's
// families included, runs before an output opens.
func TestRefusedLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	f := func(name string) string { return filepath.Join(dir, name) }
	for _, args := range [][]string{
		{"-runtimes", "d3c", "-sweepn", "20", "-causal", "-telemetry", f("bt.jsonl"), "-journal", f("bj.jsonl")},
		{"-sweep", "nope", "-telemetry", f("t.jsonl"), "-cpuprofile", f("cpu.prof")},
		{"-telemetry", f("t.jsonl"), "-journal", f("j.jsonl")},
		{"-table", "11", "-telemetry", f("t.jsonl"), "-journal", f("j.jsonl")},
		{"-table", "1", "-resume", "-telemetry", f("t.jsonl"), "-memprofile", f("mem.prof")},
	} {
		oldArgs, oldFlags := os.Args, flag.CommandLine
		os.Args = append([]string{"dcspbench"}, args...)
		flag.CommandLine = flag.NewFlagSet("dcspbench", flag.ContinueOnError)
		err := run()
		os.Args, flag.CommandLine = oldArgs, oldFlags
		if err == nil {
			t.Errorf("dcspbench %v ran; want it refused", args)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Fatalf("dcspbench %v left %d files behind", args, len(entries))
		}
	}
}

func TestParseNs(t *testing.T) {
	tests := []struct {
		in      string
		want    []int
		wantErr bool
	}{
		{"60", []int{60}, false},
		{"60,90, 120", []int{60, 90, 120}, false},
		{"", nil, true},
		{"60,x", nil, true},
		{"-5", nil, true},
		{"0", nil, true},
	}
	for _, tt := range tests {
		got, err := parseNs(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseNs(%q) err = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if len(got) != len(tt.want) {
			t.Errorf("parseNs(%q) = %v, want %v", tt.in, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("parseNs(%q) = %v, want %v", tt.in, got, tt.want)
				break
			}
		}
	}
}
