package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/discsp/discsp"
	"github.com/discsp/discsp/internal/telemetry"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenResults is a fixed comparison outcome (durations pinned so the
// rendering is byte-stable) exercising both a clean sync row and fault-laden
// network rows.
var goldenResults = []RuntimeResult{
	{"sync", discsp.Result{Solved: true, Cycles: 42, Messages: 1234, Duration: 1500 * time.Microsecond}},
	{"async", discsp.Result{Solved: true, Messages: 5678, Duration: 2250 * time.Microsecond,
		TransportCounters: telemetry.Transport{Retransmits: 3, DuplicatesSuppressed: 2, Restarts: 1}}},
	{"tcp", discsp.Result{Solved: false, Messages: 9012, Duration: 30 * time.Second,
		TransportCounters: telemetry.Transport{Retransmits: 17, DuplicatesSuppressed: 9, Partitioned: 40, PartitionHeals: 1}}},
}

func checkGolden(t *testing.T, name string, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s (run with -update-golden to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestFprintRuntimesGolden(t *testing.T) {
	var sb strings.Builder
	if err := FprintRuntimes(&sb, goldenResults); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "runtimes.txt", sb.String())
}

func TestMarkdownRuntimesGolden(t *testing.T) {
	var sb strings.Builder
	if err := MarkdownRuntimes(&sb, goldenResults); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "runtimes.md", sb.String())
}

// TestRuntimeTablesShareTransportColumns pins the consolidation: both
// renderers derive their transport columns from telemetry.TransportColumns,
// so every shared column name must appear in both outputs.
func TestRuntimeTablesShareTransportColumns(t *testing.T) {
	var txt, md strings.Builder
	if err := FprintRuntimes(&txt, goldenResults); err != nil {
		t.Fatal(err)
	}
	if err := MarkdownRuntimes(&md, goldenResults); err != nil {
		t.Fatal(err)
	}
	for _, col := range telemetry.TransportColumns {
		if !strings.Contains(txt.String(), col) {
			t.Errorf("text table missing transport column %q", col)
		}
		if !strings.Contains(md.String(), col) {
			t.Errorf("markdown table missing transport column %q", col)
		}
	}
}
