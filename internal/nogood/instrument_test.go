package nogood

import (
	"testing"

	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/telemetry"
)

// TestStoreInstrumentTracksSize pins the telemetry hooks: the size gauge
// follows inserts, pruning removals, and restores, and the length histogram
// observes each newly learned nogood exactly once.
func TestStoreInstrumentTracksSize(t *testing.T) {
	reg := telemetry.NewRegistry()
	size := reg.Gauge("store")
	lens := reg.Histogram("len", telemetry.NogoodLenBuckets)

	s := New()
	s.Add(csp.MustNogood(lit(0, 1)))
	s.Instrument(telemetry.StoreMetrics{Size: size, Lengths: lens})
	if size.Value() != 1 {
		t.Fatalf("gauge after Instrument = %d, want 1 (pre-existing nogood)", size.Value())
	}
	if lens.Count() != 0 {
		t.Fatalf("histogram observed %d pre-existing nogoods, want 0", lens.Count())
	}

	s.Add(csp.MustNogood(lit(1, 0), lit(2, 0)))
	if size.Value() != 2 {
		t.Errorf("gauge after Add = %d, want 2", size.Value())
	}
	if lens.Count() != 1 || lens.Sum() != 2 {
		t.Errorf("histogram count=%d sum=%d after one 2-literal add, want 1/2", lens.Count(), lens.Sum())
	}

	// Duplicates do not move either metric.
	s.Add(csp.MustNogood(lit(1, 0), lit(2, 0)))
	if size.Value() != 2 || lens.Count() != 1 {
		t.Errorf("duplicate add moved metrics: gauge=%d histCount=%d", size.Value(), lens.Count())
	}

	// AddPruning drops the 2-literal superset when its 1-literal subset
	// arrives: gauge reflects the net size, histogram the new learning.
	var c Counter
	added, removed := s.AddPruning(csp.MustNogood(lit(1, 0)), &c)
	if !added || removed != 1 {
		t.Fatalf("AddPruning = (%v, %d), want (true, 1)", added, removed)
	}
	if size.Value() != int64(s.Len()) {
		t.Errorf("gauge after pruning = %d, store has %d", size.Value(), s.Len())
	}
	if lens.Count() != 2 {
		t.Errorf("histogram count after pruning add = %d, want 2", lens.Count())
	}
}

// TestStoreRestoreDoesNotDoubleCountLengths pins the crash-restart rule: a
// restored state resets the gauge to the state's size but replayed nogoods
// are not re-observed in the length histogram (they were counted when first
// learned).
func TestStoreRestoreDoesNotDoubleCountLengths(t *testing.T) {
	reg := telemetry.NewRegistry()
	size := reg.Gauge("store")
	lens := reg.Histogram("len", telemetry.NogoodLenBuckets)

	s := New()
	s.Instrument(telemetry.StoreMetrics{Size: size, Lengths: lens})
	s.Add(csp.MustNogood(lit(0, 1)))
	s.Add(csp.MustNogood(lit(1, 0), lit(2, 1)))
	st := s.State()
	if lens.Count() != 2 {
		t.Fatalf("histogram count = %d before restore, want 2", lens.Count())
	}

	s.Add(csp.MustNogood(lit(3, 2)))
	s.RestoreState(st)
	if size.Value() != 2 {
		t.Errorf("gauge after RestoreState = %d, want 2", size.Value())
	}
	if lens.Count() != 3 {
		t.Errorf("histogram count after RestoreState = %d, want 3 (replay must not re-observe)", lens.Count())
	}

	// The hook survives the restore: new learning is observed again.
	s.Add(csp.MustNogood(lit(4, 0)))
	if lens.Count() != 4 {
		t.Errorf("histogram count after post-restore Add = %d, want 4", lens.Count())
	}
	if size.Value() != 3 {
		t.Errorf("gauge after post-restore Add = %d, want 3", size.Value())
	}
}

// TestStoreUninstrumentedIsNilSafe pins the disabled configuration: every
// mutation path runs with nil hooks.
func TestStoreUninstrumentedIsNilSafe(t *testing.T) {
	s := New()
	s.Add(csp.MustNogood(lit(0, 1)))
	var c Counter
	s.AddPruning(csp.MustNogood(lit(1, 0)), &c)
	s.RestoreState(s.State())
	if s.Len() != 2 {
		t.Fatalf("store len = %d, want 2", s.Len())
	}
}
