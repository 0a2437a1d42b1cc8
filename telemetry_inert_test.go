package discsp_test

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/discsp/discsp"
	"github.com/discsp/discsp/internal/experiments"
	"github.com/discsp/discsp/internal/telemetry"
)

// hardColoring returns a 3-coloring instance dense enough that AWC actually
// learns nogoods (a chain solves in a couple of cycles without learning).
func hardColoring(t *testing.T) *discsp.Problem {
	t.Helper()
	col, err := discsp.GenerateColoring(20, 54, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	return col.Problem
}

// runSyncWithTrace runs Solve and captures every event its Options.Trace
// hook receives, the most sensitive observable a synchronous run has:
// every per-cycle message and check count, and the cycle that found the
// solution.
func runSyncWithTrace(t *testing.T, p *discsp.Problem, opts discsp.Options) (discsp.Result, []discsp.CycleEvent) {
	t.Helper()
	var cycles []discsp.CycleEvent
	opts.Trace = func(ev discsp.CycleEvent) { cycles = append(cycles, ev) }
	res, err := discsp.Solve(p, opts)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if len(cycles) == 0 {
		t.Fatal("Trace hook saw no cycles")
	}
	return res, cycles
}

// TestTelemetryInertSync pins the tentpole's non-negotiable: attaching the
// full telemetry bundle (registry + event stream) to a synchronous run
// changes nothing — cycles, maxcck, totals, the assignment, and the cycle
// events are identical with telemetry on and off, across learners. The
// stream's own cycle events must carry those same cycle events.
func TestTelemetryInertSync(t *testing.T) {
	p := hardColoring(t)
	learners := []struct {
		name string
		opts discsp.Options
	}{
		{"rslv", discsp.Options{Learning: discsp.LearnResolvent}},
		{"mcs", discsp.Options{Learning: discsp.LearnMCS}},
		{"3rdRslv", discsp.Options{Learning: discsp.LearnResolvent, LearningSizeBound: 3}},
		{"none", discsp.Options{Learning: discsp.LearnNone}},
	}
	for _, lc := range learners {
		t.Run(lc.name, func(t *testing.T) {
			opts := lc.opts
			opts.InitialSeed = 11

			off, offTrace := runSyncWithTrace(t, p, opts)

			var stream bytes.Buffer
			opts.Telemetry = discsp.NewTelemetry(discsp.NewMetricsRegistry(), &stream)
			on, onTrace := runSyncWithTrace(t, p, opts)
			if err := opts.Telemetry.Flush(); err != nil {
				t.Fatalf("telemetry flush: %v", err)
			}

			if off.Solved != on.Solved || off.Insoluble != on.Insoluble {
				t.Errorf("verdict changed: off=%v/%v on=%v/%v", off.Solved, off.Insoluble, on.Solved, on.Insoluble)
			}
			if off.Cycles != on.Cycles {
				t.Errorf("cycles changed: off=%d on=%d", off.Cycles, on.Cycles)
			}
			if off.MaxCCK != on.MaxCCK {
				t.Errorf("maxcck changed: off=%d on=%d", off.MaxCCK, on.MaxCCK)
			}
			if off.TotalChecks != on.TotalChecks || off.Messages != on.Messages {
				t.Errorf("totals changed: off checks=%d msgs=%d, on checks=%d msgs=%d",
					off.TotalChecks, off.Messages, on.TotalChecks, on.Messages)
			}
			if !reflect.DeepEqual(off.Assignment, on.Assignment) {
				t.Errorf("assignment changed")
			}
			if !reflect.DeepEqual(off.MessagesByType, on.MessagesByType) {
				t.Errorf("message profile changed: off=%v on=%v", off.MessagesByType, on.MessagesByType)
			}
			if !reflect.DeepEqual(offTrace, onTrace) {
				t.Errorf("cycle events changed with telemetry on (%d vs %d cycles)", len(offTrace), len(onTrace))
			}

			events, err := telemetry.Read(&stream)
			if err != nil {
				t.Fatalf("telemetry stream unreadable: %v", err)
			}
			s := telemetry.Summarize(events)
			if s.Cycles != off.Cycles || s.MaxCCK != off.MaxCCK {
				t.Errorf("stream end event disagrees with result: stream cycles=%d maxcck=%d, result %d/%d",
					s.Cycles, s.MaxCCK, off.Cycles, off.MaxCCK)
			}
			if len(s.Agents) != p.NumVars() {
				t.Errorf("stream has %d agent events, want %d", len(s.Agents), p.NumVars())
			}

			// The stream's cycle events equal the hook's, field for field;
			// the solution flag rides on the end verdict, which a solved
			// run reaches on its last cycle.
			var streamed []discsp.CycleEvent
			for _, ev := range events {
				if ev.Kind == telemetry.KindCycle {
					streamed = append(streamed, discsp.CycleEvent{
						Cycle:       ev.Cycle,
						MessagesIn:  ev.MessagesIn,
						MessagesOut: ev.MessagesOut,
						MaxChecks:   ev.MaxChecks,
					})
				}
			}
			if n := len(streamed); n > 0 && s.Solved {
				streamed[n-1].SolutionFound = true
			}
			if !reflect.DeepEqual(streamed, onTrace) {
				t.Errorf("stream cycle events differ from the Trace hook's:\nstream: %+v\nhook:   %+v", streamed, onTrace)
			}
			var delivered int64
			for _, ev := range streamed {
				delivered += int64(ev.MessagesIn)
			}
			if len(streamed) != on.Cycles || delivered != on.Messages {
				t.Errorf("stream has %d cycle events delivering %d messages, result has %d cycles and %d messages",
					len(streamed), delivered, on.Cycles, on.Messages)
			}
		})
	}
}

// TestTelemetrySummaryOfLiveRun folds a live synchronous run's stream and
// holds the summary to the run itself: verdict and totals equal the
// Result, and the busiest and peak-delivery cycles are the maxima over the
// Trace hook's events, the first such cycle on ties.
func TestTelemetrySummaryOfLiveRun(t *testing.T) {
	p := hardColoring(t)
	var stream bytes.Buffer
	opts := discsp.Options{Learning: discsp.LearnResolvent, InitialSeed: 11,
		Telemetry: discsp.NewTelemetry(discsp.NewMetricsRegistry(), &stream)}
	res, hook := runSyncWithTrace(t, p, opts)
	if err := opts.Telemetry.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.Read(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.CheckComplete(events); err != nil {
		t.Fatal(err)
	}

	s := telemetry.Summarize(events)
	if !s.Solved || s.Cycles != res.Cycles || s.MaxCCK != res.MaxCCK ||
		s.TotalChecks != res.TotalChecks || s.Messages != res.Messages {
		t.Errorf("summary %+v does not match result %+v", s, res)
	}
	var busiest, peak discsp.CycleEvent
	for _, ev := range hook {
		if busiest.Cycle == 0 || ev.MaxChecks > busiest.MaxChecks {
			busiest = ev
		}
		if peak.Cycle == 0 || ev.MessagesIn > peak.MessagesIn {
			peak = ev
		}
	}
	if s.BusiestCycle != busiest.Cycle || s.BusiestCycleChecks != busiest.MaxChecks {
		t.Errorf("busiest cycle %d (%d checks), hook says %d (%d)",
			s.BusiestCycle, s.BusiestCycleChecks, busiest.Cycle, busiest.MaxChecks)
	}
	if s.PeakMessagesCycle != peak.Cycle || s.PeakMessages != peak.MessagesIn {
		t.Errorf("peak deliveries %d at cycle %d, hook says %d at %d",
			s.PeakMessages, s.PeakMessagesCycle, peak.MessagesIn, peak.Cycle)
	}
}

// TestTelemetryInertAsync pins that telemetry does not perturb the
// asynchronous runtime's outcome and that its stream carries the watchdog
// samples and per-agent quiescence totals.
func TestTelemetryInertAsync(t *testing.T) {
	p := hardColoring(t)
	opts := discsp.Options{InitialSeed: 11}
	off, err := discsp.SolveAsync(p, opts)
	if err != nil {
		t.Fatalf("SolveAsync (telemetry off): %v", err)
	}

	var stream bytes.Buffer
	opts.Telemetry = discsp.NewTelemetry(discsp.NewMetricsRegistry(), &stream)
	on, err := discsp.SolveAsync(p, opts)
	if err != nil {
		t.Fatalf("SolveAsync (telemetry on): %v", err)
	}
	if err := opts.Telemetry.Flush(); err != nil {
		t.Fatalf("telemetry flush: %v", err)
	}

	if off.Solved != on.Solved {
		t.Errorf("verdict changed: off=%v on=%v", off.Solved, on.Solved)
	}
	if on.Solved && !p.IsSolution(on.Assignment) {
		t.Errorf("instrumented run produced an invalid solution")
	}

	events, err := telemetry.Read(&stream)
	if err != nil {
		t.Fatalf("telemetry stream unreadable: %v", err)
	}
	s := telemetry.Summarize(events)
	if s.Runtime != "async" {
		t.Errorf("stream runtime = %q, want async", s.Runtime)
	}
	if len(s.Agents) != p.NumVars() {
		t.Errorf("stream has %d agent events, want %d", len(s.Agents), p.NumVars())
	}
	var checks int64
	for _, a := range s.Agents {
		checks += a.Checks
	}
	if checks != on.TotalChecks {
		t.Errorf("per-agent checks sum to %d, result reports %d", checks, on.TotalChecks)
	}
	if !s.Ended {
		t.Errorf("stream missing end event")
	}
}

// TestTelemetryInertTCP does the same over the loopback TCP runtime, which
// additionally emits per-link hub counters.
func TestTelemetryInertTCP(t *testing.T) {
	p := chain(t, 8, 3)
	opts := discsp.Options{InitialSeed: 3}
	off, err := discsp.SolveTCP(p, opts)
	if err != nil {
		t.Fatalf("SolveTCP (telemetry off): %v", err)
	}

	var stream bytes.Buffer
	opts.Telemetry = discsp.NewTelemetry(discsp.NewMetricsRegistry(), &stream)
	on, err := discsp.SolveTCP(p, opts)
	if err != nil {
		t.Fatalf("SolveTCP (telemetry on): %v", err)
	}
	if err := opts.Telemetry.Flush(); err != nil {
		t.Fatalf("telemetry flush: %v", err)
	}

	if off.Solved != on.Solved {
		t.Errorf("verdict changed: off=%v on=%v", off.Solved, on.Solved)
	}
	events, err := telemetry.Read(&stream)
	if err != nil {
		t.Fatalf("telemetry stream unreadable: %v", err)
	}
	links := 0
	for _, ev := range events {
		if ev.Kind == telemetry.KindLink {
			links++
			if ev.SeqHigh <= 0 {
				t.Errorf("link %d->%d has no traffic recorded", ev.From, ev.To)
			}
		}
	}
	if links == 0 {
		t.Errorf("stream has no link events")
	}
	s := telemetry.Summarize(events)
	if s.Runtime != "tcp" {
		t.Errorf("stream runtime = %q, want tcp", s.Runtime)
	}
	if len(s.Agents) != p.NumVars() {
		t.Errorf("stream has %d agent events, want %d", len(s.Agents), p.NumVars())
	}
}

// TestTelemetryInertAggregates pins that attaching telemetry to the
// experiment harness leaves cell aggregates (the tables' numbers, and via
// the journal's replay path every journaled quantity) bit-identical.
func TestTelemetryInertAggregates(t *testing.T) {
	scale := experiments.QuickScale()
	scale.Ns = []int{10}
	alg := experiments.AWC(experiments.BestLearning(experiments.D3C))

	off, err := experiments.RunCell(experiments.D3C, 10, alg, scale)
	if err != nil {
		t.Fatal(err)
	}

	var stream bytes.Buffer
	scale.Telemetry = telemetry.NewRun(telemetry.NewRegistry(), &stream)
	on, err := experiments.RunCell(experiments.D3C, 10, alg, scale)
	if err != nil {
		t.Fatal(err)
	}
	if err := scale.Telemetry.Flush(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(off, on) {
		t.Errorf("cell aggregates changed with telemetry on:\noff: %+v\non:  %+v", off, on)
	}
	events, err := telemetry.Read(&stream)
	if err != nil {
		t.Fatalf("telemetry stream unreadable: %v", err)
	}
	trials := 0
	for _, ev := range events {
		if ev.Kind == telemetry.KindTrial {
			trials++
		}
	}
	if trials == 0 {
		t.Errorf("stream has no trial events")
	}
}

// TestServeMetricsEndToEnd is the facade-level smoke for -metrics-addr: a
// run instruments a served registry, and the snapshot surfaces on it.
func TestServeMetricsEndToEnd(t *testing.T) {
	reg := discsp.NewMetricsRegistry()
	srv, err := discsp.ServeMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p := chain(t, 6, 3)
	if _, err := discsp.Solve(p, discsp.Options{Telemetry: discsp.NewTelemetry(reg, nil)}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if len(snap.Counters) == 0 || len(snap.Gauges) == 0 {
		t.Errorf("registry empty after instrumented run: %+v", snap)
	}
}
