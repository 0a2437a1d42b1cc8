package discsp_test

import (
	"bytes"
	"errors"
	"reflect"
	"strconv"
	"testing"
	"time"

	"github.com/discsp/discsp"
	"github.com/discsp/discsp/internal/telemetry"
)

// TestRunRecordStreamShape pins the shape of the record an async or tcp
// solve writes to its telemetry stream: the meta events, the watchdog
// samples, one agent event per variable in variable order, on tcp the
// link events in (from, to) order and one shard event per relay, then the
// end verdict and the metrics snapshot. Every sample carries the delivery,
// per-agent, frontier and store-total fields, and the end event repeats
// the Result.
func TestRunRecordStreamShape(t *testing.T) {
	p := hardColoring(t)
	const shards = 2
	solvers := []struct {
		runtime string
		solve   func(*discsp.Problem, discsp.Options) (discsp.Result, error)
	}{
		{"async", discsp.SolveAsync},
		{"tcp", discsp.SolveTCP},
	}
	for _, sv := range solvers {
		t.Run(sv.runtime, func(t *testing.T) {
			var stream bytes.Buffer
			opts := discsp.Options{
				InitialSeed:     11,
				TCPShards:       shards,
				WatchdogCadence: time.Millisecond,
				Telemetry:       discsp.NewTelemetry(discsp.NewMetricsRegistry(), &stream),
			}
			res, err := sv.solve(p, opts)
			if err != nil {
				t.Fatalf("solve: %v", err)
			}
			if err := opts.Telemetry.Flush(); err != nil {
				t.Fatal(err)
			}
			events, err := telemetry.Read(&stream)
			if err != nil {
				t.Fatal(err)
			}
			n := p.NumVars()

			i := 0
			take := func(kind telemetry.Kind) []telemetry.Event {
				start := i
				for i < len(events) && events[i].Kind == kind {
					i++
				}
				return events[start:i]
			}
			if meta := take(telemetry.KindMeta); len(meta) != 2 || meta[1].Runtime != sv.runtime || meta[1].Vars != n {
				t.Fatalf("stream opens with %+v, want the schema meta and a %s meta for %d variables", meta, sv.runtime, n)
			}

			samples := take(telemetry.KindSample)
			if len(samples) == 0 {
				t.Errorf("no sample events at a 1ms watchdog cadence")
			}
			var lastDelivered, lastElapsed int64
			for k, s := range samples {
				var sum int64
				for _, c := range s.Processed {
					sum += c
				}
				if len(s.Processed) != n || s.Delivered < sum || s.Delivered < lastDelivered {
					t.Errorf("sample %d: delivered %d (previous %d) over per-agent %v, want %d agents summing to at most delivered",
						k, s.Delivered, lastDelivered, s.Processed, n)
				}
				if _, err := strconv.ParseUint(s.Frontier, 16, 64); err != nil {
					t.Errorf("sample %d: frontier %q is not a hex hash", k, s.Frontier)
				}
				if s.StoreTotal <= 0 {
					t.Errorf("sample %d: store total %d; AWC stores hold the constraints", k, s.StoreTotal)
				}
				if s.ElapsedUS < lastElapsed {
					t.Errorf("sample %d: elapsed %dus after %dus", k, s.ElapsedUS, lastElapsed)
				}
				lastDelivered, lastElapsed = s.Delivered, s.ElapsedUS
			}

			agents := take(telemetry.KindAgent)
			if len(agents) != n {
				t.Fatalf("%d agent events, want %d", len(agents), n)
			}
			var checks int64
			for v, a := range agents {
				if a.Agent != v {
					t.Errorf("agent event %d is for agent %d", v, a.Agent)
				}
				checks += a.Checks
			}
			if checks != res.TotalChecks {
				t.Errorf("agent checks sum to %d, result has %d", checks, res.TotalChecks)
			}

			if sv.runtime == "tcp" {
				links := take(telemetry.KindLink)
				if len(links) == 0 {
					t.Errorf("no link events")
				}
				for k := 1; k < len(links); k++ {
					a, b := links[k-1], links[k]
					if a.From > b.From || (a.From == b.From && a.To >= b.To) {
						t.Errorf("link %d->%d follows %d->%d", b.From, b.To, a.From, a.To)
					}
				}
				sh := take(telemetry.KindShard)
				if len(sh) != shards {
					t.Fatalf("%d shard events, want %d", len(sh), shards)
				}
				for s, ev := range sh {
					if ev.Shard != s {
						t.Errorf("shard event %d is for shard %d", s, ev.Shard)
					}
				}
			}

			end := take(telemetry.KindEnd)
			snap := take(telemetry.KindSnapshot)
			if len(end) != 1 || len(snap) != 1 || i != len(events) {
				t.Fatalf("after the agent events: %d end, %d snapshot and %d other events, want 1, 1 and 0 (next kind %q)",
					len(end), len(snap), len(events)-i, events[min(i, len(events)-1)].Kind)
			}
			e := end[0]
			var transport *discsp.TransportCounters
			if !res.TransportCounters.IsZero() {
				transport = &res.TransportCounters
			}
			if e.Solved != res.Solved || e.Insoluble != res.Insoluble || e.Messages != res.Messages ||
				e.TotalChecks != res.TotalChecks || e.DurationUS != res.Duration.Microseconds() ||
				!reflect.DeepEqual(e.Transport, transport) {
				t.Errorf("end event %+v (transport %+v) does not match result %+v", e, e.Transport, res)
			}
		})
	}
}

// TestRunRecordTimeout runs an async and a tcp solve into their deadline:
// the facade must recognise both errors as timeouts and surface the
// watchdog's report from each.
func TestRunRecordTimeout(t *testing.T) {
	// DB cannot prove the 2-colour triangle insoluble, so it runs until the
	// deadline.
	p := discsp.NewProblemUniform(3, 2)
	for _, e := range [][2]discsp.Var{{0, 1}, {1, 2}, {0, 2}} {
		if err := p.AddNotEqual(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	opts := discsp.Options{Algorithm: discsp.DB, Timeout: 300 * time.Millisecond}
	for name, solve := range map[string]func(*discsp.Problem, discsp.Options) (discsp.Result, error){
		"async": discsp.SolveAsync,
		"tcp":   discsp.SolveTCP,
	} {
		_, err := solve(p, opts)
		if !discsp.IsTimeout(err) {
			t.Errorf("%s: IsTimeout(%v) = false", name, err)
		}
		rep, ok := discsp.TimeoutReport(err)
		if !ok || rep == "" {
			t.Errorf("%s: TimeoutReport(%v) = %q, %v", name, err, rep, ok)
		}
	}
	if discsp.IsTimeout(errors.New("run timed out")) {
		t.Errorf("IsTimeout matched an unrelated error")
	}
	if _, ok := discsp.TimeoutReport(errors.New("run timed out")); ok {
		t.Errorf("TimeoutReport found a report in an unrelated error")
	}
}
