// Command dcsptrace summarizes the JSONL telemetry stream the solvers
// write (dcspsolve/dcspbench -telemetry, dcspsolve -causal -trace-out). A
// stream that does not open with the schema meta event, or declares a
// schema this binary cannot read, is refused with a versioned error
// instead of a raw JSON field error, and a stream whose tail was torn (the
// writer died mid-run) is refused with a truncation error instead of
// rendering a silently partial table.
//
// Usage:
//
//	dcspsolve -algo awc -telemetry run.jsonl problem.cnf
//	dcsptrace run.jsonl              # verdict, cycle peaks, store growth, agent table
//	dcsptrace -cycles run.jsonl      # include the per-cycle table (sync runs)
//
//	dcspsolve -async -telemetry t.jsonl problem.cnf
//	dcsptrace -agents t.jsonl        # per-agent progress timelines
//
//	dcspsolve -causal -trace-out c.jsonl problem.cnf
//	dcsptrace -critical-path c.jsonl    # longest causal chain to verdict
//	dcsptrace -provenance all c.jsonl   # nogood derivation DAG + use counts
//	dcsptrace -perfetto out.json c.jsonl  # open out.json at ui.perfetto.dev
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"github.com/discsp/discsp/internal/causal"
	"github.com/discsp/discsp/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dcsptrace:", err)
		os.Exit(1)
	}
}

func run() error {
	cycles := flag.Bool("cycles", false, "print the per-cycle table")
	agents := flag.Bool("agents", false, "print per-agent progress timelines (telemetry streams)")
	critical := flag.Bool("critical-path", false, "print the causal critical path: the longest chain of activations and message hops ending at the verdict (needs a -causal stream)")
	provenance := flag.String("provenance", "", `print the nogood derivation DAG for a trace ID, a canonical nogood key, or "all" learn events (needs a -causal stream)`)
	perfetto := flag.String("perfetto", "", `write a Chrome trace-event (Perfetto) JSON export to this file, "-" for stdout; open it at ui.perfetto.dev (needs a -causal stream)`)
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("expected exactly one trace file, got %d", flag.NArg())
	}
	return analyze(flag.Arg(0), analysis{
		cycles:     *cycles,
		agents:     *agents,
		critical:   *critical,
		provenance: *provenance,
		perfetto:   *perfetto,
	})
}

// analysis is the flag set in struct form, so tests can drive analyze
// without a flag.CommandLine round trip.
type analysis struct {
	cycles, agents, critical bool
	provenance, perfetto     string
}

// analyze reads one telemetry stream, refuses it unless it is complete,
// and runs the requested analyses. Errors wrap the telemetry reader's
// sentinels, so callers (and exit codes) can distinguish a torn tail from
// a wrong format.
func analyze(path string, a analysis) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := telemetry.Read(f)
	if err != nil {
		return err
	}
	if err := telemetry.CheckComplete(events); err != nil {
		return err
	}
	if a.critical || a.provenance != "" || a.perfetto != "" {
		return runCausal(events, a.critical, a.provenance, a.perfetto)
	}
	return printTelemetry(events, a.cycles, a.agents)
}

// printTelemetry summarizes a telemetry stream.
func printTelemetry(events []telemetry.Event, cycles, agents bool) error {
	s := telemetry.Summarize(events)
	if err := s.Fprint(os.Stdout); err != nil {
		return err
	}
	if cycles {
		fmt.Printf("\n%6s  %8s  %8s  %10s  %10s\n", "cycle", "msgsIn", "msgsOut", "maxChecks", "storeTotal")
		for _, ev := range events {
			if ev.Kind != telemetry.KindCycle {
				continue
			}
			fmt.Printf("%6d  %8d  %8d  %10d  %10d\n", ev.Cycle, ev.MessagesIn, ev.MessagesOut, ev.MaxChecks, ev.StoreTotal)
		}
	}
	if agents {
		printAgentTimelines(events)
	}
	return nil
}

// runCausal runs the requested causal analyses on one graph build. A
// dangling cause warns rather than fails: a per-worker stream from an
// external-worker run legitimately references message IDs whose emitting
// spans live in a sibling worker's stream.
func runCausal(events []telemetry.Event, critical bool, provTarget, perfettoOut string) error {
	g, err := causal.BuildGraph(events)
	if err != nil {
		return err
	}
	if dang := g.Dangling(); len(dang) > 0 {
		fmt.Fprintf(os.Stderr, "dcsptrace: %d dangling cause IDs (first: %s) — partial stream from a multi-worker run?\n",
			len(dang), dang[0])
	}
	if critical {
		cp, err := g.CriticalPath()
		if err != nil {
			return err
		}
		printCriticalPath(cp)
	}
	if provTarget != "" {
		p, err := g.Provenance(provTarget)
		if err != nil {
			return err
		}
		printProvenance(p)
	}
	if perfettoOut != "" {
		w := os.Stdout
		if perfettoOut != "-" {
			f, err := os.Create(perfettoOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := causal.WritePerfetto(w, events); err != nil {
			return err
		}
		if perfettoOut != "-" {
			fmt.Printf("perfetto export: %s (open at ui.perfetto.dev)\n", perfettoOut)
		}
	}
	return nil
}

// printCriticalPath renders the critical path: one row per activation on
// the chain, with each step's compute time and the transit latency of the
// message edge that released it.
func printCriticalPath(cp *causal.CriticalPath) {
	fmt.Printf("critical path: %d steps spanning %dus (compute %dus, %s %dus)\n",
		len(cp.Steps), cp.TotalUS, cp.ComputeUS, cp.TransitKind, cp.TransitUS)
	fmt.Printf("\n%4s  %6s  %-12s  %-5s  %10s  %10s  %s\n",
		"step", "agent", "span", "kind", "computeUs", "transitUs", "via")
	for i, s := range cp.Steps {
		via := ""
		if s.Msg != nil {
			via = fmt.Sprintf("%s %s", s.Msg.Type, s.Msg.ID)
		}
		fmt.Printf("%4d  %6d  %-12s  %-5s  %10d  %10d  %s\n",
			i, s.Span.Agent, s.Span.ID, s.Span.Kind, s.ComputeUS, s.TransitUS, via)
	}
	ids := make([]int, 0, len(cp.PerAgent))
	for a := range cp.PerAgent {
		ids = append(ids, a)
	}
	sort.Ints(ids)
	fmt.Printf("\nper-agent compute on the path:\n")
	for _, a := range ids {
		fmt.Printf("  agent %-4d %dus\n", a, cp.PerAgent[a])
	}
}

// printProvenance renders the derivation DAG: the queried roots, the
// terminal frontier they bottom out on, and per-nogood use counts.
func printProvenance(p *causal.Provenance) {
	terms := p.Terminals()
	fmt.Printf("provenance: %d roots, %d reachable nodes, %d terminals\n",
		len(p.Roots), len(p.Reach), len(terms))
	if len(p.Dangling) > 0 {
		fmt.Printf("dangling causes (partial stream?): %v\n", p.Dangling)
	}
	fmt.Printf("\nroots:\n")
	for _, r := range p.Roots {
		key := r.NogoodKey
		if r.Kind == causal.SpanLearn && key == "" {
			key = "⊥ (insoluble)"
		}
		fmt.Printf("  %-12s agent=%-4d %-6s uses=%-4d %s\n",
			r.ID, r.Agent, r.Kind, p.UseCounts[r.ID], key)
	}
	fmt.Printf("\nterminals:\n")
	for _, t := range terms {
		fmt.Printf("  %-12s %-10s uses=%-4d %s\n", t.ID, t.Kind, p.UseCounts[t.ID], t.NogoodKey)
	}
}

// printAgentTimelines renders each agent's processed-message count across
// the stream's watchdog samples: one row per sample, one column per agent —
// the async/tcp analogue of the per-cycle table.
func printAgentTimelines(events []telemetry.Event) {
	agents := 0
	for _, ev := range events {
		if ev.Kind == telemetry.KindSample && len(ev.Processed) > agents {
			agents = len(ev.Processed)
		}
	}
	if agents == 0 {
		fmt.Println("\nno progress samples in stream (run too short for the watchdog cadence, or a sync run)")
		return
	}
	fmt.Printf("\n%10s  %9s  %8s", "elapsed", "delivered", "inFlight")
	for a := 0; a < agents; a++ {
		fmt.Printf("  a%-5d", a)
	}
	fmt.Println()
	for _, ev := range events {
		if ev.Kind != telemetry.KindSample {
			continue
		}
		fmt.Printf("%8dus  %9d  %8d", ev.ElapsedUS, ev.Delivered, ev.InFlight)
		for a := 0; a < agents; a++ {
			var p int64
			if a < len(ev.Processed) {
				p = ev.Processed[a]
			}
			fmt.Printf("  %-6d", p)
		}
		fmt.Println()
	}
}
