package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/discsp/discsp/internal/async"
	"github.com/discsp/discsp/internal/causal"
	"github.com/discsp/discsp/internal/core"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/faults"
	"github.com/discsp/discsp/internal/netrun"
	"github.com/discsp/discsp/internal/sim"
	"github.com/discsp/discsp/internal/telemetry"
)

// RuntimeResult is one runtime's outcome on one instance.
type RuntimeResult struct {
	// Runtime names the execution substrate: "sync", "async", or "tcp".
	Runtime string
	Solved  bool
	// Cycles is only meaningful for the synchronous simulator.
	Cycles int
	// Messages counts delivered (sync/async) or routed (tcp) messages.
	Messages int64
	// Duration is the wall-clock time of the run.
	Duration time.Duration

	// Transport is the shared reliability-layer counter block, populated by
	// the async and tcp runtimes when a fault schedule is active (always
	// zero for sync, which has no network to misbehave).
	Transport telemetry.Transport
}

// CompareRuntimes runs AWC with the given learning on the same instance and
// initial values across all three runtimes — the Section 5 "other types of
// distributed systems" comparison. Wall-clock durations are inherently
// machine-dependent; the interesting outputs are the solved flags and the
// message counts (the async and TCP runtimes react per message instead of
// per lockstep wave, so they typically exchange more).
//
// fcfg, when non-nil, injects the deterministic fault schedule into the
// async and tcp runtimes (the synchronous simulator has no network, so it
// runs clean either way); the per-runtime transport counters then report
// what the faults cost.
func CompareRuntimes(problem *csp.Problem, initial csp.SliceAssignment, learning core.Learning, timeout time.Duration, fcfg *faults.Config) ([]RuntimeResult, error) {
	return CompareRuntimesWith(problem, initial, learning, timeout, fcfg, TCPOptions{})
}

// TCPOptions carries the tcp leg's options: the relay shard count, whose
// choice leaves the verdict and message count unchanged, and causal
// tracing.
type TCPOptions struct {
	Shards int
	// Causal, when non-nil, causally traces the tcp leg (the leg whose
	// transit edges cross real sockets) into this stream: meta, the span
	// events, and the leg's end verdict. The sync and async legs run
	// untraced, so the stream holds exactly one traced run.
	Causal *telemetry.Run
}

// CompareRuntimesWith is CompareRuntimes with explicit tcp options.
func CompareRuntimesWith(problem *csp.Problem, initial csp.SliceAssignment, learning core.Learning, timeout time.Duration, fcfg *faults.Config, tcp TCPOptions) ([]RuntimeResult, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	makeAgent := func(v csp.Var) sim.Agent {
		return core.NewAgent(v, problem, initial[v], learning)
	}
	var out []RuntimeResult

	start := time.Now()
	syncRes, err := sim.Run(problem, buildSimAgents(problem.NumVars(), makeAgent), sim.Options{})
	if err != nil {
		return nil, fmt.Errorf("sync: %w", err)
	}
	out = append(out, RuntimeResult{
		Runtime:  "sync",
		Solved:   syncRes.Solved,
		Cycles:   syncRes.Cycles,
		Messages: int64(syncRes.Messages),
		Duration: time.Since(start),
	})

	asyncRes, err := async.Run(problem, makeAgent, async.Options{Timeout: timeout, Faults: fcfg})
	if err != nil {
		return nil, fmt.Errorf("async: %w", err)
	}
	out = append(out, RuntimeResult{
		Runtime:   "async",
		Solved:    asyncRes.Solved,
		Messages:  asyncRes.Messages,
		Duration:  asyncRes.Duration,
		Transport: asyncRes.Transport,
	})

	if tcp.Causal != nil {
		tcp.Causal.Emit(telemetry.Event{
			Kind:      telemetry.KindMeta,
			Runtime:   "tcp",
			Algorithm: "AWC-" + learning.Name(),
			Vars:      problem.NumVars(),
			Nogoods:   problem.NumNogoods(),
		})
	}
	tracer := causal.New(tcp.Causal, problem)
	tcpRes, err := netrun.Run(problem, makeAgent, netrun.Options{
		Timeout: timeout,
		Faults:  fcfg,
		Shards:  tcp.Shards,
		Causal:  tracer,
	})
	if err != nil {
		return nil, fmt.Errorf("tcp: %w", err)
	}
	if tcp.Causal != nil {
		tcp.Causal.Emit(telemetry.Event{
			Kind:        telemetry.KindEnd,
			Solved:      tcpRes.Solved,
			Insoluble:   tcpRes.Insoluble,
			TotalChecks: tcpRes.TotalChecks,
			Messages:    tcpRes.Messages,
			DurationUS:  tcpRes.Duration.Microseconds(),
		})
	}
	out = append(out, RuntimeResult{
		Runtime:   "tcp",
		Solved:    tcpRes.Solved,
		Messages:  tcpRes.Messages,
		Duration:  tcpRes.Duration,
		Transport: tcpRes.Transport,
	})
	return out, nil
}

func buildSimAgents(n int, makeAgent func(csp.Var) sim.Agent) []sim.Agent {
	agents := make([]sim.Agent, n)
	for v := 0; v < n; v++ {
		agents[v] = makeAgent(csp.Var(v))
	}
	return agents
}

// transportWidths aligns the text table's transport columns; indexed like
// telemetry.TransportColumns.
var transportWidths = []int{8, 8, 9, 11, 6, 10, 11, 7, 10, 10, 0}

// FprintRuntimes renders the comparison as an aligned table, transport
// counters included via the shared telemetry.TransportColumns /
// Transport.Values pairing. The counters are informative even on a clean
// network: the tcp runtime retransmits whenever congestion delays an ack
// past the backoff base, and the dedup layer absorbs the copies.
func FprintRuntimes(w io.Writer, results []RuntimeResult) error {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-6s %-7s %-8s %-10s %-12s", "rt", "solved", "cycles", "messages", "duration")
	for i, col := range telemetry.TransportColumns {
		fmt.Fprintf(&b, " %-*s", transportWidths[i], col)
	}
	b.WriteByte('\n')
	for _, r := range results {
		cycles := "-"
		if r.Runtime == "sync" {
			cycles = fmt.Sprintf("%d", r.Cycles)
		}
		fmt.Fprintf(&b, "  %-6s %-7v %-8s %-10d %-12v",
			r.Runtime, r.Solved, cycles, r.Messages, r.Duration.Round(time.Microsecond))
		for i, v := range r.Transport.Values() {
			fmt.Fprintf(&b, " %-*d", transportWidths[i], v)
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// MarkdownRuntimes renders the comparison as a GitHub-flavored markdown
// table, transport counters included via the same shared column set as
// FprintRuntimes.
func MarkdownRuntimes(w io.Writer, results []RuntimeResult) error {
	var b strings.Builder
	b.WriteString("| rt | solved | cycles | messages | duration |")
	for _, col := range telemetry.TransportColumns {
		fmt.Fprintf(&b, " %s |", col)
	}
	b.WriteString("\n|---|---|---|---|---|")
	for range telemetry.TransportColumns {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for _, r := range results {
		cycles := "-"
		if r.Runtime == "sync" {
			cycles = fmt.Sprintf("%d", r.Cycles)
		}
		fmt.Fprintf(&b, "| %s | %v | %s | %d | %v |",
			r.Runtime, r.Solved, cycles, r.Messages, r.Duration.Round(time.Microsecond))
		for _, v := range r.Transport.Values() {
			fmt.Fprintf(&b, " %d |", v)
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
