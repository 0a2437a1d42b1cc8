package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/discsp/discsp"
	"github.com/discsp/discsp/internal/telemetry"
)

// RuntimeResult is one runtime's outcome on one instance. Cycles is only
// meaningful for the synchronous simulator, Messages counts delivered
// (sync/async) or routed (tcp) messages, and the transport counters stay
// zero for sync, which has no network to misbehave.
type RuntimeResult struct {
	// Runtime names the execution substrate: "sync", "async", or "tcp".
	Runtime string
	discsp.Result
}

// CompareRuntimes runs one configuration on the same instance and initial
// values across all three runtimes (Solve, SolveAsync and SolveTCP) — the
// Section 5 "other types of distributed systems" comparison. Wall-clock
// durations are inherently machine-dependent; the interesting outputs are
// the solved flags and the message counts (the async and TCP runtimes react
// per message instead of per lockstep wave, so they typically exchange
// more). A fault profile in opts reaches the async and tcp legs only, and
// the transport counters then report what the faults cost. opts.Causal
// traces the tcp leg alone, the one whose transit edges cross real sockets,
// so its stream holds exactly one traced run.
func CompareRuntimes(p *discsp.Problem, opts discsp.Options) ([]RuntimeResult, error) {
	untraced := opts
	untraced.Causal = nil
	start := time.Now()
	syncRes, err := discsp.Solve(p, untraced)
	if err != nil {
		return nil, fmt.Errorf("sync: %w", err)
	}
	syncRes.Duration = time.Since(start)
	asyncRes, err := discsp.SolveAsync(p, untraced)
	if err != nil {
		return nil, fmt.Errorf("async: %w", err)
	}
	tcpRes, err := discsp.SolveTCP(p, opts)
	if err != nil {
		return nil, fmt.Errorf("tcp: %w", err)
	}
	return []RuntimeResult{{"sync", syncRes}, {"async", asyncRes}, {"tcp", tcpRes}}, nil
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
		for i, v := range r.TransportCounters.Values() {
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
		for _, v := range r.TransportCounters.Values() {
			fmt.Fprintf(&b, " %d |", v)
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
