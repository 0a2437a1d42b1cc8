package discsp

import (
	"io"

	"github.com/discsp/discsp/internal/telemetry"
)

// Telemetry is the unified observability bundle attached to a run via
// Options.Telemetry: a metrics registry plus an optional JSONL event
// stream. A nil *Telemetry is the disabled configuration — the runtimes
// instrument through nil-checked branches only, and enabling it never
// changes cycles, maxcck, traces, or journaled aggregates (pinned by
// TestTelemetryInert).
type Telemetry = telemetry.Run

// MetricsRegistry aliases the telemetry registry so callers can mint one,
// hand it to Options.Telemetry, and serve or snapshot it.
type MetricsRegistry = telemetry.Registry

// TransportCounters is the shared reliability-layer counter block that
// Result embeds: Suffix() renders the " retrans=… dups=…" block every CLI
// surface appends, and Record() folds the counters into a registry.
type TransportCounters = telemetry.Transport

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// NewTelemetry bundles a registry (may be nil) with an event stream
// written to w (may be nil for metrics-only). Call Flush on the returned
// bundle after the run to drain the stream and surface write errors.
func NewTelemetry(reg *MetricsRegistry, w io.Writer) *Telemetry {
	return telemetry.NewRun(reg, w)
}

// ServeMetrics serves reg at addr: /metrics (Prometheus text exposition),
// /metrics.json, /debug/vars (expvar), and /debug/pprof. Pass ":0" to bind
// an ephemeral port; the returned server's Addr has the bound address.
func ServeMetrics(addr string, reg *MetricsRegistry) (*telemetry.Server, error) {
	return telemetry.Serve(addr, reg)
}

// AlgorithmName returns the run's label in the tables' naming scheme:
// "AWC-Rslv", "AWC-3rdRslv", "DB", "ABT", ...
func (o Options) AlgorithmName() string {
	switch o.Algorithm {
	case DB, ABT:
		return o.Algorithm.String()
	default:
		return "AWC-" + o.learning().Name()
	}
}
