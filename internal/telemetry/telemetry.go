// Package telemetry is the unified observability layer: a zero-dependency
// metrics registry (counters, gauges, bounded histograms) plus a structured
// run-event recorder, the one record of a run on every runtime: per-cycle
// events on the synchronous simulator, watchdog samples on the async and
// TCP runtimes, and causal spans when tracing is on.
//
// Two properties are load-bearing and pinned by tests:
//
//   - Observational inertness. Instrumentation sites hold a possibly-nil
//     metric pointer and every method has a nil-receiver fast path, so the
//     disabled configuration costs one branch and zero allocations on the
//     hot path, and the enabled configuration only ever *reads* algorithm
//     state — it may not change cycles, maxcck, traces, or journaled
//     aggregates (see TestTelemetryInert at the repo root).
//
//   - Deterministic output. Snapshots list metrics in sorted name order and
//     histograms use fixed bucket layouts chosen at construction, so two
//     runs with identical seeds produce byte-identical snapshots regardless
//     of map iteration or worker count.
//
// Metric values are int64 throughout: every quantity this repo measures
// (checks, messages, nogoods, queue depths) is a count, and integer
// arithmetic keeps snapshots exactly reproducible across platforms.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. All methods are safe
// for concurrent use and safe on a nil receiver (no-ops / zero).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta. No-op on nil.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Inc increments the counter by one. No-op on nil.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; zero on nil.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 metric. All methods are safe for concurrent use
// and safe on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value. No-op on nil.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta (may be negative). No-op on nil.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value; zero on nil.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a bounded histogram over int64 observations with a fixed,
// cumulative-free bucket layout chosen at construction: counts[i] holds
// observations v <= bounds[i] (and greater than bounds[i-1]); the final
// count holds the +Inf overflow. The fixed layout is what makes snapshot
// output deterministic — two histograms with the same name always have the
// same shape. All methods are safe for concurrent use and on nil.
type Histogram struct {
	bounds []int64 // ascending upper bounds, exclusive of +Inf
	counts []atomic.Int64
	sum    atomic.Int64
	count  atomic.Int64
}

// NewHistogram builds a histogram with the given ascending upper bounds.
// It is used directly only by tests; instrumentation obtains histograms
// from a Registry.
func NewHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending: %v", bounds))
		}
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one observation. No-op on nil. The bucket scan is linear:
// layouts in this repo have ~10 buckets and the scan touches no heap.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations; zero on nil.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations; zero on nil.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// StoreMetrics bundles the per-store instruments a nogood store accepts:
// a live size gauge, a learned-length histogram, and an evictions counter.
// Any field may be nil (and the whole struct zero) — the store's hooks
// no-op through the nil-receiver fast paths.
type StoreMetrics struct {
	Size      *Gauge
	Lengths   *Histogram
	Evictions *Counter
}

// Instrumented is implemented by the algorithm agents whose nogood store
// accepts StoreMetrics hooks (core, abt, breakout).
type Instrumented interface {
	Instrument(StoreMetrics)
}

// StoreSizer is implemented by agents exposing their nogood-store size.
type StoreSizer interface{ StoreSize() int }

// AgentStoreMetrics resolves agent's store instruments in reg, each
// labelled agent="<index>": the discsp_store_nogoods gauge, the
// discsp_learned_nogood_len histogram, and the discsp_store_evictions
// counter. Every runtime registers its agents' stores through it. A nil
// reg yields all-nil (no-op) instruments.
func AgentStoreMetrics(reg *Registry, agent int) StoreMetrics {
	label := strconv.Itoa(agent)
	return StoreMetrics{
		Size:      reg.Gauge(Name("discsp_store_nogoods", "agent", label)),
		Lengths:   reg.Histogram(Name("discsp_learned_nogood_len", "agent", label), NogoodLenBuckets),
		Evictions: reg.Counter(Name("discsp_store_evictions", "agent", label)),
	}
}

// Fixed bucket layouts. Every histogram in the repo uses one of these, so
// streams from different runs and runtimes are structurally comparable.
var (
	// NogoodLenBuckets sizes learned-nogood (resolvent) lengths.
	NogoodLenBuckets = []int64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}
	// QueueDepthBuckets sizes mailbox/dispatcher queue depths.
	QueueDepthBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	// CycleBuckets sizes per-trial synchronous cycle counts.
	CycleBuckets = []int64{1, 3, 10, 30, 100, 300, 1000, 3000, 10000}
	// ChecksBuckets sizes check totals and maxcck (decades).
	ChecksBuckets = []int64{10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}
	// MessageBuckets sizes per-cycle message counts.
	MessageBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
)

// Registry owns named metrics. Lookup (Counter/Gauge/Histogram) takes a
// mutex and may allocate on first use — callers resolve metrics once at
// setup, never on the hot path — but the metric operations themselves are
// lock-free atomics. All methods are safe on a nil receiver, returning nil
// metrics whose methods no-op: a disabled registry costs instrumented code
// exactly one nil check per site.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Name composes a metric name with label pairs in canonical form:
// Name("x", "agent", "3") == `x{agent="3"}`. Labels are embedded in the
// name (sorted by the caller's argument order, which must be consistent)
// so the registry stays a flat map and snapshots stay trivially sortable.
func Name(base string, labels ...string) string {
	if len(labels) == 0 {
		return base
	}
	if len(labels)%2 != 0 {
		panic("telemetry: Name requires key/value label pairs")
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(EscapeLabelValue(labels[i+1]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// EscapeLabelValue escapes a label value per the Prometheus exposition
// format: backslash, double quote, and newline are the only characters with
// escape sequences (\\, \", \n). Values without them pass through unchanged
// (and unallocated). Name applies it at composition time, so the registry's
// flat names hold the already-escaped form and the exposition writer can
// emit label blocks verbatim.
func EscapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a valid no-op counter) when the registry is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil when
// the registry is nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use. Asking for an existing histogram with different bounds
// panics: bucket layouts are fixed per name by design. Returns nil when the
// registry is nil.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
		return h
	}
	if len(h.bounds) != len(bounds) {
		panic(fmt.Sprintf("telemetry: histogram %q redefined with different bounds", name))
	}
	for i := range bounds {
		if h.bounds[i] != bounds[i] {
			panic(fmt.Sprintf("telemetry: histogram %q redefined with different bounds", name))
		}
	}
	return h
}

// MetricValue is one named counter or gauge in a snapshot.
type MetricValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramValue is one named histogram in a snapshot. Bounds and Counts
// are parallel; Counts has one extra trailing entry for +Inf.
type HistogramValue struct {
	Name   string  `json:"name"`
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
}

// Snapshot is a point-in-time copy of a registry, sorted by metric name so
// that identical runs serialize to identical bytes.
type Snapshot struct {
	Counters   []MetricValue    `json:"counters,omitempty"`
	Gauges     []MetricValue    `json:"gauges,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current values. Nil registries snapshot to
// the zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.ctrs {
		s.Counters = append(s.Counters, MetricValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, MetricValue{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		hv := HistogramValue{
			Name:   name,
			Bounds: append([]int64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Sum:    h.Sum(),
			Count:  h.Count(),
		}
		for i := range h.counts {
			hv.Counts[i] = h.counts[i].Load()
		}
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
