package telemetry

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// SchemaVersion is the telemetry stream schema this package writes and the
// newest it can read. Streams always open with a meta event carrying the
// writer's schema so readers can fail with a versioned error instead of a
// raw decode error.
//
// Schema 3 added the span event kind (causal tracing, internal/causal);
// schema-2 streams contain a strict subset of the schema-3 kinds, so this
// binary reads both (MinSchemaVersion).
const SchemaVersion = 3

// MinSchemaVersion is the oldest stream schema Read still accepts.
const MinSchemaVersion = 2

// Kind labels one telemetry event.
type Kind string

const (
	// KindMeta opens every stream: schema version, runtime, problem shape.
	KindMeta Kind = "meta"
	// KindCycle is one synchronous simulator cycle.
	KindCycle Kind = "cycle"
	// KindSample is one watchdog progress sample (async and tcp runtimes).
	KindSample Kind = "sample"
	// KindTrial is one completed experiment trial (dcspbench/dcspsolve
	// multi-trial runs), emitted in deterministic index order.
	KindTrial Kind = "trial"
	// KindAgent reports one agent's totals at a quiescence point (end of
	// run): check totals, processed messages, final nogood-store size.
	KindAgent Kind = "agent"
	// KindLink reports one hub link's counters (tcp runtime only).
	KindLink Kind = "link"
	// KindShard reports one hub relay shard's totals at end of run (tcp
	// runtime only): frames read, frames forwarded across shards, and wire
	// bytes in/out on the shard's connections.
	KindShard Kind = "shard"
	// KindSnapshot embeds a full metrics snapshot.
	KindSnapshot Kind = "snapshot"
	// KindSpan is one causal-trace node (schema 3): an agent activation
	// span with its received-message causes and stamped emissions, or a
	// learn/store/seed/constraint node in the nogood derivation DAG. See
	// internal/causal.
	KindSpan Kind = "span"
	// KindEnd closes the stream with the run verdict.
	KindEnd Kind = "end"
)

// Event is one line of the telemetry JSONL stream. A single struct covers
// all kinds; unused fields are omitted. Every numeric field round-trips
// its zero value through omitempty, so decoding is lossless.
type Event struct {
	Kind Kind `json:"kind"`

	// meta
	Schema    int    `json:"schema,omitempty"`
	Runtime   string `json:"runtime,omitempty"` // sync | async | tcp | bench
	Algorithm string `json:"algorithm,omitempty"`
	Vars      int    `json:"vars,omitempty"`
	Nogoods   int    `json:"nogoods,omitempty"`

	// cycle
	Cycle       int   `json:"cycle,omitempty"`
	MessagesIn  int   `json:"messagesIn,omitempty"`
	MessagesOut int   `json:"messagesOut,omitempty"`
	MaxChecks   int64 `json:"maxChecks,omitempty"`
	// StoreTotal is the summed nogood-store size across agents (cycle and
	// sample events).
	StoreTotal int64 `json:"storeTotal,omitempty"`

	// sample (watchdog progress; see internal/progress)
	ElapsedUS  int64   `json:"elapsedUs,omitempty"`
	Delivered  int64   `json:"delivered,omitempty"`
	InFlight   int64   `json:"inFlight,omitempty"`
	Frontier   string  `json:"frontier,omitempty"` // hex frontier hash
	Processed  []int64 `json:"processed,omitempty"`
	QueueDepth int64   `json:"queueDepth,omitempty"`

	// trial
	Cell  string `json:"cell,omitempty"`
	Trial int    `json:"trial,omitempty"`
	Seed  int64  `json:"seed,omitempty"`

	// agent
	Agent          int   `json:"agent,omitempty"`
	Checks         int64 `json:"checks,omitempty"`
	StoreSize      int64 `json:"storeSize,omitempty"`
	AgentProcessed int64 `json:"agentProcessed,omitempty"`

	// link
	From        int   `json:"from,omitempty"`
	To          int   `json:"to,omitempty"`
	SeqHigh     int64 `json:"seqHigh,omitempty"`
	AckHigh     int64 `json:"ackHigh,omitempty"`
	Retransmits int64 `json:"retransmits,omitempty"`
	Partitioned int64 `json:"partitioned,omitempty"`

	// shard
	Shard     int   `json:"shard,omitempty"`
	FramesIn  int64 `json:"framesIn,omitempty"`
	Forwarded int64 `json:"forwarded,omitempty"`
	BytesIn   int64 `json:"bytesIn,omitempty"`
	BytesOut  int64 `json:"bytesOut,omitempty"`

	// span (schema 3, causal tracing). SpanID is the node's trace ID in
	// "agent:seq" form; Causes the trace IDs this node depends on. For
	// activation spans (init/step) the four Emit slices run in parallel,
	// one entry per stamped outgoing message: its trace ID, recipient,
	// concrete type, and the nogood node it carries ("" when none).
	// StartUS/EndUS are microseconds since tracing started — observational
	// timestamps for the critical-path and Perfetto analyses, never part
	// of a trace ID. NogoodKey is the canonical nogood on learn, store,
	// seed, and constraint nodes ("" on a learn node means the empty
	// nogood: the insolubility proof).
	SpanID    string   `json:"spanId,omitempty"`
	SpanKind  string   `json:"spanKind,omitempty"`
	Causes    []string `json:"causes,omitempty"`
	Emits     []string `json:"emits,omitempty"`
	EmitTo    []int    `json:"emitTo,omitempty"`
	EmitType  []string `json:"emitType,omitempty"`
	EmitCause []string `json:"emitCause,omitempty"`
	StartUS   int64    `json:"startUs,omitempty"`
	EndUS     int64    `json:"endUs,omitempty"`
	NogoodKey string   `json:"nogoodKey,omitempty"`

	// snapshot
	Metrics *Snapshot `json:"metrics,omitempty"`

	// end
	Solved      bool       `json:"solved,omitempty"`
	Insoluble   bool       `json:"insoluble,omitempty"`
	Cycles      int        `json:"cycles,omitempty"`
	MaxCCK      int64      `json:"maxcck,omitempty"`
	TotalChecks int64      `json:"totalChecks,omitempty"`
	Messages    int64      `json:"messages,omitempty"`
	DurationUS  int64      `json:"durationUs,omitempty"`
	Transport   *Transport `json:"transport,omitempty"`
}

// Recorder writes the JSONL event stream. Errors are sticky: the first
// write failure is remembered and reported by Flush, and later writes
// no-op, so instrumented runtimes never have to thread telemetry I/O
// errors through algorithm code. Safe for concurrent use and on nil.
type Recorder struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
	err error
}

// NewRecorder wraps w in a buffered JSONL recorder and emits the opening
// meta event (schema only; runtime/problem fields ride on a second meta
// event from the runtime because the recorder is built before the run).
func NewRecorder(w io.Writer) *Recorder {
	bw := bufio.NewWriter(w)
	r := &Recorder{w: bw, enc: json.NewEncoder(bw)}
	r.Emit(Event{Kind: KindMeta, Schema: SchemaVersion})
	return r
}

// Emit appends one event. No-op on nil or after a prior write error.
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	r.err = r.enc.Encode(ev)
}

// Flush drains buffered events and reports the first error seen.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return r.err
	}
	return r.w.Flush()
}

// Stream read errors. Each carries enough context for a CLI to tell the
// user which binary/stream combination they have.
var (
	// ErrSchemaUnsupported marks a stream whose meta event declares a
	// schema this binary does not know.
	ErrSchemaUnsupported = errors.New("telemetry: unsupported stream schema")
	// ErrMalformedStream marks structural damage: not JSONL, missing meta,
	// or an unknown event kind.
	ErrMalformedStream = errors.New("telemetry: malformed stream")
	// ErrTruncatedStream marks a stream cut off at a line boundary: the
	// JSONL is well-formed but the closing end/snapshot event never
	// arrived (the writer died mid-run, or the file was torn). Reported by
	// CheckComplete, not Read, because a mid-run stream is a legitimate
	// read for followers; table-rendering consumers (dcsptrace) must
	// refuse it.
	ErrTruncatedStream = errors.New("telemetry: truncated stream")
)

var knownKinds = map[Kind]bool{
	KindMeta: true, KindCycle: true, KindSample: true, KindTrial: true,
	KindAgent: true, KindLink: true, KindShard: true, KindSnapshot: true,
	KindSpan: true, KindEnd: true,
}

// Kinds lists every event kind this schema defines, for exhaustive tests.
func Kinds() []Kind {
	return []Kind{KindMeta, KindCycle, KindSample, KindTrial, KindAgent,
		KindLink, KindShard, KindSnapshot, KindSpan, KindEnd}
}

// Read decodes a telemetry JSONL stream. The first event must be a meta
// event declaring a schema this binary supports: a stream opening with any
// other event returns ErrMalformedStream, and a schema outside
// [MinSchemaVersion, SchemaVersion] returns ErrSchemaUnsupported with the
// offending version.
func Read(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var events []Event
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrMalformedStream, len(events)+1, err)
		}
		if len(events) == 0 {
			if ev.Kind != KindMeta {
				return nil, fmt.Errorf("%w: stream does not open with a meta event (got kind %q)", ErrMalformedStream, ev.Kind)
			}
			if ev.Schema > SchemaVersion {
				return nil, fmt.Errorf("%w: stream schema %d, this binary reads <= %d — rebuild dcsptrace from a newer checkout", ErrSchemaUnsupported, ev.Schema, SchemaVersion)
			}
			if ev.Schema < MinSchemaVersion {
				return nil, fmt.Errorf("%w: stream schema %d predates this binary's oldest supported %d", ErrSchemaUnsupported, ev.Schema, MinSchemaVersion)
			}
		}
		if !knownKinds[ev.Kind] {
			return nil, fmt.Errorf("%w: unknown event kind %q at line %d", ErrMalformedStream, ev.Kind, len(events)+1)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("%w: empty stream", ErrMalformedStream)
	}
	return events, nil
}

// CheckComplete reports whether a fully-read stream reached its closing
// event. Every writer in this repo ends a stream with the run verdict
// (KindEnd) and/or a metrics snapshot (KindSnapshot, always last when
// present); a stream whose final event is anything else was cut off at a
// line boundary and returns ErrTruncatedStream.
func CheckComplete(events []Event) error {
	if len(events) == 0 {
		return fmt.Errorf("%w: empty stream", ErrTruncatedStream)
	}
	last := events[len(events)-1].Kind
	if last != KindEnd && last != KindSnapshot {
		return fmt.Errorf("%w: last event kind %q, want %q or %q", ErrTruncatedStream, last, KindEnd, KindSnapshot)
	}
	return nil
}

// Run bundles a metrics registry and an event recorder for one solving
// run. Either part may be nil; all methods are safe on a nil Run, so
// runtimes hold a *Run and instrument unconditionally. A nil Run is the
// disabled configuration.
type Run struct {
	reg *Registry
	rec *Recorder
}

// NewRun bundles reg (may be nil) and, when w is non-nil, a new Recorder
// writing to w.
func NewRun(reg *Registry, w io.Writer) *Run {
	r := &Run{reg: reg}
	if w != nil {
		r.rec = NewRecorder(w)
	}
	return r
}

// Registry returns the bundled registry; nil on a nil Run.
func (r *Run) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Emit appends one event to the stream, if one is attached.
func (r *Run) Emit(ev Event) {
	if r == nil {
		return
	}
	r.rec.Emit(ev)
}

// EmitSnapshot embeds the registry's current snapshot in the stream.
func (r *Run) EmitSnapshot() {
	if r == nil || r.rec == nil {
		return
	}
	s := r.reg.Snapshot()
	r.rec.Emit(Event{Kind: KindSnapshot, Metrics: &s})
}

// Flush drains the event stream and reports the first write error.
func (r *Run) Flush() error {
	if r == nil {
		return nil
	}
	return r.rec.Flush()
}
