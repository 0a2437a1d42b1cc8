package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/discsp/discsp/internal/sim"
)

// span is one timed interval of the traced pass, recorded around a call into
// a layer's public function. Spans of one trial share Trial; a span's Parent
// names the span that encloses it. Aggregate spans count what they cover in
// Calls: a core.step span sums the trial's Calls Init/Step invocations into
// DurNS, and the wire.replay span (Trial -1) covers Calls replayed messages.
type span struct {
	Trial   int    `json:"trial"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Calls   int64  `json:"calls,omitempty"`
}

// tracer keeps the traced pass's spans in memory; writeSpans saves them when
// the benchmark ends, so no file I/O lands inside a measured interval.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span that ran from start for dur.
func (t *tracer) add(trial int, name, parent string, start time.Time, dur time.Duration, calls int64) {
	t.spans = append(t.spans, span{
		Trial: trial, Name: name, Parent: parent,
		StartNS: start.Sub(t.origin).Nanoseconds(), DurNS: dur.Nanoseconds(), Calls: calls,
	})
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// stepStats aggregates one agent's Init/Step calls. Each agent is stepped by
// one goroutine at a time and the runtimes join their goroutines before
// returning, so the fields need no atomics.
type stepStats struct {
	calls   int64
	ns      int64
	msgsOut int64
	// sent keeps the agent's outgoing messages when capture is on (the tcp
	// workload's wire replay), at most maxCapturePerAgent of them.
	sent    []sim.Message
	capture bool
}

// timedAgent decorates an agent with Init/Step timing. Use wrapAgent, which
// also forwards the optional runtime interfaces the wrapped agent has.
type timedAgent struct {
	sim.Agent
	st *stepStats
}

func (t *timedAgent) Init() []sim.Message {
	start := time.Now()
	out := t.Agent.Init()
	t.note(start, out)
	return out
}

func (t *timedAgent) Step(in []sim.Message) []sim.Message {
	start := time.Now()
	out := t.Agent.Step(in)
	t.note(start, out)
	return out
}

func (t *timedAgent) note(start time.Time, out []sim.Message) {
	t.st.ns += int64(time.Since(start))
	t.st.calls++
	t.st.msgsOut += int64(len(out))
	if t.st.capture && len(t.st.sent) < maxCapturePerAgent {
		t.st.sent = append(t.st.sent, out...)
	}
}

// maxCapturePerAgent bounds the messages one agent keeps for wire replay.
const maxCapturePerAgent = 4096

// wrapAgent returns a timing decorator around a that implements exactly the
// optional interfaces a implements — sim.InsolubleReporter, sim.Checkpointer
// and sim.Reannouncer — so every runtime treats the wrapped agent as it
// would the bare one.
func wrapAgent(a sim.Agent, st *stepStats) sim.Agent {
	t := &timedAgent{Agent: a, st: st}
	r, isR := a.(sim.InsolubleReporter)
	c, isC := a.(sim.Checkpointer)
	n, isN := a.(sim.Reannouncer)
	switch {
	case isR && isC && isN:
		return struct {
			*timedAgent
			sim.InsolubleReporter
			sim.Checkpointer
			sim.Reannouncer
		}{t, r, c, n}
	case isR && isC:
		return struct {
			*timedAgent
			sim.InsolubleReporter
			sim.Checkpointer
		}{t, r, c}
	case isR && isN:
		return struct {
			*timedAgent
			sim.InsolubleReporter
			sim.Reannouncer
		}{t, r, n}
	case isC && isN:
		return struct {
			*timedAgent
			sim.Checkpointer
			sim.Reannouncer
		}{t, c, n}
	case isR:
		return struct {
			*timedAgent
			sim.InsolubleReporter
		}{t, r}
	case isC:
		return struct {
			*timedAgent
			sim.Checkpointer
		}{t, c}
	case isN:
		return struct {
			*timedAgent
			sim.Reannouncer
		}{t, n}
	}
	return t
}
