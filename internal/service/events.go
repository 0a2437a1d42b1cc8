// Per-job progress-event capture: each job's schema-2 telemetry stream is
// recorded into a bounded in-memory log that GET /v1/jobs/{id}/events can
// replay and follow live. The bound is part of the robustness story — a
// pathological run cannot grow daemon memory through its own telemetry;
// once the cap is hit, later events are dropped and the job's status
// reports events_truncated (the run itself is unaffected: telemetry is
// observationally inert).
package service

import "sync"

// eventLimit bounds one job's captured event bytes.
const eventLimit = 256 << 10

// traceLimit bounds one job's captured causal-trace bytes (jobs submitted
// with "causal": true). Span streams record every activation and message
// emission, so they run far larger than progress events.
const traceLimit = 4 << 20

// eventLog is an append-only byte log with follow semantics. It implements
// io.Writer so a telemetry Recorder can write JSONL into it directly.
type eventLog struct {
	mu        sync.Mutex
	buf       []byte
	limit     int
	truncated bool
	closed    bool
	change    chan struct{} // closed-and-replaced on every append/close
}

func newEventLog(limit int) *eventLog {
	return &eventLog{limit: limit, change: make(chan struct{})}
}

// Write appends p, dropping it (without error — telemetry must never fail a
// job) once the log is closed or the cap is reached. Events are dropped
// whole, never split, so the log stays valid JSONL.
func (l *eventLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.truncated {
		return len(p), nil
	}
	if len(l.buf)+len(p) > l.limit {
		l.truncated = true
		return len(p), nil
	}
	l.buf = append(l.buf, p...)
	l.signalLocked()
	return len(p), nil
}

// reset discards everything captured so far so a retried attempt starts a
// fresh stream — a causal trace must hold exactly one traced run, and the
// crashed attempt's torn tail is noise. Followers mid-stream see their
// offset rewind and re-read from the top.
func (l *eventLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.buf = nil
	l.truncated = false
	l.signalLocked()
}

// closeLog marks the stream complete and wakes followers.
func (l *eventLog) closeLog() {
	l.mu.Lock()
	l.closed = true
	l.signalLocked()
	l.mu.Unlock()
}

func (l *eventLog) signalLocked() {
	close(l.change)
	l.change = make(chan struct{})
}

// Truncated reports whether the cap dropped any events.
func (l *eventLog) Truncated() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncated
}

// snapshot returns the bytes past off, the new offset, whether the log is
// complete, and a channel that closes on the next change — everything a
// follower needs to stream without polling.
func (l *eventLog) snapshot(off int) (chunk []byte, next int, closed bool, change <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if off < len(l.buf) {
		chunk = append([]byte(nil), l.buf[off:]...)
	}
	return chunk, len(l.buf), l.closed, l.change
}
