// Package progress holds what the two concurrent runtimes, the
// asynchronous runtime (internal/async) and the TCP runtime
// (internal/netrun), report about a run, declared once for both: the
// Result, the *TimeoutError with ErrTimeout, and the Sampler, their one
// sample path into the stall watchdog and the telemetry stream. The
// watchdog samples delivery counters, per-agent processed counts, and a
// "frontier" hash of the search state, so that when a run hits its
// deadline the *TimeoutError can say *how* it was stuck instead of only
// that it was.
//
// The watchdog distinguishes three terminal shapes:
//
//   - stalled: no message was delivered over the observation window while
//     work was still in flight — traffic is wedged (a never-healing
//     partition, a dead peer the schedule will not restart);
//   - livelock: deliveries keep advancing but the frontier (the published
//     assignment and insolubility state) has not moved for a long time —
//     agents are exchanging messages without making search progress;
//   - converging: both deliveries and the frontier are advancing — the run
//     is slow, not stuck, and a longer deadline would likely finish it.
//
// The watchdog never aborts a run on its own; the runtimes consult it
// exactly when their deadline expires and attach the Report to the timeout
// error.
package progress

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// State classifies a stuck run; see the package comment.
type State string

const (
	// StateStalled marks a window with zero deliveries.
	StateStalled State = "stalled"
	// StateLivelock marks advancing deliveries under a frozen frontier.
	StateLivelock State = "livelock"
	// StateConverging marks advancing deliveries and a moving frontier.
	StateConverging State = "converging"
	// StateUnknown is reported before two samples exist.
	StateUnknown State = "unknown"
)

// DefaultWindow is the observation window deltas are computed over when
// Watchdog.Window is zero.
const DefaultWindow = time.Second

// DefaultCadence is the sampling period the runtimes feed their watchdogs
// at when no cadence is configured: coarse enough that the sample ring
// spans well past DefaultWindow, fine enough to catch short stalls. The
// async and tcp runtimes expose it as Options.WatchdogCadence.
const DefaultCadence = 25 * time.Millisecond

// maxSamples bounds the sample ring. At the runtimes' observation cadence
// the ring spans well past DefaultWindow; memory stays fixed regardless of
// run length.
const maxSamples = 64

// Sample is one observation of a runtime's progress counters.
type Sample struct {
	// At is the observation time.
	At time.Time
	// Delivered is the cumulative number of messages processed by agents.
	Delivered int64
	// InFlight is the number of messages routed but not yet processed.
	InFlight int64
	// Processed is the cumulative per-agent processed count, indexed by
	// variable. The watchdog copies it.
	Processed []int64
	// Frontier is a hash of the search frontier (published assignment,
	// insolubility flags, any best-priority data the runtime has). Equal
	// hashes between samples mean no observable search progress.
	Frontier uint64
}

// AgentProgress is one agent's row in a Report.
type AgentProgress struct {
	// Agent is the agent id (= variable).
	Agent int
	// Processed is the cumulative processed count at the last sample.
	Processed int64
	// Delta is the processed count gained over the report's window.
	Delta int64
}

// Report is the watchdog's verdict on a stuck run.
type Report struct {
	// State classifies the stall; see the package comment.
	State State
	// Window is the span the deltas cover.
	Window time.Duration
	// Delivered is the cumulative delivered count at the last sample.
	Delivered int64
	// DeliveredDelta is the deliveries gained over the window.
	DeliveredDelta int64
	// InFlight is the in-flight count at the last sample.
	InFlight int64
	// SinceFrontier is the time since the frontier hash last changed.
	SinceFrontier time.Duration
	// Agents is the per-agent progress, indexed by variable.
	Agents []AgentProgress
	// Down lists agents the runtime considers unreachable at report time
	// (dead-peer detections and unexpired reconnect grace windows). Only
	// runtimes with liveness tracking fill it; nil means "none known".
	Down []int
}

// String renders the report in one line, agents compacted as
// "id:+delta/total". It is embedded in the runtimes' timeout errors.
func (r *Report) String() string {
	if r == nil {
		return "no progress report"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %+d deliveries over %v (total %d, %d in flight), frontier last moved %v ago",
		r.State, r.DeliveredDelta, r.Window.Round(time.Millisecond), r.Delivered, r.InFlight,
		r.SinceFrontier.Round(time.Millisecond))
	if len(r.Down) > 0 {
		fmt.Fprintf(&b, "; down %v", r.Down)
	}
	b.WriteString("; agents")
	const maxListed = 16
	for i, a := range r.Agents {
		if i == maxListed {
			fmt.Fprintf(&b, " … (%d more)", len(r.Agents)-maxListed)
			break
		}
		fmt.Fprintf(&b, " %d:%+d/%d", a.Agent, a.Delta, a.Processed)
	}
	return b.String()
}

// Watchdog accumulates samples and classifies stalls. The zero value is not
// usable; construct with NewWatchdog. All methods are safe for concurrent
// use.
type Watchdog struct {
	// Window is the span deltas are computed over; 0 means DefaultWindow.
	Window time.Duration

	mu            sync.Mutex
	ring          []Sample // at most maxSamples, oldest first
	frontierMoved time.Time
	lastFrontier  uint64
	observations  int64
}

// NewWatchdog returns an empty watchdog with the default window.
func NewWatchdog() *Watchdog {
	return &Watchdog{}
}

// Observe records one sample. Samples must arrive in time order; the
// runtimes call this from their single monitor loop.
func (w *Watchdog) Observe(s Sample) {
	w.mu.Lock()
	defer w.mu.Unlock()
	s.Processed = append([]int64(nil), s.Processed...)
	if w.observations == 0 || s.Frontier != w.lastFrontier {
		w.frontierMoved = s.At
		w.lastFrontier = s.Frontier
	}
	w.observations++
	if len(w.ring) == maxSamples {
		copy(w.ring, w.ring[1:])
		w.ring = w.ring[:maxSamples-1]
	}
	w.ring = append(w.ring, s)
}

// Report classifies the run's progress as of now. It returns nil when fewer
// than two samples exist (nothing to compare).
func (w *Watchdog) Report(now time.Time) *Report {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.ring) < 2 {
		return nil
	}
	window := w.Window
	if window <= 0 {
		window = DefaultWindow
	}
	last := w.ring[len(w.ring)-1]
	// Baseline: the oldest retained sample no older than the window start,
	// falling back to the oldest retained.
	base := w.ring[0]
	cutoff := last.At.Add(-window)
	for _, s := range w.ring {
		if s.At.After(cutoff) {
			break
		}
		base = s
	}
	r := &Report{
		Window:         last.At.Sub(base.At),
		Delivered:      last.Delivered,
		DeliveredDelta: last.Delivered - base.Delivered,
		InFlight:       last.InFlight,
		SinceFrontier:  now.Sub(w.frontierMoved),
		Agents:         make([]AgentProgress, len(last.Processed)),
	}
	for i, p := range last.Processed {
		var prev int64
		if i < len(base.Processed) {
			prev = base.Processed[i]
		}
		r.Agents[i] = AgentProgress{Agent: i, Processed: p, Delta: p - prev}
	}
	switch {
	case r.DeliveredDelta == 0:
		r.State = StateStalled
	case r.SinceFrontier > r.Window:
		r.State = StateLivelock
	default:
		r.State = StateConverging
	}
	return r
}

// Hash64 folds the given words into a frontier hash using the SplitMix64
// finalizer. Runtimes feed it the published assignment (and any other
// frontier data); equal inputs hash equal, and any change almost surely
// changes the hash.
func Hash64(words ...int64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, wrd := range words {
		h ^= uint64(wrd)
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
