package progress

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/telemetry"
)

// Result reports a completed run of a concurrent runtime.
type Result struct {
	// Solved reports whether the runtime observed a solution snapshot.
	Solved bool
	// Insoluble reports that some agent derived the empty nogood.
	Insoluble bool
	// Quiescent reports that the run ended because no messages were left
	// in flight.
	Quiescent bool
	// Assignment is the solving snapshot, or the last published one.
	Assignment csp.SliceAssignment
	// Messages counts the messages agents processed on the async runtime,
	// and the unique algorithm messages the hub routed on tcp
	// (retransmissions, duplicates and control frames excluded).
	Messages int64
	// TotalChecks sums every agent's nogood checks, a restarted agent's
	// final incarnation included. Zero for a tcp hub whose agents run in
	// external workers.
	TotalChecks int64
	// Duration is the wall-clock time from start to stop.
	Duration time.Duration

	// Transport holds the reliability and wire counters the runtime fills;
	// the runtimes' Run functions say which.
	telemetry.Transport
}

// Record closes a run's record on tel: one agent event per variable
// 0..n-1, in order, from totals(v) (the nogood checks of v's final
// incarnation, the messages it processed, and its final store size), then
// the run's deliveries, checks and transport counters in tel's registry.
// No-op on a nil tel.
func (r Result) Record(tel *telemetry.Run, n int, totals func(v int) (checks, processed, store int64)) {
	if tel == nil {
		return
	}
	for v := 0; v < n; v++ {
		checks, processed, store := totals(v)
		tel.Emit(telemetry.Event{Kind: telemetry.KindAgent, Agent: v, Checks: checks, AgentProcessed: processed, StoreSize: store})
	}
	reg := tel.Registry()
	reg.Counter("discsp_deliveries_total").Add(r.Messages)
	reg.Counter("discsp_checks_total").Add(r.TotalChecks)
	r.Transport.Record(reg)
}

// ErrTimeout is returned when a run's deadline expires before a solution,
// an insolubility proof, or quiescence. The concrete error is a
// *TimeoutError; errors.Is(err, ErrTimeout) matches it.
var ErrTimeout = errors.New("run timed out")

// TimeoutError reports a run that hit its deadline, with the runtime's last
// observed state, so a stuck run is diagnosable from the error alone. It
// wraps ErrTimeout.
type TimeoutError struct {
	// Timeout is the configured deadline that expired.
	Timeout time.Duration
	// InFlight is the number of messages routed but not yet processed.
	InFlight int64
	// Delivered is the number of messages agents processed: the sum of
	// Processed.
	Delivered int64
	// Messages is the number of unique algorithm messages the tcp hub
	// routed. The async runtime routes without counting and leaves it 0.
	Messages int64
	// Processed is the per-agent count of messages processed, indexed by
	// variable.
	Processed []int64
	// Report is the stall watchdog's classification of the stuck run,
	// with per-agent progress deltas. Nil only when the run died before
	// the watchdog gathered two samples.
	Report *Report
}

func (e *TimeoutError) Error() string {
	s := fmt.Sprintf("run timed out after %v: %d messages in flight, %d delivered", e.Timeout, e.InFlight, e.Delivered)
	if e.Messages > 0 {
		s += fmt.Sprintf(", %d routed", e.Messages)
	}
	s += fmt.Sprintf(", per-agent processed %v", e.Processed)
	if e.Report != nil {
		s += "; " + e.Report.String()
	}
	return s
}

func (e *TimeoutError) Unwrap() error { return ErrTimeout }

// Limits resolves a run's deadline and watchdog cadence: 0 or less means
// 30 seconds and DefaultCadence.
func Limits(timeout, cadence time.Duration) (time.Duration, time.Duration) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	if cadence <= 0 {
		cadence = DefaultCadence
	}
	return timeout, cadence
}

// Sampler is a run's one sample path: it feeds each sample to the stall
// watchdog and, when the run has telemetry, writes it to the stream as a
// sample event with the summed store gauges and the queue depth, so
// healthy runs record frontier-hash progress too, not only timed-out ones.
type Sampler struct {
	wd     *Watchdog
	tel    *telemetry.Run
	start  time.Time
	stores []*telemetry.Gauge
	depth  func() int64
}

// NewSampler returns a sampler for a run that started at start. stores are
// the agents' store-size gauges (see telemetry.InstrumentStores), and
// depth reports the messages waiting for delivery; it is called only when
// tel is non-nil.
func NewSampler(tel *telemetry.Run, start time.Time, stores []*telemetry.Gauge, depth func() int64) *Sampler {
	return &Sampler{wd: NewWatchdog(), tel: tel, start: start, stores: stores, depth: depth}
}

// Observe records one sample. The event is written before Observe returns,
// so s.Processed may be the caller's live slice.
func (sm *Sampler) Observe(s Sample) {
	sm.wd.Observe(s)
	if sm.tel == nil {
		return
	}
	var storeTotal int64
	for _, g := range sm.stores {
		storeTotal += g.Value()
	}
	sm.tel.Emit(telemetry.Event{
		Kind:       telemetry.KindSample,
		ElapsedUS:  s.At.Sub(sm.start).Microseconds(),
		Delivered:  s.Delivered,
		InFlight:   s.InFlight,
		Processed:  s.Processed,
		Frontier:   strconv.FormatUint(s.Frontier, 16),
		StoreTotal: storeTotal,
		QueueDepth: sm.depth(),
	})
}

// Expire records the final sample of a run whose deadline has passed and
// returns its timeout error: the sample's in-flight and per-agent counts,
// their sum as Delivered, messages as Messages, and the watchdog's report
// as of the sample.
func (sm *Sampler) Expire(s Sample, timeout time.Duration, messages int64) *TimeoutError {
	sm.Observe(s)
	te := &TimeoutError{
		Timeout:   timeout,
		InFlight:  s.InFlight,
		Messages:  messages,
		Processed: append([]int64(nil), s.Processed...),
		Report:    sm.wd.Report(s.At),
	}
	for _, p := range te.Processed {
		te.Delivered += p
	}
	return te
}
