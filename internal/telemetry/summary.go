package telemetry

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// AgentSummary is one agent's quiescence-point totals from a stream.
type AgentSummary struct {
	Agent     int
	Checks    int64
	Processed int64
	StoreSize int64
}

// Summary condenses a telemetry stream: run identity from the meta event,
// verdict from the end event, per-agent totals from agent events,
// per-cycle peaks from cycle events, and nogood-store growth from the
// cycle/sample timeline.
type Summary struct {
	Runtime   string
	Algorithm string
	Vars      int
	Nogoods   int

	Solved      bool
	Insoluble   bool
	Ended       bool // an end event was present (stream not truncated)
	Cycles      int
	MaxCCK      int64
	TotalChecks int64
	Messages    int64
	Duration    time.Duration
	Transport   Transport

	Agents []AgentSummary

	// Per-cycle peaks over the cycle events of a synchronous run: the
	// cycle with the largest per-cycle max checks, and the cycle with the
	// most deliveries (the first such cycle on ties). Both cycles are 0
	// when the stream has no cycle events.
	BusiestCycle       int
	BusiestCycleChecks int64
	PeakMessagesCycle  int
	PeakMessages       int

	// Store growth over the run, from the storeTotal field of cycle (sync)
	// or sample (async/tcp) events: first observation, peak, and last.
	StoreObservations    int
	StoreFirst           int64
	StorePeak            int64
	StoreLast            int64
	Samples              int
	FrontierTransitions  int // samples whose frontier hash differs from the previous one
	Cells                map[string]int
	TrialsSolved, Trials int
}

// Summarize folds a decoded stream (from Read) into a Summary.
func Summarize(events []Event) Summary {
	var s Summary
	s.Cells = make(map[string]int)
	lastFrontier := ""
	for _, ev := range events {
		switch ev.Kind {
		case KindMeta:
			if ev.Runtime != "" {
				s.Runtime = ev.Runtime
			}
			if ev.Algorithm != "" {
				s.Algorithm = ev.Algorithm
			}
			if ev.Vars != 0 {
				s.Vars = ev.Vars
			}
			if ev.Nogoods != 0 {
				s.Nogoods = ev.Nogoods
			}
		case KindCycle:
			s.observeStore(ev.StoreTotal)
			if s.BusiestCycle == 0 || ev.MaxChecks > s.BusiestCycleChecks {
				s.BusiestCycle, s.BusiestCycleChecks = ev.Cycle, ev.MaxChecks
			}
			if s.PeakMessagesCycle == 0 || ev.MessagesIn > s.PeakMessages {
				s.PeakMessagesCycle, s.PeakMessages = ev.Cycle, ev.MessagesIn
			}
		case KindSample:
			s.Samples++
			s.observeStore(ev.StoreTotal)
			if ev.Frontier != lastFrontier {
				if lastFrontier != "" {
					s.FrontierTransitions++
				}
				lastFrontier = ev.Frontier
			}
		case KindTrial:
			s.Trials++
			s.Cells[ev.Cell]++
			if ev.Solved {
				s.TrialsSolved++
			}
		case KindAgent:
			s.Agents = append(s.Agents, AgentSummary{
				Agent: ev.Agent, Checks: ev.Checks,
				Processed: ev.AgentProcessed, StoreSize: ev.StoreSize,
			})
		case KindEnd:
			s.Ended = true
			s.Solved, s.Insoluble = ev.Solved, ev.Insoluble
			s.Cycles, s.MaxCCK = ev.Cycles, ev.MaxCCK
			s.TotalChecks, s.Messages = ev.TotalChecks, ev.Messages
			s.Duration = time.Duration(ev.DurationUS) * time.Microsecond
			if ev.Transport != nil {
				s.Transport = *ev.Transport
			}
		}
	}
	sort.Slice(s.Agents, func(i, j int) bool { return s.Agents[i].Agent < s.Agents[j].Agent })
	if s.TotalChecks == 0 {
		// The tcp runtime's result has no run-wide check total; recover it
		// from the per-agent quiescence events.
		for _, a := range s.Agents {
			s.TotalChecks += a.Checks
		}
	}
	return s
}

func (s *Summary) observeStore(total int64) {
	if s.StoreObservations == 0 {
		s.StoreFirst = total
	}
	s.StoreObservations++
	if total > s.StorePeak {
		s.StorePeak = total
	}
	s.StoreLast = total
}

// Fprint renders the summary in dcsptrace's style.
func (s Summary) Fprint(w io.Writer) error {
	rt := s.Runtime
	if rt == "" {
		rt = "?"
	}
	if _, err := fmt.Fprintf(w, "runtime=%s algorithm=%s vars=%d nogoods=%d\n", rt, s.Algorithm, s.Vars, s.Nogoods); err != nil {
		return err
	}
	if !s.Ended {
		// Bench streams close with trial events and a snapshot, not an end
		// verdict; only a verdict-bearing stream that lost it is truncated.
		if s.Trials == 0 {
			if _, err := fmt.Fprintln(w, "stream truncated: no end event"); err != nil {
				return err
			}
		}
	} else {
		verdict := "unsolved"
		switch {
		case s.Solved:
			verdict = "solved"
		case s.Insoluble:
			verdict = "insoluble"
		}
		if _, err := fmt.Fprintf(w, "verdict=%s", verdict); err != nil {
			return err
		}
		if s.Cycles > 0 {
			if _, err := fmt.Fprintf(w, " cycles=%d maxcck=%d", s.Cycles, s.MaxCCK); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, " checks=%d messages=%d", s.TotalChecks, s.Messages); err != nil {
			return err
		}
		if s.Duration > 0 {
			if _, err := fmt.Fprintf(w, " duration=%v", s.Duration.Round(time.Microsecond)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s\n", s.Transport.Suffix()); err != nil {
			return err
		}
	}
	if s.Trials > 0 {
		if _, err := fmt.Fprintf(w, "trials=%d solved=%d cells=%d\n", s.Trials, s.TrialsSolved, len(s.Cells)); err != nil {
			return err
		}
	}
	if s.BusiestCycle > 0 {
		if _, err := fmt.Fprintf(w, "peak deliveries: %d at cycle %d\nbusiest cycle: %d (%d checks)\n",
			s.PeakMessages, s.PeakMessagesCycle, s.BusiestCycle, s.BusiestCycleChecks); err != nil {
			return err
		}
	}
	if s.Samples > 0 {
		if _, err := fmt.Fprintf(w, "progress samples=%d frontier transitions=%d\n", s.Samples, s.FrontierTransitions); err != nil {
			return err
		}
	}
	if s.StoreObservations > 0 {
		if _, err := fmt.Fprintf(w, "nogood store growth: first=%d peak=%d last=%d (over %d observations)\n",
			s.StoreFirst, s.StorePeak, s.StoreLast, s.StoreObservations); err != nil {
			return err
		}
	}
	if len(s.Agents) > 0 {
		if _, err := fmt.Fprintf(w, "  %-6s %-12s %-10s %s\n", "agent", "checks", "processed", "store"); err != nil {
			return err
		}
		for _, a := range s.Agents {
			if _, err := fmt.Fprintf(w, "  %-6d %-12d %-10d %d\n", a.Agent, a.Checks, a.Processed, a.StoreSize); err != nil {
				return err
			}
		}
	}
	return nil
}
