package netrun

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/discsp/discsp/internal/causal"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/sim"
	"github.com/discsp/discsp/internal/telemetry"
)

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Addrs are the hub's relay addresses in shard order. Node v dials
	// Addrs[v mod len(Addrs)] — the same consistent assignment the hub
	// uses, so each node lands on its home shard.
	Addrs []string
	// Vars are the variables this worker owns; each becomes one node.
	Vars []int
	// Transport configures the worker's side of its links and should match
	// the hub's: Checksum requests the CRC32C trailer in each node's hello,
	// and a node that hears nothing from the hub (not even a heartbeat) for
	// DeadPeerTimeout abandons its connection and redials.
	Transport
	// DrainWindow bounds how long a node with a failed write drains inbound
	// frames for the hub's stop before classifying the error as a hub
	// death; 0 means the 1s default. External workers on slow links raise
	// it so a graceful hub shutdown is not mistaken for a crash.
	DrainWindow time.Duration
	// ConnectTimeout bounds each node's dial-with-retry loop — at startup,
	// where the worker may launch before the hub listens, and on
	// reconnection after a severed socket; 0 means 15s.
	ConnectTimeout time.Duration
	// Causal, when non-nil, traces this worker's nodes; their trace IDs
	// cross the hub whether or not the hub traces. The caller owns the
	// tracer (and its sink), so a worker relaunched with the same tracer
	// keeps its trace-ID counters — cause IDs stay stable across cold
	// reconnections.
	Causal *causal.Tracer
}

// WorkerStats reports one worker's transport totals after RunWorker
// returns: the worker-side view of the counters the hub's Result carries
// for in-process runs. It fills four of the block's counters: Reconnects
// (sessions re-established after a severed connection, summed over the
// worker's nodes), Retransmits, DuplicatesSuppressed, and CorruptFrames
// (inbound frames rejected by the CRC32C trailer and recovered by
// hub-side retransmission).
type WorkerStats struct {
	telemetry.Transport
}

// RunWorker runs agent nodes against an external hub — a Run with
// Options.External on another goroutine, process, or machine (cmd/dcspnode
// is the process form). It blocks until the hub broadcasts stop or tears
// the connections down; once any node observes the stop, its siblings'
// subsequent socket errors count as the same clean shutdown. Faults are
// hub-side configuration, so worker nodes never crash-restart — but they do
// reconnect: a node that loses its socket mid-solve redials and resumes,
// and one that dials before the hub listens retries until ConnectTimeout.
func RunWorker(problem *csp.Problem, makeAgent func(v csp.Var) sim.Agent, opts WorkerOptions) (WorkerStats, error) {
	if len(opts.Addrs) == 0 {
		return WorkerStats{}, errors.New("netrun: worker needs at least one relay address")
	}
	if len(opts.Vars) == 0 {
		return WorkerStats{}, errors.New("netrun: worker owns no variables")
	}
	n := problem.NumVars()
	for _, v := range opts.Vars {
		if v < 0 || v >= n {
			return WorkerStats{}, fmt.Errorf("netrun: worker variable %d out of range [0,%d)", v, n)
		}
	}
	hb, deadPeer := opts.liveness()
	ctr := nodeCounters{checks: make([]atomic.Int64, n)}
	done := make(chan struct{})
	var once sync.Once
	stopped := func() { once.Do(func() { close(done) }) }

	var wg sync.WaitGroup
	errs := make(chan error, len(opts.Vars))
	for _, v := range opts.Vars {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			cfg := nodeConfig{
				addr:           opts.Addrs[shardOf(v, len(opts.Addrs))],
				v:              csp.Var(v),
				makeAgent:      makeAgent,
				crc:            opts.Checksum,
				causal:         opts.Causal,
				hb:             hb,
				ctr:            &ctr,
				done:           done,
				onStop:         stopped,
				drainWindow:    opts.DrainWindow,
				reconnect:      true,
				connectTimeout: opts.ConnectTimeout,
				deadPeer:       deadPeer,
			}
			if _, err := runNode(cfg, 0); err != nil {
				errs <- fmt.Errorf("node %d: %w", v, err)
			}
		}(v)
	}
	wg.Wait()
	close(errs)
	stats := WorkerStats{telemetry.Transport{
		Reconnects:           ctr.reconnects.Load(),
		Retransmits:          ctr.retransmits.Load(),
		DuplicatesSuppressed: ctr.dups.Load(),
		CorruptFrames:        ctr.corrupt.Load(),
	}}
	for err := range errs {
		return stats, err
	}
	return stats, nil
}
