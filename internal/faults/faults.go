// Package faults provides deterministic fault injection for the distributed
// runtimes: a seeded schedule of per-link message drop, duplication, and
// bounded delivery delay, per-agent crash points, and network partition
// windows, pluggable into the asynchronous runtime's delivery queue
// (internal/async) and the TCP hub's route loop (internal/netrun).
//
// Every decision is a pure function of (seed, link, sequence number,
// attempt), computed by hashing rather than by consuming a shared PRNG
// stream, so the fault schedule is independent of goroutine interleaving
// and call order: the same seed yields the same schedule no matter how the
// runtimes race. That is what makes chaos tests reproducible.
//
// The package also carries the crash-recovery substrate: a Checkpoints
// registry standing in for each node's durable storage, which a restarted
// node replays to rejoin a run (see sim.Checkpointer and the runtimes'
// crash handling).
package faults

import (
	"sync"
	"time"

	"github.com/discsp/discsp/internal/backoff"
)

// Config describes one fault schedule.
type Config struct {
	// Seed selects the schedule. Two injectors with equal configs make
	// identical decisions.
	Seed int64
	// Drop is the per-attempt probability of losing one delivery of a
	// message. Retransmissions are fresh attempts, so a message's loss
	// probability after k attempts is Drop^k; MaxAttempts bounds the streak.
	Drop float64
	// Duplicate is the per-message probability of delivering one extra copy.
	Duplicate float64
	// Corrupt is the per-attempt probability of delivering one copy of a
	// message with its payload bit-flipped instead of intact. On connections
	// that negotiated the CRC32C trailer the receiver detects and drops the
	// frame (counting it); elsewhere the corruption degrades to a drop —
	// either way the retransmit machinery recovers, and MaxAttempts bounds
	// the streak exactly like Drop.
	Corrupt float64
	// MaxDelay bounds the extra delivery delay injected per copy; each copy
	// is delayed by a deterministic duration in [0, MaxDelay). Zero injects
	// no delay.
	MaxDelay time.Duration
	// MaxAttempts caps consecutive drops of one message: attempt numbers at
	// or beyond it are never dropped, so every message is eventually
	// deliverable. 0 means DefaultMaxAttempts.
	MaxAttempts int
	// Crashes schedules at most one crash per agent (later entries for the
	// same agent are ignored).
	Crashes []Crash
	// Partitions schedules network partition windows. During a window the
	// agents are split into two sides — each agent's side is a pure function
	// of (Seed, window index, agent) — and messages crossing the cut are
	// withheld until the window heals, then drained. See Partition.
	Partitions []Partition
}

// Partition is one network partition window, measured as offsets from the
// run's start. While the window is open, every link between agents hashed
// to different sides is cut: the runtimes withhold crossing traffic (the
// reliable transport keeps retransmitting underneath) and drain it when the
// window heals. A window with Dur <= 0 never heals; runs that need the cut
// links then end at the stall watchdog, not at quiescence.
type Partition struct {
	// At is the window's start, as an offset from the run's start.
	At time.Duration
	// Dur is the window's length; the partition heals at At+Dur. Dur <= 0
	// marks a permanent partition that never heals.
	Dur time.Duration
}

// Crash schedules one node failure.
type Crash struct {
	// Agent is the crashing agent's id (= variable).
	Agent int
	// AfterSteps is the number of message-processing steps the agent
	// completes before the crash: the crash fires when the next batch
	// arrives, losing that delivery (the transport redelivers it).
	AfterSteps int
	// Restart makes the node rejoin after RestartDelay, restored from its
	// last checkpoint. A non-restarting crash kills the node for good.
	Restart bool
	// RestartDelay is the downtime before rejoining; 0 means
	// DefaultRestartDelay.
	RestartDelay time.Duration
}

// DefaultMaxAttempts is the drop-streak cap when Config.MaxAttempts is 0.
const DefaultMaxAttempts = 8

// DefaultRestartDelay is the downtime when Crash.RestartDelay is 0.
const DefaultRestartDelay = 5 * time.Millisecond

// Backoff bounds for the async runtime's loss model: the delay a dropped or
// corrupted attempt adds before the next one. TCP nodes do not use this
// curve; their wire.SendLink retransmits on its own base and cap
// (retransmitBase and retransmitCap in internal/netrun).
const (
	// BackoffBase is the delay before the first retransmission.
	BackoffBase = 2 * time.Millisecond
	// BackoffCap is the retransmission delay ceiling.
	BackoffCap = 64 * time.Millisecond
)

// Backoff returns the exponential retransmission delay after attempt
// consecutive failures: BackoffBase << attempt, capped at BackoffCap.
func Backoff(attempt int) time.Duration {
	return backoff.Policy{Base: BackoffBase, Cap: BackoffCap}.Delay(attempt)
}

// Injector answers fault-schedule queries. A nil *Injector is a valid
// no-fault schedule, so runtimes can hold one unconditionally.
type Injector struct {
	cfg     Config
	crashes map[int]Crash
}

// New builds the injector for cfg.
func New(cfg Config) *Injector {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	in := &Injector{cfg: cfg, crashes: make(map[int]Crash, len(cfg.Crashes))}
	for _, c := range cfg.Crashes {
		if c.RestartDelay <= 0 {
			c.RestartDelay = DefaultRestartDelay
		}
		if _, dup := in.crashes[c.Agent]; !dup {
			in.crashes[c.Agent] = c
		}
	}
	return in
}

// Dropped reports whether the attempt-th delivery of message seq on the
// from→to link is lost. Attempts at or beyond MaxAttempts always get
// through.
func (in *Injector) Dropped(from, to int, seq int64, attempt int) bool {
	if in == nil || in.cfg.Drop <= 0 || attempt >= in.cfg.MaxAttempts {
		return false
	}
	return in.rand01(from, to, seq, int64(attempt), saltDrop) < in.cfg.Drop
}

// Corrupted reports whether the attempt-th delivery of message seq on the
// from→to link has its payload damaged in flight. Attempts at or beyond
// MaxAttempts are never corrupted, so every message eventually arrives
// intact.
func (in *Injector) Corrupted(from, to int, seq int64, attempt int) bool {
	if in == nil || in.cfg.Corrupt <= 0 || attempt >= in.cfg.MaxAttempts {
		return false
	}
	return in.rand01(from, to, seq, int64(attempt), saltCorrupt) < in.cfg.Corrupt
}

// AnyCorrupt reports whether the schedule can corrupt frames at all.
func (in *Injector) AnyCorrupt() bool { return in != nil && in.cfg.Corrupt > 0 }

// Duplicated reports whether message seq on the from→to link is delivered
// twice.
func (in *Injector) Duplicated(from, to int, seq int64) bool {
	if in == nil || in.cfg.Duplicate <= 0 {
		return false
	}
	return in.rand01(from, to, seq, 0, saltDup) < in.cfg.Duplicate
}

// Delay returns the injected extra delivery delay of the copy-th copy of
// message seq on the from→to link, in [0, MaxDelay).
func (in *Injector) Delay(from, to int, seq int64, copy int) time.Duration {
	if in == nil || in.cfg.MaxDelay <= 0 {
		return 0
	}
	f := in.rand01(from, to, seq, int64(copy), saltDelay)
	return time.Duration(f * float64(in.cfg.MaxDelay))
}

// Crash returns the crash scheduled for agent, if any.
func (in *Injector) Crash(agent int) (Crash, bool) {
	if in == nil {
		return Crash{}, false
	}
	c, ok := in.crashes[agent]
	return c, ok
}

// WillRestart reports whether agent is scheduled to rejoin after crashing.
// Runtimes use it to tell a transient failure (keep queueing, await the
// re-register) from a permanent one (fail the run fast).
func (in *Injector) WillRestart(agent int) bool {
	c, ok := in.Crash(agent)
	return ok && c.Restart
}

// AnyCrash reports whether any crash is scheduled.
func (in *Injector) AnyCrash() bool { return in != nil && len(in.crashes) > 0 }

// AnyPartition reports whether any partition window is scheduled.
func (in *Injector) AnyPartition() bool { return in != nil && len(in.cfg.Partitions) > 0 }

// Partitions returns the scheduled partition windows.
func (in *Injector) Partitions() []Partition {
	if in == nil {
		return nil
	}
	return in.cfg.Partitions
}

// Side returns agent's side (0 or 1) of partition window w. Sides are a
// pure function of (Seed, w, agent): the same seed splits the agents the
// same way no matter which runtime asks, or when.
func (in *Injector) Side(w, agent int) int {
	h := splitmix64(uint64(in.cfg.Seed) ^ saltSide)
	h = splitmix64(h ^ uint64(w)*0x9e3779b97f4a7c15)
	h = splitmix64(h ^ uint64(agent)*0xc2b2ae3d27d4eb4f)
	return int(h & 1)
}

// PartitionedAt reports whether the from→to link is cut at offset at from
// the run's start. When cut, heal is the offset at which the covering
// window heals and drained traffic flows again; heals=false marks a
// permanent window (the link never recovers). Overlapping windows resolve
// to the earliest configured one covering at that actually cuts the link.
func (in *Injector) PartitionedAt(from, to int, at time.Duration) (cut bool, heal time.Duration, heals bool) {
	if in == nil {
		return false, 0, false
	}
	for w, p := range in.cfg.Partitions {
		if at < p.At {
			continue
		}
		if p.Dur > 0 && at >= p.At+p.Dur {
			continue
		}
		if in.Side(w, from) == in.Side(w, to) {
			continue
		}
		if p.Dur <= 0 {
			return true, 0, false
		}
		return true, p.At + p.Dur, true
	}
	return false, 0, false
}

// HealedBy returns how many scheduled partition windows healed within
// elapsed: the heal count a finished run reports.
func (in *Injector) HealedBy(elapsed time.Duration) int64 {
	if in == nil {
		return 0
	}
	var n int64
	for _, p := range in.cfg.Partitions {
		if p.Dur > 0 && p.At+p.Dur <= elapsed {
			n++
		}
	}
	return n
}

// decision salts keep the drop, duplicate, delay, and partition-side
// streams independent.
const (
	saltDrop    = 0x9e3779b97f4a7c15
	saltDup     = 0xc2b2ae3d27d4eb4f
	saltDelay   = 0x165667b19e3779f9
	saltSide    = 0x27d4eb2f165667c5
	saltCorrupt = 0x85ebca77c2b2ae63
)

// rand01 hashes the decision coordinates into [0, 1).
func (in *Injector) rand01(from, to int, seq, extra int64, salt uint64) float64 {
	h := splitmix64(uint64(in.cfg.Seed) ^ salt)
	h = splitmix64(h ^ uint64(from)*0x9e3779b97f4a7c15)
	h = splitmix64(h ^ uint64(to)*0xc2b2ae3d27d4eb4f)
	h = splitmix64(h ^ uint64(seq))
	h = splitmix64(h ^ uint64(extra))
	return float64(h>>11) / float64(1<<53)
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-distributed mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Checkpoints is the in-memory stand-in for per-node durable storage: nodes
// save their checkpoint after every processed step, and a restarted node
// loads the latest to rejoin the run. Snapshots are written before their
// effects are acknowledged, so recovery never loses acknowledged state.
type Checkpoints struct {
	mu    sync.Mutex
	m     map[int]any
	saves int64
}

// NewCheckpoints returns an empty registry.
func NewCheckpoints() *Checkpoints {
	return &Checkpoints{m: make(map[int]any)}
}

// Save durably records agent's checkpoint, replacing any previous one.
func (c *Checkpoints) Save(agent int, snapshot any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[agent] = snapshot
	c.saves++
}

// Load returns agent's latest checkpoint.
func (c *Checkpoints) Load(agent int) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.m[agent]
	return s, ok
}

// Saves returns the total number of Save calls (for tests).
func (c *Checkpoints) Saves() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saves
}
