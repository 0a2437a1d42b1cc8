package discsp

import (
	"errors"
	"fmt"
	"time"

	"github.com/discsp/discsp/internal/abt"
	"github.com/discsp/discsp/internal/async"
	"github.com/discsp/discsp/internal/breakout"
	"github.com/discsp/discsp/internal/causal"
	"github.com/discsp/discsp/internal/core"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/faults"
	"github.com/discsp/discsp/internal/gen"
	"github.com/discsp/discsp/internal/netrun"
	"github.com/discsp/discsp/internal/nogood"
	"github.com/discsp/discsp/internal/progress"
	"github.com/discsp/discsp/internal/sim"
	"github.com/discsp/discsp/internal/telemetry"
)

// AlgorithmKind selects the distributed algorithm.
type AlgorithmKind int

const (
	// AWC is asynchronous weak-commitment search with nogood learning —
	// the paper's algorithm and the default.
	AWC AlgorithmKind = iota + 1
	// DB is the distributed breakout algorithm.
	DB
	// ABT is asynchronous backtracking.
	ABT
)

// String implements fmt.Stringer.
func (k AlgorithmKind) String() string {
	switch k {
	case AWC:
		return "AWC"
	case DB:
		return "DB"
	case ABT:
		return "ABT"
	default:
		return fmt.Sprintf("AlgorithmKind(%d)", int(k))
	}
}

// LearningKind selects AWC's nogood-learning strategy.
type LearningKind int

const (
	// LearnResolvent is the paper's resolvent-based learning (default).
	LearnResolvent LearningKind = iota + 1
	// LearnMCS is mcs-based (minimum conflict set) learning.
	LearnMCS
	// LearnNone disables learning (the agent breaks deadends by raising
	// its priority only); AWC becomes incomplete.
	LearnNone
)

// Options configures Solve and SolveAsync. The zero value requests AWC with
// unrestricted resolvent-based learning, the paper's 10000-cycle cutoff,
// and all-zero initial values.
type Options struct {
	// Algorithm selects AWC (default), DB, or ABT.
	Algorithm AlgorithmKind
	// Learning selects AWC's learning strategy; ignored by DB and ABT.
	Learning LearningKind
	// LearningSizeBound, when positive, is the k of size-bounded learning
	// (kthRslv): only nogoods of size ≤ k are recorded.
	LearningSizeBound int
	// Initial supplies per-variable initial values; nil means value 0 for
	// every variable, and InitialSeed != 0 draws them at random.
	Initial SliceAssignment
	// InitialSeed, when nonzero and Initial is nil, draws uniform random
	// initial values deterministically from this seed.
	InitialSeed int64
	// MaxCycles is the synchronous cutoff; 0 means 10000 (Solve only).
	MaxCycles int
	// Timeout bounds SolveAsync's wall-clock time; 0 means 30s.
	Timeout time.Duration
	// FaultProfile, when non-empty, injects a deterministic fault schedule
	// into SolveAsync and SolveTCP (Solve has no network). The syntax is
	// faults.ProfileSyntax: comma-separated drop=P, dup=P, corrupt=P,
	// delay=DUR, crash=AGENT@STEPS[rDUR], partition=AT+DUR (or AT+never),
	// or the "chaos" preset. The algorithms ride out every profile the
	// transport can survive; the Result transport counters report what it
	// cost.
	FaultProfile string
	// FaultSeed seeds the fault schedule's hash-keyed decisions; 0 means 1.
	// Same profile + same seed = same faults, independent of scheduling.
	FaultSeed int64
	// Trace, when non-nil, receives one event per synchronous cycle
	// (Solve only).
	Trace func(CycleEvent)
	// WatchdogCadence overrides the stall watchdog's sampling period in
	// SolveAsync and SolveTCP; 0 means progress.DefaultCadence (25ms).
	// Sampling is observational only — it never changes run results.
	WatchdogCadence time.Duration
	// Telemetry, when non-nil, attaches the unified observability layer:
	// metrics accumulate in its registry and, when it carries an event
	// stream, the run emits the schema-2 JSONL telemetry stream (meta,
	// per-cycle / per-sample progress, per-agent totals, end verdict,
	// metrics snapshot). Telemetry is observationally inert: enabling it
	// never changes cycles, maxcck, traces, or any other result.
	Telemetry *Telemetry
	// Retention bounds each agent's learned-nogood store (AWC and ABT; DB
	// does not learn). The zero value is the paper's unbounded reference.
	// Parse CLI syntax ("all", "lru:512", "activity:512") with
	// ParseRetention. Eviction never admits a wrong solution — learned
	// nogoods are implied by the problem's constraints — and a cap the run
	// never reaches is bit-identical to the reference. A cap that binds can
	// cost more than re-deriving forgotten knowledge: it can end a SolveAsync
	// or SolveTCP run quiescent and unsolved (Solved and Insoluble false, nil
	// error), because AWC does not resend a nogood it has just sent, though
	// a recipient may have evicted it since.
	Retention Retention
	// TCPShards splits SolveTCP's hub across N relay listeners (node v
	// connects to shard v mod N); 0 or 1 means a single listener. Sharding
	// scales socket I/O and decoding without changing any routing decision:
	// verdicts and message counts are identical across shard counts.
	TCPShards int
	// TCPListen binds SolveTCP's relays to fixed "host:port" addresses
	// instead of loopback ephemeral ports; required for external worker
	// processes. When non-empty it determines the shard count, which must
	// match TCPShards if both are set.
	TCPListen []string
	// TCPExternal suppresses SolveTCP's in-process nodes: the hub listens
	// and external workers (SolveTCPWorker, cmd/dcspnode) own the agents.
	TCPExternal bool
	// TCPOnListen, when non-nil, is called once with the bound relay
	// addresses in shard order before any node starts.
	TCPOnListen func(addrs []string)
	// TCPTransport configures both ends of SolveTCP's links, and a
	// SolveTCPWorker's side of its own: the CRC32C frame trailer
	// (Checksum), the liveness beacon period (Heartbeat; 0 means 500ms,
	// negative disables), and the silence after which a peer is declared
	// dead (DeadPeerTimeout; 0 means 4× the heartbeat). A hub and its
	// workers should share one value.
	TCPTransport TCPTransport
	// TCPReconnectGrace is how long the hub parks an unreachable node's
	// frames awaiting its re-hello (a worker redial or process relaunch)
	// before failing the run; 0 means 3s, negative fails immediately.
	TCPReconnectGrace time.Duration
	// Causal, when non-nil, attaches the causal-tracing layer
	// (internal/causal): every delivered message carries a deterministic
	// (agent, counter) trace ID, every agent activation is recorded as a
	// recv→compute→sends span, and every learned or stored nogood records
	// its cause set — the schema-3 span events dcsptrace turns into the
	// critical path, the nogood provenance DAG, and the Perfetto export.
	// Solve, SolveAsync, SolveTCP and SolveTCPWorker all read it (a
	// TCPExternal hub rejects it: its workers hold the spans). The
	// stream may be the run's Telemetry bundle (spans interleave with the
	// other events) or a separate one (a dedicated -trace-out file); a
	// separate stream gets its own meta and end events so dcsptrace sees
	// the runtime and verdict. Over TCP, trace IDs cross the hub with every
	// traced message, whether or not the hub's own run is traced. Causal
	// tracing is observationally inert: enabling it never changes
	// verdicts, assignments, message counts, or any non-span event (pinned
	// by TestCausalInert).
	Causal *Telemetry
	// WarmCache, when non-nil, warm-starts AWC from nogoods learned by
	// previous runs: before the run each agent is seeded with the cached
	// nogoods mentioning its variable (when the cache holds an entry
	// admissible for p — same variables and domains, constraint keys a
	// subset of p's), and after a synchronous Solve the surviving learned
	// nogoods are harvested back into the cache. Seeding charges no
	// checks; the measured effect is the cycles/checks delta BENCH_6.json
	// reports. Ignored by DB and ABT.
	WarmCache *NogoodCache
}

// TCPTransport is the link configuration a SolveTCP hub and its nodes
// share; see Options.TCPTransport.
type TCPTransport = netrun.Transport

// Retention is a nogood-store retention policy; see the nogood package for
// the policy semantics (RetainAll / RetainLRU / RetainActivity).
type Retention = nogood.Retention

// Retention policy kinds, re-exported for Options.Retention construction.
const (
	// RetainAll never evicts (the reference).
	RetainAll = nogood.RetainAll
	// RetainLRU evicts the least-recently-used learned nogood over the cap.
	RetainLRU = nogood.RetainLRU
	// RetainActivity evicts the lowest-value learned nogood over the cap
	// (fewest violation hits, then longest, then stalest).
	RetainActivity = nogood.RetainActivity
)

// ParseRetention parses the -retention flag syntax: "all", "lru:<cap>", or
// "activity:<cap>".
func ParseRetention(s string) (Retention, error) { return nogood.ParseRetention(s) }

// ParseAlgorithm parses the -algo flag syntax: "awc", "db", or "abt".
func ParseAlgorithm(s string) (AlgorithmKind, error) {
	switch s {
	case "awc":
		return AWC, nil
	case "db":
		return DB, nil
	case "abt":
		return ABT, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q (want awc, db, or abt)", s)
}

// ParseLearning parses the -learn flag syntax: "rslv", "mcs", or "none".
func ParseLearning(s string) (LearningKind, error) {
	switch s {
	case "rslv":
		return LearnResolvent, nil
	case "mcs":
		return LearnMCS, nil
	case "none":
		return LearnNone, nil
	}
	return 0, fmt.Errorf("unknown learning %q (want rslv, mcs, or none)", s)
}

// NogoodCache is the persistent cross-run nogood cache; see Options.WarmCache.
type NogoodCache = nogood.Cache

// NewNogoodCache returns an empty warm-start cache.
func NewNogoodCache() *NogoodCache { return nogood.NewCache() }

// LoadNogoodCache reads a cache written by its Save method; a missing file
// yields an empty cache.
func LoadNogoodCache(path string) (*NogoodCache, error) { return nogood.LoadCache(path) }

// CycleEvent describes one completed synchronous cycle for tracing.
type CycleEvent = sim.CycleEvent

// Result reports a solving attempt.
type Result struct {
	// Solved reports whether a solution was found.
	Solved bool
	// Insoluble reports a proof that no solution exists (complete
	// configurations only: AWC with unrestricted learning, or ABT).
	Insoluble bool
	// Assignment is the solution when Solved, otherwise the final state.
	Assignment SliceAssignment
	// Cycles is the synchronous cycle count (Solve only).
	Cycles int
	// MaxCCK is the paper's computation metric: the sum over cycles of the
	// per-cycle maximum number of nogood checks across agents (Solve only).
	MaxCCK int64
	// TotalChecks sums all agents' nogood checks.
	TotalChecks int64
	// Messages is the total number of messages delivered.
	Messages int64
	// MessagesByType breaks synchronous deliveries down by message kind
	// (e.g. "core.Ok", "core.NogoodMsg"); nil for asynchronous runs.
	MessagesByType map[string]int
	// Duration is the wall-clock time (SolveAsync only).
	Duration time.Duration

	// TransportCounters holds the reliability and wire counters (SolveAsync
	// and SolveTCP; the reconnect, heartbeat, corrupt-frame, byte and batch
	// counters are SolveTCP only). Nonzero counts mean the reliability
	// layer did work: frames resent past a drop or partition, duplicate
	// deliveries suppressed, crashed agents restarted from their
	// checkpoints. A clean TCP run may still retransmit under congestion.
	// Its Suffix method renders the " retrans=… dups=…" block every CLI
	// surface appends.
	TransportCounters
}

func (o Options) learning() core.Learning {
	l := core.Learning{Kind: core.LearnResolvent, SizeBound: o.LearningSizeBound, Retention: o.Retention}
	switch o.Learning {
	case LearnMCS:
		l.Kind = core.LearnMCS
	case LearnNone:
		l.Kind = core.LearnNone
	}
	return l
}

func (o Options) initial(p *Problem) (SliceAssignment, error) {
	if o.Initial != nil {
		if len(o.Initial) != p.NumVars() {
			return nil, fmt.Errorf("discsp: %d initial values for %d variables", len(o.Initial), p.NumVars())
		}
		return o.Initial, nil
	}
	if o.InitialSeed != 0 {
		return gen.RandomInitial(p, o.InitialSeed), nil
	}
	init := make(SliceAssignment, p.NumVars())
	for v := 0; v < p.NumVars(); v++ {
		init[v] = p.Domain(Var(v))[0]
	}
	return init, nil
}

func (o Options) faults() (*faults.Config, error) {
	if o.FaultProfile == "" {
		return nil, nil
	}
	seed := o.FaultSeed
	if seed == 0 {
		seed = 1
	}
	cfg, err := faults.ParseProfile(o.FaultProfile, seed)
	if err != nil {
		return nil, fmt.Errorf("discsp: fault profile: %w", err)
	}
	return cfg, nil
}

func (o Options) makeAgent(p *Problem, init SliceAssignment) func(v csp.Var) sim.Agent {
	switch o.Algorithm {
	case DB:
		return func(v csp.Var) sim.Agent { return breakout.NewAgent(v, p, init[v]) }
	case ABT:
		return func(v csp.Var) sim.Agent { return abt.NewAgentRetention(v, p, init[v], o.Retention) }
	default:
		learning := o.learning()
		seeds := o.warmSeeds(p)
		return func(v csp.Var) sim.Agent {
			a := core.NewAgent(v, p, init[v], learning)
			if seeds != nil {
				a.SeedNogoods(seeds[v])
			}
			return a
		}
	}
}

// warmSeeds resolves the warm-start cache against p once: the admissible
// cached nogoods, grouped per variable they mention — the same fan-out a
// NogoodMsg would have had. Nil when there is no cache or no admissible
// entry (cold start).
func (o Options) warmSeeds(p *Problem) [][]csp.Nogood {
	if o.WarmCache == nil {
		return nil
	}
	cached := o.WarmCache.Seed(p)
	if len(cached) == 0 {
		return nil
	}
	seeds := make([][]csp.Nogood, p.NumVars())
	for _, ng := range cached {
		for i := 0; i < ng.Len(); i++ {
			v := ng.At(i).Var
			seeds[v] = append(seeds[v], ng)
		}
	}
	return seeds
}

// learnedNogooder is implemented by agents exposing their surviving learned
// nogoods for warm-start harvesting.
type learnedNogooder interface{ LearnedNogoods() []csp.Nogood }

// harvestWarmCache folds every agent's surviving learned nogoods back into
// the warm-start cache after a run.
func harvestWarmCache(cache *NogoodCache, p *Problem, agents []sim.Agent) {
	if cache == nil {
		return
	}
	var all []csp.Nogood
	seen := make(map[string]struct{})
	for _, a := range agents {
		ln, ok := a.(learnedNogooder)
		if !ok {
			continue
		}
		for _, ng := range ln.LearnedNogoods() {
			if _, dup := seen[ng.Key()]; dup {
				continue
			}
			seen[ng.Key()] = struct{}{}
			all = append(all, ng)
		}
	}
	cache.Put(p, all)
}

// startRun opens a run's observation: the meta event on Telemetry, and on
// Causal when that is a separate stream (the graph builder learns the
// runtime from it, and classifies inter-span latency as queue vs. wire),
// then the tracer over Causal (nil when Causal is).
func (o Options) startRun(p *Problem, runtime string) *causal.Tracer {
	meta := telemetry.Event{
		Kind:      telemetry.KindMeta,
		Runtime:   runtime,
		Algorithm: o.AlgorithmName(),
		Vars:      p.NumVars(),
		Nogoods:   p.NumNogoods(),
	}
	o.Telemetry.Emit(meta)
	if o.Causal != o.Telemetry {
		o.Causal.Emit(meta)
	}
	return causal.New(o.Causal, p)
}

// finish closes a run's observation, for every runtime: on Telemetry the
// end verdict, carrying the transport counters when any is nonzero, and a
// metrics snapshot; on Causal, when that is a separate stream, the end
// verdict alone (a worker, which has none, passes a zero Result). The end
// event doubles as the stream-completeness marker dcsptrace requires.
func (o Options) finish(out Result) {
	if o.Telemetry != nil {
		ev := endEvent(out)
		if t := out.TransportCounters; !t.IsZero() {
			ev.Transport = &t
		}
		o.Telemetry.Emit(ev)
		o.Telemetry.EmitSnapshot()
	}
	if o.Causal != nil && o.Causal != o.Telemetry {
		o.Causal.Emit(endEvent(out))
	}
}

// endEvent is the verdict event that closes a run's streams.
func endEvent(out Result) telemetry.Event {
	return telemetry.Event{
		Kind:        telemetry.KindEnd,
		Solved:      out.Solved,
		Insoluble:   out.Insoluble,
		Cycles:      out.Cycles,
		MaxCCK:      out.MaxCCK,
		TotalChecks: out.TotalChecks,
		Messages:    out.Messages,
		DurationUS:  out.Duration.Microseconds(),
	}
}

// finishConcurrent converts the result of the async or tcp runtime, which
// has already written its per-agent record, and closes the run's
// observation.
func (o Options) finishConcurrent(res progress.Result) Result {
	out := Result{
		Solved:            res.Solved,
		Insoluble:         res.Insoluble,
		Assignment:        res.Assignment,
		TotalChecks:       res.TotalChecks,
		Messages:          res.Messages,
		Duration:          res.Duration,
		TransportCounters: res.Transport,
	}
	o.finish(out)
	return out
}

// Solve runs the selected algorithm on the deterministic synchronous
// simulator and reports the paper's cost metrics.
func Solve(p *Problem, opts Options) (Result, error) {
	init, err := opts.initial(p)
	if err != nil {
		return Result{}, err
	}
	tracer := opts.startRun(p, "sync")
	tel := opts.Telemetry
	makeAgent, _ := telemetry.InstrumentStores(tel.Registry(), p.NumVars(), opts.makeAgent(p, init))
	agents := buildAgents(p.NumVars(), makeAgent)
	trace := opts.Trace
	if tel != nil {
		trace = teeCycleEvents(tel, agents, opts.Trace)
	}
	res, err := sim.Run(p, agents, sim.Options{MaxCycles: opts.MaxCycles, Trace: trace, Causal: tracer})
	if err != nil {
		return Result{}, err
	}
	out := Result{
		Solved:         res.Solved,
		Insoluble:      res.Insoluble,
		Assignment:     res.Assignment,
		Cycles:         res.Cycles,
		MaxCCK:         res.MaxCCK,
		TotalChecks:    res.TotalChecks,
		Messages:       int64(res.Messages),
		MessagesByType: res.MessagesByType,
	}
	if tel != nil {
		emitSyncTotals(tel, agents, out)
	}
	opts.finish(out)
	if opts.Algorithm == AWC || opts.Algorithm == 0 {
		harvestWarmCache(opts.WarmCache, p, agents)
	}
	return out, nil
}

// teeCycleEvents chains the caller's trace hook (if any) with a telemetry
// tee that emits one cycle event per synchronous cycle, carrying the summed
// nogood-store size alongside the simulator's message and check counters.
// Histograms are resolved here, once, before the run.
func teeCycleEvents(tel *Telemetry, agents []sim.Agent, inner func(CycleEvent)) func(CycleEvent) {
	storeAgents := make([]telemetry.StoreSizer, 0, len(agents))
	for _, a := range agents {
		if s, ok := a.(telemetry.StoreSizer); ok {
			storeAgents = append(storeAgents, s)
		}
	}
	reg := tel.Registry()
	msgHist := reg.Histogram("discsp_cycle_messages", telemetry.MessageBuckets)
	checksHist := reg.Histogram("discsp_cycle_max_checks", telemetry.ChecksBuckets)
	return func(ev CycleEvent) {
		if inner != nil {
			inner(ev)
		}
		var storeTotal int64
		for _, s := range storeAgents {
			storeTotal += int64(s.StoreSize())
		}
		tel.Emit(telemetry.Event{
			Kind:        telemetry.KindCycle,
			Cycle:       ev.Cycle,
			MessagesIn:  ev.MessagesIn,
			MessagesOut: ev.MessagesOut,
			MaxChecks:   ev.MaxChecks,
			StoreTotal:  storeTotal,
		})
		msgHist.Observe(int64(ev.MessagesIn))
		checksHist.Observe(ev.MaxChecks)
	}
}

// emitSyncTotals writes a synchronous run's per-agent totals and adds its
// cycle, check and message counters to the registry.
func emitSyncTotals(tel *Telemetry, agents []sim.Agent, out Result) {
	for i, a := range agents {
		ev := telemetry.Event{Kind: telemetry.KindAgent, Agent: i, Checks: a.Checks()}
		if s, ok := a.(telemetry.StoreSizer); ok {
			ev.StoreSize = int64(s.StoreSize())
		}
		tel.Emit(ev)
	}
	reg := tel.Registry()
	reg.Counter("discsp_cycles_total").Add(int64(out.Cycles))
	reg.Counter("discsp_checks_total").Add(out.TotalChecks)
	reg.Counter("discsp_messages_total").Add(out.Messages)
}

// SolveAsync runs the selected algorithm on the goroutine-per-agent
// asynchronous runtime. Cycle-based metrics do not apply; Duration,
// Messages, and TotalChecks are reported instead.
func SolveAsync(p *Problem, opts Options) (Result, error) {
	init, err := opts.initial(p)
	if err != nil {
		return Result{}, err
	}
	fcfg, err := opts.faults()
	if err != nil {
		return Result{}, err
	}
	tracer := opts.startRun(p, "async")
	res, err := async.Run(p, opts.makeAgent(p, init), async.Options{
		Timeout:         opts.Timeout,
		Faults:          fcfg,
		WatchdogCadence: opts.WatchdogCadence,
		Telemetry:       opts.Telemetry,
		Causal:          tracer,
	})
	return opts.finishConcurrent(res), err
}

// SolveTCP runs the selected algorithm over an actual TCP network: a hub of
// sharded relays routes wire-framed messages between one node per agent.
// The same agents as Solve and SolveAsync cross a real socket boundary —
// the paper's "can work on any type of distributed systems" claim in its
// strongest locally-testable form. Metrics follow SolveAsync's, plus the
// wire-level byte/batch counters. Frames travel in the binary codec,
// coalesced into batches. With TCPExternal the agents run in the workers,
// so Options.Causal is an error: trace them with SolveTCPWorker's
// Options.Causal (dcspnode -causal).
func SolveTCP(p *Problem, opts Options) (Result, error) {
	if opts.TCPExternal && opts.Causal != nil {
		return Result{}, errors.New("discsp: SolveTCP with TCPExternal records no spans: the agents run in the workers, so trace them with SolveTCPWorker's Options.Causal (dcspnode -causal)")
	}
	init, err := opts.initial(p)
	if err != nil {
		return Result{}, err
	}
	fcfg, err := opts.faults()
	if err != nil {
		return Result{}, err
	}
	tracer := opts.startRun(p, "tcp")
	res, err := netrun.Run(p, opts.makeAgent(p, init), netrun.Options{
		Timeout:         opts.Timeout,
		Faults:          fcfg,
		WatchdogCadence: opts.WatchdogCadence,
		Telemetry:       opts.Telemetry,
		Causal:          tracer,
		Shards:          opts.TCPShards,
		Transport:       opts.TCPTransport,
		ReconnectGrace:  opts.TCPReconnectGrace,
		Listen:          opts.TCPListen,
		External:        opts.TCPExternal,
		OnListen:        opts.TCPOnListen,
	})
	return opts.finishConcurrent(res), err
}

// TCPWorkerOptions configures SolveTCPWorker.
type TCPWorkerOptions struct {
	// Addrs are the hub's relay addresses in shard order (the hub's
	// Options.TCPListen, or what its TCPOnListen callback reported). Node v
	// dials Addrs[v mod len(Addrs)] — the hub's shard assignment.
	Addrs []string
	// Vars are the variables this worker owns; each becomes one node.
	Vars []int
	// DrainWindow bounds how long a node whose write failed keeps draining
	// inbound frames for the hub's stop before classifying the failure as
	// a hub death; 0 means the 1s default. Raise it for workers on slow or
	// congested links so a graceful hub shutdown racing a write is not
	// reported as a crash.
	DrainWindow time.Duration
	// ConnectTimeout bounds each node's dial-with-retry loop, both at
	// startup (the worker may launch before the hub listens) and when
	// redialing after a severed connection; 0 means 15s.
	ConnectTimeout time.Duration
}

// TCPWorkerStats reports one worker process's transport totals after
// SolveTCPWorker returns — the worker-side view of the reliability counters
// the hub's Result carries for in-process runs: Reconnects, Retransmits,
// DuplicatesSuppressed and CorruptFrames.
type TCPWorkerStats = netrun.WorkerStats

// SolveTCPWorker runs agent nodes for a subset of p's variables against an
// external SolveTCP hub (one started with Options.TCPExternal — in another
// goroutine, process, or machine; cmd/dcspnode is the process form). opts
// supplies the algorithm configuration, which must match the hub's problem,
// and TCPTransport for this worker's side of its links: Checksum requests
// the frame trailer, which takes effect when the hub armed it too.
// Options.Causal traces this worker's nodes into its own stream, whether or
// not the hub traces; the stream is self-consistent on its own and ends
// with an end event that carries no verdict (the hub's result does).
// Options.Telemetry is an error: the hub records a run's telemetry, and a
// worker has no event sink. SolveTCPWorker blocks until the hub finishes
// the run and tears the connections down; the hub's SolveTCP result carries
// the verdict, and the returned stats carry this worker's transport totals.
// Workers survive a hub that is not yet listening (dial retry until
// ConnectTimeout) and connections severed mid-solve (redial, re-hello, and
// replay).
func SolveTCPWorker(p *Problem, opts Options, w TCPWorkerOptions) (TCPWorkerStats, error) {
	if opts.Telemetry != nil {
		return TCPWorkerStats{}, errors.New("discsp: SolveTCPWorker takes no Options.Telemetry: the hub's SolveTCP records the run's telemetry (trace a worker with Options.Causal)")
	}
	init, err := opts.initial(p)
	if err != nil {
		return TCPWorkerStats{}, err
	}
	tracer := opts.startRun(p, "tcp")
	st, err := netrun.RunWorker(p, opts.makeAgent(p, init), netrun.WorkerOptions{
		Addrs:          w.Addrs,
		Vars:           w.Vars,
		Transport:      opts.TCPTransport,
		DrainWindow:    w.DrainWindow,
		ConnectTimeout: w.ConnectTimeout,
		Causal:         tracer,
	})
	opts.finish(Result{})
	return st, err
}

// IsTimeout reports whether err is (or wraps) a runtime deadline expiry
// from SolveAsync or SolveTCP. Solve has no wall-clock deadline; its cutoff
// is MaxCycles, reported as an unsolved Result, not an error.
func IsTimeout(err error) bool {
	return errors.Is(err, progress.ErrTimeout)
}

// TimeoutReport extracts the stall watchdog's diagnosis from a timeout
// error: the stalled / livelock / converging classification with per-agent
// progress that SolveAsync and SolveTCP attach when their deadline expires.
// ok is false when err carries no report (not a timeout, or the run died
// before the watchdog sampled).
func TimeoutReport(err error) (report string, ok bool) {
	var te *progress.TimeoutError
	if errors.As(err, &te) && te.Report != nil {
		return te.Report.String(), true
	}
	return "", false
}

func buildAgents(n int, makeAgent func(v csp.Var) sim.Agent) []sim.Agent {
	agents := make([]sim.Agent, n)
	for v := 0; v < n; v++ {
		agents[v] = makeAgent(csp.Var(v))
	}
	return agents
}
