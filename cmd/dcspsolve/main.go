// Command dcspsolve solves one DIMACS instance (CNF or COL) with a chosen
// distributed algorithm and prints the paper's cost metrics.
//
// Usage:
//
//	dcspsolve -algo awc -learn rslv problem.cnf
//	dcspsolve -algo awc -learn rslv -k 3 graph.col     # AWC+3rdRslv
//	dcspsolve -algo db graph.col
//	dcspsolve -algo awc -async problem.cnf             # goroutine runtime
//	dcspsolve -algo central problem.cnf                # centralized oracle
//	dcspsolve -trials 20 -workers 8 problem.cnf        # 20 seeded trials, pooled
//	dcspsolve -async -faults chaos problem.cnf         # adversarial network
//	dcspsolve -trials 50 -journal t.jsonl problem.cnf  # journal trials
//	dcspsolve -trials 50 -journal t.jsonl -resume ...  # resume after a crash
//	dcspsolve -telemetry t.jsonl problem.cnf           # cycle-by-cycle stream (dcsptrace)
//	dcspsolve -causal -trace-out t.jsonl problem.cnf   # causal trace (dcsptrace)
//
// File type is inferred from the extension: .cnf is DIMACS CNF, .col is
// DIMACS COL (solved as 3-coloring unless -colors overrides).
//
// -faults injects a deterministic fault schedule into the -async and -tcp
// runtimes (message drops, duplication, delay, agent crash-restart,
// partition windows); the printed line then includes the transport
// counters. -journal appends every completed trial of a -trials run to an
// fsync'd JSONL file; rerunning with -resume replays journaled trials
// instead of recomputing them, and the aggregate line is bit-identical to
// an uninterrupted run's.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/discsp/discsp"
	"github.com/discsp/discsp/internal/central"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/experiments"
	"github.com/discsp/discsp/internal/faults"
	"github.com/discsp/discsp/internal/stats"
	"github.com/discsp/discsp/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dcspsolve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		algo      = flag.String("algo", "awc", "algorithm: awc, db, abt, central, or wcs")
		learn     = flag.String("learn", "rslv", "AWC learning: rslv, mcs, or none")
		k         = flag.Int("k", 0, "size bound for kthRslv learning; 0 = unrestricted")
		colors    = flag.Int("colors", 3, "colors for .col inputs")
		seed      = flag.Int64("seed", 1, "seed for random initial values")
		maxCycles = flag.Int("maxcycles", 0, "cycle cutoff; 0 = 10000")
		useAsync  = flag.Bool("async", false, "run on the asynchronous goroutine runtime")
		useTCP    = flag.Bool("tcp", false, "run over a loopback TCP hub (one socket per agent)")
		shards    = flag.Int("shards", 0, "split the -tcp hub across N relay listeners; 0 = one")
		wireCRC   = flag.Bool("wire-crc", false, "arm the CRC32C frame trailer on -tcp connections (workers opt in with dcspnode -wire-crc)")
		heartbeat = flag.Duration("heartbeat", 0, "-tcp liveness beacon period on every hub-node link; 0 = 500ms default, negative disables")
		deadPeer  = flag.Duration("dead-peer", 0, "-tcp silence after which the hub declares a node dead; 0 = 4x the heartbeat period")
		reconGr   = flag.Duration("reconnect-grace", 0, "how long the -tcp hub parks a dead node's frames awaiting its reconnection before failing the run; 0 = 3s default, negative fails immediately")
		tcpListen = flag.String("tcp-listen", "", "bind the -tcp relays to these comma-separated host:port addresses (implies the shard count)")
		tcpExt    = flag.Bool("tcp-external", false, "-tcp hub only: agents live in external dcspnode workers")
		timeout   = flag.Duration("timeout", 0, "async wall-clock limit; 0 = 30s")
		trials    = flag.Int("trials", 1, "random-initial-value trials (seed, seed+1, ...); >1 prints cell-style aggregates")
		workers   = flag.Int("workers", 0, "concurrent trial workers for -trials; 0 = all CPUs, 1 = serial")
		verbose   = flag.Bool("v", false, "print the solution assignment")
		block     = flag.Int("block", 0, "variables per agent; >1 runs the multi-variable AWC extension")
		faultsArg = flag.String("faults", "", "fault profile for -async/-tcp runs; syntax: "+faults.ProfileSyntax)
		faultSeed = flag.Int64("fault-seed", 1, "seed for the deterministic fault schedule")
		journal   = flag.String("journal", "", "append each completed trial of a -trials run to this JSONL journal")
		resume    = flag.Bool("resume", false, "replay trials already in -journal instead of recomputing them")
		retention = flag.String("retention", "all", "nogood-store retention policy: all, lru:<cap>, or activity:<cap> (cap bounds learned nogoods per agent)")
		warmCache = flag.String("warm-cache", "", "persistent warm-start nogood cache file: seed AWC from it before solving, harvest survivors into it after (sync runs)")

		causalOn  = flag.Bool("causal", false, "attach the causal-tracing layer: deterministic trace IDs on every message, one span per agent activation, nogood lineage (read the stream with dcsptrace)")
		causalOut = flag.String("trace-out", "", "write the causal trace stream to this file (default: interleave spans with the -telemetry stream)")

		telemetryOut = flag.String("telemetry", "", "write the telemetry JSONL stream (one cycle event per synchronous cycle; read it with dcsptrace) to this file")
		metricsAddr  = flag.String("metrics-addr", "", "serve /metrics, /metrics.json, /debug/vars, and /debug/pprof on this address (e.g. :9090, or :0 for an ephemeral port)")
		metricsHold  = flag.Duration("metrics-hold", 0, "keep the -metrics-addr endpoint up this long after the run finishes (for scrapers)")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a heap profile to this file at exit")
		watchdog     = flag.Duration("watchdog-cadence", 0, "stall-watchdog sampling period for -async/-tcp; 0 = 25ms")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("expected exactly one input file, got %d", flag.NArg())
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			if err := writeMemProfile(*memprofile); err != nil {
				fmt.Fprintln(os.Stderr, "dcspsolve: heap profile:", err)
			}
		}()
	}

	problem, err := load(flag.Arg(0), *colors)
	if err != nil {
		return err
	}
	fmt.Printf("problem: %d variables, %d nogoods\n", problem.NumVars(), problem.NumNogoods())

	if *algo == "central" {
		startedAt := time.Now()
		sol, ok := central.New(problem).Solve()
		fmt.Printf("central: solved=%v in %v\n", ok, time.Since(startedAt))
		if ok && *verbose {
			printAssignment(sol)
		}
		return nil
	}
	if *algo == "wcs" {
		startedAt := time.Now()
		res := central.WeakCommitment(problem, nil, central.WCSOptions{})
		fmt.Printf("wcs: solved=%v insoluble=%v restarts=%d nogoods=%d checks=%d in %v\n",
			res.Solved, res.Insoluble, res.Restarts, res.NogoodsRecorded, res.Checks, time.Since(startedAt))
		if res.Solved && *verbose {
			printAssignment(res.Solution)
		}
		return nil
	}

	opts := discsp.Options{
		InitialSeed: *seed,
		MaxCycles:   *maxCycles,
		Timeout:     *timeout,
	}
	switch *algo {
	case "awc":
		opts.Algorithm = discsp.AWC
	case "db":
		opts.Algorithm = discsp.DB
	case "abt":
		opts.Algorithm = discsp.ABT
	default:
		return fmt.Errorf("unknown algorithm %q (want awc, db, abt, central, or wcs)", *algo)
	}
	switch *learn {
	case "rslv":
		opts.Learning = discsp.LearnResolvent
	case "mcs":
		opts.Learning = discsp.LearnMCS
	case "none":
		opts.Learning = discsp.LearnNone
	default:
		return fmt.Errorf("unknown learning %q (want rslv, mcs, or none)", *learn)
	}
	opts.LearningSizeBound = *k
	ret, err := discsp.ParseRetention(*retention)
	if err != nil {
		return err
	}
	opts.Retention = ret
	var cache *discsp.NogoodCache
	if *warmCache != "" {
		if opts.Algorithm != discsp.AWC {
			return fmt.Errorf("-warm-cache applies to AWC only")
		}
		if *useAsync || *useTCP {
			return fmt.Errorf("-warm-cache needs the synchronous runtime (harvesting is sync-only)")
		}
		cache, err = discsp.LoadNogoodCache(*warmCache)
		if err != nil {
			return err
		}
		opts.WarmCache = cache
		fmt.Fprintf(os.Stderr, "dcspsolve: warm cache %s holds %d nogoods\n", *warmCache, cache.Len())
		defer func() {
			if err := cache.Save(*warmCache); err != nil {
				fmt.Fprintln(os.Stderr, "dcspsolve: warm cache save:", err)
			}
		}()
	}

	if *faultsArg != "" {
		if !*useAsync && !*useTCP {
			return fmt.Errorf("-faults needs a network runtime (-async or -tcp); the synchronous simulator has no network to break")
		}
		opts.FaultProfile = *faultsArg
		opts.FaultSeed = *faultSeed
	}
	if *resume && *journal == "" {
		return fmt.Errorf("-resume needs -journal")
	}
	if (*shards != 0 || *tcpListen != "" || *tcpExt) && !*useTCP {
		return fmt.Errorf("-shards, -tcp-listen, and -tcp-external need -tcp")
	}
	opts.TCPShards = *shards
	opts.TCPTransport = discsp.TCPTransport{Checksum: *wireCRC, Heartbeat: *heartbeat, DeadPeerTimeout: *deadPeer}
	opts.TCPReconnectGrace = *reconGr
	opts.TCPExternal = *tcpExt
	if *tcpListen != "" {
		opts.TCPListen = strings.Split(*tcpListen, ",")
	}
	if *tcpExt {
		opts.TCPOnListen = func(addrs []string) {
			fmt.Fprintf(os.Stderr, "dcspsolve: relays listening on %s; waiting for dcspnode workers\n",
				strings.Join(addrs, ","))
		}
	}
	opts.WatchdogCadence = *watchdog

	// Telemetry: one registry backs both the optional JSONL stream and the
	// optional live metrics endpoint; attaching either never changes run
	// results (the layer is observationally inert). The -block path takes
	// no Options, so there it would record nothing past the schema event.
	if *block > 1 && (*telemetryOut != "" || *metricsAddr != "") {
		return fmt.Errorf("-telemetry and -metrics-addr do not support the -block multi-variable path")
	}
	var tel *discsp.Telemetry
	if *telemetryOut != "" || *metricsAddr != "" {
		reg := discsp.NewMetricsRegistry()
		var stream io.Writer
		if *telemetryOut != "" {
			f, err := os.Create(*telemetryOut)
			if err != nil {
				return err
			}
			defer f.Close()
			stream = f
		}
		tel = discsp.NewTelemetry(reg, stream)
		if *metricsAddr != "" {
			srv, err := discsp.ServeMetrics(*metricsAddr, reg)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "dcspsolve: serving metrics at http://%s/metrics\n", srv.Addr)
			if *metricsHold > 0 {
				defer time.Sleep(*metricsHold)
			}
		}
		defer func() {
			if err := tel.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "dcspsolve: telemetry stream:", err)
			}
		}()
	}

	// Causal tracing: the span stream goes to its own -trace-out file, or
	// interleaves with the -telemetry stream. A trace stream holds exactly
	// one run (trace IDs are unique per run), so -trials > 1 is rejected.
	if *causalOut != "" && !*causalOn {
		return fmt.Errorf("-trace-out needs -causal")
	}
	if *causalOn {
		if *trials > 1 {
			return fmt.Errorf("-causal traces a single run; drop -trials or set it to 1")
		}
		if *block > 1 {
			return fmt.Errorf("-causal does not support the -block multi-variable path")
		}
		switch {
		case *causalOut != "":
			f, err := os.Create(*causalOut)
			if err != nil {
				return err
			}
			defer f.Close()
			ct := discsp.NewTelemetry(nil, f)
			defer func() {
				if err := ct.Flush(); err != nil {
					fmt.Fprintln(os.Stderr, "dcspsolve: causal trace stream:", err)
				}
			}()
			opts.Causal = ct
		case tel != nil:
			opts.Causal = tel
		default:
			return fmt.Errorf("-causal needs -trace-out FILE (or -telemetry FILE) to receive the span stream")
		}
	}

	if *trials > 1 {
		if *useAsync || *useTCP || *block > 1 {
			return fmt.Errorf("-trials needs the default synchronous single-variable path (no -async, -tcp, -block)")
		}
		var j *experiments.Journal
		if *journal != "" {
			meta := experiments.JournalMeta{SeedBase: *seed, MaxCycles: *maxCycles}
			var err error
			j, err = experiments.OpenJournal(*journal, meta, *resume)
			if err != nil {
				return err
			}
			defer j.Close()
			if *resume {
				fmt.Fprintf(os.Stderr, "dcspsolve: resuming from %s (%d trials journaled)\n", *journal, j.Recovered())
			}
		}
		// A bounded retention policy is part of the configuration a journal
		// key binds, so resumed runs never mix policies; the unbounded
		// default keeps the legacy key format.
		learnLabel := *learn + ret.Suffix()
		return runTrials(problem, opts, *trials, *workers, *verbose, j, learnLabel, tel)
	}
	if *journal != "" {
		return fmt.Errorf("-journal needs -trials > 1 (a single run has nothing to resume)")
	}
	opts.Telemetry = tel

	var res discsp.Result
	switch {
	case *useTCP:
		res, err = discsp.SolveTCP(problem, opts)
		if err != nil {
			return err
		}
		fmt.Printf("%s (tcp): solved=%v insoluble=%v messages=%d checks=%d duration=%v%s\n",
			opts.Algorithm, res.Solved, res.Insoluble, res.Messages, res.TotalChecks,
			res.Duration, res.TransportCounters.Suffix())
	case *useAsync:
		res, err = discsp.SolveAsync(problem, opts)
		if err != nil {
			return err
		}
		fmt.Printf("%s (async): solved=%v insoluble=%v messages=%d checks=%d duration=%v%s\n",
			opts.Algorithm, res.Solved, res.Insoluble, res.Messages, res.TotalChecks, res.Duration, res.TransportCounters.Suffix())
	case *block > 1:
		res, err = discsp.SolvePartitioned(problem, discsp.UniformPartition(problem.NumVars(), *block), discsp.PartitionedOptions{
			LearningSizeBound: *k,
			InitialSeed:       *seed,
			MaxCycles:         *maxCycles,
		})
		if err != nil {
			return err
		}
		fmt.Printf("multiAWC (block=%d): solved=%v insoluble=%v cycle=%d maxcck=%d messages=%d\n",
			*block, res.Solved, res.Insoluble, res.Cycles, res.MaxCCK, res.Messages)
	default:
		res, err = discsp.Solve(problem, opts)
		if err != nil {
			return err
		}
		fmt.Printf("%s: solved=%v insoluble=%v cycle=%d maxcck=%d messages=%d\n",
			opts.Algorithm, res.Solved, res.Insoluble, res.Cycles, res.MaxCCK, res.Messages)
	}
	if *verbose && len(res.MessagesByType) > 0 {
		kinds := make([]string, 0, len(res.MessagesByType))
		for k := range res.MessagesByType {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Printf("  %-18s %d\n", k, res.MessagesByType[k])
		}
	}
	if res.Solved && *verbose {
		printAssignment(res.Assignment)
	}
	return nil
}

// writeMemProfile snapshots the heap (after a GC, so the profile reflects
// live objects) into path.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// runTrials solves the instance from `trials` different random initial
// assignments (seeds seed, seed+1, ...), fanned across the worker pool,
// and prints per-trial lines plus the experiment harness's cell-style
// aggregates. Results are index-addressed, so the output is identical for
// every worker count; a progress line goes to stderr every ~2s.
//
// With a journal, each completed trial is durably appended under a key
// binding the algorithm configuration and seed; on -resume, journaled
// trials are replayed into the same slots, so the aggregate line cannot
// depend on where the previous run died.
func runTrials(problem *discsp.Problem, opts discsp.Options, trials, workers int, verbose bool, j *experiments.Journal, learn string, tel *discsp.Telemetry) error {
	// Trials run concurrently, so the workers share only the (atomic)
	// metrics registry; the JSONL stream is written here, one trial event
	// per slot in index order, so it is identical for every worker count.
	var regOnly *discsp.Telemetry
	if tel != nil {
		regOnly = discsp.NewTelemetry(tel.Registry(), nil)
		tel.Emit(telemetry.Event{
			Kind:      telemetry.KindMeta,
			Runtime:   "sync",
			Algorithm: opts.AlgorithmName(),
			Vars:      problem.NumVars(),
			Nogoods:   problem.NumNogoods(),
		})
	}
	results := make([]discsp.Result, trials)
	progress := experiments.ProgressPrinter(os.Stderr, 2*time.Second)
	trialKey := func(i int) string {
		return fmt.Sprintf("trial/%s/%s/k%d/seed%d", opts.Algorithm, learn, opts.LearningSizeBound, opts.InitialSeed+int64(i))
	}
	var (
		mu   sync.Mutex
		done int
	)
	err := experiments.ForEach(workers, trials, func(i int) error {
		tick := func() {
			mu.Lock()
			done++
			progress(done, trials)
			mu.Unlock()
		}
		if j != nil && j.Lookup(trialKey(i), &results[i]) {
			tick()
			return nil
		}
		o := opts
		o.InitialSeed = opts.InitialSeed + int64(i)
		o.Telemetry = regOnly
		res, err := discsp.Solve(problem, o)
		if err != nil {
			return fmt.Errorf("trial %d (seed %d): %w", i, o.InitialSeed, err)
		}
		results[i] = res
		if j != nil {
			if err := j.Record(trialKey(i), res); err != nil {
				return err
			}
		}
		tick()
		return nil
	})
	if err != nil {
		return err
	}
	var (
		cycle, maxcck stats.Sample
		solved        stats.Counter
	)
	cell := fmt.Sprintf("%s/%s/k%d", opts.Algorithm, learn, opts.LearningSizeBound)
	for i, res := range results {
		if verbose {
			fmt.Printf("  trial %-3d seed=%-6d solved=%-5v cycle=%-6d maxcck=%d\n",
				i, opts.InitialSeed+int64(i), res.Solved, res.Cycles, res.MaxCCK)
		}
		tel.Emit(telemetry.Event{
			Kind:   telemetry.KindTrial,
			Cell:   cell,
			Trial:  i,
			Seed:   opts.InitialSeed + int64(i),
			Solved: res.Solved,
			Cycles: res.Cycles,
			MaxCCK: res.MaxCCK,
		})
		cycle.Add(float64(res.Cycles))
		maxcck.Add(float64(res.MaxCCK))
		solved.Observe(res.Solved)
	}
	tel.EmitSnapshot()
	fmt.Printf("%s: trials=%d cycle=%.1f maxcck=%.1f %%=%.0f\n",
		opts.Algorithm, trials, cycle.Mean(), maxcck.Mean(), solved.Percent())
	return nil
}

func load(path string, colors int) (*discsp.Problem, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch strings.ToLower(filepath.Ext(path)) {
	case ".cnf":
		cnf, err := csp.ParseCNF(f)
		if err != nil {
			return nil, err
		}
		return cnf.Problem()
	case ".col":
		g, err := csp.ParseCOL(f)
		if err != nil {
			return nil, err
		}
		return g.Problem(colors)
	case ".json":
		return csp.ReadProblemJSON(f)
	default:
		return nil, fmt.Errorf("cannot infer format of %q (want .cnf, .col, or .json)", path)
	}
}

func printAssignment(a discsp.SliceAssignment) {
	for v, val := range a {
		fmt.Printf("x%d = %d\n", v, val)
	}
}
