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
	"os"
	"sort"
	"strings"
	"time"

	"github.com/discsp/discsp"
	"github.com/discsp/discsp/internal/central"
	"github.com/discsp/discsp/internal/cli"
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
		solver   cli.Solver
		streams  cli.Streams
		profiles cli.Profiles
		opts     discsp.Options
	)
	solver.Register(flag.CommandLine)
	cli.RegisterTransport(flag.CommandLine, &opts.TCPTransport)
	streams.Register(flag.CommandLine, true)
	profiles.Register(flag.CommandLine)
	flag.DurationVar(&streams.Hold, "metrics-hold", 0, "keep the -metrics-addr endpoint up this long after the run finishes (for scrapers)")
	flag.IntVar(&opts.MaxCycles, "maxcycles", 0, "cycle cutoff; 0 = 10000")
	flag.DurationVar(&opts.Timeout, "timeout", 0, "async wall-clock limit; 0 = 30s")
	flag.IntVar(&opts.TCPShards, "shards", 0, "split the -tcp hub across N relay listeners; 0 = one")
	flag.DurationVar(&opts.TCPReconnectGrace, "reconnect-grace", 0, "how long the -tcp hub parks a dead node's frames awaiting its reconnection before failing the run; 0 = 3s default, negative fails immediately")
	flag.BoolVar(&opts.TCPExternal, "tcp-external", false, "-tcp hub only: agents live in external dcspnode workers")
	flag.DurationVar(&opts.WatchdogCadence, "watchdog-cadence", 0, "stall-watchdog sampling period for -async/-tcp; 0 = 25ms")
	var (
		useAsync  = flag.Bool("async", false, "run on the asynchronous goroutine runtime")
		useTCP    = flag.Bool("tcp", false, "run over a loopback TCP hub (one socket per agent)")
		tcpListen = flag.String("tcp-listen", "", "bind the -tcp relays to these comma-separated host:port addresses (implies the shard count)")
		trials    = flag.Int("trials", 1, "random-initial-value trials (seed, seed+1, ...); >1 prints cell-style aggregates")
		workers   = flag.Int("workers", 0, "concurrent trial workers for -trials; 0 = all CPUs, 1 = serial")
		verbose   = flag.Bool("v", false, "print the solution assignment")
		block     = flag.Int("block", 0, "variables per agent; >1 runs the multi-variable AWC extension")
		faultsArg = flag.String("faults", "", "fault profile for -async/-tcp runs; syntax: "+faults.ProfileSyntax)
		faultSeed = flag.Int64("fault-seed", 1, "seed for the deterministic fault schedule")
		journal   = flag.String("journal", "", "append each completed trial of a -trials run to this JSONL journal")
		resume    = flag.Bool("resume", false, "replay trials already in -journal instead of recomputing them")
		warmCache = flag.String("warm-cache", "", "persistent warm-start nogood cache file: seed AWC from it before solving, harvest survivors into it after (single sync runs)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("expected exactly one input file, got %d", flag.NArg())
	}
	// Refused before any output file exists, so the refusal leaves none
	// behind; SolveTCP refuses the same pair for library callers.
	if streams.Causal && opts.TCPExternal {
		return fmt.Errorf("-causal with -tcp-external records no spans: the agents run in the workers, so trace them with dcspnode -causal")
	}
	problem, err := csp.LoadFile(flag.Arg(0), solver.Colors)
	if err != nil {
		return err
	}
	fmt.Printf("problem: %d variables, %d nogoods\n", problem.NumVars(), problem.NumNogoods())

	if solver.Algo == "central" || solver.Algo == "wcs" {
		outs, err := cli.Open("dcspsolve", &cli.Streams{}, &profiles)
		if err != nil {
			return err
		}
		defer outs.Close()
		startedAt := time.Now()
		if solver.Algo == "central" {
			sol, ok := central.New(problem).Solve()
			fmt.Printf("central: solved=%v in %v\n", ok, time.Since(startedAt))
			if ok && *verbose {
				printAssignment(sol)
			}
			return nil
		}
		res := central.WeakCommitment(problem, nil, central.WCSOptions{})
		fmt.Printf("wcs: solved=%v insoluble=%v restarts=%d nogoods=%d checks=%d in %v\n",
			res.Solved, res.Insoluble, res.Restarts, res.NogoodsRecorded, res.Checks, time.Since(startedAt))
		if res.Solved && *verbose {
			printAssignment(res.Solution)
		}
		return nil
	}

	// Every check runs before an output opens, so a refusal leaves no file.
	if err := streams.Check(); err != nil {
		return err
	}
	if err := solver.Apply(&opts); err != nil {
		return err
	}
	if *warmCache != "" {
		if opts.Algorithm != discsp.AWC {
			return fmt.Errorf("-warm-cache applies to AWC only")
		}
		if *useAsync || *useTCP {
			return fmt.Errorf("-warm-cache needs the synchronous runtime (harvesting is sync-only)")
		}
		// Concurrent trials would seed from and harvest into one cache in
		// whatever order they finish (dcspbench -warmstart measures reuse).
		if *trials > 1 {
			return fmt.Errorf("-warm-cache seeds a single run; drop -trials or set it to 1")
		}
	}
	if *faultsArg != "" {
		if !*useAsync && !*useTCP {
			return fmt.Errorf("-faults needs a network runtime (-async or -tcp); the synchronous simulator has no network to break")
		}
		if _, err := faults.ParseProfile(*faultsArg, *faultSeed); err != nil {
			return err
		}
		opts.FaultProfile = *faultsArg
		opts.FaultSeed = *faultSeed
	}
	if *resume && *journal == "" {
		return fmt.Errorf("-resume needs -journal")
	}
	if (opts.TCPShards != 0 || *tcpListen != "" || opts.TCPExternal) && !*useTCP {
		return fmt.Errorf("-shards, -tcp-listen, and -tcp-external need -tcp")
	}
	if *tcpListen != "" {
		opts.TCPListen = strings.Split(*tcpListen, ",")
	}
	if opts.TCPExternal {
		opts.TCPOnListen = func(addrs []string) {
			fmt.Fprintf(os.Stderr, "dcspsolve: relays listening on %s; waiting for dcspnode workers\n",
				strings.Join(addrs, ","))
		}
	}
	// The -block path takes no Options, so a stream would record nothing
	// past the schema event.
	if *block > 1 && (streams.Telemetry != "" || streams.MetricsAddr != "") {
		return fmt.Errorf("-telemetry and -metrics-addr do not support the -block multi-variable path")
	}
	// A trace stream holds exactly one run (trace IDs are unique per run).
	if streams.Causal && *trials > 1 {
		return fmt.Errorf("-causal traces a single run; drop -trials or set it to 1")
	}
	if streams.Causal && *block > 1 {
		return fmt.Errorf("-causal does not support the -block multi-variable path")
	}
	if *trials > 1 && (*useAsync || *useTCP || *block > 1) {
		return fmt.Errorf("-trials needs the default synchronous single-variable path (no -async, -tcp, -block)")
	}
	if *journal != "" && *trials <= 1 {
		return fmt.Errorf("-journal needs -trials > 1 (a single run has nothing to resume)")
	}

	if *warmCache != "" {
		if opts.WarmCache, err = discsp.LoadNogoodCache(*warmCache); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "dcspsolve: warm cache %s holds %d nogoods\n", *warmCache, opts.WarmCache.Len())
	}
	var j *experiments.Journal
	if *journal != "" {
		j, err = experiments.OpenJournal(*journal, experiments.JournalMeta{SeedBase: solver.Seed, MaxCycles: opts.MaxCycles}, *resume)
		if err != nil {
			return err
		}
		defer j.Close()
		if *resume {
			fmt.Fprintf(os.Stderr, "dcspsolve: resuming from %s (%d trials journaled)\n", *journal, j.Recovered())
		}
	}
	outs, err := cli.Open("dcspsolve", &streams, &profiles)
	if err != nil {
		return err
	}
	defer outs.Close()
	if cache := opts.WarmCache; cache != nil {
		defer func() {
			if err := cache.Save(*warmCache); err != nil {
				fmt.Fprintln(os.Stderr, "dcspsolve: warm cache save:", err)
			}
		}()
	}

	if *trials > 1 {
		// A bounded retention policy is part of the configuration a journal
		// key binds, so resumed runs never mix policies; the unbounded
		// default keeps the legacy key format.
		scale := experiments.Scale{Workers: *workers, Progress: experiments.ProgressPrinter(os.Stderr, 2*time.Second), Journal: j}
		return runTrials(problem, opts, *trials, scale, *verbose, solver.Learn+opts.Retention.Suffix(), outs.Telemetry)
	}
	opts.Telemetry = outs.Telemetry
	opts.Causal = outs.Causal

	var res discsp.Result
	switch {
	case *useTCP || *useAsync:
		solve, runtime := discsp.SolveAsync, "async"
		if *useTCP {
			solve, runtime = discsp.SolveTCP, "tcp"
		}
		if res, err = solve(problem, opts); err != nil {
			return err
		}
		fmt.Printf("%s (%s): solved=%v insoluble=%v messages=%d checks=%d duration=%v%s\n",
			opts.Algorithm, runtime, res.Solved, res.Insoluble, res.Messages, res.TotalChecks, res.Duration, res.TransportCounters.Suffix())
	case *block > 1:
		res, err = discsp.SolvePartitioned(problem, discsp.UniformPartition(problem.NumVars(), *block), discsp.PartitionedOptions{
			LearningSizeBound: solver.K,
			InitialSeed:       solver.Seed,
			MaxCycles:         opts.MaxCycles,
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

// runTrials solves the instance from `trials` different random initial
// assignments (seeds seed, seed+1, ...) on the harness's trial loop and
// prints per-trial lines plus the experiment harness's cell-style
// aggregates, identical for every worker count. With a journal, each
// completed trial is durably appended under a key binding the algorithm
// configuration and seed; on -resume, journaled trials are replayed into
// the same slots, so the aggregate line cannot depend on where the
// previous run died.
func runTrials(problem *discsp.Problem, opts discsp.Options, trials int, scale experiments.Scale, verbose bool, learn string, tel *discsp.Telemetry) error {
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
	trialKey := func(i int) string {
		return fmt.Sprintf("trial/%s/%s/k%d/seed%d", opts.Algorithm, learn, opts.LearningSizeBound, opts.InitialSeed+int64(i))
	}
	err := experiments.RunTrials(scale, results, trialKey, func(i int) (discsp.Result, error) {
		o := opts
		o.InitialSeed = opts.InitialSeed + int64(i)
		o.Telemetry = regOnly
		res, err := discsp.Solve(problem, o)
		if err != nil {
			return res, fmt.Errorf("trial %d (seed %d): %w", i, o.InitialSeed, err)
		}
		return res, nil
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

func printAssignment(a discsp.SliceAssignment) {
	for v, val := range a {
		fmt.Printf("x%d = %d\n", v, val)
	}
}
