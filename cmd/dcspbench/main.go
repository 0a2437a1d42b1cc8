// Command dcspbench regenerates the tables and the figure of the paper's
// evaluation section.
//
// Usage:
//
//	dcspbench -table 1            # one table at paper scale
//	dcspbench -all                # every table and the figure
//	dcspbench -figure             # Figure 2 (d3s1, n=50)
//	dcspbench -table 8 -quick     # reduced trials for a fast look
//	dcspbench -table 1 -instances 5 -inits 2 -ns 60,90
//	dcspbench -all -workers 8     # fan trials across 8 goroutines
//	dcspbench -all -journal run.jsonl           # crash-safe: journal trials
//	dcspbench -all -journal run.jsonl -resume   # continue an interrupted run
//	dcspbench -runtimes d3c -faults chaos       # fault-injected comparison
//
// Paper scale runs 100 trials per cell with the cutoff at 10000 cycles and
// can take a while for the no-learning rows; -quick or the explicit knobs
// trade trials for speed. Trials are independently seeded and fanned
// across -workers goroutines (default: all CPUs); every -workers value
// produces bit-identical tables, so parallel paper-scale regeneration is
// still deterministic. A progress line (trials done/total, trials/sec)
// goes to stderr every ~2s; -progress=false silences it.
//
// Long runs survive interruption with -journal FILE: every completed trial
// is appended (fsync'd) to the JSONL journal, and rerunning the same
// command with -resume skips the recorded trials and reproduces the
// aggregate tables bit-identically. The journal pins -seed and -maxcycles;
// resuming under different values is refused.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/discsp/discsp"
	"github.com/discsp/discsp/internal/experiments"
	"github.com/discsp/discsp/internal/faults"
	"github.com/discsp/discsp/internal/gen"
	"github.com/discsp/discsp/internal/nogood"
	"github.com/discsp/discsp/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dcspbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		table     = flag.Int("table", 0, "table number to regenerate (1-10)")
		figure    = flag.Bool("figure", false, "regenerate Figure 2")
		all       = flag.Bool("all", false, "regenerate every table and the figure")
		quick     = flag.Bool("quick", false, "reduced trial counts (3 instances x 2 inits)")
		instances = flag.Int("instances", 0, "override instances per cell")
		inits     = flag.Int("inits", 0, "override initial-value sets per instance")
		maxCycles = flag.Int("maxcycles", 0, "override the 10000-cycle cutoff")
		seed      = flag.Int64("seed", 0, "seed base for an independent replication")
		nsFlag    = flag.String("ns", "", "comma-separated problem sizes overriding the paper's")
		figKind   = flag.String("figkind", "d3s1", "figure family: d3c, d3s, or d3s1")
		figN      = flag.Int("fign", 50, "figure problem size")
		workers   = flag.Int("workers", 0, "concurrent trial workers; 0 = all CPUs, 1 = serial (identical results either way)")
		progress  = flag.Bool("progress", true, "print a periodic trials-done progress line to stderr")
		format    = flag.String("format", "text", "output format: text or markdown")
		sweep     = flag.String("sweep", "", "run a hardness sweep over constraint densities for this family (d3c, d3s, d3s1)")
		sweepN    = flag.Int("sweepn", 50, "sweep problem size")
		blocks    = flag.String("blocks", "", "run a block-size sweep of the multi-variable extension for this family")
		runtimes  = flag.String("runtimes", "", "compare sync/async/tcp runtimes on one instance of this family")
		retention = flag.String("retention", "all", "nogood retention policy for every agent store: all, lru:CAP, or activity:CAP")
		warmstart = flag.String("warmstart", "", "run the warm-start repeat-solve workload for these families (comma-separated d3c,d3s,d3s1, or all)")
		warmOut   = flag.String("warmout", "", "write the warm-start measurements as JSON to this file (with -warmstart)")
		journal   = flag.String("journal", "", "append-only trial journal (JSONL) for crash-safe runs; completed trials are recorded as they finish")
		resume    = flag.Bool("resume", false, "resume from an existing -journal, skipping already-recorded trials (aggregates stay bit-identical)")
		faultsArg = flag.String("faults", "", "fault profile for -runtimes (async/tcp legs): "+faults.ProfileSyntax)
		faultSeed = flag.Int64("fault-seed", 1, "seed for the deterministic fault schedule in -faults")
		shards    = flag.Int("shards", 0, "shard the -runtimes tcp leg's hub across N relay listeners; 0 = one")
		causalOn  = flag.Bool("causal", false, "causally trace the -runtimes tcp leg (spans, message trace IDs, nogood lineage); needs -trace-out")
		causalOut = flag.String("trace-out", "", "write the -causal trace stream to this file (read it with dcsptrace)")

		telemetryOut = flag.String("telemetry", "", "write the schema-2 telemetry JSONL stream (per-trial events + metrics snapshots) to this file")
		metricsAddr  = flag.String("metrics-addr", "", "serve /metrics, /metrics.json, /debug/vars, and /debug/pprof on this address while the run is live")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

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
				fmt.Fprintln(os.Stderr, "dcspbench: heap profile:", err)
			}
		}()
	}

	scale := experiments.PaperScale()
	if *quick {
		scale = experiments.QuickScale()
	}
	if *instances > 0 {
		scale.Instances = *instances
	}
	if *inits > 0 {
		scale.Inits = *inits
	}
	scale.MaxCycles = *maxCycles
	scale.SeedBase = *seed
	scale.Workers = *workers
	if *progress {
		scale.Progress = experiments.ProgressPrinter(os.Stderr, 2*time.Second)
	}
	if *nsFlag != "" {
		ns, err := parseNs(*nsFlag)
		if err != nil {
			return err
		}
		scale.Ns = ns
	}
	ret, err := nogood.ParseRetention(*retention)
	if err != nil {
		return err
	}
	scale.Retention = ret

	markdown := false
	switch *format {
	case "text":
	case "markdown":
		markdown = true
	default:
		return fmt.Errorf("unknown format %q (want text or markdown)", *format)
	}

	if _, err := faults.ParseProfile(*faultsArg, *faultSeed); err != nil {
		return err
	}
	if *warmOut != "" && *warmstart == "" {
		return fmt.Errorf("-warmout needs -warmstart")
	}
	if (*causalOn || *causalOut != "") && *runtimes == "" {
		return fmt.Errorf("-causal/-trace-out trace the -runtimes tcp leg; pass -runtimes FAMILY")
	}

	// Telemetry: the grids emit one trial event per completed trial (in
	// deterministic aggregation order) plus a metrics snapshot per grid;
	// attaching it never changes trial results or table aggregates.
	if *telemetryOut != "" || *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		var stream io.Writer
		if *telemetryOut != "" {
			f, err := os.Create(*telemetryOut)
			if err != nil {
				return err
			}
			defer f.Close()
			stream = f
		}
		tel := telemetry.NewRun(reg, stream)
		tel.Emit(telemetry.Event{Kind: telemetry.KindMeta, Runtime: "bench"})
		if *metricsAddr != "" {
			srv, err := telemetry.Serve(*metricsAddr, reg)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "dcspbench: serving metrics at http://%s/metrics\n", srv.Addr)
		}
		defer func() {
			if err := tel.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "dcspbench: telemetry stream:", err)
			}
		}()
		scale.Telemetry = tel
	}

	if *resume && *journal == "" {
		return fmt.Errorf("-resume needs -journal")
	}
	if *journal != "" {
		j, err := experiments.OpenJournal(*journal, scale.JournalMeta(), *resume)
		if err != nil {
			return err
		}
		defer j.Close()
		if n := j.Recovered(); n > 0 {
			fmt.Fprintf(os.Stderr, "dcspbench: resuming from %s, skipping %d journaled trials\n", *journal, n)
		}
		scale.Journal = j
	}

	switch {
	case *warmstart != "":
		return printWarmStart(*warmstart, scale, *warmOut)
	case *runtimes != "":
		opts := discsp.Options{FaultProfile: *faultsArg, FaultSeed: *faultSeed, TCPShards: *shards}
		if *causalOn != (*causalOut != "") {
			return fmt.Errorf("-causal and -trace-out go together")
		}
		if *causalOn {
			f, err := os.Create(*causalOut)
			if err != nil {
				return err
			}
			defer f.Close()
			opts.Causal = discsp.NewTelemetry(nil, f)
			defer func() {
				if err := opts.Causal.Flush(); err != nil {
					fmt.Fprintln(os.Stderr, "dcspbench: causal trace stream:", err)
				}
			}()
		}
		return printRuntimes(*runtimes, *sweepN, scale, opts, markdown)
	case *blocks != "":
		return printBlockSweep(*blocks, *sweepN, scale)
	case *sweep != "":
		return printSweep(*sweep, *sweepN, scale)
	case *all:
		for num := 1; num <= 10; num++ {
			if err := printTable(num, scale, markdown); err != nil {
				return err
			}
		}
		return printFigure(*figKind, *figN, scale, markdown)
	case *figure:
		return printFigure(*figKind, *figN, scale, markdown)
	case *table >= 1:
		return printTable(*table, scale, markdown)
	default:
		flag.Usage()
		return fmt.Errorf("pass -table N, -figure, -all, or -sweep FAMILY")
	}
}

func printTable(num int, scale experiments.Scale, markdown bool) error {
	t, err := experiments.Tables(num, scale)
	if err != nil {
		return err
	}
	if markdown {
		err = t.Markdown(os.Stdout)
	} else {
		err = t.Fprint(os.Stdout)
	}
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(os.Stdout)
	return err
}

func printFigure(kindName string, n int, scale experiments.Scale, markdown bool) error {
	kind, err := parseKind(kindName)
	if err != nil {
		return err
	}
	fig, err := experiments.Figure2(kind, n, nil, scale)
	if err != nil {
		return err
	}
	if markdown {
		return fig.Markdown(os.Stdout)
	}
	return fig.Fprint(os.Stdout)
}

func printSweep(kindName string, n int, scale experiments.Scale) error {
	kind, err := parseKind(kindName)
	if err != nil {
		return err
	}
	alg := experiments.AWC(experiments.BestLearning(kind))
	sweep, err := experiments.RatioSweep(kind, n, alg, nil, scale)
	if err != nil {
		return err
	}
	if err := sweep.Fprint(os.Stdout); err != nil {
		return err
	}
	hardest := sweep.HardestPoint()
	_, err = fmt.Printf("hardest density: m/n = %.2f (%.1f mean cycles)\n", hardest.Ratio, hardest.Cycle)
	return err
}

func printRuntimes(kindName string, n int, scale experiments.Scale, opts discsp.Options, markdown bool) error {
	kind, err := parseKind(kindName)
	if err != nil {
		return err
	}
	problem, err := experiments.MakeInstance(kind, n, 1+scale.SeedBase)
	if err != nil {
		return err
	}
	learning := experiments.BestLearning(kind)
	opts.Learning = discsp.LearnResolvent
	opts.LearningSizeBound = learning.SizeBound
	opts.Initial = gen.RandomInitial(problem, 2+scale.SeedBase)
	opts.Retention = scale.Retention
	results, err := experiments.CompareRuntimes(problem, opts)
	if err != nil {
		return err
	}
	fmt.Printf("Runtime comparison: %s n=%d, AWC+%s\n", kind, n, learning.Name())
	if markdown {
		return experiments.MarkdownRuntimes(os.Stdout, results)
	}
	return experiments.FprintRuntimes(os.Stdout, results)
}

// warmRow is one family × n line of the warm-start JSON report.
type warmRow struct {
	Kind           string  `json:"kind"`
	N              int     `json:"n"`
	Pairs          int     `json:"pairs"`
	ColdCycles     float64 `json:"cold_cycles"`
	WarmCycles     float64 `json:"warm_cycles"`
	CycleReduction float64 `json:"cycle_reduction"`
	ColdChecks     float64 `json:"cold_checks"`
	WarmChecks     float64 `json:"warm_checks"`
	CheckReduction float64 `json:"check_reduction"`
	ColdSolvedPct  float64 `json:"cold_solved_pct"`
	WarmSolvedPct  float64 `json:"warm_solved_pct"`
	CacheNogoods   int     `json:"cache_nogoods"`
	SeededPairs    int     `json:"seeded_pairs"`
}

type warmReport struct {
	Note      string    `json:"note"`
	Retention string    `json:"retention"`
	SeedBase  int64     `json:"seed_base"`
	Rows      []warmRow `json:"rows"`
}

// printWarmStart runs the repeat-solve workload for every requested family
// at its paper sizes (or -ns), prints a table, and optionally writes the
// JSON report consumed by BENCH_6.json.
func printWarmStart(families string, scale experiments.Scale, outPath string) error {
	var kinds []experiments.ProblemKind
	if families == "all" {
		kinds = []experiments.ProblemKind{experiments.D3C, experiments.D3S, experiments.D3S1}
	} else {
		for _, name := range strings.Split(families, ",") {
			kind, err := parseKind(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			kinds = append(kinds, kind)
		}
	}
	report := warmReport{
		Note:      "warm-start repeat-solve workload: same instance and initial assignment, cold (empty store) vs warm (store seeded from a cache harvested off one prior solve of the instance)",
		Retention: scale.Retention.String(),
		SeedBase:  scale.SeedBase,
	}
	fmt.Printf("Warm-start repeat-solve (retention=%s)\n", scale.Retention)
	fmt.Println("family  n    pairs  cold-cyc  warm-cyc  cyc-red  cold-cck   warm-cck   cck-red  seeded")
	for _, kind := range kinds {
		ns := scale.Ns
		if len(ns) == 0 {
			ns = kind.PaperNs()
		}
		for _, n := range ns {
			r, err := experiments.WarmStart(kind, n, scale)
			if err != nil {
				return err
			}
			fmt.Printf("%-6s  %-3d  %-5d  %-8.1f  %-8.1f  %6.1f%%  %-9.1f  %-9.1f  %6.1f%%  %d/%d\n",
				r.Kind, r.N, r.Pairs, r.ColdCycles, r.WarmCycles, 100*r.CycleReduction(),
				r.ColdChecks, r.WarmChecks, 100*r.CheckReduction(), r.SeededPairs, r.Pairs)
			report.Rows = append(report.Rows, warmRow{
				Kind:           r.Kind.String(),
				N:              r.N,
				Pairs:          r.Pairs,
				ColdCycles:     r.ColdCycles,
				WarmCycles:     r.WarmCycles,
				CycleReduction: r.CycleReduction(),
				ColdChecks:     r.ColdChecks,
				WarmChecks:     r.WarmChecks,
				CheckReduction: r.CheckReduction(),
				ColdSolvedPct:  r.ColdSolved,
				WarmSolvedPct:  r.WarmSolved,
				CacheNogoods:   r.CacheNogoods,
				SeededPairs:    r.SeededPairs,
			})
		}
	}
	if outPath == "" {
		return nil
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printBlockSweep(kindName string, n int, scale experiments.Scale) error {
	kind, err := parseKind(kindName)
	if err != nil {
		return err
	}
	sweep, err := experiments.BlockSweep(kind, n, nil, scale)
	if err != nil {
		return err
	}
	return sweep.Fprint(os.Stdout)
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

func parseKind(s string) (experiments.ProblemKind, error) {
	switch s {
	case "d3c":
		return experiments.D3C, nil
	case "d3s":
		return experiments.D3S, nil
	case "d3s1":
		return experiments.D3S1, nil
	default:
		return 0, fmt.Errorf("unknown family %q (want d3c, d3s, or d3s1)", s)
	}
}

func parseNs(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	ns := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad size %q in -ns", p)
		}
		ns = append(ns, n)
	}
	return ns, nil
}
