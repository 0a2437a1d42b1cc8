// Command bench is the repository's end-to-end benchmark: wall clock from
// instance to verdict on each runtime (the synchronous simulator, the
// goroutine-per-agent asynchronous runtime, the TCP hub) and through the
// dcspd daemon, with a traced pass that attributes the time to the
// program's layers. See README.md for the workloads and metrics.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash bench/run.sh -workload sync-learn -seed 1 -seconds 20 -trace 0
//
// It prints every metric as "name value unit" and, as the last line, one
// JSON object with the keys correct, attempted, failed and metrics. With
// -trace 1 the object carries the per-layer metrics instead of the
// end-to-end ones. Every verdict is verified; the exit status is 0 only for
// a correct run.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/discsp/discsp/internal/core"
	"github.com/discsp/discsp/internal/experiments"
)

const (
	// defaultSeed is the seed the golden file pins.
	defaultSeed = 1
	// setupReps is how many times each run repeats its set-up.
	setupReps = 21
	// specPath and goldenPath are relative to the repository root, where
	// run.sh starts the benchmark.
	specPath   = "BENCHMARK.json"
	goldenPath = "bench/testdata/golden.json"
)

// workload is one named input set. Exactly one of solve and mixed is set.
type workload struct {
	name  string
	solve *solveWorkload
	mixed *mixedWorkload
}

var (
	rslv = core.Learning{Kind: core.LearnResolvent}
	mcs  = core.Learning{Kind: core.LearnMCS}
	none = core.Learning{Kind: core.LearnNone}
)

// workloads are the benchmark's input sets; README.md records why each was
// chosen and how it was sized.
var workloads = []workload{
	{name: "sync-learn", solve: &solveWorkload{
		runtime: "sync", kind: experiments.D3C, n: 60, learners: []core.Learning{rslv, mcs}, instances: 48,
	}},
	{name: "sync-nolearn", solve: &solveWorkload{
		runtime: "sync", kind: experiments.D3C, n: 60, learners: []core.Learning{none}, instances: 96,
	}},
	{name: "async", solve: &solveWorkload{
		runtime: "async", kind: experiments.D3C, n: 90, learners: []core.Learning{rslv}, instances: 48,
	}},
	{name: "tcp", solve: &solveWorkload{
		runtime: "tcp", kind: experiments.D3C, n: 20, learners: []core.Learning{rslv}, instances: 48,
	}},
	{name: "dcspd-mixed", mixed: &mixedWorkload{
		classes: []jobClass{
			{perBlock: 12, runtime: "sync", kind: experiments.D3C, n: 30, learning: "rslv"},
			{perBlock: 4, runtime: "sync", kind: experiments.D3S, n: 30, learning: "mcs"},
			{perBlock: 3, runtime: "async", kind: experiments.D3C, n: 30, learning: "rslv"},
			{perBlock: 1, runtime: "tcp", kind: experiments.D3C, n: 12, learning: "rslv"},
		},
		rates: [3]float64{70, 140, 205},
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit status made explicit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "seed every input of the run derives from")
	seconds := fs.Float64("seconds", 20, "length of the measured pass in seconds")
	trace := fs.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics instead of the end-to-end ones")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the traced pass's spans to this file as JSON lines")
	repeat := fs.Int("repeat", 0, "run the end-to-end pass in two sets of this many fresh processes, each with seeds seed, seed+1, ..., and check each metric's spreads and median shift against its bound in "+specPath)
	update := fs.Bool("update-golden", false, "regenerate "+goldenPath+" and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *update {
		if err := updateGolden(goldenPath); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "bench: -workload must be one of %s\n", strings.Join(workloadNames(), ", "))
		return 2
	case *seconds <= 0:
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	case *repeat < 0 || *repeat == 1:
		fmt.Fprintln(stderr, "bench: -repeat needs at least 2 runs")
		return 2
	}
	if *repeat > 0 {
		return repeatRuns(w.name, *seed, *seconds, *repeat, stdout, stderr)
	}

	cfg := config{
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		setupReps: setupReps,
	}
	rep, tr, err := measureWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	for _, f := range rep.faults {
		fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, f)
	}
	if tr != nil && *traceOut != "" {
		if err := writeSpans(*traceOut, tr.spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if err := rep.write(stdout, defs); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// measureWorkload runs one workload and fills in the metrics common to all.
func measureWorkload(w workload, cfg config) (*report, *tracer, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, nil, err
	}
	var rep *report
	var tr *tracer
	if w.solve != nil {
		rep, tr, err = w.solve.measure(w.name, cfg, g)
	} else {
		rep, tr, err = w.mixed.measure(cfg)
	}
	if err != nil {
		return nil, nil, err
	}
	rep.set("peak_rss_mb", peakRSSMB())
	rep.zeroMissing(perLayer)
	return rep, tr, nil
}

// repeatRuns runs the end-to-end pass in two sets of n fresh processes,
// each set with seeds seed, seed+1, ..., and checks every metric against
// its bound in BENCHMARK.json. Within each set, the spread (interquartile
// distance over median) of every metric but setup_s must stay within the
// bound; the second set's median of every metric, setup_s too, may be worse
// than the first set's by at most the bound. setup_s is judged by its
// median alone: it times a few milliseconds of work, and its spread across
// seeds runs to a third (README.md). repeatRuns fails when a run is
// incorrect or a check fails.
func repeatRuns(name string, seed int64, seconds float64, n int, stdout, stderr io.Writer) int {
	bounds, err := readBounds()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var values [2]map[string][]float64
	ok := true
	for set := range values {
		values[set] = map[string][]float64{}
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
			cmd.Stderr = stderr
			out, err := cmd.Output()
			res, perr := lastResult(out)
			switch {
			case perr != nil:
				fmt.Fprintf(stderr, "bench: set %d run %d (seed %d): %v (exit: %v)\n", set+1, i+1, s, perr, err)
				return 1
			case err != nil || !res.Correct:
				fmt.Fprintf(stderr, "bench: set %d run %d (seed %d) was not correct: %d of %d failed\n", set+1, i+1, s, res.Failed, res.Attempted)
				ok = false
			}
			for m, v := range res.Metrics {
				values[set][m] = append(values[set][m], v.Value)
			}
		}
	}
	names := make([]string, 0, len(values[0]))
	for m := range values[0] {
		names = append(names, m)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-16s %14s %14s %8s %8s %8s %6s\n", "metric", "median 1", "median 2", "spread 1", "spread 2", "worse", "bound")
	for _, m := range names {
		b, known := bounds[m]
		m1, m2 := median(values[0][m]), median(values[1][m])
		sp1, sp2 := spread(values[0][m]), spread(values[1][m])
		worse := (m2 - m1) / m1
		if b.higher {
			worse = -worse
		}
		verdict := ""
		switch {
		case !known:
		case m != "setup_s" && max(sp1, sp2) > b.share:
			verdict = "  SPREAD OUT OF BOUND"
		case worse > b.share:
			verdict = "  WORSE THAN BOUND"
		}
		if verdict != "" {
			ok = false
		}
		fmt.Fprintf(stdout, "%-16s %14.6g %14.6g %8.4f %8.4f %8.4f %6.3g%s\n", m, m1, m2, sp1, sp2, worse, b.share, verdict)
	}
	if !ok {
		return 1
	}
	return 0
}

// result is the last line a run prints.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var r result
	if last == nil {
		return r, errors.New("no output")
	}
	if err := json.Unmarshal(last, &r); err != nil {
		return r, fmt.Errorf("last line is not a result: %w", err)
	}
	return r, nil
}

// benchmarkSpec is the part of BENCHMARK.json the program reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readSpec(path string) (benchmarkSpec, error) {
	var s benchmarkSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// bound is an end-to-end metric's regression bound: the share of a median
// by which the metric may worsen, and which direction is better.
type bound struct {
	share  float64
	higher bool
}

func readBounds() (map[string]bound, error) {
	s, err := readSpec(specPath)
	if err != nil {
		return nil, err
	}
	bounds := map[string]bound{}
	for _, m := range s.EndToEnd {
		bounds[m.Name] = bound{share: m.Bound, higher: m.Better == "higher"}
	}
	return bounds, nil
}
