package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one reported metric and its unit. The two lists below are
// exactly BENCHMARK.json's end_to_end and per_layer entries, in its order;
// the package test holds them equal.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the solver sees, measured with tracing
// off and reported on every workload. On the solve workloads a trial is one
// instance solved from its initial values; on dcspd-mixed it is one job,
// timed from its due time to its verdict, in the 0.3C phase. The times are
// at the reference machine's speed (calib.go).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"msgs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced pass's attribution metrics. A layer a workload
// does not run reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"machine.slowdown", "ratio"},
		{"solve_p50_ms", "ms"},
		{"trials_per_s", "1/s"},
		{"solve_p90_ms", "ms"},
		{"sim.run_s", "s"},
		{"sim.dispatch_share", "ratio"},
		{"sim.cycles_mean", "count"},
		{"sim.maxcck_mean", "count"},
		{"sim.cutoff_share", "ratio"},
		{"core.step_calls", "count"},
		{"core.step_s", "s"},
		{"core.ns_per_check", "ns"},
		{"core.msgs_out_per_step", "count"},
		{"nogood.checks_per_trial", "count"},
		{"nogood.generated_per_trial", "count"},
		{"nogood.recorded_per_trial", "count"},
		{"nogood.redundant_per_trial", "count"},
		{"nogood.store_len_mean", "count"},
		{"gc.allocs_per_trial", "count"},
		{"gc.bytes_per_trial", "B"},
		{"async.msgs_per_trial", "count"},
		{"async.solve_p95_ms", "ms"},
		{"wire.encode_ns_per_msg", "ns"},
		{"wire.decode_ns_per_msg", "ns"},
		{"wire.bytes_per_msg", "B"},
		{"wire.allocs_per_msg", "count"},
		{"netrun.msgs_per_trial", "count"},
		{"netrun.retransmit_ratio", "ratio"},
		{"netrun.dup_ratio", "ratio"},
		{"netrun.bytes_per_msg", "B"},
		{"netrun.batched_per_msg", "ratio"},
		{"netrun.solve_p90_ms", "ms"},
		{"service.accept_p50_ms", "ms"},
		{"service.accept_p99_ms", "ms"},
		{"service.queue_p50_ms", "ms"},
		{"service.queue_p95_ms", "ms"},
		{"service.run_p50_ms", "ms"},
		{"service.run_p95_ms", "ms"},
		{"service.shed", "count"},
		{"service.backlog_end", "count"},
		{"service.gen_lag_max_ms", "ms"},
		{"service.r1.verdict_p50_ms", "ms"},
		{"service.r1.verdict_p95_ms", "ms"},
		{"service.r2.verdict_p50_ms", "ms"},
		{"service.r2.verdict_p95_ms", "ms"},
		{"service.r3.verdict_p50_ms", "ms"},
		{"service.r3.verdict_p95_ms", "ms"},
		{"service.max_rate_ok", "1/s"},
		{"trace.overhead", "ratio"},
		{"trace.residual_share", "ratio"},
	}
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{b, "ratio"})
	}
	return append(defs, metricDef{"cpu.samples", "count"})
}()

// report accumulates one run's result.
type report struct {
	attempted int
	failed    int
	// faults keeps the first few failure descriptions for stderr.
	faults []string
	// invalid marks a failed check outside the measured operations: a
	// cost-model mismatch against the golden file, or a warm-up or traced
	// trial that did not verify. It fails the run.
	invalid bool
	values  map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

// trial counts one attempted operation and its fault, if any.
func (r *report) trial(fault string) {
	r.attempted++
	if fault != "" {
		r.fail(fault)
	}
}

// fail records a failed operation.
func (r *report) fail(fault string) {
	r.failed++
	r.note(fault)
}

// reject records a failed check outside the measured operations.
func (r *report) reject(fault string) {
	r.invalid = true
	r.note(fault)
}

func (r *report) note(fault string) {
	if len(r.faults) < 5 {
		r.faults = append(r.faults, fault)
	}
}

func (r *report) correct() bool { return r.failed == 0 && !r.invalid }

func (r *report) set(name string, v float64) { r.values[name] = v }

// zeroMissing reports 0 for every listed metric the run did not set: the
// layers this workload does not exercise.
func (r *report) zeroMissing(defs []metricDef) {
	for _, d := range defs {
		if _, ok := r.values[d.name]; !ok {
			r.values[d.name] = 0
		}
	}
}

// write prints the selected metrics as "name value unit" lines, then the
// result object as the last line.
func (r *report) write(w io.Writer, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = value{v, d.unit}
		if _, err := fmt.Fprintf(w, "%s %v %s\n", d.name, v, d.unit); err != nil {
			return err
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
