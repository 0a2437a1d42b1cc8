package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"github.com/discsp/discsp/internal/service"
	"github.com/discsp/discsp/internal/sim"
)

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// setupReps is how many times set-up is repeated; setup_s is the
	// median.
	setupReps int
}

// minRounds is the fewest rounds over the trial set a measured pass runs,
// however long they take.
const minRounds = 3

// mixedSetupReps caps the set-up repetitions of dcspd-mixed, whose set-up
// plans the whole schedule and takes about a second.
const mixedSetupReps = 3

// setupSamples is how many calibration samples each set-up repetition
// takes.
const setupSamples = 8

// repeatSetup times set-up cfg.setupReps times and returns the median in
// seconds at the reference machine's speed. Before each repetition it calls reset, which undoes the last one,
// collects garbage, so every repetition starts from the same heap, and
// takes setupSamples calibration samples; none of that is timed.
func (c config) repeatSetup(reset, setup func() error) (float64, error) {
	var sp speedometer
	var times []float64
	for k := 0; k < c.setupReps; k++ {
		if err := reset(); err != nil {
			return 0, err
		}
		runtime.GC()
		for j := 0; j < setupSamples; j++ {
			sp.sample()
		}
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times) / sp.slowdown(), nil
}

// maxReplay bounds the messages the tcp wire replay keeps.
const maxReplay = 50_000

// runSpanName is the span around each runtime's Run call.
var runSpanName = map[string]string{"sync": "sim.Run", "async": "async.Run", "tcp": "netrun.Run"}

// measure runs a solve workload: repeated set-up, the untraced pass, then,
// with cfg.trace, the traced pass over the first third of the trial set.
//
// The untraced pass solves the whole trial set round after round until
// cfg.seconds have passed, finishing the round it is in, and at least
// minRounds times. Every trial starts after a garbage collection and a
// calibration sample, neither timed, so that it starts from the same heap
// in every round. A round's rates are scaled by the round's own slowdown,
// which follows the machine's drift from round to round, and each trial's
// rate is the highest of its rounds: a trial solved once reports whichever
// phase of the drift it fell in, its best of several rounds spread over
// the whole run does not.
func (w *solveWorkload) measure(name string, cfg config, g goldenFile) (*report, *tracer, error) {
	rep := newReport()

	// Warm-up, untimed: the default seed's first trial of each learner,
	// whose cost the golden file pins. It runs first so that set-up is
	// timed in a process whose heap has already grown.
	warm := w.source(defaultSeed)
	for i := range w.learners {
		in, err := warm.trial(i)
		if err != nil {
			return nil, nil, err
		}
		o := w.runTrial(in, false, false)
		if o.fault != "" {
			rep.reject("warm-up: " + o.fault)
		}
		if m := g.check(name, i, o); m != "" {
			rep.reject("warm-up " + m)
		}
	}

	// Set-up: derive the seed's trial source and generate the trial set's
	// instances.
	var src *trialSource
	reset := func() error {
		src = nil
		return nil
	}
	setup, err := cfg.repeatSetup(reset, func() error {
		src = w.source(cfg.seed)
		return src.prepare(w.instances)
	})
	if err != nil {
		return nil, nil, err
	}
	rep.set("setup_s", setup)

	// best is each trial's fastest wall clock over the rounds, bestRate its
	// highest message rate at the reference machine's speed; total sums its
	// wall clock. all collects every round's calibration samples.
	trials := w.trials()
	best := make([]time.Duration, trials)
	bestRate := make([]float64, trials)
	total := make([]time.Duration, trials)
	rates := make([]float64, trials)
	procs := 1
	if w.runtime != "sync" {
		procs = runtime.GOMAXPROCS(0)
	}
	all := speedometer{procs: procs}
	var n, cycles, maxcck, cutoffs, msgs, checks, gen, rec, red, store float64
	var retrans, dups, wireBytes, batched float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	begin := time.Now()
	deadline := begin.Add(cfg.seconds)
	rounds := 0
	for ; rounds < minRounds || time.Now().Before(deadline); rounds++ {
		sp := speedometer{procs: procs}
		for i := 0; i < trials; i++ {
			in, err := src.trial(i)
			if err != nil {
				return nil, nil, err
			}
			runtime.GC()
			sp.sample()
			o := w.runTrial(in, false, false)
			rep.trial(o.fault)
			if rounds == 0 && cfg.seed == g.Seed {
				if m := g.check(name, i, o); m != "" {
					rep.reject(m)
				}
			}
			if rounds == 0 || o.wall < best[i] {
				best[i] = o.wall
			}
			rates[i] = float64(o.messages) / o.wall.Seconds()
			total[i] += o.wall
			n++
			cycles += float64(o.cycles)
			maxcck += float64(o.maxcck)
			if o.cutoff {
				cutoffs++
			}
			msgs += float64(o.messages)
			checks += float64(o.checks)
			gen += float64(o.generated)
			rec += float64(o.recorded)
			red += float64(o.redundant)
			store += o.storeLen
			retrans += float64(o.retransmits)
			dups += float64(o.dups)
			wireBytes += float64(o.wireBytes)
			batched += float64(o.batched)
		}
		slow := sp.slowdown()
		for i, r := range rates {
			bestRate[i] = max(bestRate[i], r*slow)
		}
		all.samples = append(all.samples, sp.samples...)
	}
	elapsed := time.Since(begin)
	runtime.ReadMemStats(&ms1)

	rep.set("msgs_per_s", median(bestRate))
	rep.set("machine.slowdown", all.slowdown())
	walls := make([]float64, trials)
	for i, d := range best {
		walls[i] = ms(d)
	}
	rep.set("solve_p50_ms", median(walls))
	rep.set("trials_per_s", n/elapsed.Seconds())
	rep.set("solve_p90_ms", percentile(walls, 90))
	rep.set("nogood.checks_per_trial", checks/n)
	rep.set("nogood.generated_per_trial", gen/n)
	rep.set("nogood.recorded_per_trial", rec/n)
	rep.set("nogood.redundant_per_trial", red/n)
	rep.set("nogood.store_len_mean", store/n)
	rep.set("gc.allocs_per_trial", float64(ms1.Mallocs-ms0.Mallocs)/n)
	rep.set("gc.bytes_per_trial", float64(ms1.TotalAlloc-ms0.TotalAlloc)/n)
	switch w.runtime {
	case "sync":
		rep.set("sim.cycles_mean", cycles/n)
		rep.set("sim.maxcck_mean", maxcck/n)
		rep.set("sim.cutoff_share", cutoffs/n)
	case "async":
		rep.set("async.msgs_per_trial", msgs/n)
		rep.set("async.solve_p95_ms", percentile(walls, 95))
	case "tcp":
		rep.set("netrun.msgs_per_trial", msgs/n)
		rep.set("netrun.retransmit_ratio", ratio(retrans, msgs))
		rep.set("netrun.dup_ratio", ratio(dups, msgs))
		rep.set("netrun.bytes_per_msg", ratio(wireBytes, msgs))
		rep.set("netrun.batched_per_msg", ratio(batched, msgs))
		rep.set("netrun.solve_p90_ms", percentile(walls, 90))
	}
	if !cfg.trace {
		return rep, nil, nil
	}

	// The traced pass: the first third of the trial set, for as many rounds
	// as the measured pass ran, so a third of its trials, every agent
	// wrapped in the timing decorator, under the CPU profiler. It collects
	// no garbage between trials: the profile would charge that to the
	// benchmark.
	k := max(1, trials/3)
	tr := newTracer()
	runSpan := runSpanName[w.runtime]
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, err
	}
	passStart := time.Now()
	var tracedWall, plainWall, run time.Duration
	var steps stepStats
	var tracedChecks float64
	var sent []sim.Message
	for j := 0; j < k*rounds; j++ {
		i := j % k
		in, err := src.trial(i)
		if err != nil {
			pprof.StopCPUProfile()
			return nil, nil, err
		}
		o := w.runTrial(in, true, w.runtime == "tcp" && len(sent) < maxReplay)
		if o.fault != "" {
			rep.reject("traced trial: " + o.fault)
		}
		tr.add(j, "trial", "", o.start, o.wall, 0)
		tr.add(j, runSpan, "trial", o.runStart, o.run, 0)
		tr.add(j, "core.step", runSpan, o.runStart, time.Duration(o.steps.ns), o.steps.calls)
		tracedWall += o.wall
		plainWall += total[i] / time.Duration(rounds)
		run += o.run
		steps.calls += o.steps.calls
		steps.ns += o.steps.ns
		steps.msgsOut += o.steps.msgsOut
		tracedChecks += float64(o.checks)
		sent = append(sent, o.sent...)
	}
	passWall := time.Since(passStart)
	pprof.StopCPUProfile()

	if err := setCPUShares(rep, prof.Bytes()); err != nil {
		return nil, nil, err
	}
	kf := float64(k * rounds)
	rep.set("trace.overhead", ratio(tracedWall.Seconds(), plainWall.Seconds())-1)
	rep.set("trace.residual_share", 1-tr.covered("trial").Seconds()/passWall.Seconds())
	rep.set("core.step_calls", float64(steps.calls)/kf)
	rep.set("core.step_s", float64(steps.ns)/1e9/kf)
	rep.set("core.ns_per_check", ratio(float64(steps.ns), tracedChecks))
	rep.set("core.msgs_out_per_step", ratio(float64(steps.msgsOut), float64(steps.calls)))
	if w.runtime == "sync" {
		rep.set("sim.run_s", run.Seconds()/kf)
		rep.set("sim.dispatch_share", 1-float64(steps.ns)/float64(run.Nanoseconds()))
	}
	if w.runtime == "tcp" {
		if len(sent) > maxReplay {
			sent = sent[:maxReplay]
		}
		c, err := replayWire(sent, cfg.seconds/50, tr)
		if err != nil {
			rep.reject("wire replay: " + err.Error())
		}
		rep.set("wire.encode_ns_per_msg", c.encodeNS)
		rep.set("wire.decode_ns_per_msg", c.decodeNS)
		rep.set("wire.bytes_per_msg", c.bytes)
		rep.set("wire.allocs_per_msg", c.allocs)
	}
	return rep, tr, nil
}

// measure runs dcspd-mixed: repeated set-up, the three-phase open-loop
// schedule over cfg.seconds, then, with cfg.trace, the first third of the
// schedule again on a fresh daemon with spans and the CPU profiler.
//
// The measured phase's slowdown comes from calibration samples the
// generator takes, on every processor, after each of the phase's
// submissions: the daemon's workers keep every processor busy.
func (w *mixedWorkload) measure(cfg config) (*report, *tracer, error) {
	rep := newReport()
	phaseDur := cfg.seconds / 3

	// Set-up: plan the seed's schedule, generating every job's instance,
	// and start a daemon on a fresh journal. Stopping the previous
	// repetition's daemon is not timed.
	var st *mixedState
	var jobs []jobPlan
	defer func() {
		if st != nil {
			st.stop()
		}
	}()
	reset := func() error {
		jobs = nil
		if st == nil {
			return nil
		}
		return st.stop()
	}
	cfg.setupReps = min(cfg.setupReps, mixedSetupReps)
	setup, err := cfg.repeatSetup(reset, func() error {
		var err error
		if jobs, err = w.plan(cfg.seed, phaseDur); err != nil {
			return err
		}
		st, err = w.setup()
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if fault := st.warmUp(); fault != "" {
		rep.reject("warm-up job: " + fault)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sp := speedometer{procs: runtime.GOMAXPROCS(0)}
	results, backlog := st.run(jobs, phaseDur, &sp, nil)
	runtime.ReadMemStats(&ms1)

	var verdicts [3][]float64
	var accepts, queues, runs, rates []float64
	var lagMax time.Duration
	var shed float64
	for i, r := range results {
		rep.trial(r.fault)
		accepts = append(accepts, ms(r.accept))
		lagMax = max(lagMax, r.lag)
		if r.shed {
			shed++
		}
		if r.fault != "" {
			continue
		}
		ph := jobs[i].phase
		verdicts[ph] = append(verdicts[ph], ms(r.verdict))
		if ph == measuredPhase {
			queues = append(queues, float64(r.queueMS))
			runs = append(runs, float64(r.runMS))
			rates = append(rates, float64(r.messages)/r.verdict.Seconds())
		}
	}
	n := float64(len(results))
	rep.set("setup_s", setup)
	rep.set("msgs_per_s", median(rates)*sp.slowdown())
	rep.set("machine.slowdown", sp.slowdown())
	rep.set("solve_p50_ms", median(verdicts[measuredPhase]))
	rep.set("solve_p90_ms", percentile(verdicts[measuredPhase], 90))
	rep.set("trials_per_s", n/(3*phaseDur).Seconds())
	rep.set("gc.allocs_per_trial", float64(ms1.Mallocs-ms0.Mallocs)/n)
	rep.set("gc.bytes_per_trial", float64(ms1.TotalAlloc-ms0.TotalAlloc)/n)
	rep.set("service.accept_p50_ms", median(accepts))
	rep.set("service.accept_p99_ms", percentile(accepts, 99))
	rep.set("service.queue_p50_ms", median(queues))
	rep.set("service.queue_p95_ms", percentile(queues, 95))
	rep.set("service.run_p50_ms", median(runs))
	rep.set("service.run_p95_ms", percentile(runs, 95))
	rep.set("service.shed", shed)
	rep.set("service.backlog_end", float64(backlog[2]))
	rep.set("service.gen_lag_max_ms", ms(lagMax))
	var maxOK float64
	for ph, rate := range w.rates {
		p95 := percentile(verdicts[ph], 95)
		rep.set(fmt.Sprintf("service.r%d.verdict_p50_ms", ph+1), median(verdicts[ph]))
		rep.set(fmt.Sprintf("service.r%d.verdict_p95_ms", ph+1), p95)
		if p95 <= ms(latencyLimit) && backlog[ph] <= st.workers {
			maxOK = rate
		}
	}
	rep.set("service.max_rate_ok", maxOK)
	if !cfg.trace {
		return rep, nil, nil
	}

	// The traced pass replays the first third of the schedule on a fresh
	// daemon, so the journal and job table start as they did above.
	if err := st.stop(); err != nil {
		return nil, nil, err
	}
	if err := st.start(); err != nil {
		return nil, nil, err
	}
	k := max(1, len(jobs)/3)
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, err
	}
	passStart := time.Now()
	traced, _ := st.run(jobs[:k], phaseDur, nil, tr)
	passWall := time.Since(passStart)
	pprof.StopCPUProfile()
	if err := setCPUShares(rep, prof.Bytes()); err != nil {
		return nil, nil, err
	}
	var tracedSum, plainSum time.Duration
	for i, r := range traced {
		if r.fault != "" {
			rep.reject("traced job: " + r.fault)
		}
		tracedSum += r.verdict
		plainSum += results[i].verdict
	}
	rep.set("trace.overhead", ratio(tracedSum.Seconds(), plainSum.Seconds())-1)
	rep.set("trace.residual_share", 1-tr.covered("job").Seconds()/passWall.Seconds())
	return rep, tr, nil
}

// warmUp runs one untimed job of the first class, on the default seed's
// first job instance, through the daemon and verifies it.
func (s *mixedState) warmUp() string {
	c := s.w.classes[0]
	p, body, err := s.w.instance(0, derive(defaultSeed, 1, 0))
	if err != nil {
		return err.Error()
	}
	st, err := s.daemon.Submit(service.JobSpec{
		Runtime: c.runtime, Learning: c.learning, Seed: 1, Format: "json", Problem: body,
	})
	if err != nil {
		return err.Error()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err = s.daemon.Wait(ctx, st.ID)
	return jobFault(st, err, p)
}

// setCPUShares buckets a CPU profile into the cpu.* metrics.
func setCPUShares(rep *report, profile []byte) error {
	samples, err := parseCPUProfile(profile)
	if err != nil {
		return err
	}
	shares, total := cpuShares(samples)
	for b, v := range shares {
		rep.set(b, v)
	}
	rep.set("cpu.samples", float64(total))
	return nil
}

// covered is the wall time the union of the spans named name covers.
func (t *tracer) covered(name string) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, s := range t.spans {
		if s.Name == name {
			ivs = append(ivs, iv{s.StartNS, s.StartNS + s.DurNS})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for i, v := range ivs {
		if i == 0 || v.lo > end {
			total += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return time.Duration(total)
}

// peakRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
