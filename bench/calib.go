package main

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// The benchmark shares its machine, whose speed drifts over seconds and
// minutes: on the reference machine a fixed loop, timed again and again,
// took anywhere from 0.23 to 0.43 s, and six runs of the same trials gave
// median trial times from 15.1 to 18.3 ms. The end-to-end time metrics are
// therefore reported at the reference machine's speed. A run times a fixed
// calibration task, which calls nothing of the program, after the garbage
// collection that precedes every set-up repetition and every trial. The
// slowdown of a stretch of the run, set-up or one round of trials, is the
// 10th percentile of its calibration times over calibRefNS; that stretch's
// times are divided by it and its rates multiplied by it. A change to the
// program moves the metrics fully, since the task does not run its code,
// while a machine that is slower for a while slows the task too.

// calibRefNS is the calibration task's 10th-percentile time in
// nanoseconds on the reference machine while it ran at full speed.
const calibRefNS = 340_000

// speedometer collects calibration samples. procs is how many processors
// the measured code keeps busy: one for set-up and the sync simulator, all
// of them for the async and tcp runtimes, whose trials slow down when any
// processor does.
type speedometer struct {
	procs   int
	samples []float64
}

// sample runs the calibration task on procs goroutines at once and records
// the slowest one's time.
func (s *speedometer) sample() {
	times := make([]time.Duration, max(1, s.procs))
	sinks := make([]uint64, len(times))
	var wg sync.WaitGroup
	for g := range times {
		wg.Add(1)
		go func() {
			defer wg.Done()
			times[g] = calibrate(&sinks[g])
		}()
	}
	wg.Wait()
	s.samples = append(s.samples, float64(slices.Max(times).Nanoseconds()))
}

// slowdown is how much slower than the reference machine this run's machine
// was: the samples' 10th percentile over calibRefNS. It is 1 without
// samples.
func (s *speedometer) slowdown() float64 {
	if len(s.samples) == 0 {
		return 1
	}
	return percentile(s.samples, 10) / calibRefNS
}

// calibrate runs the calibration task, about a third of a millisecond of
// the kind of work the solvers do (small allocations, map updates, sorting),
// and returns its wall clock. It stores its result in sink, so that the
// compiler keeps the work.
func calibrate(sink *uint64) time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	m := make(map[uint64]int, 512)
	var sum uint64
	for r := 0; r < 64; r++ {
		s := make([]uint64, 0, 64)
		for i := 0; i < 64; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			s = append(s, x)
			m[x&1023]++
		}
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		for _, v := range s {
			sum += v >> 60 * uint64(m[v&1023])
		}
	}
	*sink = sum
	return time.Since(start)
}
