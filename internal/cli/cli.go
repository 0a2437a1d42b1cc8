// Package cli holds the flag groups the command-line tools share. A tool
// registers the groups it offers, checks them with steps that touch
// nothing, and calls Open only once its input has loaded and every check,
// its own included, has passed: a refused command line creates no file.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/discsp/discsp"
	"github.com/discsp/discsp/internal/telemetry"
)

// Solver is the solver flag group, on which a dcspsolve hub and its
// dcspnode workers must agree.
type Solver struct {
	Algo, Learn, Retention string
	K, Colors              int
	Seed                   int64
}

// Register declares the group on fs.
func (s *Solver) Register(fs *flag.FlagSet) {
	fs.StringVar(&s.Algo, "algo", "awc", "algorithm: awc, db, or abt, matching the hub's on a worker; dcspsolve also runs the centralized central and wcs")
	fs.StringVar(&s.Learn, "learn", "rslv", "AWC learning: rslv, mcs, or none")
	fs.IntVar(&s.K, "k", 0, "size bound for kthRslv learning; 0 = unrestricted")
	fs.IntVar(&s.Colors, "colors", 3, "colors for .col inputs")
	fs.Int64Var(&s.Seed, "seed", 1, "seed for random initial values (a worker's must match its hub's)")
	fs.StringVar(&s.Retention, "retention", "all", "nogood-store retention policy: all, lru:<cap>, or activity:<cap> (cap bounds learned nogoods per agent)")
}

// Apply checks the group and sets the solver options it holds in opts.
func (s *Solver) Apply(opts *discsp.Options) (err error) {
	opts.InitialSeed, opts.LearningSizeBound = s.Seed, s.K
	if opts.Algorithm, err = discsp.ParseAlgorithm(s.Algo); err == nil {
		if opts.Learning, err = discsp.ParseLearning(s.Learn); err == nil {
			opts.Retention, err = discsp.ParseRetention(s.Retention)
		}
	}
	return err
}

// RegisterTransport declares the transport flag group on fs, bound to t.
// Every value is valid, so the group has no check step.
func RegisterTransport(fs *flag.FlagSet, t *discsp.TCPTransport) {
	fs.BoolVar(&t.Checksum, "wire-crc", false, "CRC32C frame trailer on TCP connections: a hub arms it, and a dcspnode worker's links carry it only if the worker passes it too")
	fs.DurationVar(&t.Heartbeat, "heartbeat", 0, "liveness beacon period on every hub-node link (workers match their hub's); 0 = 500ms default, negative disables")
	fs.DurationVar(&t.DeadPeerTimeout, "dead-peer", 0, "silence after which a hub declares a node dead, or a node abandons its hub connection and redials; 0 = 4x the heartbeat period")
}

// Streams is the stream flag group.
type Streams struct {
	Telemetry, MetricsAddr string
	Causal                 bool
	TraceOut               string
	// Hold keeps the metrics endpoint up after the run (dcspsolve -metrics-hold).
	Hold time.Duration

	// spansInTelemetry lets a -causal run without -trace-out write its
	// spans into the -telemetry stream, which must then record that one run.
	spansInTelemetry bool
}

// Register declares the group on fs; spansInTelemetry says whether the
// tool's -telemetry stream records the one run its spans trace.
func (s *Streams) Register(fs *flag.FlagSet, spansInTelemetry bool) {
	s.spansInTelemetry = spansInTelemetry
	fs.StringVar(&s.Telemetry, "telemetry", "", "write the telemetry JSONL stream (run events and metrics snapshots; read it with dcsptrace) to this file")
	fs.StringVar(&s.MetricsAddr, "metrics-addr", "", "serve /metrics, /metrics.json, /debug/vars, and /debug/pprof on this address while the run is live (e.g. :9090, or :0 for an ephemeral port)")
	s.RegisterTrace(fs)
}

// RegisterTrace declares only -causal and -trace-out on fs.
func (s *Streams) RegisterTrace(fs *flag.FlagSet) {
	fs.BoolVar(&s.Causal, "causal", false, "attach the causal-tracing layer: deterministic trace IDs on every message, one span per agent activation, nogood lineage (read the stream with dcsptrace)")
	fs.StringVar(&s.TraceOut, "trace-out", "", "write the causal trace stream to this file; without it, dcspsolve interleaves the spans with its -telemetry stream")
}

// Check refuses a -causal with no stream for its spans, and the reverse.
func (s *Streams) Check() error {
	switch {
	case !s.spansInTelemetry && s.Causal != (s.TraceOut != ""):
		return errors.New("-causal and -trace-out go together")
	case s.TraceOut != "" && !s.Causal:
		return errors.New("-trace-out needs -causal")
	case s.Causal && s.TraceOut == "" && s.Telemetry == "":
		return errors.New("-causal needs -trace-out FILE (or -telemetry FILE) to receive the span stream")
	}
	return nil
}

// Profiles is the profile flag group; every value is valid.
type Profiles struct{ CPU, Mem string }

// Register declares the group on fs.
func (p *Profiles) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a heap profile to this file at exit")
}

// Outputs is what Open started. Close stops it.
type Outputs struct {
	// Telemetry carries the -telemetry stream and the registry
	// -metrics-addr serves; nil when neither flag is set.
	Telemetry *telemetry.Run
	// Causal receives the -causal spans; nil without -causal.
	Causal *telemetry.Run

	name  string
	undos []func() error
}

// Open starts what the groups write: the CPU profile, the metrics endpoint
// and the stream files. name prefixes what Open and Close print on stderr.
// A failed step undoes the ones before it.
func Open(name string, s *Streams, p *Profiles) (_ *Outputs, err error) {
	o := &Outputs{name: name}
	defer func() {
		if err != nil {
			o.Close()
		}
	}()
	if p.CPU != "" {
		f, err := o.create(p.CPU)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		o.undo(func() error { pprof.StopCPUProfile(); return nil })
	}
	if p.Mem != "" {
		o.undo(func() error { return writeHeapProfile(p.Mem) })
	}
	if s.Telemetry != "" || s.MetricsAddr != "" {
		reg := telemetry.NewRegistry()
		// Served before the stream file exists, so a taken port leaves none.
		if s.MetricsAddr != "" {
			srv, err := telemetry.Serve(s.MetricsAddr, reg)
			if err != nil {
				return nil, err
			}
			o.undo(func() error { time.Sleep(s.Hold); return srv.Close() })
			fmt.Fprintf(os.Stderr, "%s: serving metrics at http://%s/metrics\n", name, srv.Addr)
		}
		if o.Telemetry, err = o.stream(reg, s.Telemetry, "telemetry stream"); err != nil {
			return nil, err
		}
	}
	switch {
	case s.Causal && s.TraceOut == "":
		o.Causal = o.Telemetry
	case s.Causal:
		if o.Causal, err = o.stream(nil, s.TraceOut, "causal trace stream"); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// stream returns a run on reg whose events go to a new file at path, or
// nowhere when path is empty; Close flushes it.
func (o *Outputs) stream(reg *telemetry.Registry, path, what string) (*telemetry.Run, error) {
	w, err := o.create(path)
	if err != nil {
		return nil, err
	}
	run := telemetry.NewRun(reg, w)
	o.undo(func() error {
		if err := run.Flush(); err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		return nil
	})
	return run, nil
}

// create makes the file at path, which Close closes; an empty path makes
// none and returns a nil writer.
func (o *Outputs) create(path string) (io.Writer, error) {
	if path == "" {
		return nil, nil // not a nil *os.File: NewRun must see no writer
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	o.undo(f.Close)
	return f, nil
}

func (o *Outputs) undo(fn func() error) { o.undos = append(o.undos, fn) }

// Close flushes and closes what Open started, last started first, and
// reports each failure on stderr.
func (o *Outputs) Close() {
	for i := len(o.undos) - 1; i >= 0; i-- {
		if err := o.undos[i](); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", o.name, err)
		}
	}
}

// writeHeapProfile snapshots the heap (after a GC, so the profile reflects
// live objects) into path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err == nil {
		runtime.GC()
		err = errors.Join(pprof.WriteHeapProfile(f), f.Close())
	}
	if err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	return nil
}
