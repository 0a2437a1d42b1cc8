// Command dcspnode runs agent nodes for a subset of one instance's
// variables against an external dcspsolve hub — the multi-process form of
// the TCP runtime. The hub is started with -tcp -tcp-external (and usually
// -tcp-listen so the relay addresses are known up front); each dcspnode
// process owns a slice of the variables and dials the relay its variables
// are sharded to.
//
// Usage:
//
//	# hub: 2 relays on fixed ports, no in-process nodes
//	dcspsolve -tcp -tcp-external -shards 2 \
//	    -tcp-listen 127.0.0.1:7401,127.0.0.1:7402 graph.col
//
//	# workers: split the variables by shard parity
//	dcspnode -connect 127.0.0.1:7401,127.0.0.1:7402 -vars 0-49:2   graph.col
//	dcspnode -connect 127.0.0.1:7401,127.0.0.1:7402 -vars 1-49:2   graph.col
//
// Every process must load the same instance with the same algorithm
// configuration and initial-value seed; the hub validates the solution, so
// a mismatch shows up as a run that cannot terminate, not a wrong answer.
// -vars takes comma-separated values, ranges, and strided ranges
// (lo-hi[:step]). A worker exits when the hub reports the run over.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/discsp/discsp"
	"github.com/discsp/discsp/internal/csp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dcspnode:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		connect   = flag.String("connect", "", "comma-separated hub relay addresses in shard order (required)")
		varsArg   = flag.String("vars", "", "variables this worker owns: comma-separated values, ranges, and strided ranges lo-hi[:step] (required)")
		algo      = flag.String("algo", "awc", "algorithm: awc, db, or abt (must match the hub's)")
		learn     = flag.String("learn", "rslv", "AWC learning: rslv, mcs, or none")
		k         = flag.Int("k", 0, "size bound for kthRslv learning; 0 = unrestricted")
		colors    = flag.Int("colors", 3, "colors for .col inputs")
		seed      = flag.Int64("seed", 1, "seed for random initial values (must match the hub's)")
		retention = flag.String("retention", "all", "nogood-store retention policy: all, lru:<cap>, or activity:<cap>")
		wireCRC   = flag.Bool("wire-crc", false, "request the CRC32C frame trailer on this worker's connections (effective only when the hub armed -wire-crc too)")
		drainWin  = flag.Duration("drain-window", 0, "how long a node with a failed write drains inbound frames for the hub's stop before reporting a hub death; 0 = 1s default (raise on slow links)")
		connTO    = flag.Duration("connect-timeout", 0, "how long each node keeps retrying its dial — at startup before the hub listens, and when redialing after a severed connection; 0 = 15s default")
		heartbeat = flag.Duration("heartbeat", 0, "idle-link liveness beacon period, matching the hub's; 0 = 500ms default, negative disables")
		deadPeer  = flag.Duration("dead-peer", 0, "hub silence after which a node abandons its connection and redials; 0 = 4x the heartbeat period")
		causalOn  = flag.Bool("causal", false, "trace this worker's nodes (trace IDs cross the hub whether or not it traces); needs -trace-out")
		causalOut = flag.String("trace-out", "", "write this worker's causal trace stream to this file")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("expected exactly one input file, got %d", flag.NArg())
	}
	if *connect == "" {
		return fmt.Errorf("-connect is required")
	}
	if *varsArg == "" {
		return fmt.Errorf("-vars is required")
	}
	addrs := strings.Split(*connect, ",")
	vars, err := parseVars(*varsArg)
	if err != nil {
		return err
	}

	problem, err := csp.LoadFile(flag.Arg(0), *colors)
	if err != nil {
		return err
	}

	opts := discsp.Options{
		InitialSeed:       *seed,
		LearningSizeBound: *k,
		TCPTransport:      discsp.TCPTransport{Checksum: *wireCRC, Heartbeat: *heartbeat, DeadPeerTimeout: *deadPeer},
	}
	if opts.Algorithm, err = discsp.ParseAlgorithm(*algo); err != nil {
		return err
	}
	if opts.Learning, err = discsp.ParseLearning(*learn); err != nil {
		return err
	}
	ret, err := discsp.ParseRetention(*retention)
	if err != nil {
		return err
	}
	opts.Retention = ret

	// Causal tracing is per-process: this worker's spans and stamped trace
	// IDs go to its own stream file, self-consistent on its own (message
	// edges into sibling workers resolve in their streams).
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
				fmt.Fprintln(os.Stderr, "dcspnode: causal trace stream:", err)
			}
		}()
	}

	fmt.Fprintf(os.Stderr, "dcspnode: %d nodes (%s) dialing %d relays\n",
		len(vars), *varsArg, len(addrs))
	stats, err := discsp.SolveTCPWorker(problem, opts, discsp.TCPWorkerOptions{
		Addrs:          addrs,
		Vars:           vars,
		DrainWindow:    *drainWin,
		ConnectTimeout: *connTO,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dcspnode: hub reported run over (reconnects=%d retrans=%d dups=%d corrupt_frames=%d)\n",
		stats.Reconnects, stats.Retransmits, stats.DuplicatesSuppressed, stats.CorruptFrames)
	return nil
}

// parseVars parses the -vars syntax: comma-separated values, ranges, and
// strided ranges ("3", "0-9", "0-49:2"). Duplicates are rejected — two
// workers racing to own one variable is a config error the hub cannot see.
func parseVars(s string) ([]int, error) {
	seen := make(map[int]bool)
	var out []int
	add := func(v int) error {
		if seen[v] {
			return fmt.Errorf("-vars lists variable %d twice", v)
		}
		seen[v] = true
		out = append(out, v)
		return nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		lo, hi, step := part, part, 1
		if i := strings.IndexByte(part, ':'); i >= 0 {
			st, err := strconv.Atoi(part[i+1:])
			if err != nil || st <= 0 {
				return nil, fmt.Errorf("bad stride in -vars term %q", part)
			}
			step = st
			part = part[:i]
			lo, hi = part, part
		}
		if i := strings.IndexByte(part, '-'); i > 0 {
			lo, hi = part[:i], part[i+1:]
		}
		l, err := strconv.Atoi(lo)
		if err != nil {
			return nil, fmt.Errorf("bad -vars term %q", part)
		}
		h, err := strconv.Atoi(hi)
		if err != nil || h < l {
			return nil, fmt.Errorf("bad -vars term %q", part)
		}
		for v := l; v <= h; v += step {
			if err := add(v); err != nil {
				return nil, err
			}
		}
	}
	sort.Ints(out)
	return out, nil
}
