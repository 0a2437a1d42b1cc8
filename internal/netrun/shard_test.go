package netrun

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/discsp/discsp/internal/core"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/faults"
	"github.com/discsp/discsp/internal/gen"
	"github.com/discsp/discsp/internal/sim"
	"github.com/discsp/discsp/internal/telemetry"
	"github.com/discsp/discsp/internal/wire"
)

// ringProblem builds an even-length not-equal ring with an alternating
// (consistent) initial assignment. The instance is already solved, so no
// agent ever changes value: the run's unique-message count is exactly the
// init fan-out, making Messages and the final assignment deterministic
// across shard counts and the checksum setting — the metric-identity
// fixture.
func ringProblem(t *testing.T, n int) (*csp.Problem, csp.SliceAssignment) {
	t.Helper()
	if n%2 != 0 {
		t.Fatalf("ring length %d must be even", n)
	}
	p := csp.NewProblemUniform(n, 2)
	init := make(csp.SliceAssignment, n)
	for i := 0; i < n; i++ {
		if err := p.AddNotEqual(csp.Var(i), csp.Var((i+1)%n)); err != nil {
			t.Fatal(err)
		}
		init[i] = csp.Value(i % 2)
	}
	return p, init
}

func awcMaker(p *csp.Problem, init csp.SliceAssignment) func(csp.Var) sim.Agent {
	return func(v csp.Var) sim.Agent {
		return core.NewAgent(v, p, init[v], core.Learning{Kind: core.LearnResolvent})
	}
}

// matrixConfig is one (checksum, shards) cell of the equivalence matrix:
// plain binary frames, or binary frames with the CRC32C trailer.
type matrixConfig struct {
	name      string
	transport Transport
	shards    int
}

func checksumShardMatrix() []matrixConfig {
	var out []matrixConfig
	for _, c := range []struct {
		name      string
		transport Transport
	}{{"binary", Transport{}}, {"crc", Transport{Checksum: true}}} {
		for _, s := range []int{1, 2, 4} {
			out = append(out, matrixConfig{
				name:      fmt.Sprintf("%s/shards=%d", c.name, s),
				transport: c.transport,
				shards:    s,
			})
		}
	}
	return out
}

// TestShardCodecMatrixConsistentStart runs the deterministic ring fixture
// across {binary, crc} x {1, 2, 4 shards} and demands metric-identical
// results: same verdict, same assignment, same unique-message count. The
// Messages equality at 4 shards is the no-double-count assertion for
// inter-shard forwarding — a forwarded frame counted on both its arrival
// and destination shard would inflate Messages (or the hub's per-link
// retransmit counters) relative to the single-shard baseline.
func TestShardCodecMatrixConsistentStart(t *testing.T) {
	const n = 12
	p, init := ringProblem(t, n)
	var baseMessages int64 = -1
	var baseAssign csp.SliceAssignment
	for _, cfg := range checksumShardMatrix() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			res, err := Run(p, awcMaker(p, init), Options{
				Timeout:   30 * time.Second,
				Transport: cfg.transport,
				Shards:    cfg.shards,
			})
			if err != nil {
				t.Fatalf("run: %v (res=%+v)", err, res)
			}
			if !res.Solved {
				t.Fatalf("consistent ring not solved: %+v", res)
			}
			if !p.IsSolution(res.Assignment) {
				t.Fatalf("snapshot is not a solution: %v", res.Assignment)
			}
			if res.Messages == 0 {
				t.Fatal("no messages routed")
			}
			if baseMessages < 0 {
				baseMessages = res.Messages
				baseAssign = res.Assignment
			} else {
				if res.Messages != baseMessages {
					t.Errorf("Messages = %d, want %d (checksum/shard choice changed the count)",
						res.Messages, baseMessages)
				}
				for i := range baseAssign {
					if res.Assignment[i] != baseAssign[i] {
						t.Errorf("assignment[%d] = %d, want %d", i, res.Assignment[i], baseAssign[i])
						break
					}
				}
			}
			if res.BytesSent == 0 || res.BytesRecv == 0 {
				t.Errorf("byte counters not populated: sent=%d recv=%d", res.BytesSent, res.BytesRecv)
			}
			if res.BatchedFrames == 0 {
				t.Errorf("no frames batched with batching enabled")
			}
			if res.Restarts != 0 || res.Partitioned != 0 {
				t.Errorf("clean run reported faults: %+v", res)
			}
		})
	}
}

// TestShardTelemetryEvents attaches a telemetry stream to a 4-shard run and
// checks the per-shard relay events: one per shard, with inter-shard
// forwarding observed (a 12-ring has cross-shard edges at every other hop)
// and the frame/byte totals populated.
func TestShardTelemetryEvents(t *testing.T) {
	p, init := ringProblem(t, 12)
	var buf bytes.Buffer
	tel := telemetry.NewRun(telemetry.NewRegistry(), &buf)
	res, err := Run(p, awcMaker(p, init), Options{
		Timeout:   30 * time.Second,
		Shards:    4,
		Telemetry: tel,
	})
	if err != nil || !res.Solved {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if err := tel.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var shards []telemetry.Event
	for _, ev := range events {
		if ev.Kind == telemetry.KindShard {
			shards = append(shards, ev)
		}
	}
	if len(shards) != 4 {
		t.Fatalf("shard events = %d, want 4", len(shards))
	}
	var framesIn, forwarded, bytesIn, bytesOut int64
	for i, ev := range shards {
		if ev.Shard != i {
			t.Errorf("shard event %d has Shard=%d", i, ev.Shard)
		}
		framesIn += ev.FramesIn
		forwarded += ev.Forwarded
		bytesIn += ev.BytesIn
		bytesOut += ev.BytesOut
	}
	if framesIn == 0 || bytesIn == 0 || bytesOut == 0 {
		t.Errorf("shard totals not populated: frames=%d in=%d out=%d", framesIn, bytesIn, bytesOut)
	}
	if forwarded == 0 {
		t.Errorf("no inter-shard forwards observed on a 4-shard ring")
	}
}

// TestShardCodecMatrixChaosRing replays the ring fixture under the
// drop+duplicate schedule (no delay: injected delay reorders step batches,
// which legitimately perturbs check grouping). The fault schedule is keyed
// on logical (from, to, seq, attempt), so it is invariant under sharding
// and the checksum setting — Messages counts unique (link, seq) before the
// drop decision and must stay identical across the matrix.
func TestShardCodecMatrixChaosRing(t *testing.T) {
	p, init := ringProblem(t, 12)
	fcfg := &faults.Config{Seed: 9, Drop: 0.3, Duplicate: 0.3}
	var baseMessages int64 = -1
	for _, cfg := range checksumShardMatrix() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			res, err := Run(p, awcMaker(p, init), Options{
				Timeout:   30 * time.Second,
				Transport: cfg.transport,
				Shards:    cfg.shards,
				Faults:    fcfg,
			})
			if err != nil {
				t.Fatalf("run: %v (res=%+v)", err, res)
			}
			if !res.Solved {
				t.Fatalf("ring under chaos not solved: %+v", res)
			}
			if baseMessages < 0 {
				baseMessages = res.Messages
			} else if res.Messages != baseMessages {
				t.Errorf("Messages = %d, want %d (chaos schedule not shard/checksum-invariant)",
					res.Messages, baseMessages)
			}
		})
	}
}

// TestShardCodecMatrixChaosColoring runs the PR-3 chaos profile (drop,
// duplicate, and delay) on a real search instance across the matrix. Delay
// injection perturbs step batching, so message counts legitimately differ;
// the invariant is the verdict and solution validity in every cell.
func TestShardCodecMatrixChaosColoring(t *testing.T) {
	inst, err := gen.Coloring(15, 35, 3, 71)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 72)
	fcfg := &faults.Config{Seed: 4, Drop: 0.1, Duplicate: 0.3, MaxDelay: 2 * time.Millisecond}
	for _, cfg := range checksumShardMatrix() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			res, err := Run(inst.Problem, awcMaker(inst.Problem, init), Options{
				Timeout:   30 * time.Second,
				Transport: cfg.transport,
				Shards:    cfg.shards,
				Faults:    fcfg,
			})
			if err != nil {
				t.Fatalf("run: %v (res=%+v)", err, res)
			}
			if !res.Solved || !inst.Problem.IsSolution(res.Assignment) {
				t.Fatalf("chaos coloring not solved: %+v", res)
			}
		})
	}
}

// TestShardCodecMatrixPartitionWindow runs a PR-4 partition window (a cut
// over the first 150ms that then heals) across checksum settings and shard
// counts. The cut is seeded on agent ids, so which frames it intercepts is
// independent of the socket plane; every cell must solve after the heal and
// observe the window.
func TestShardCodecMatrixPartitionWindow(t *testing.T) {
	inst, err := gen.Coloring(15, 35, 3, 71)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 72)
	fcfg := &faults.Config{Seed: 11, Partitions: []faults.Partition{
		{At: 0, Dur: 150 * time.Millisecond},
	}}
	for _, cfg := range []matrixConfig{
		{"binary/shards=1", Transport{}, 1},
		{"binary/shards=4", Transport{}, 4},
		{"crc/shards=4", Transport{Checksum: true}, 4},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			res, err := Run(inst.Problem, awcMaker(inst.Problem, init), Options{
				Timeout:   30 * time.Second,
				Transport: cfg.transport,
				Shards:    cfg.shards,
				Faults:    fcfg,
			})
			if err != nil {
				t.Fatalf("run: %v (res=%+v)", err, res)
			}
			if !res.Solved || !inst.Problem.IsSolution(res.Assignment) {
				t.Fatalf("partitioned coloring not solved: %+v", res)
			}
			if res.Partitioned == 0 {
				t.Errorf("partition window intercepted no frames")
			}
			if res.PartitionHeals != 1 {
				t.Errorf("PartitionHeals = %d, want 1", res.PartitionHeals)
			}
		})
	}
}

// TestShardCodecMatrixCrashRestart replays the crash-restart profile across
// both checksum settings and shard counts: agent 2 of a 15-variable coloring
// dies in its first step and rejoins from its checkpoint, and the mustRejoin
// instance pins the exact restart count.
func TestShardCodecMatrixCrashRestart(t *testing.T) {
	inst, err := gen.Coloring(15, 35, 3, 73)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 74)
	fcfg := &faults.Config{Seed: 5, Crashes: []faults.Crash{
		{Agent: 2, AfterSteps: 0, Restart: true},
	}}
	pinned, pinnedInit, pinnedFaults := mustRejoin(t)
	for _, cfg := range []matrixConfig{
		{"binary/shards=1", Transport{}, 1},
		{"binary/shards=4", Transport{}, 4},
		{"crc/shards=4", Transport{Checksum: true}, 4},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			res, err := Run(inst.Problem, awcMaker(inst.Problem, init), Options{
				Timeout:   30 * time.Second,
				Transport: cfg.transport,
				Shards:    cfg.shards,
				Faults:    fcfg,
			})
			if err != nil {
				t.Fatalf("run: %v (res=%+v)", err, res)
			}
			if !res.Solved || !inst.Problem.IsSolution(res.Assignment) {
				t.Fatalf("crash-restart coloring not solved: %+v", res)
			}
			// The crash schedule is deterministic, but whether the restart
			// beats termination is not: the run may solve before the
			// crashed node rejoins.
			if res.Restarts > 1 {
				t.Errorf("Restarts = %d, want at most 1", res.Restarts)
			}

			res, err = Run(pinned, awcMaker(pinned, pinnedInit), Options{
				Timeout:   30 * time.Second,
				Transport: cfg.transport,
				Shards:    cfg.shards,
				Faults:    pinnedFaults,
			})
			if err != nil {
				t.Fatalf("run: %v (res=%+v)", err, res)
			}
			if !res.Solved || !pinned.IsSolution(res.Assignment) || res.Restarts != 1 {
				t.Errorf("want solved with 1 restart: %+v", res)
			}
		})
	}
}

// TestWelcomeIsAlwaysBinary pins the fixed handshake from both ends. A
// node whose hello asks for JSON, as workers built before the codec was
// fixed do, is welcomed with binary and then heard in binary: a
// one-variable hub solves on that node's binary state report. The hello
// also carries the retired "causal" bid, as a traced worker built before
// the bid was retired sends it, and the hub ignores it. A node welcomed
// with any other codec refuses the session.
func TestWelcomeIsAlwaysBinary(t *testing.T) {
	p := csp.NewProblemUniform(1, 2)
	type hubOut struct {
		res Result
		err error
	}
	addrsCh := make(chan []string, 1)
	hubCh := make(chan hubOut, 1)
	go func() {
		res, err := Run(p, nil, Options{
			Timeout:  10 * time.Second,
			External: true,
			OnListen: func(addrs []string) { addrsCh <- addrs },
		})
		hubCh <- hubOut{res, err}
	}()
	var addrs []string
	select {
	case addrs = <-addrsCh:
	case out := <-hubCh:
		t.Fatalf("hub exited before listening: %v", out.err)
	}
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fr, fw := wire.NewFrameReader(conn), wire.NewFrameWriter(conn)
	send := func(e wire.Envelope) {
		t.Helper()
		if err := fw.Send(&e); err != nil {
			t.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	hello := `{"type":"ctl.hello","from":0,"to":-1,"codec":"json","causal":true}` + "\n"
	if _, err := conn.Write([]byte(hello)); err != nil {
		t.Fatal(err)
	}
	welcome, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if welcome.Type != wire.TypeWelcome || welcome.Codec != wire.CodecBinary.String() {
		t.Fatalf("welcome = %+v, want one naming %q", welcome, wire.CodecBinary)
	}
	if err := fw.SetCodec(wire.CodecBinary); err != nil {
		t.Fatal(err)
	}
	send(wire.Envelope{Type: wire.TypeState, From: 0, Value: 1})
	if out := <-hubCh; out.err != nil || !out.res.Solved {
		t.Fatalf("hub did not read the binary state report: %v (res=%+v)", out.err, out.res)
	}

	fh := startFakeHub(t, &recordingAgent{})
	if e := fh.next(); e.Type != wire.TypeHello || e.Codec != wire.CodecBinary.String() {
		t.Fatalf("node hello = %+v, want one naming %q", e, wire.CodecBinary)
	}
	fh.send(wire.Envelope{Type: wire.TypeWelcome, From: -1, To: 0, Codec: wire.CodecJSON.String()})
	fh.flush()
	if err := <-fh.nodeErr; err == nil {
		t.Fatal("node accepted a welcome naming json")
	}
}

// TestExternalWorkersSharded runs the hub with External nodes: two worker
// "processes" (goroutine stand-ins for cmd/dcspnode) split the variables by
// parity — which is exactly the shard assignment, so worker A talks only to
// relay 0 and worker B only to relay 1.
func TestExternalWorkersSharded(t *testing.T) {
	inst, err := gen.Coloring(10, 20, 3, 81)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 82)
	maker := awcMaker(inst.Problem, init)

	var evens, odds []int
	for v := 0; v < 10; v++ {
		if v%2 == 0 {
			evens = append(evens, v)
		} else {
			odds = append(odds, v)
		}
	}
	addrsCh := make(chan []string, 1)
	var wg sync.WaitGroup
	workerErrs := make(chan error, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		addrs := <-addrsCh
		var inner sync.WaitGroup
		for _, vars := range [][]int{evens, odds} {
			inner.Add(1)
			go func(vars []int) {
				defer inner.Done()
				if _, err := RunWorker(inst.Problem, maker, WorkerOptions{
					Addrs: addrs,
					Vars:  vars,
					// A non-default drain window must plumb through without
					// changing a clean run.
					DrainWindow: 250 * time.Millisecond,
				}); err != nil {
					workerErrs <- err
				}
			}(vars)
		}
		inner.Wait()
	}()

	res, err := Run(inst.Problem, maker, Options{
		Timeout:  30 * time.Second,
		Shards:   2,
		External: true,
		OnListen: func(addrs []string) { addrsCh <- addrs },
	})
	wg.Wait()
	close(workerErrs)
	for werr := range workerErrs {
		t.Errorf("worker: %v", werr)
	}
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Solved || !inst.Problem.IsSolution(res.Assignment) {
		t.Fatalf("external run not solved: %+v", res)
	}
	if res.TotalChecks != 0 {
		t.Errorf("TotalChecks = %d, want 0 (external workers own the agents)", res.TotalChecks)
	}
	if res.BytesRecv == 0 || res.BytesSent == 0 {
		t.Errorf("byte counters not populated: %+v", res)
	}
}

// TestDrainWindowResolution pins the write-error classifier's inbound-drain
// bound: configurable per node, 1s when unset.
func TestDrainWindowResolution(t *testing.T) {
	if got := (nodeConfig{}).drainWindowOrDefault(); got != time.Second {
		t.Fatalf("default drain window = %v, want 1s", got)
	}
	if got := (nodeConfig{drainWindow: 5 * time.Second}).drainWindowOrDefault(); got != 5*time.Second {
		t.Fatalf("configured drain window = %v, want 5s", got)
	}
	if got := (nodeConfig{drainWindow: -1}).drainWindowOrDefault(); got != time.Second {
		t.Fatalf("negative drain window = %v, want the 1s default", got)
	}
}

// TestWorkerOptionValidation pins RunWorker's argument checks.
func TestWorkerOptionValidation(t *testing.T) {
	p, init := ringProblem(t, 4)
	maker := awcMaker(p, init)
	if _, err := RunWorker(p, maker, WorkerOptions{Vars: []int{0}}); err == nil {
		t.Error("no addresses accepted")
	}
	if _, err := RunWorker(p, maker, WorkerOptions{Addrs: []string{"127.0.0.1:1"}}); err == nil {
		t.Error("no variables accepted")
	}
	if _, err := RunWorker(p, maker, WorkerOptions{Addrs: []string{"127.0.0.1:1"}, Vars: []int{9}}); err == nil {
		t.Error("out-of-range variable accepted")
	}
}

// TestListenShardMismatch pins the Options cross-check: an explicit Shards
// count that disagrees with the Listen list is a configuration error.
func TestListenShardMismatch(t *testing.T) {
	p, init := ringProblem(t, 4)
	_, err := Run(p, awcMaker(p, init), Options{
		Shards: 3,
		Listen: []string{"127.0.0.1:0", "127.0.0.1:0"},
	})
	if err == nil {
		t.Fatal("mismatched Shards/Listen accepted")
	}
}
