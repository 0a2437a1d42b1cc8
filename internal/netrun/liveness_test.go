// Tests for the survivability layer: worker dial retry, mid-solve
// reconnection, dead-peer detection, reconnect grace, and CRC-detected
// frame corruption. The network damage is staged through a loopback proxy
// so the hub and workers run unmodified.
package netrun

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/discsp/discsp/internal/breakout"
	"github.com/discsp/discsp/internal/core"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/faults"
	"github.com/discsp/discsp/internal/gen"
	"github.com/discsp/discsp/internal/sim"
	"github.com/discsp/discsp/internal/wire"
)

// testProxy is a byte-level TCP proxy between workers and one hub relay. It
// can sever every open pipe (a crashed network path: both sides see a
// socket error) or blackhole them (a wedged path: bytes vanish, sockets
// stay open), while always passing connections dialed afterwards — which is
// exactly what a redialing worker produces.
type testProxy struct {
	ln     net.Listener
	target string

	mu       sync.Mutex
	pipes    []net.Conn
	gen      int // generation stamped on conns at accept
	silenced int // pipes with gen < silenced discard instead of forwarding
	drop     int // connections still to close at accept, before dialing the target
	fault    func()
	faultAt  int64 // fault runs once the byte count reaches faultAt

	bytes atomic.Int64 // total payload bytes observed, both directions
}

func newTestProxy(t *testing.T, target string) *testProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &testProxy{ln: ln, target: target}
	go p.acceptLoop()
	t.Cleanup(func() {
		ln.Close()
		p.severAll()
	})
	return p
}

func (p *testProxy) addr() string { return p.ln.Addr().String() }

func (p *testProxy) acceptLoop() {
	for {
		down, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		drop := p.drop > 0
		if drop {
			p.drop--
		}
		p.mu.Unlock()
		if drop {
			down.Close()
			continue
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			down.Close()
			continue
		}
		p.mu.Lock()
		gen := p.gen
		p.pipes = append(p.pipes, down, up)
		p.mu.Unlock()
		go p.pump(up, down, gen)
		go p.pump(down, up, gen)
	}
}

func (p *testProxy) pump(dst, src net.Conn, gen int) {
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if fault := p.due(p.bytes.Add(int64(n))); fault != nil {
				fault()
			}
			p.mu.Lock()
			hole := gen < p.silenced
			p.mu.Unlock()
			if !hole {
				if _, werr := dst.Write(buf[:n]); werr != nil {
					break
				}
			}
		}
		if err != nil {
			break
		}
	}
	dst.Close()
	src.Close()
}

// severAll closes every open pipe; connections dialed afterwards pass.
func (p *testProxy) severAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.pipes {
		c.Close()
	}
	p.pipes = nil
}

// silenceExisting blackholes every pipe open right now — bytes are read and
// discarded, sockets stay up — while future connections pass.
func (p *testProxy) silenceExisting() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gen++
	p.silenced = p.gen
}

// at arms a one-shot fault (severAll or silenceExisting) for the moment
// the proxy's byte count reaches n. The pump whose read crosses n runs it
// before forwarding that read, so the fault lands at a fixed point in the
// byte stream — mid-solve, however the scheduler delays the test
// goroutine. Acting from the test goroutine after polling the count can
// land after the verdict: the whole solve takes a few tens of milliseconds.
func (p *testProxy) at(n int64, fault func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fault, p.faultAt = fault, n
}

// due hands back the armed fault, once, when total has reached its mark.
func (p *testProxy) due(total int64) func() {
	p.mu.Lock()
	defer p.mu.Unlock()
	fault := p.fault
	if fault == nil || total < p.faultAt {
		return nil
	}
	p.fault = nil
	return fault
}

func allVars(n int) []int {
	vars := make([]int, n)
	for i := range vars {
		vars[i] = i
	}
	return vars
}

// TestWorkerDialRetryBeforeHubListens pins the startup-order satellite: a
// worker launched before the hub binds its relays must retry the dial until
// ConnectTimeout instead of exiting on the first connection refusal.
func TestWorkerDialRetryBeforeHubListens(t *testing.T) {
	p, init := ringProblem(t, 6)
	maker := awcMaker(p, init)

	// Reserve an address the hub will bind later; until then dials to it
	// are refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	workerErr := make(chan error, 1)
	go func() {
		_, err := RunWorker(p, maker, WorkerOptions{
			Addrs:          []string{addr},
			Vars:           allVars(6),
			ConnectTimeout: 15 * time.Second,
		})
		workerErr <- err
	}()

	// Let the worker accumulate a few refused dials before the hub exists.
	time.Sleep(300 * time.Millisecond)
	res, err := Run(p, maker, Options{
		Timeout:  30 * time.Second,
		Listen:   []string{addr},
		External: true,
	})
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Solved || !p.IsSolution(res.Assignment) {
		t.Fatalf("not solved with late-binding hub: %+v", res)
	}
	if werr := <-workerErr; werr != nil {
		t.Fatalf("worker: %v", werr)
	}
}

// TestWorkerBacksOffWhenNoRelayAnswers points a worker at a listener that
// accepts every connection and closes it unanswered — what a proxy in front
// of a finished hub looks like. Each dial succeeds and each hello dies, so
// only the session layer can tell that nothing is there: the worker must
// back off between attempts and give up at ConnectTimeout, not redial in a
// hot loop that never ends.
func TestWorkerBacksOffWhenNoRelayAnswers(t *testing.T) {
	p, init := ringProblem(t, 6)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var accepted atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			c.Close()
		}
	}()

	start := time.Now()
	workerErr := make(chan error, 1)
	go func() {
		_, err := RunWorker(p, awcMaker(p, init), WorkerOptions{
			Addrs:          []string{ln.Addr().String()},
			Vars:           []int{0},
			ConnectTimeout: 300 * time.Millisecond,
		})
		workerErr <- err
	}()
	select {
	case err := <-workerErr:
		if err == nil || !strings.Contains(err.Error(), "no welcome") {
			t.Fatalf("worker error = %v, want the unanswered hello reported", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("worker still redialing after 10s (%d connections accepted)", accepted.Load())
	}
	// Backoff from 25ms doubling spaces the attempts: a handful fit in the
	// 300ms timeout, where a hot loop makes thousands.
	if n := accepted.Load(); n > 20 {
		t.Errorf("%d connections in %v: no backoff between unanswered hellos", n, time.Since(start))
	}
}

// TestWorkerInitsAfterUnansweredHello drops agent 0's first connection
// before any relay sees its hello. The next attempt must be a fresh start,
// not a resume: on the mustRejoin instance agent 0 outranks agent 1, so the
// run solves only after agent 0's init announces x0 = 0 and agent 1 moves.
// A resumed hello would skip that init and leave both agents at 0.
func TestWorkerInitsAfterUnansweredHello(t *testing.T) {
	p, init, _ := mustRejoin(t)
	maker := awcMaker(p, init)

	addrsCh := make(chan []string, 1)
	type hubOut struct {
		res Result
		err error
	}
	hubCh := make(chan hubOut, 1)
	go func() {
		res, err := Run(p, maker, Options{
			Timeout:  10 * time.Second,
			External: true,
			OnListen: func(addrs []string) { addrsCh <- addrs },
		})
		hubCh <- hubOut{res, err}
	}()
	addrs := <-addrsCh
	px := newTestProxy(t, addrs[0])
	px.mu.Lock()
	px.drop = 1
	px.mu.Unlock()

	workerErrs := make(chan error, 2)
	for v, addr := range []string{px.addr(), addrs[0]} {
		go func() {
			_, err := RunWorker(p, maker, WorkerOptions{
				Addrs:          []string{addr},
				Vars:           []int{v},
				ConnectTimeout: 10 * time.Second,
			})
			workerErrs <- err
		}()
	}

	out := <-hubCh
	if out.err != nil {
		t.Fatalf("run: %v (res=%+v)", out.err, out.res)
	}
	if !out.res.Solved || !p.IsSolution(out.res.Assignment) {
		t.Fatalf("not solved after agent 0's unanswered hello: %+v", out.res)
	}
	for range 2 {
		if err := <-workerErrs; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	px.mu.Lock()
	defer px.mu.Unlock()
	if px.drop != 0 {
		t.Fatal("agent 0 never dialed through the proxy")
	}
}

// TestStaleHelloIgnored delivers a node's hellos to the hub out of order:
// the hello on its newer connection is answered first, then the one on the
// connection it replaced (accepted earlier) arrives. A sever during the
// handshake makes this race real — each connection has its own reader
// goroutine. The late hello must be refused, not registered: honoring it
// closed the live connection and, without the resume flag, cold-reset the
// peers' links with a node that kept its own numbering, which stalled the
// run.
func TestStaleHelloIgnored(t *testing.T) {
	p, init, _ := mustRejoin(t)
	addrsCh := make(chan []string, 1)
	hubDone := make(chan struct{})
	go func() {
		defer close(hubDone)
		Run(p, awcMaker(p, init), Options{
			Timeout:        5 * time.Second,
			External:       true,
			ReconnectGrace: -1, // end the run once the live connection closes
			OnListen:       func(addrs []string) { addrsCh <- addrs },
		})
	}()
	addr := (<-addrsCh)[0]
	dial := func() net.Conn {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	hello := func(c net.Conn, resume bool) {
		fw := wire.NewFrameWriter(c)
		if err := fw.Send(&wire.Envelope{Type: wire.TypeHello, From: 0, Codec: "json", Resume: resume}); err != nil {
			t.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	older, newer := dial(), dial() // accepted in dial order

	hello(newer, true)
	newer.SetReadDeadline(time.Now().Add(5 * time.Second))
	if w, err := wire.NewFrameReader(newer).Next(); err != nil || w.Type != wire.TypeWelcome {
		t.Fatalf("newer connection: got %+v, %v; want a welcome", w, err)
	}
	hello(older, false)
	older.SetReadDeadline(time.Now().Add(5 * time.Second))
	if w, err := wire.NewFrameReader(older).Next(); err == nil {
		t.Fatalf("stale hello answered with %q", w.Type)
	} else if !errors.Is(err, io.EOF) {
		t.Fatalf("stale connection: %v, want it closed", err)
	}
	// The live connection is still open: a read sees a heartbeat or times
	// out, not EOF.
	newer.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	var ne net.Error
	if _, err := newer.Read(make([]byte, 1)); err != nil && !(errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("live connection closed after the stale hello: %v", err)
	}
	newer.Close()
	<-hubDone
}

// TestWorkerReconnectAfterSever severs every worker connection mid-solve
// and requires the run to finish anyway: the workers redial, re-hello with
// the resume flag, replay their unacked windows, and both sides count the
// reconnection.
func TestWorkerReconnectAfterSever(t *testing.T) {
	inst, err := gen.Coloring(15, 35, 3, 77)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 78)
	maker := awcMaker(inst.Problem, init)

	addrsCh := make(chan []string, 1)
	type hubOut struct {
		res Result
		err error
	}
	hubCh := make(chan hubOut, 1)
	go func() {
		res, err := Run(inst.Problem, maker, Options{
			Timeout:        30 * time.Second,
			External:       true,
			ReconnectGrace: 10 * time.Second,
			OnListen:       func(addrs []string) { addrsCh <- addrs },
		})
		hubCh <- hubOut{res, err}
	}()
	addrs := <-addrsCh
	px := newTestProxy(t, addrs[0])
	px.at(4<<10, px.severAll)

	statsCh := make(chan WorkerStats, 1)
	workerErr := make(chan error, 1)
	go func() {
		st, err := RunWorker(inst.Problem, maker, WorkerOptions{
			Addrs:          []string{px.addr()},
			Vars:           allVars(inst.Problem.NumVars()),
			ConnectTimeout: 10 * time.Second,
		})
		statsCh <- st
		workerErr <- err
	}()

	out := <-hubCh
	if out.err != nil {
		t.Fatalf("run: %v (res=%+v)", out.err, out.res)
	}
	if !out.res.Solved || !inst.Problem.IsSolution(out.res.Assignment) {
		t.Fatalf("not solved across severed connections: %+v", out.res)
	}
	if out.res.Reconnects == 0 {
		t.Errorf("hub counted no reconnects after severing every pipe: %+v", out.res)
	}
	if werr := <-workerErr; werr != nil {
		t.Fatalf("worker: %v", werr)
	}
	if st := <-statsCh; st.Reconnects == 0 {
		t.Errorf("worker counted no reconnects: %+v", st)
	}
}

// TestDeadPeerDetection blackholes the worker links mid-solve: sockets stay
// up but go silent, so only the heartbeat layer can notice. The hub must
// declare the peers dead (counting heartbeat timeouts), sever them, and
// accept the workers' redials within the reconnect grace.
func TestDeadPeerDetection(t *testing.T) {
	inst, err := gen.Coloring(15, 35, 3, 79)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 80)
	maker := awcMaker(inst.Problem, init)

	addrsCh := make(chan []string, 1)
	type hubOut struct {
		res Result
		err error
	}
	hubCh := make(chan hubOut, 1)
	go func() {
		res, err := Run(inst.Problem, maker, Options{
			Timeout:  30 * time.Second,
			External: true,
			// Fast liveness so the test turns around quickly. The hub's
			// dead-peer bound is deliberately much shorter than the workers'
			// (2s): the hub always detects first and severs, which is the
			// path under test.
			Transport:      Transport{Heartbeat: 25 * time.Millisecond, DeadPeerTimeout: 150 * time.Millisecond},
			ReconnectGrace: 10 * time.Second,
			OnListen:       func(addrs []string) { addrsCh <- addrs },
		})
		hubCh <- hubOut{res, err}
	}()
	addrs := <-addrsCh
	px := newTestProxy(t, addrs[0])
	px.at(4<<10, px.silenceExisting)

	workerErr := make(chan error, 1)
	go func() {
		_, err := RunWorker(inst.Problem, maker, WorkerOptions{
			Addrs:          []string{px.addr()},
			Vars:           allVars(inst.Problem.NumVars()),
			ConnectTimeout: 10 * time.Second,
			Transport:      Transport{Heartbeat: 25 * time.Millisecond, DeadPeerTimeout: 2 * time.Second},
		})
		workerErr <- err
	}()

	out := <-hubCh
	if out.err != nil {
		t.Fatalf("run: %v (res=%+v)", out.err, out.res)
	}
	if !out.res.Solved || !inst.Problem.IsSolution(out.res.Assignment) {
		t.Fatalf("not solved across blackholed links: %+v", out.res)
	}
	if out.res.HeartbeatTimeouts == 0 {
		t.Errorf("hub declared no dead peers under a blackhole: %+v", out.res)
	}
	if out.res.Reconnects == 0 {
		t.Errorf("no reconnects after dead-peer severing: %+v", out.res)
	}
	if werr := <-workerErr; werr != nil {
		t.Fatalf("worker: %v", werr)
	}
}

// TestReconnectGraceExpiry pins the grace window's failure edge: a node
// that dies for good (an unrestarted crash) holds the run in the parked
// state for exactly the grace window, then fails with a diagnostic
// ErrNodeDown naming the wait.
func TestReconnectGraceExpiry(t *testing.T) {
	p := insolubleTriangle(t)
	init := csp.SliceAssignment{0, 0, 0}
	start := time.Now()
	_, err := Run(p, func(v csp.Var) sim.Agent {
		return breakout.NewAgent(v, p, init[v])
	}, Options{
		Timeout:        30 * time.Second,
		ReconnectGrace: 150 * time.Millisecond,
		Faults: &faults.Config{Seed: 1, Crashes: []faults.Crash{
			{Agent: 1, AfterSteps: 2, Restart: false},
		}},
	})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
	if !strings.Contains(err.Error(), "unreachable") || !strings.Contains(err.Error(), "awaiting reconnection") {
		t.Errorf("diagnostic %q does not describe the expired grace", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("grace expiry took %v; the run idled toward the timeout", elapsed)
	}
}

// TestNegativeGraceFailsImmediately pins the opt-out: ReconnectGrace < 0
// restores the pre-reconnection behavior — the first failed write to an
// unrestartable node kills the run with no parking.
func TestNegativeGraceFailsImmediately(t *testing.T) {
	p := insolubleTriangle(t)
	init := csp.SliceAssignment{0, 0, 0}
	_, err := Run(p, func(v csp.Var) sim.Agent {
		return breakout.NewAgent(v, p, init[v])
	}, Options{
		Timeout:        30 * time.Second,
		ReconnectGrace: -1,
		Faults: &faults.Config{Seed: 1, Crashes: []faults.Crash{
			{Agent: 1, AfterSteps: 2, Restart: false},
		}},
	})
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
	if strings.Contains(err.Error(), "awaiting reconnection") {
		t.Errorf("negative grace still parked frames: %q", err)
	}
}

// corruptFirstAttempts damages the first attempt of every algorithm frame
// and lets every retransmission through, so no message reaches an agent
// except by retransmission: a run that solves must have retransmitted,
// however fast it solves. A probabilistic rate would let a quick verdict
// land before any damaged frame needed its resend.
var corruptFirstAttempts = faults.Config{Seed: 9, Corrupt: 1, MaxAttempts: 1}

// TestCorruptFramesRecoveredByCRC runs AWC under a seeded corruption fault
// with the CRC32C trailer armed: every damaged frame must be detected and
// counted at the receiver, recovered by retransmission, and the run must
// end in a verified solution exactly like a clean network's.
func TestCorruptFramesRecoveredByCRC(t *testing.T) {
	inst, err := gen.Coloring(15, 35, 3, 71)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 72)
	res, err := Run(inst.Problem, func(v csp.Var) sim.Agent {
		return core.NewAgent(v, inst.Problem, init[v], core.Learning{Kind: core.LearnResolvent})
	}, Options{
		Timeout:   60 * time.Second,
		Transport: Transport{Checksum: true},
		Faults:    &corruptFirstAttempts,
	})
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Solved || !inst.Problem.IsSolution(res.Assignment) {
		t.Fatalf("not solved under corruption: %+v", res)
	}
	if res.CorruptFrames == 0 {
		t.Errorf("no corrupt frames detected with every first attempt damaged: %+v", res)
	}
	if res.Retransmits == 0 {
		t.Errorf("no retransmits; corrupted frames were not recovered by the transport: %+v", res)
	}
}

// TestCorruptFramesAcrossCrashRestart adds crash-restarts to the CRC run:
// every even agent dies after two steps and restarts from its checkpoint.
// A crashed session stops consuming its socket while the reader goroutine
// may still be counting a rejected frame, so the session must wait for
// that reader before it sums the corrupt-frame count (the race detector
// flags the unsynchronized read).
func TestCorruptFramesAcrossCrashRestart(t *testing.T) {
	inst, err := gen.Coloring(15, 35, 3, 71)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 72)
	fcfg := corruptFirstAttempts
	for v := 0; v < 15; v += 2 {
		fcfg.Crashes = append(fcfg.Crashes, faults.Crash{Agent: v, AfterSteps: 2, Restart: true})
	}
	res, err := Run(inst.Problem, func(v csp.Var) sim.Agent {
		return core.NewAgent(v, inst.Problem, init[v], core.Learning{Kind: core.LearnResolvent})
	}, Options{
		Timeout:   60 * time.Second,
		Transport: Transport{Checksum: true},
		Faults:    &fcfg,
	})
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Solved || !inst.Problem.IsSolution(res.Assignment) {
		t.Fatalf("not solved under corruption and crash-restarts: %+v", res)
	}
	if res.CorruptFrames == 0 {
		t.Errorf("no corrupt frames detected with every first attempt damaged: %+v", res)
	}
}

// TestCorruptWithoutChecksumDegradesToDrop pins the fault's behavior on
// links without the trailer: undetectable damage is indistinguishable from
// a drop, so the injector withholds the frame instead (the retransmit
// machinery still recovers) and nothing counts as corrupt.
func TestCorruptWithoutChecksumDegradesToDrop(t *testing.T) {
	inst, err := gen.Coloring(15, 35, 3, 71)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 72)
	res, err := Run(inst.Problem, func(v csp.Var) sim.Agent {
		return core.NewAgent(v, inst.Problem, init[v], core.Learning{Kind: core.LearnResolvent})
	}, Options{
		Timeout: 60 * time.Second,
		Faults:  &corruptFirstAttempts,
	})
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Solved || !inst.Problem.IsSolution(res.Assignment) {
		t.Fatalf("not solved under degraded corruption: %+v", res)
	}
	if res.CorruptFrames != 0 {
		t.Errorf("CorruptFrames = %d without a CRC trailer to detect them", res.CorruptFrames)
	}
	if res.Retransmits == 0 {
		t.Errorf("no retransmits; degraded drops were not recovered: %+v", res)
	}
}

// TestLivenessDisabled pins the opt-out: Heartbeat < 0 turns the beacon
// layer off entirely and a clean run completes exactly as before.
func TestLivenessDisabled(t *testing.T) {
	p, init := ringProblem(t, 6)
	res, err := Run(p, awcMaker(p, init), Options{
		Timeout:   30 * time.Second,
		Transport: Transport{Heartbeat: -1},
	})
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Solved || !p.IsSolution(res.Assignment) {
		t.Fatalf("not solved with liveness disabled: %+v", res)
	}
	if res.HeartbeatTimeouts != 0 || res.Reconnects != 0 {
		t.Errorf("liveness counters nonzero with liveness disabled: %+v", res)
	}
}

// TestTransportLiveness pins the one resolver the hub and the workers share
// for the liveness timers.
func TestTransportLiveness(t *testing.T) {
	for _, tc := range []struct {
		name         string
		tr           Transport
		hb, deadPeer time.Duration
	}{
		{"zero value", Transport{}, 500 * time.Millisecond, 2 * time.Second},
		{"negative heartbeat", Transport{Heartbeat: -1}, 0, 0},
		{"explicit dead-peer", Transport{Heartbeat: 25 * time.Millisecond, DeadPeerTimeout: 2 * time.Second}, 25 * time.Millisecond, 2 * time.Second},
		{"dead-peer from heartbeat", Transport{Heartbeat: 25 * time.Millisecond}, 25 * time.Millisecond, 100 * time.Millisecond},
	} {
		hb, deadPeer := tc.tr.liveness()
		if hb != tc.hb || deadPeer != tc.deadPeer {
			t.Errorf("%s: liveness() = %v, %v; want %v, %v", tc.name, hb, deadPeer, tc.hb, tc.deadPeer)
		}
	}
}
