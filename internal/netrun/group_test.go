// Tests for read grouping: the hub's relay read loops and each node's
// reader hand over every frame one socket read delivered as one group, so
// the hub routes a group before its idle flush and a node steps its agent
// once per group.
package netrun

import (
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/discsp/discsp/internal/core"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/sim"
	"github.com/discsp/discsp/internal/wire"
)

// recordingAgent records the size of every batch it is stepped on and
// sends nothing.
type recordingAgent struct{ steps []int }

func (a *recordingAgent) ID() sim.AgentID         { return 0 }
func (a *recordingAgent) Init() []sim.Message     { return nil }
func (a *recordingAgent) CurrentValue() csp.Value { return 0 }
func (a *recordingAgent) Checks() int64           { return 0 }
func (a *recordingAgent) Step(in []sim.Message) []sim.Message {
	a.steps = append(a.steps, len(in))
	return nil
}

// fakeHub plays the hub's end of one node's connection: fr and fw are the
// accepted socket's reader and writer, still in JSON, the handshake
// encoding, and nodeErr receives runNode's result.
type fakeHub struct {
	t       *testing.T
	fr      *wire.FrameReader
	fw      *wire.FrameWriter
	nodeErr chan error
}

// startFakeHub runs one in-process node for agent against a fake hub and
// returns the hub's end once the node has dialed in.
func startFakeHub(t *testing.T, agent sim.Agent) *fakeHub {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	runDone := make(chan struct{})
	t.Cleanup(func() { close(runDone) })
	f := &fakeHub{t: t, nodeErr: make(chan error, 1)}
	go func() {
		_, err := runNode(nodeConfig{
			addr:      ln.Addr().String(),
			makeAgent: func(csp.Var) sim.Agent { return agent },
			ctr:       &nodeCounters{},
			done:      runDone,
		}, 0)
		f.nodeErr <- err
	}()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	f.fr, f.fw = wire.NewFrameReader(conn), wire.NewFrameWriter(conn)
	return f
}

func (f *fakeHub) next() wire.Envelope {
	f.t.Helper()
	e, err := f.fr.Next()
	if err != nil {
		f.t.Fatal(err)
	}
	return e
}

func (f *fakeHub) send(e wire.Envelope) {
	f.t.Helper()
	if err := f.fw.Send(&e); err != nil {
		f.t.Fatal(err)
	}
}

func (f *fakeHub) flush() {
	f.t.Helper()
	if err := f.fw.Flush(); err != nil {
		f.t.Fatal(err)
	}
}

// TestNodeStepsOncePerReadGroup plays the hub against one node: three ok?
// messages from three links arrive in one batch frame, so the node must
// step once on all three and answer with one ack per link and one state
// report counting all three.
func TestNodeStepsOncePerReadGroup(t *testing.T) {
	agent := &recordingAgent{}
	fh := startFakeHub(t, agent)
	fr, fw, next, send, flush := fh.fr, fh.fw, fh.next, fh.send, fh.flush

	if e := next(); e.Type != wire.TypeHello {
		t.Fatalf("first frame %+v, want a hello", e)
	}
	send(wire.Envelope{Type: wire.TypeWelcome, From: -1, To: 0, Codec: wire.CodecBinary.String()})
	flush()
	fr.SetCodec(wire.CodecBinary)
	if err := fw.SetCodec(wire.CodecBinary); err != nil {
		t.Fatal(err)
	}
	if e := next(); e.Type != wire.TypeState || e.Processed != 0 {
		t.Fatalf("after Init got %+v, want a state report of 0", e)
	}

	fw.EnableBatching(batchMaxFrames, batchMaxBytes)
	for from := 1; from <= 3; from++ {
		env, err := wire.Encode(&core.Ok{Sender: sim.AgentID(from), Receiver: 0, Value: 1})
		if err != nil {
			t.Fatal(err)
		}
		env.Seq = 1
		send(env)
	}
	flush()

	acks := make(map[int]int64)
	for e := next(); ; e = next() {
		if e.Type == wire.TypeAck {
			acks[e.To] = e.Ack
			continue
		}
		if e.Type != wire.TypeState || e.Processed != 3 {
			t.Fatalf("got %+v, want acks then one state report of 3", e)
		}
		break
	}
	if want := map[int]int64{1: 1, 2: 1, 3: 1}; !reflect.DeepEqual(acks, want) {
		t.Errorf("acks = %v, want %v", acks, want)
	}

	send(wire.Envelope{Type: wire.TypeStop, From: -1, To: 0})
	flush()
	for {
		e, err := fr.Next()
		if err != nil {
			break // the node closed its socket on the stop
		}
		t.Errorf("frame after the group's replies: %+v", e)
	}
	if err := <-fh.nodeErr; err != nil {
		t.Fatal(err)
	}
	if want := []int{3}; !reflect.DeepEqual(agent.steps, want) {
		t.Errorf("step batch sizes = %v, want %v", agent.steps, want)
	}
}

// TestRelayGroupsFramesPerRead pins the hub half: a hello travels alone
// (the reader switches to binary inline after it), and three frames a node
// wrote in one flush reach the route loop's channel as one group, in order.
func TestRelayGroupsFramesPerRead(t *testing.T) {
	hubEnd, nodeEnd := net.Pipe()
	defer nodeEnd.Close()
	h := &hub{frames: make(chan []inFrame, 4), stop: make(chan struct{})}
	defer close(h.stop)
	rc := &relayConn{conn: hubEnd, fr: wire.NewFrameReader(hubEnd), node: -1}
	go func() {
		defer hubEnd.Close()
		h.readLoop(rc)
	}()
	group := func() []inFrame {
		t.Helper()
		select {
		case g := <-h.frames:
			return g
		case <-time.After(10 * time.Second):
			t.Fatal("no group reached the route loop")
			return nil
		}
	}

	fw := wire.NewFrameWriter(nodeEnd)
	hello := wire.Envelope{Type: wire.TypeHello, From: 1, To: -1, Codec: wire.CodecBinary.String()}
	if err := fw.Send(&hello); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if g := group(); len(g) != 1 || g[0].env.Type != wire.TypeHello {
		t.Fatalf("hello group = %+v", g)
	}

	if err := fw.SetCodec(wire.CodecBinary); err != nil {
		t.Fatal(err)
	}
	for seq := int64(1); seq <= 3; seq++ {
		e := wire.Envelope{Type: wire.TypeCoreOk, From: 1, To: 2, Value: 1, Seq: seq}
		if err := fw.Send(&e); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	g := group()
	if len(g) != 3 {
		t.Fatalf("one flush of 3 frames arrived as a group of %d", len(g))
	}
	for i, f := range g {
		if f.env.Seq != int64(i+1) || f.src != rc {
			t.Errorf("frame %d of the group = %+v from %p, want seq %d from %p", i, f.env, f.src, i+1, rc)
		}
	}
}
