//go:build !race

// Allocation bounds for the TCP runtime. The race detector instruments
// allocations and changes their counts, so these tests build only without
// it.
package netrun

import (
	"bytes"
	"io"
	"runtime"
	"testing"
	"time"

	"github.com/discsp/discsp/internal/core"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/gen"
	"github.com/discsp/discsp/internal/sim"
	"github.com/discsp/discsp/internal/wire"
)

// TestRunFixedAllocation bounds what one solve allocates beyond its
// messages: a d3c n=20 instance started from its planted coloring over 4
// shards ends on the Init round with 108 messages, so nearly all it
// allocates is the per-connection cost. Below 2.5 MiB a solve stays under
// the Go GC's 4 MB minimum heap goal, and no collection runs inside it.
func TestRunFixedAllocation(t *testing.T) {
	const limit = 5 << 19 // 2.5 MiB
	for seed := int64(1); seed <= 5; seed++ {
		inst, err := gen.Coloring(20, 54, 3, seed)
		if err != nil {
			t.Fatal(err)
		}
		p, hidden := inst.Problem, inst.Hidden
		makeAgent := func(v csp.Var) sim.Agent {
			return core.NewAgent(v, p, hidden[v], core.Learning{Kind: core.LearnResolvent})
		}
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		res, err := Run(p, makeAgent, Options{Timeout: 30 * time.Second, Shards: 4})
		runtime.ReadMemStats(&ms1)
		if err != nil || !res.Solved || res.Messages != 108 {
			t.Fatalf("seed %d: solved=%v messages=%d err=%v, want solved on the Init round's 108 messages",
				seed, res.Solved, res.Messages, err)
		}
		got := ms1.TotalAlloc - ms0.TotalAlloc
		t.Logf("seed %d: %d bytes, %d GC cycles", seed, got, ms1.NumGC-ms0.NumGC)
		if got >= limit {
			t.Errorf("seed %d: Run allocated %d bytes (%d GC cycles), want under %d",
				seed, got, ms1.NumGC-ms0.NumGC, limit)
		}
	}
}

// frameReads hands out one frame per Read call, so every frame is a socket
// read of its own and readGroups delivers it as a single-frame group.
type frameReads struct {
	frames [][]byte
}

func (r *frameReads) Read(p []byte) (int, error) {
	if len(r.frames) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.frames[0])
	if r.frames[0] = r.frames[0][n:]; len(r.frames[0]) == 0 {
		r.frames = r.frames[1:]
	}
	return n, nil
}

// TestReadGroupsRecycles feeds 1,000 single-frame groups of ok? frames to a
// consumer that hands each group back once it has read it: the reader must
// refill returned groups instead of allocating one per read.
func TestReadGroupsRecycles(t *testing.T) {
	const groups = 1000
	var stream bytes.Buffer
	fw := wire.NewFrameWriter(&stream)
	if err := fw.SetCodec(wire.CodecBinary); err != nil {
		t.Fatal(err)
	}
	in := &frameReads{}
	for seq := int64(1); seq <= groups; seq++ {
		e := wire.Envelope{Type: wire.TypeCoreOk, From: 1, To: 2, Value: 1, Seq: seq}
		if err := fw.Send(&e); err != nil {
			t.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
		in.frames = append(in.frames, bytes.Clone(stream.Bytes()))
		stream.Reset()
	}
	fr := wire.NewFrameReader(in)
	fr.SetCodec(wire.CodecBinary)
	free := make(freeGroups[wire.Envelope], freeGroupSlots)

	var got int64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	readGroups(fr, free, func(e wire.Envelope) wire.Envelope { return e }, func(g []wire.Envelope) bool {
		for _, e := range g {
			if got++; e.Seq != got {
				t.Errorf("frame %d arrived as seq %d", got, e.Seq)
			}
		}
		if len(g) != 1 {
			t.Errorf("group of %d frames, want one frame per read", len(g))
		}
		free.put(g)
		return true
	})
	runtime.ReadMemStats(&ms1)
	if got != groups {
		t.Fatalf("read %d frames, want %d", got, groups)
	}
	n := ms1.Mallocs - ms0.Mallocs
	t.Logf("%d groups, %d allocations", groups, n)
	if n >= 50 {
		t.Errorf("reading %d groups made %d allocations, want under 50", groups, n)
	}
}
