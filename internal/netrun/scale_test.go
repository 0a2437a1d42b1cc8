package netrun

import (
	"os"
	"testing"
	"time"

	"github.com/discsp/discsp/internal/csp"
)

// TestScaleSmoke1k is the CI scale-smoke job's 1k-agent solve: a
// 1024-agent 3-colorable ring started from the all-zero assignment (every
// edge violated), solved over 4 sharded relays. Gated behind SCALE_SMOKE=1
// because it opens ~2k real TCP connections and is sized for the dedicated
// CI job, not `go test ./...`.
func TestScaleSmoke1k(t *testing.T) {
	if os.Getenv("SCALE_SMOKE") == "" {
		t.Skip("set SCALE_SMOKE=1 to run the 1k-agent sharded smoke")
	}
	const n = 1024
	p := csp.NewProblemUniform(n, 3)
	init := make(csp.SliceAssignment, n)
	for i := 0; i < n; i++ {
		if err := p.AddNotEqual(csp.Var(i), csp.Var((i+1)%n)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(p, awcMaker(p, init), Options{Timeout: 5 * time.Minute, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("1k ring not solved: insoluble=%v quiescent=%v", res.Insoluble, res.Quiescent)
	}
	if res.BatchedFrames == 0 {
		t.Error("BatchedFrames = 0, want batching active at this scale")
	}
	t.Logf("1k smoke: messages=%d duration=%v bytes_out=%d bytes_in=%d batched=%d",
		res.Messages, res.Duration, res.BytesSent, res.BytesRecv, res.BatchedFrames)
}
