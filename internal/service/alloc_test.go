//go:build !race

package service

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/experiments"
)

// TestSubmitParsesProblemOnce pins the accept path to one parse of the
// job's problem: normalize parses the body to validate it, and Submit must
// reuse that parse rather than decode the same bytes again. The body is
// what a dcspd-mixed job carries, a compacted d3c instance with n=30. The
// daemon runs no workers and no journal, so Submit's allocations are the
// parse plus the job's own bookkeeping.
func TestSubmitParsesProblemOnce(t *testing.T) {
	p, err := experiments.MakeInstance(experiments.D3C, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := json.Compact(&body, testProblemJSON(t, p)); err != nil {
		t.Fatal(err)
	}
	parse := testing.AllocsPerRun(20, func() {
		if _, err := csp.ReadProblemJSON(bytes.NewReader(body.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	d := newTestDaemon(t, Config{Workers: -1, MaxQueue: 1024, MaxQueuePerTenant: 1024})
	submit := testing.AllocsPerRun(20, func() {
		if _, err := d.Submit(JobSpec{Problem: body.Bytes()}); err != nil {
			t.Fatal(err)
		}
	})
	if bound := parse + 50; submit > bound {
		t.Errorf("Submit allocates %.0f times, above one parse (%.0f) plus 50", submit, parse)
	}
}
