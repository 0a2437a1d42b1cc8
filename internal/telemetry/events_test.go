package telemetry

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	run := NewRun(NewRegistry(), &buf)
	run.Registry().Counter("discsp_checks_total").Add(11)
	run.Emit(Event{Kind: KindMeta, Runtime: "async", Algorithm: "AWC-rslv", Vars: 10, Nogoods: 27})
	run.Emit(Event{Kind: KindSample, ElapsedUS: 40, Delivered: 3, Frontier: "00ff", Processed: []int64{1, 2, 0}})
	run.Emit(Event{Kind: KindAgent, Agent: 0, Checks: 100, StoreSize: 4})
	run.Emit(Event{Kind: KindAgent, Agent: 2, Checks: 50, AgentProcessed: 9})
	run.Emit(Event{Kind: KindEnd, Solved: true, TotalChecks: 150, Messages: 12,
		Transport: &Transport{Retransmits: 2}})
	run.EmitSnapshot()
	if err := run.Flush(); err != nil {
		t.Fatal(err)
	}

	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if events[0].Kind != KindMeta || events[0].Schema != SchemaVersion {
		t.Fatalf("stream does not open with schema meta: %+v", events[0])
	}
	var end *Event
	var snap *Event
	agents := 0
	for i := range events {
		switch events[i].Kind {
		case KindEnd:
			end = &events[i]
		case KindSnapshot:
			snap = &events[i]
		case KindAgent:
			agents++
		}
	}
	if end == nil || !end.Solved || end.Transport == nil || end.Transport.Retransmits != 2 {
		t.Fatalf("end event wrong: %+v", end)
	}
	if agents != 2 {
		t.Fatalf("agents=%d", agents)
	}
	if snap == nil || snap.Metrics == nil || len(snap.Metrics.Counters) != 1 || snap.Metrics.Counters[0].Value != 11 {
		t.Fatalf("snapshot event wrong: %+v", snap)
	}
	// Agent 0's zero-valued Agent field must survive omitempty.
	sum := Summarize(events)
	if len(sum.Agents) != 2 || sum.Agents[0].Agent != 0 || sum.Agents[0].Checks != 100 {
		t.Fatalf("summary agents: %+v", sum.Agents)
	}
}

// TestReadRejectsLegacyTrace: the retired v1 cycle-trace layout opens with
// a start event instead of the schema meta event, so it is malformed.
func TestReadRejectsLegacyTrace(t *testing.T) {
	v1 := `{"kind":"start","algorithm":"AWC-rslv","vars":10}
{"kind":"cycle","cycle":1}
{"kind":"end","solved":true}
`
	_, err := Read(strings.NewReader(v1))
	if !errors.Is(err, ErrMalformedStream) {
		t.Fatalf("want ErrMalformedStream, got %v", err)
	}
	if !strings.Contains(err.Error(), `got kind "start"`) {
		t.Fatalf("error does not name the opening kind: %v", err)
	}
}

func TestReadRejectsNewerSchema(t *testing.T) {
	next := SchemaVersion + 1
	_, err := Read(strings.NewReader(fmt.Sprintf(`{"kind":"meta","schema":%d}`+"\n", next)))
	if !errors.Is(err, ErrSchemaUnsupported) {
		t.Fatalf("want ErrSchemaUnsupported, got %v", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("schema %d", next)) {
		t.Fatalf("error does not name the offending schema: %v", err)
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"",
		"not json\n",
		`{"kind":"mystery"}` + "\n",
		`{"kind":"meta","schema":2}` + "\n" + `{"kind":"mystery"}` + "\n",
	} {
		if _, err := Read(strings.NewReader(bad)); !errors.Is(err, ErrMalformedStream) {
			t.Errorf("input %q: want ErrMalformedStream, got %v", bad, err)
		}
	}
}

// TestReadSkipsBlankLines: blank lines anywhere in a stream are skipped,
// so a stream padded with them reads as the same events; a stream of
// nothing but blank lines is empty, hence malformed.
func TestReadSkipsBlankLines(t *testing.T) {
	stream := `{"kind":"meta","schema":3,"runtime":"sync"}
{"kind":"cycle","cycle":1,"messagesIn":2,"maxChecks":7}
{"kind":"end","solved":true,"cycles":1,"maxcck":7}
`
	want, err := Read(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	padded := "\n" + strings.ReplaceAll(stream, "\n", "\n\n\n")
	got, err := Read(strings.NewReader(padded))
	if err != nil {
		t.Fatalf("padded stream: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("padded stream read as %+v, want %+v", got, want)
	}
	if _, err := Read(strings.NewReader("\n\n")); !errors.Is(err, ErrMalformedStream) {
		t.Errorf("blank-only stream: want ErrMalformedStream, got %v", err)
	}
}

func TestSummarizeStoreGrowthAndFrontier(t *testing.T) {
	events := []Event{
		{Kind: KindMeta, Schema: 2, Runtime: "tcp"},
		{Kind: KindSample, Frontier: "aa", StoreTotal: 3},
		{Kind: KindSample, Frontier: "aa", StoreTotal: 9},
		{Kind: KindSample, Frontier: "bb", StoreTotal: 5},
		{Kind: KindEnd, Solved: true},
	}
	s := Summarize(events)
	if s.Runtime != "tcp" || !s.Ended || !s.Solved {
		t.Fatalf("summary: %+v", s)
	}
	if s.Samples != 3 || s.FrontierTransitions != 1 {
		t.Fatalf("samples=%d transitions=%d", s.Samples, s.FrontierTransitions)
	}
	if s.StoreFirst != 3 || s.StorePeak != 9 || s.StoreLast != 5 {
		t.Fatalf("store growth: %+v", s)
	}
	var b strings.Builder
	if err := s.Fprint(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"runtime=tcp", "verdict=solved", "first=3 peak=9 last=5"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("Fprint missing %q:\n%s", want, b.String())
		}
	}
	if s.BusiestCycle != 0 || s.PeakMessagesCycle != 0 || strings.Contains(b.String(), "busiest cycle") {
		t.Errorf("sample-only stream reports cycle peaks: %+v\n%s", s, b.String())
	}
}

// TestSummarizeCyclePeaks folds a synchronous stream: the per-cycle peaks
// come from the cycle events, the busiest cycle need not be the one with
// the most deliveries, and a tie keeps the earlier cycle.
func TestSummarizeCyclePeaks(t *testing.T) {
	events := []Event{
		{Kind: KindMeta, Schema: SchemaVersion, Runtime: "sync"},
		{Kind: KindCycle, Cycle: 1, MessagesIn: 3, MessagesOut: 9, MaxChecks: 50, StoreTotal: 4},
		{Kind: KindCycle, Cycle: 2, MessagesIn: 9, MessagesOut: 9, MaxChecks: 5, StoreTotal: 6},
		{Kind: KindCycle, Cycle: 3, MessagesIn: 9, MaxChecks: 50, StoreTotal: 6},
		{Kind: KindEnd, Solved: true, Cycles: 3, MaxCCK: 105, Messages: 21},
	}
	s := Summarize(events)
	if s.BusiestCycle != 1 || s.BusiestCycleChecks != 50 {
		t.Errorf("busiest cycle = %d (%d checks), want 1 (50)", s.BusiestCycle, s.BusiestCycleChecks)
	}
	if s.PeakMessagesCycle != 2 || s.PeakMessages != 9 {
		t.Errorf("peak deliveries = %d at cycle %d, want 9 at 2", s.PeakMessages, s.PeakMessagesCycle)
	}
	if s.StoreObservations != 3 || s.StoreFirst != 4 || s.StorePeak != 6 {
		t.Errorf("store growth from cycle events: %+v", s)
	}
	var b strings.Builder
	if err := s.Fprint(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cycles=3 maxcck=105", "messages=21",
		"peak deliveries: 9 at cycle 2", "busiest cycle: 1 (50 checks)"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("Fprint missing %q:\n%s", want, b.String())
		}
	}
}

func TestRecorderStickyError(t *testing.T) {
	w := &failWriter{}
	rec := NewRecorder(w)
	for i := 0; i < 10000; i++ { // force past the bufio buffer
		rec.Emit(Event{Kind: KindCycle, Cycle: i})
	}
	if err := rec.Flush(); err == nil {
		t.Fatal("flush did not surface the write error")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }
