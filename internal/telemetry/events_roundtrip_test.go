package telemetry

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randEvent populates every field group with seed-derived values, so the
// round-trip exercises each kind carrying a full payload (omitempty means a
// field the encoder drops and the decoder leaves zero is also covered by
// the zero draws).
func randEvent(r *rand.Rand, kind Kind) Event {
	s := func() string {
		const alpha = "abc xyz0:9-"
		b := make([]byte, r.Intn(8))
		for i := range b {
			b[i] = alpha[r.Intn(len(alpha))]
		}
		return string(b)
	}
	i64 := func() int64 { return r.Int63n(1<<40) - 1<<39 }
	n := func() int { return r.Intn(1000) - 500 }
	ev := Event{
		Kind:      kind,
		Runtime:   s(),
		Algorithm: s(),
		Vars:      r.Intn(100),
		Nogoods:   r.Intn(100),

		Cycle: n(), MessagesIn: n(), MessagesOut: n(), MaxChecks: i64(), StoreTotal: i64(),
		ElapsedUS: i64(), Delivered: i64(), InFlight: i64(), Frontier: s(),
		QueueDepth: i64(),
		Cell:       s(), Trial: n(), Seed: i64(),
		Agent: n(), Checks: i64(), StoreSize: i64(), AgentProcessed: i64(),
		From: n(), To: n(), SeqHigh: i64(), AckHigh: i64(), Retransmits: i64(), Partitioned: i64(),
		Shard: n(), FramesIn: i64(), Forwarded: i64(), BytesIn: i64(), BytesOut: i64(),
		SpanID: s(), SpanKind: s(), StartUS: i64(), EndUS: i64(), NogoodKey: s(),
		Solved: r.Intn(2) == 0, Insoluble: r.Intn(2) == 0,
		Cycles: n(), MaxCCK: i64(), TotalChecks: i64(), Messages: i64(), DurationUS: i64(),
	}
	if kind == KindMeta {
		// The schema gate only inspects the stream's opening meta; keep
		// in-range so Read accepts the stream.
		ev.Schema = MinSchemaVersion + r.Intn(SchemaVersion-MinSchemaVersion+1)
	}
	if r.Intn(2) == 0 {
		ev.Processed = []int64{i64(), i64(), i64()}
		ev.Causes = []string{s(), s()}
		ev.Emits = []string{s()}
		ev.EmitTo = []int{n()}
		ev.EmitType = []string{s()}
		ev.EmitCause = []string{s()}
	}
	if r.Intn(4) == 0 {
		ev.Transport = &Transport{Retransmits: i64(), BytesSent: i64()}
	}
	return ev
}

// TestEventRoundTripAllKinds is the schema property test: for every event
// kind, randomized fully-populated events survive Recorder→Read unchanged.
func TestEventRoundTripAllKinds(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			for trial := 0; trial < 25; trial++ {
				want := randEvent(r, kind)
				var buf bytes.Buffer
				rec := NewRecorder(&buf) // emits the opening schema meta
				rec.Emit(want)
				if err := rec.Flush(); err != nil {
					t.Fatal(err)
				}
				events, err := Read(&buf)
				if err != nil {
					t.Fatalf("trial %d: Read: %v", trial, err)
				}
				if len(events) != 2 {
					t.Fatalf("trial %d: read %d events, want 2", trial, len(events))
				}
				if got := events[1]; !reflect.DeepEqual(got, want) {
					t.Errorf("trial %d: round trip mismatch\n got %+v\nwant %+v", trial, got, want)
				}
			}
		})
	}
}

// FuzzRead hardens the JSONL decoder against arbitrary byte streams: it
// must either return events or one of the package's versioned errors —
// never panic, and never return an unclassified parse failure.
func FuzzRead(f *testing.F) {
	var seedBuf bytes.Buffer
	rec := NewRecorder(&seedBuf)
	rec.Emit(Event{Kind: KindEnd, Solved: true, Cycles: 3})
	rec.Flush()
	f.Add(seedBuf.Bytes())
	f.Add([]byte(`{"kind":"meta","schema":3}` + "\n" + `{"kind":"span","spanId":"0:1","causes":["c:2"]}`))
	f.Add([]byte(`{"kind":"start","algorithm":"AWC-rslv"}`))
	f.Add([]byte(`{"kind":"meta","schema":99}`))
	f.Add([]byte("\n\n{\"kind\":\"meta\"}\ngarbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := Read(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrMalformedStream) && !errors.Is(err, ErrSchemaUnsupported) &&
				!strings.Contains(err.Error(), "token too long") {
				t.Fatalf("unclassified error: %v", err)
			}
			return
		}
		if len(events) == 0 {
			t.Fatal("nil error with zero events")
		}
	})
}
