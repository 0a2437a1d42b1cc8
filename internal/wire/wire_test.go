package wire

import (
	"reflect"
	"testing"

	"github.com/discsp/discsp/internal/abt"
	"github.com/discsp/discsp/internal/breakout"
	"github.com/discsp/discsp/internal/core"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/multi"
	"github.com/discsp/discsp/internal/sim"
)

func sampleNogood() csp.Nogood {
	return csp.MustNogood(
		csp.Lit{Var: 1, Val: 2},
		csp.Lit{Var: 4, Val: 0},
		csp.Lit{Var: 7, Val: 1},
	)
}

// TestRoundTripAllTypes: Encode → Marshal → Unmarshal → Decode must
// reproduce every supported message exactly.
func TestRoundTripAllTypes(t *testing.T) {
	msgs := []sim.Message{
		&core.Ok{Sender: 3, Receiver: 5, Value: 2, Priority: 7},
		core.NogoodMsg{Sender: 1, Receiver: 4, Nogood: sampleNogood()},
		core.Request{Sender: 9, Receiver: 2},
		abt.Ok{Sender: 0, Receiver: 1, Value: 1},
		abt.NogoodMsg{Sender: 2, Receiver: 0, Nogood: sampleNogood()},
		abt.Request{Sender: 5, Receiver: 6},
		breakout.Ok{Sender: 4, Receiver: 3, Value: 0},
		breakout.Improve{Sender: 2, Receiver: 7, Improve: 3, Eval: 9},
		multi.Ok{Sender: 1, Receiver: 2, Priority: 4, Values: []csp.Lit{{Var: 2, Val: 1}, {Var: 3, Val: 0}}},
		multi.NogoodMsg{Sender: 0, Receiver: 1, Nogood: sampleNogood()},
		multi.Request{Sender: 3, Receiver: 0},
	}
	for _, m := range msgs {
		env, err := Encode(m)
		if err != nil {
			t.Fatalf("Encode(%T): %v", m, err)
		}
		line, err := Marshal(env)
		if err != nil {
			t.Fatalf("Marshal(%T): %v", m, err)
		}
		if line[len(line)-1] != '\n' {
			t.Fatalf("Marshal(%T) missing newline framing", m)
		}
		back, err := Unmarshal(line[:len(line)-1])
		if err != nil {
			t.Fatalf("Unmarshal(%T): %v", m, err)
		}
		got, err := Decode(back)
		if err != nil {
			t.Fatalf("Decode(%T): %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip changed %T:\n got  %#v\n want %#v", m, got, m)
		}
	}
}

func TestEncodeRejectsUnknown(t *testing.T) {
	type alien struct{ sim.Message }
	if _, err := Encode(alien{}); err == nil {
		t.Fatal("unknown type encoded")
	}
}

func TestDecodeRejectsUnknownType(t *testing.T) {
	if _, err := Decode(Envelope{Type: "martian"}); err == nil {
		t.Fatal("unknown envelope decoded")
	}
}

func TestDecodeRejectsNegativeVariable(t *testing.T) {
	if _, err := Decode(Envelope{Type: TypeCoreNogood, Lits: []Lit{{Var: -1, Val: 0}}}); err == nil {
		t.Fatal("negative variable decoded")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("not json")); err == nil {
		t.Fatal("garbage unmarshaled")
	}
	if _, err := Unmarshal([]byte(`{"from":1}`)); err == nil {
		t.Fatal("missing type accepted")
	}
}

func TestMessageInterfacesPreserved(t *testing.T) {
	env, err := Encode(&core.Ok{Sender: 3, Receiver: 5})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(env)
	if err != nil {
		t.Fatal(err)
	}
	if m.From() != 3 || m.To() != 5 {
		t.Errorf("From/To = %d/%d", m.From(), m.To())
	}
}
