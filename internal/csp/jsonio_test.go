package csp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// randomColoring is a d3c-shaped instance: n variables over three colours
// and m distinct random edges, each a not-equal constraint of three nogoods.
func randomColoring(n, m int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := NewProblemUniform(n, 3)
	seen := make(map[[2]int]bool)
	for len(seen) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u > v {
			u, v = v, u
		}
		if u == v || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		if err := p.AddNotEqual(Var(u), Var(v)); err != nil {
			panic(err)
		}
	}
	return p
}

// randomSAT3 is a d3s-shaped instance: n Boolean variables and m random
// clauses over three distinct variables each.
func randomSAT3(n, m int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := NewProblemUniform(n, 2)
	for i := 0; i < m; i++ {
		vars := rng.Perm(n)[:3]
		lits := make([]SATLit, len(vars))
		for j, v := range vars {
			lits[j] = SATLit{Var: Var(v), Negated: rng.Intn(2) == 1}
		}
		if err := p.AddClause(lits...); err != nil {
			panic(err)
		}
	}
	return p
}

// mixedTernary has domains of different sizes and values, a ternary, a
// binary and a unary nogood.
func mixedTernary() *Problem {
	p := NewProblem()
	p.AddVar(0, 1, 2)
	p.AddVar(5, 7)
	p.AddVar(-3, 0, 1, 40)
	for _, lits := range [][]Lit{
		{{Var: 0, Val: 1}, {Var: 1, Val: 5}, {Var: 2, Val: -3}},
		{{Var: 2, Val: 40}, {Var: 0, Val: 2}},
		{{Var: 1, Val: 7}},
	} {
		if err := p.AddNogood(MustNogood(lits...)); err != nil {
			panic(err)
		}
	}
	return p
}

// problemJSONBytes renders p as WriteProblemJSON does, or compacted as a
// dcspd client sends it.
func problemJSONBytes(tb testing.TB, p *Problem, compact bool) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteProblemJSON(&buf, p); err != nil {
		tb.Fatalf("WriteProblemJSON: %v", err)
	}
	if !compact {
		return buf.Bytes()
	}
	var out bytes.Buffer
	if err := json.Compact(&out, buf.Bytes()); err != nil {
		tb.Fatalf("json.Compact: %v", err)
	}
	return out.Bytes()
}

// sameProblemJSON compares two decoded documents element by element. A nil
// and an empty list are the same value: construction cannot tell them apart.
func sameProblemJSON(a, b problemJSON) bool {
	return slices.EqualFunc(a.Domains, b.Domains, slices.Equal[[]int]) &&
		slices.EqualFunc(a.Nogoods, b.Nogoods, slices.Equal[[]litJSON])
}

// buildOneByOne is the construction problemJSON.problem sizes up front,
// done one call at a time through the exported API: the reference for its
// problems and error texts.
func buildOneByOne(in problemJSON) (*Problem, error) {
	p := NewProblem()
	for v, dom := range in.Domains {
		if len(dom) == 0 {
			return nil, fmt.Errorf("csp: variable %d has empty domain", v)
		}
		vals := make([]Value, len(dom))
		for i, d := range dom {
			vals[i] = Value(d)
		}
		p.AddVar(vals...)
	}
	for i, lits := range in.Nogoods {
		var cl []Lit
		for _, l := range lits {
			if l.Var < 0 || l.Var >= p.NumVars() {
				return nil, fmt.Errorf("csp: nogood %d references unknown variable %d", i, l.Var)
			}
			cl = append(cl, Lit{Var: Var(l.Var), Val: Value(l.Val)})
		}
		ng, err := NewNogood(cl...)
		if err != nil {
			return nil, fmt.Errorf("csp: nogood %d: %w", i, err)
		}
		if err := p.AddNogood(ng); err != nil {
			return nil, fmt.Errorf("csp: nogood %d: %w", i, err)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// sameProblem compares two problems' domains, nogoods and per-variable
// nogood lists.
func sameProblem(a, b *Problem) bool {
	if a.NumVars() != b.NumVars() || a.NumNogoods() != b.NumNogoods() {
		return false
	}
	for v := 0; v < a.NumVars(); v++ {
		if !slices.Equal(a.Domain(Var(v)), b.Domain(Var(v))) ||
			!slices.Equal(nogoodKeys(a.NogoodsOf(Var(v))), nogoodKeys(b.NogoodsOf(Var(v)))) {
			return false
		}
	}
	return slices.Equal(nogoodKeys(a.Nogoods()), nogoodKeys(b.Nogoods()))
}

func nogoodKeys(ngs []Nogood) []string {
	out := make([]string, len(ngs))
	for i, ng := range ngs {
		out[i] = ng.Key()
	}
	return out
}

// FuzzReadProblemJSON holds the hand-written decoder to encoding/json:
// wherever it accepts a document it must decode the value encoding/json
// decodes, and ReadProblemJSON as a whole must return what encoding/json
// plus the one-call-at-a-time construction return — the same problem, down
// to each variable's nogood list, or the same error text.
func FuzzReadProblemJSON(f *testing.F) {
	for _, p := range []*Problem{randomColoring(12, 20, 1), randomSAT3(10, 30, 2), mixedTernary()} {
		for _, compact := range []bool{false, true} {
			doc := problemJSONBytes(f, p, compact)
			if _, ok := decodeProblemJSON(doc); !ok {
				f.Fatalf("hand-written decoder declines WriteProblemJSON output (compact %v):\n%s", compact, doc)
			}
			f.Add(doc)
		}
	}
	for _, in := range []string{
		// The inputs of TestReadProblemJSONErrors.
		"nope",
		`{"domains":[[]],"nogoods":[]}`,
		`{"domains":[[0,1]],"nogoods":[[{"var":5,"val":0}]]}`,
		`{"domains":[[0,1]],"nogoods":[[{"var":-1,"val":0}]]}`,
		`{"domains":[[0,1]],"nogoods":[[{"var":0,"val":0},{"var":0,"val":1}]]}`,
		`{"domains":[[0,1]],"nogoods":[[{"var":0,"val":9}]]}`,
		// Forms only encoding/json decodes.
		`{"Domains":[[0,1]],"NOGOODS":[[{"VAR":0,"Val":1}]]}`,
		`{"domain\u0073":[[0,1]],"nogoods":[[{"v\u0061r":0,"val":1}]]}`,
		`{"domains":[[0,1]],"nogoods":[[{"var":0,"val":1,"weight":2}]],"name":"x"}`,
		`{"domains":null,"nogoods":null}`,
		`{"domains":[null,[0]],"nogoods":[null,[{"var":null,"val":0}]]}`,
		`{"domains":[[1.0,2]],"nogoods":[]}`,
		`{"domains":[[1e2]],"nogoods":[[{"var":0,"val":1E2}]]}`,
		`{"domains":[[0]],"domains":[[1]],"nogoods":[]}`,
		`{"domains":[[0,1]],"nogoods":[[{"var":0,"var":0,"val":1}]]}`,
		`{"domains":[[9223372036854775807,9223372036854775808]],"nogoods":[]}`,
		`{"domains":[[-9223372036854775808,-9223372036854775809]],"nogoods":[]}`,
		// Trailing commas, trailing bytes, and the edges of the grammar.
		`{"domains":[[0,1],],"nogoods":[]}`,
		`{"domains":[[0,1]],"nogoods":[],}`,
		`{"domains":[[0,1]],"nogoods":[[{"var":0,"val":1},]]}`,
		`{"domains":[[0,1]],"nogoods":[]}xyz`,
		`{"domains":[[0,1]],"nogoods":[]} {"domains":[]}`,
		`{"domains":[[-0,01]],"nogoods":[]}`,
		` {"nogoods":[[{"val":1}],[{}]],"domains":[[0,1]]} `,
		// A literal repeated within a nogood, and an empty nogood: the
		// posting lists are sized from a count that includes repeats.
		`{"domains":[[0,1],[0,1]],"nogoods":[[{"var":0,"val":1},{"var":0,"val":1},{"var":1,"val":0}],[{"var":1,"val":1}],[]]}`,
		`{}`,
		`[]`,
		"",
		" \t\r\n",
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want problemJSON
		werr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
		if got, ok := decodeProblemJSON(data); ok {
			if werr != nil {
				t.Fatalf("hand-written decoder accepts %q; encoding/json: %v", data, werr)
			}
			if !sameProblemJSON(got, want) {
				t.Fatalf("%q decodes to %+v; encoding/json decodes %+v", data, got, want)
			}
		}
		p, err := ReadProblemJSON(bytes.NewReader(data))
		if werr != nil {
			if wantErr := "csp: parse problem json: " + werr.Error(); err == nil || err.Error() != wantErr {
				t.Fatalf("%q: err %v, want %s", data, err, wantErr)
			}
			return
		}
		wp, wantErr := buildOneByOne(want)
		switch {
		case wantErr != nil:
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%q: err %v, want %v", data, err, wantErr)
			}
		case err != nil:
			t.Fatalf("%q: err %v, want a problem", data, err)
		case !sameProblem(p, wp) || !bytes.Equal(problemJSONBytes(t, p, true), problemJSONBytes(t, wp, true)):
			t.Fatalf("%q: problems differ", data)
		}
	})
}

// BenchmarkReadProblemJSON parses the body a dcspd-mixed job carries: a
// compacted d3c instance with n=30 and m=81 (243 nogoods).
func BenchmarkReadProblemJSON(b *testing.B) {
	body := problemJSONBytes(b, randomColoring(30, 81, 1), true)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadProblemJSON(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}
