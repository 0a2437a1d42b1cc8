package csp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// This file implements the repository's native problem exchange format:
// JSON with explicit domains and k-ary nogoods. DIMACS CNF and COL cover
// the paper's benchmark families, but general problems built through the
// API (mixed domains, ternary+ nogoods) have no DIMACS form; this one
// round-trips everything Problem can express.

// problemJSON is the serialized shape.
type problemJSON struct {
	// Domains lists each variable's domain; variable i is entry i.
	Domains [][]int `json:"domains"`
	// Nogoods lists each nogood as variable-value pairs.
	Nogoods [][]litJSON `json:"nogoods"`
}

type litJSON struct {
	Var int `json:"var"`
	Val int `json:"val"`
}

// WriteProblemJSON serializes the problem.
func WriteProblemJSON(w io.Writer, p *Problem) error {
	out := problemJSON{
		Domains: make([][]int, p.NumVars()),
		Nogoods: make([][]litJSON, 0, p.NumNogoods()),
	}
	for v := 0; v < p.NumVars(); v++ {
		dom := p.Domain(Var(v))
		ints := make([]int, len(dom))
		for i, d := range dom {
			ints[i] = int(d)
		}
		out.Domains[v] = ints
	}
	for i := 0; i < p.NumNogoods(); i++ {
		ng := p.Nogood(i)
		lits := make([]litJSON, 0, ng.Len())
		for j := 0; j < ng.Len(); j++ {
			l := ng.At(j)
			lits = append(lits, litJSON{Var: int(l.Var), Val: int(l.Val)})
		}
		out.Nogoods = append(out.Nogoods, lits)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadProblemJSON parses a problem written by WriteProblemJSON, validating
// domains and nogood references. It reads r to EOF before decoding, so pass
// a file or an in-memory body, not a stream that carries more after the
// document.
func ReadProblemJSON(r io.Reader) (*Problem, error) {
	// In-memory readers (bytes.Reader, strings.Reader, bytes.Buffer) say how
	// much they hold, so a body is copied once instead of regrown.
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("csp: parse problem json: %w", err)
	}
	data := buf.Bytes()
	in, ok := decodeProblemJSON(data)
	if !ok {
		// Outside the canonical subset encoding/json decides, so the
		// accepted inputs and the error texts are its own.
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&in); err != nil {
			return nil, fmt.Errorf("csp: parse problem json: %w", err)
		}
	}
	return in.problem()
}

// problem builds the decoded document into a Problem and validates it. Both
// decoders feed it, so they share every check and error text. A counting
// pass sizes what construction fills before it starts: the domains, whose
// values share one slab, the nogood list, and the per-variable posting
// lists, which share another. Construction then allocates only the nogoods
// themselves.
func (in *problemJSON) problem() (*Problem, error) {
	n := len(in.Domains)
	nvals := 0
	for _, dom := range in.Domains {
		nvals += len(dom)
	}
	// postings[v] bounds how many nogoods mention v: a literal repeated
	// within one nogood is counted twice but indexed once. Literals on
	// unknown variables are left to the construction loop to report.
	postings := make([]int, n)
	nlits, widest := 0, 0
	for _, lits := range in.Nogoods {
		widest = max(widest, len(lits))
		for _, l := range lits {
			if 0 <= l.Var && l.Var < n {
				postings[l.Var]++
				nlits++
			}
		}
	}

	p := &Problem{
		domains: make([][]Value, 0, n),
		nogoods: make([]Nogood, 0, len(in.Nogoods)),
		byVar:   make([][]int, n),
	}
	vals := make([]Value, 0, nvals)
	for v, dom := range in.Domains {
		if len(dom) == 0 {
			return nil, fmt.Errorf("csp: variable %d has empty domain", v)
		}
		start := len(vals)
		for _, d := range dom {
			vals = append(vals, Value(d))
		}
		p.domains = append(p.domains, vals[start:len(vals):len(vals)])
	}
	slab := make([]int, nlits)
	for v, c := range postings {
		if c > 0 {
			p.byVar[v], slab = slab[:0:c], slab[c:]
		}
	}
	cl := make([]Lit, 0, widest)
	for i, lits := range in.Nogoods {
		cl = cl[:0]
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

// decodeProblemJSON decodes the canonical document without reflection: what
// WriteProblemJSON writes, indented or compacted. That is one object with
// at most the keys "domains" (a list of integer lists) and "nogoods" (a list
// of lists of objects with at most the keys "var" and "val"), each key at
// most once and in any order, JSON whitespace between tokens and after the
// object, and integers of at most 18 digits that fit an int. A missing key
// leaves its zero value, as in encoding/json. For anything else — a
// case-variant or escaped key, an unknown key, null, a fraction or an
// exponent, a duplicate key, a longer integer, bytes after the object — it
// reports false and a zero value, and the caller hands the document to
// encoding/json. On the subset it accepts, the two decode the same value
// (FuzzReadProblemJSON).
func decodeProblemJSON(data []byte) (problemJSON, bool) {
	d := jsonDecoder{data: data}
	var in problemJSON
	// Every list is carved out of these two, so the decode allocates only
	// as they grow.
	var ints []int
	var lits []litJSON
	ok := d.object(func(key []byte) bool {
		switch {
		case string(key) == "domains" && in.Domains == nil:
			in.Domains = [][]int{}
			return d.list(func() bool {
				start := len(ints)
				ok := d.list(func() bool {
					v, ok := d.integer()
					ints = append(ints, v)
					return ok
				})
				in.Domains = append(in.Domains, ints[start:len(ints):len(ints)])
				return ok
			})
		case string(key) == "nogoods" && in.Nogoods == nil:
			in.Nogoods = [][]litJSON{}
			return d.list(func() bool {
				start := len(lits)
				ok := d.list(func() bool {
					var l litJSON
					var sawVar, sawVal bool
					ok := d.object(func(key []byte) bool {
						var ok bool
						switch {
						case string(key) == "var" && !sawVar:
							sawVar = true
							l.Var, ok = d.integer()
						case string(key) == "val" && !sawVal:
							sawVal = true
							l.Val, ok = d.integer()
						}
						return ok
					})
					lits = append(lits, l)
					return ok
				})
				in.Nogoods = append(in.Nogoods, lits[start:len(lits):len(lits)])
				return ok
			})
		}
		return false
	})
	d.space()
	if !ok || d.pos != len(d.data) {
		return problemJSON{}, false
	}
	return in, true
}

// jsonDecoder walks a byte slice through the canonical problem document's
// grammar. Each method reports false where the input leaves the grammar.
type jsonDecoder struct {
	data []byte
	pos  int
}

// take consumes c if it is the next byte after JSON whitespace.
func (d *jsonDecoder) take(c byte) bool {
	d.space()
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// space skips JSON whitespace.
func (d *jsonDecoder) space() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// list decodes "[]" or "[" elem ("," elem)* "]", calling elem for each
// element.
func (d *jsonDecoder) list(elem func() bool) bool {
	if !d.take('[') {
		return false
	}
	if d.take(']') {
		return true
	}
	for elem() {
		if d.take(']') {
			return true
		}
		if !d.take(',') {
			return false
		}
	}
	return false
}

// object decodes "{}" or "{" key ":" value ("," key ":" value)* "}",
// calling member with each key to decode its value. A key is read up to the
// next quote without unescaping: no name a member accepts holds a
// backslash, so an escaped key never matches one.
func (d *jsonDecoder) object(member func(key []byte) bool) bool {
	if !d.take('{') {
		return false
	}
	if d.take('}') {
		return true
	}
	for {
		if !d.take('"') {
			return false
		}
		n := bytes.IndexByte(d.data[d.pos:], '"')
		if n < 0 {
			return false
		}
		key := d.data[d.pos : d.pos+n]
		d.pos += n + 1
		if !d.take(':') || !member(key) {
			return false
		}
		if d.take('}') {
			return true
		}
		if !d.take(',') {
			return false
		}
	}
}

// integer decodes a JSON integer of at most 18 digits, which always fits an
// int64, and reports false when it does not fit an int. A leading zero ends
// the number, as in JSON, so "01" leaves "1" for the caller to reject.
func (d *jsonDecoder) integer() (int, bool) {
	d.space()
	i := d.pos
	neg := i < len(d.data) && d.data[i] == '-'
	if neg {
		i++
	}
	start := i
	var n int64
	for i < len(d.data) && '0' <= d.data[i] && d.data[i] <= '9' {
		if i-start == 18 {
			return 0, false
		}
		n = n*10 + int64(d.data[i]-'0')
		i++
		if n == 0 {
			break
		}
	}
	if i == start {
		return 0, false
	}
	if neg {
		n = -n
	}
	if int64(int(n)) != n {
		return 0, false
	}
	d.pos = i
	return int(n), true
}
