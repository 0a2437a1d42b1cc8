package csp

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestLoadFile loads one problem per format, the extension matched in any
// case, and checks the error for an extension it cannot read.
func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, emit func(*bytes.Buffer) error) string {
		var buf bytes.Buffer
		if err := emit(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cnf := &CNF{NumVars: 3, Clauses: [][]int{{1, -2}, {2, 3}}}
	col := &Graph{NumNodes: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}}}
	native := NewProblemUniform(2, 3)
	if err := native.AddNotEqual(0, 1); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name          string
		emit          func(*bytes.Buffer) error
		vars, nogoods int
		domain        int
	}{
		{"f.cnf", func(b *bytes.Buffer) error { return WriteCNF(b, cnf) }, 3, 2, 2},
		{"g.col", func(b *bytes.Buffer) error { return WriteCOL(b, col) }, 4, 9, 3},
		{"p.json", func(b *bytes.Buffer) error { return WriteProblemJSON(b, native) }, 2, 3, 3},
		{"G.COL", func(b *bytes.Buffer) error { return WriteCOL(b, col) }, 4, 9, 3},
	}
	for _, c := range cases {
		p, err := LoadFile(write(c.name, c.emit), 3)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if p.NumVars() != c.vars || p.NumNogoods() != c.nogoods || len(p.Domain(0)) != c.domain {
			t.Errorf("%s: %d vars, %d nogoods, domain %v; want %d, %d and %d values",
				c.name, p.NumVars(), p.NumNogoods(), p.Domain(0), c.vars, c.nogoods, c.domain)
		}
	}

	path := write("g.txt", func(b *bytes.Buffer) error { return WriteCOL(b, col) })
	_, err := LoadFile(path, 3)
	want := `cannot infer format of "` + path + `" (want .cnf, .col, or .json)`
	if err == nil || err.Error() != want {
		t.Errorf("unknown extension: err = %v, want %s", err, want)
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.col"), 3); !os.IsNotExist(err) {
		t.Errorf("missing file: err = %v, want a not-exist error", err)
	}
}
