package csp

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Load reads a problem in the named format: "cnf" (DIMACS CNF), "col"
// (DIMACS COL, a coloring with the given number of colors), or "json" (the
// native problem JSON).
func Load(r io.Reader, format string, colors int) (*Problem, error) {
	switch format {
	case "cnf":
		cnf, err := ParseCNF(r)
		if err != nil {
			return nil, err
		}
		return cnf.Problem()
	case "col":
		g, err := ParseCOL(r)
		if err != nil {
			return nil, err
		}
		return g.Problem(colors)
	case "json":
		return ReadProblemJSON(r)
	default:
		return nil, fmt.Errorf("unknown problem format %q (want cnf, col, or json)", format)
	}
}

// LoadFile reads the problem file at path in the format its extension
// names, in any case: .cnf, .col or .json (see Load).
func LoadFile(path string, colors int) (*Problem, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch ext := strings.ToLower(filepath.Ext(path)); ext {
	case ".cnf", ".col", ".json":
		return Load(f, ext[1:], colors)
	}
	return nil, fmt.Errorf("cannot infer format of %q (want .cnf, .col, or .json)", path)
}
