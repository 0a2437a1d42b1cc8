package csp

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// LoadFile reads the problem file at path in the format its extension
// names, in any case: DIMACS CNF (.cnf), DIMACS COL (.col, a coloring with
// the given number of colors), or the native problem JSON (.json).
func LoadFile(path string, colors int) (*Problem, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch strings.ToLower(filepath.Ext(path)) {
	case ".cnf":
		cnf, err := ParseCNF(f)
		if err != nil {
			return nil, err
		}
		return cnf.Problem()
	case ".col":
		g, err := ParseCOL(f)
		if err != nil {
			return nil, err
		}
		return g.Problem(colors)
	case ".json":
		return ReadProblemJSON(f)
	default:
		return nil, fmt.Errorf("cannot infer format of %q (want .cnf, .col, or .json)", path)
	}
}
