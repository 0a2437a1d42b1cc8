// Command dcspgen generates benchmark instances of the paper's three
// families and writes them in DIMACS exchange formats (COL for coloring,
// CNF for SAT).
//
// Usage:
//
//	dcspgen -family d3c  -n 60 -seed 1            # 3-coloring, m=2.7n, COL to stdout
//	dcspgen -family d3s  -n 50 -seed 2 -o a.cnf   # forced 3SAT, m=4.3n
//	dcspgen -family d3s1 -n 50 -seed 3            # single-solution 3SAT, m=3.4n
//	dcspgen -family d3c  -n 100 -m 250            # override the edge/clause count
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/experiments"
	"github.com/discsp/discsp/internal/gen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dcspgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		family    = flag.String("family", "d3c", "instance family: d3c, d3s, d3s1, or bin")
		n         = flag.Int("n", 60, "number of variables (nodes)")
		m         = flag.Int("m", 0, "number of constraints; 0 means the paper's ratio (2.7n / 4.3n / 3.4n)")
		colors    = flag.Int("colors", 3, "colors for the d3c family")
		domain    = flag.Int("domain", 3, "domain size for the bin family")
		density   = flag.Float64("density", 0.3, "constrained-pair fraction p1 for the bin family")
		tightness = flag.Float64("tightness", 0.3, "prohibited-combination fraction p2 for the bin family")
		seed      = flag.Int64("seed", 1, "generator seed")
		out       = flag.String("o", "", "output file; empty means stdout")
	)
	flag.Parse()

	// The instance is generated into memory before the output file exists,
	// so a refused family or size leaves no file behind.
	var buf bytes.Buffer
	bin := gen.BinaryCSPConfig{Vars: *n, DomainSize: *domain, Density: *density, Tightness: *tightness, Force: true}
	if err := generate(&buf, *family, *n, *m, *colors, *seed, bin); err != nil {
		return err
	}
	if *out == "" {
		_, err := os.Stdout.Write(buf.Bytes())
		return err
	}
	return os.WriteFile(*out, buf.Bytes(), 0o666)
}

// generate writes one instance of the family to w: a paper family with m
// constraints (0 means the paper's ratio), or a bin instance.
func generate(w io.Writer, family string, n, m, colors int, seed int64, bin gen.BinaryCSPConfig) error {
	if family == "bin" {
		inst, err := gen.RandomBinaryCSP(bin, seed)
		if err != nil {
			return err
		}
		return csp.WriteProblemJSON(w, inst.Problem)
	}
	kind, err := experiments.ParseKind(family)
	if err != nil {
		return fmt.Errorf("unknown family %q (want d3c, d3s, d3s1, or bin)", family)
	}
	if m == 0 {
		m = int(math.Round(kind.Ratio() * float64(n)))
	}
	switch kind {
	case experiments.D3C:
		inst, err := gen.Coloring(n, m, colors, seed)
		if err != nil {
			return err
		}
		return csp.WriteCOL(w, inst.Graph,
			fmt.Sprintf("solvable %d-coloring, n=%d m=%d seed=%d (Minton et al. method)", colors, n, m, seed))
	case experiments.D3S:
		inst, err := gen.ForcedSAT3(n, m, seed)
		if err != nil {
			return err
		}
		return csp.WriteCNF(w, inst.CNF,
			fmt.Sprintf("forced satisfiable 3SAT, n=%d m=%d seed=%d (3SAT-GEN style)", n, m, seed))
	default: // D3S1
		inst, err := gen.UniqueSAT3(n, m, seed)
		if err != nil {
			return err
		}
		return csp.WriteCNF(w, inst.CNF,
			fmt.Sprintf("single-solution 3SAT, n=%d m=%d seed=%d (3ONESAT-GEN style)", n, m, seed))
	}
}
