package discsp

import (
	"io"

	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/gen"
)

// ColoringInstance is a generated solvable graph-coloring problem with its
// planted witness solution.
type ColoringInstance = gen.ColoringInstance

// SATInstance is a generated satisfiable 3SAT problem with its planted
// assignment.
type SATInstance = gen.SATInstance

// GenerateColoring generates a solvable graph-coloring instance with n
// nodes, m arcs, and the given number of colors (Minton et al. method). The
// paper's distributed 3-coloring benchmark uses colors=3 and m = 2.7n.
func GenerateColoring(n, m, colors int, seed int64) (*ColoringInstance, error) {
	return gen.Coloring(n, m, colors, seed)
}

// GenerateForcedSAT3 generates a satisfiable random 3SAT instance with n
// variables and m clauses (3SAT-GEN style). The paper uses m = 4.3n.
func GenerateForcedSAT3(n, m int, seed int64) (*SATInstance, error) {
	return gen.ForcedSAT3(n, m, seed)
}

// GenerateUniqueSAT3 generates a satisfiable 3SAT instance with exactly one
// solution (3ONESAT-GEN style). The paper uses m = 3.4n.
func GenerateUniqueSAT3(n, m int, seed int64) (*SATInstance, error) {
	return gen.UniqueSAT3(n, m, seed)
}

// RandomInitial draws uniform random initial values for every variable of
// p, deterministically from seed.
func RandomInitial(p *Problem, seed int64) SliceAssignment {
	return gen.RandomInitial(p, seed)
}

// ParseCNF reads a DIMACS CNF formula.
func ParseCNF(r io.Reader) (*CNF, error) { return csp.ParseCNF(r) }

// WriteCNF writes a formula in DIMACS CNF format.
func WriteCNF(w io.Writer, cnf *CNF, comments ...string) error {
	return csp.WriteCNF(w, cnf, comments...)
}

// ParseCOL reads a DIMACS COL graph.
func ParseCOL(r io.Reader) (*Graph, error) { return csp.ParseCOL(r) }

// WriteCOL writes a graph in DIMACS COL format.
func WriteCOL(w io.Writer, g *Graph, comments ...string) error {
	return csp.WriteCOL(w, g, comments...)
}

// BinaryCSPInstance is a generated random binary CSP.
type BinaryCSPInstance = gen.BinaryCSPInstance

// BinaryCSPConfig parameterizes GenerateBinaryCSP (Model B random CSPs).
type BinaryCSPConfig = gen.BinaryCSPConfig

// GenerateBinaryCSP generates a Model B random binary CSP: Density·n(n-1)/2
// constrained variable pairs, each prohibiting Tightness·d² value
// combinations; Force plants a solution, guaranteeing solubility.
func GenerateBinaryCSP(cfg BinaryCSPConfig, seed int64) (*BinaryCSPInstance, error) {
	return gen.RandomBinaryCSP(cfg, seed)
}

// WriteProblemJSON serializes any problem — including general k-ary,
// mixed-domain problems that have no DIMACS form — in the library's native
// JSON exchange format.
func WriteProblemJSON(w io.Writer, p *Problem) error {
	return csp.WriteProblemJSON(w, p)
}

// ReadProblemJSON parses a problem written by WriteProblemJSON. It reads r
// to EOF before decoding, so pass a file or an in-memory body, not a stream
// that carries more after the document.
func ReadProblemJSON(r io.Reader) (*Problem, error) {
	return csp.ReadProblemJSON(r)
}
