// Distributed resource allocation in a sensor network — the other MAS
// application family the paper's introduction motivates (distributed
// resource allocation, Conry et al.).
//
// A grid of sensors must each choose a radio frequency band. Sensors within
// interference range must use different bands (binary not-equal nogoods),
// and a few sensors have damaged radios restricted to a subset of bands
// (unary nogoods). The per-sensor choice with only local communication is
// exactly a distributed CSP with one variable per agent.
//
// The program solves the network with AWC under three learning strategies
// and prints the paper's cost metrics side by side — Table 1's comparison
// on a realistic topology — then re-runs the winner on the asynchronous
// goroutine runtime with seeded per-message delivery delays to show the
// algorithm tolerates reordering.
//
// Run with:
//
//	go run ./examples/sensornet
package main

import (
	"fmt"
	"log"

	"github.com/discsp/discsp"
)

const (
	gridW = 8
	gridH = 6
	bands = 4 // available frequency bands
)

func main() {
	n := gridW * gridH
	p := discsp.NewProblemUniform(n, bands)

	// Interference: 4-neighborhood on the grid (orthogonally adjacent
	// sensors overlap in range). Tighter 8-neighborhood interference makes
	// the 4-band problem zero-slack — every 2x2 block needs all four bands
	// — which AWC still solves synchronously but thrashes on under heavy
	// asynchronous message delay; see the async package's failure
	// injection tests for that stress.
	for y := 0; y < gridH; y++ {
		for x := 0; x < gridW; x++ {
			if x+1 < gridW {
				if err := p.AddNotEqual(discsp.Var(y*gridW+x), discsp.Var(y*gridW+x+1)); err != nil {
					log.Fatal(err)
				}
			}
			if y+1 < gridH {
				if err := p.AddNotEqual(discsp.Var(y*gridW+x), discsp.Var((y+1)*gridW+x)); err != nil {
					log.Fatal(err)
				}
			}
			// One diagonal per cell: forms triangles, so three sensors
			// around each corner compete for the four bands.
			if x+1 < gridW && y+1 < gridH {
				if err := p.AddNotEqual(discsp.Var(y*gridW+x), discsp.Var((y+1)*gridW+x+1)); err != nil {
					log.Fatal(err)
				}
			}
		}
	}

	// Damaged radios: sensors 5, 17, and 29 cannot use band 0; sensor 29
	// additionally lost band 1.
	for _, restriction := range []discsp.Lit{
		{Var: 5, Val: 0}, {Var: 17, Val: 0}, {Var: 29, Val: 0}, {Var: 29, Val: 1},
	} {
		if err := p.AddNogood(discsp.MustNogood(restriction)); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("sensor network: %dx%d grid, %d bands, %d nogoods\n\n",
		gridW, gridH, bands, p.NumNogoods())
	fmt.Printf("%-12s %8s %10s %6s\n", "learning", "cycles", "maxcck", "ok")

	for _, cfg := range []struct {
		label    string
		learning discsp.LearningKind
	}{
		{"Rslv", discsp.LearnResolvent},
		{"Mcs", discsp.LearnMCS},
		{"No", discsp.LearnNone},
	} {
		res, err := discsp.Solve(p, discsp.Options{
			Learning:    cfg.learning,
			InitialSeed: 42,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %8d %10d %6v\n", cfg.label, res.Cycles, res.MaxCCK, res.Solved)
	}

	// The same agents, fully asynchronous, with each message's delivery
	// delayed by up to 200µs on the fault schedule — band allocation still
	// converges.
	res, err := discsp.SolveAsync(p, discsp.Options{
		Learning:     discsp.LearnResolvent,
		InitialSeed:  42,
		FaultProfile: "delay=200us",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nasync+delay: solved=%v in %v (%d messages)\n", res.Solved, res.Duration, res.Messages)
	if res.Solved {
		fmt.Println("\nband map:")
		for y := 0; y < gridH; y++ {
			for x := 0; x < gridW; x++ {
				val, _ := res.Assignment.Lookup(discsp.Var(y*gridW + x))
				fmt.Printf("%d ", val)
			}
			fmt.Println()
		}
	}
}
