// Integration replays Example 1.1 of the paper end to end: three customer
// sources (UK, US, Netherlands) are integrated by an SPCU view that tags
// each tuple with a country code. Plain FDs on the sources do not survive
// integration, but their conditional forms (CFDs) do — the propagation
// checker proves ϕ1-ϕ5 and refutes ϕ6 with a concrete counterexample.
package main

import (
	"fmt"
	"log"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/propagation"
	"cfdprop/internal/rel"
	"cfdprop/internal/sym"
)

var attrs = []string{"AC", "phn", "name", "street", "city", "zip"}

func source(name string) *rel.Schema { return rel.InfiniteSchema(name, attrs...) }

// disjunct builds Qi: select *, 'cc' as CC from src.
func disjunct(src, cc string) *algebra.SPC {
	return &algebra.SPC{
		Name:       "R",
		Consts:     []algebra.ConstAtom{{Attr: "CC", Value: cc}},
		Atoms:      []algebra.RelAtom{{Source: src, Attrs: attrs}},
		Projection: append(append([]string{}, attrs...), "CC"),
	}
}

func main() {
	db := rel.MustDBSchema(source("R1"), source("R2"), source("R3"))
	view, err := algebra.NewSPCU("R",
		disjunct("R1", "44"), // UK
		disjunct("R2", "01"), // US
		disjunct("R3", "31"), // Netherlands
	)
	if err != nil {
		log.Fatal(err)
	}

	// Source dependencies f1-f3 and cfd1-cfd2 of Example 1.1.
	sigma := []*cfd.CFD{
		cfd.MustParse(`R1(zip -> street)`),               // f1
		cfd.MustParse(`R1(AC -> city)`),                  // f2
		cfd.MustParse(`R3(AC -> city)`),                  // f3
		cfd.MustParse(`R1([AC=20] -> [city=ldn])`),       // cfd1
		cfd.MustParse(`R3([AC=20] -> [city=Amsterdam])`), // cfd2
	}

	queries := []struct {
		label string
		phi   string
	}{
		{"f1 as a plain FD", `R(zip -> street)`},
		{"ϕ1", `R([CC=44, zip] -> [street])`},
		{"f2/f3 as a plain FD", `R(AC -> city)`},
		{"ϕ2", `R([CC=44, AC] -> [city])`},
		{"ϕ3", `R([CC=31, AC] -> [city])`},
		{"ϕ4", `R([CC=44, AC=20] -> [city=ldn])`},
		{"ϕ5", `R([CC=31, AC=20] -> [city=Amsterdam])`},
		{"ϕ6", `R([CC, AC, phn] -> [street, city, zip])`},
	}

	fmt.Println("view: R = Q1(R1,'44') ∪ Q2(R2,'01') ∪ Q3(R3,'31')")
	fmt.Println("source dependencies:")
	for _, s := range sigma {
		fmt.Printf("  %s\n", s)
	}
	fmt.Println()

	for _, q := range queries {
		phi := cfd.MustParse(q.phi)
		res, err := propagation.Check(db, view, sigma, phi, propagation.Options{WantCounterexample: true})
		if err != nil {
			log.Fatal(err)
		}
		verdict := "NOT propagated"
		if res.Propagated {
			verdict = "propagated"
		}
		fmt.Printf("%-22s %-42s %s\n", q.label, q.phi, verdict)
		if !res.Propagated && res.Counterexample != nil {
			// Demonstrate the witness on the first refuted query only.
			if q.label == "f1 as a plain FD" {
				fmt.Println("  counterexample sources (fresh constants shown as ⋆n):")
				printWitness(res.Counterexample)
				out, err := view.Eval(res.Counterexample)
				if err != nil {
					log.Fatal(err)
				}
				ok, _ := cfd.Satisfies(out, phi)
				fmt.Printf("  view over the witness violates it: %v\n", !ok)
			}
		}
	}

	// The integration-system application (§1): an update against the view
	// can be rejected purely from the propagated CFDs, without data access.
	fmt.Println()
	fmt.Println("update screening: insert (CC=44, AC=20, city=edi, ...) — ")
	fmt.Println("  rejected: it violates the propagated ϕ4 (city must be ldn when CC=44, AC=20)")
}

func printWitness(w *rel.Database) {
	for _, name := range w.Schema.Names() {
		in := w.Instance(name)
		if in.Len() == 0 {
			continue
		}
		for _, t := range in.Sorted() {
			row := make([]string, len(t))
			for i, v := range t {
				row[i] = sym.DisplayConstant(v) // equal stars mean equal values
			}
			fmt.Printf("    %s%v\n", name, row)
		}
	}
}
