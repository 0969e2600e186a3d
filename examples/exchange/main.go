// Exchange shows the data-exchange application (§1, application 1):
// given a predefined target schema with target CFDs, propagation analysis
// certifies that a view definition is a valid schema mapping — every
// source instance satisfying the source dependencies maps to a target
// instance satisfying the target CFDs. A failing constraint is refuted
// with a concrete counterexample.
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

func main() {
	// Sources: employees and departments.
	db := rel.MustDBSchema(
		rel.InfiniteSchema("emp", "eid", "name", "dept", "salary"),
		rel.InfiniteSchema("dept", "did", "dname", "budget"),
	)
	sigma := []*cfd.CFD{
		cfd.MustParse(`emp([eid] -> [name, dept, salary])`), // eid is a key
		cfd.MustParse(`dept([did] -> [dname, budget])`),     // did is a key
	}

	// Mapping: join employees to their departments.
	mapping := &algebra.SPC{
		Name: "staff",
		Atoms: []algebra.RelAtom{
			{Source: "emp", Attrs: []string{"eid", "name", "dept", "salary"}},
			{Source: "dept", Attrs: []string{"did", "dname", "budget"}},
		},
		Selection:  []algebra.EqAtom{{Left: "dept", Right: "did"}},
		Projection: []string{"eid", "name", "dname", "salary"},
	}
	view := algebra.Single(mapping)

	// Target constraints the exchange must guarantee.
	targets := []struct {
		label string
		phi   string
	}{
		{"employee key survives", `staff([eid] -> [name, salary])`},
		{"department name is functionally tied", `staff([eid] -> [dname])`},
		{"names identify employees (NOT guaranteed)", `staff([name] -> [eid])`},
	}

	fmt.Printf("mapping: %s\n\n", mapping)
	valid := true
	for _, tgt := range targets {
		phi := cfd.MustParse(tgt.phi)
		res, err := propagation.Check(db, view, sigma, phi, propagation.Options{WantCounterexample: true})
		if err != nil {
			log.Fatal(err)
		}
		status := "guaranteed"
		if !res.Propagated {
			status = "VIOLABLE"
			valid = false
		}
		fmt.Printf("%-44s %-38s %s\n", tgt.label, tgt.phi, status)
		if !res.Propagated && res.Counterexample != nil {
			fmt.Println("  a source database defeating it:")
			for _, name := range db.Names() {
				in := res.Counterexample.Instance(name)
				for _, t := range in.Sorted() {
					fmt.Printf("    %s%v\n", name, pretty(t))
				}
			}
		}
	}
	if valid {
		fmt.Println("\nthe mapping is a valid schema mapping for the target constraints")
	} else {
		fmt.Println("\nthe mapping does not guarantee every target constraint; fix the target schema or the mapping")
	}
}

// pretty renders fresh-constant placeholders as readable stars; equal
// stars mean equal values.
func pretty(t rel.Tuple) []string {
	out := make([]string, len(t))
	for i, v := range t {
		out[i] = sym.DisplayConstant(v)
	}
	return out
}
