// Pipeline chains two views (a cleaning view over a staging table, then an
// integration join) and shows three library features working together:
//
//  1. SPC view composition: the two stages collapse into one SPC query in
//     normal form, and the composed query provably computes the same
//     result as staging the views;
//  2. staged dependency propagation: the cover of stage 1 serves as the
//     source dependencies of stage 2 — sound, and compared against the
//     cover of the composed view;
//  3. violation detection: the materialized pipeline output is checked
//     against the propagated CFDs, so a row that breaks a guarantee the
//     sources promised is flagged.
package main

import (
	"fmt"
	"log"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/core"
	"cfdprop/internal/rel"
)

func main() {
	// Base schema: a staging feed of customer rows plus a country registry.
	db := rel.MustDBSchema(
		rel.InfiniteSchema("staging", "cust", "country", "city", "zip"),
		rel.InfiniteSchema("countries", "code", "continent"),
	)
	sigma := []*cfd.CFD{
		cfd.MustParse(`staging([country=UK, zip] -> [city])`),
		cfd.MustParse(`countries([code] -> [continent])`),
	}

	// Stage 1: UK-only cleaning view.
	stage1 := &algebra.SPC{
		Name:       "uk_feed",
		Atoms:      []algebra.RelAtom{{Source: "staging", Attrs: []string{"cust", "country", "city", "zip"}}},
		Selection:  []algebra.EqAtom{{Left: "country", IsConst: true, Right: "UK"}},
		Projection: []string{"cust", "country", "city", "zip"},
	}
	// Stage 2: join the cleaned feed with the registry.
	stage2 := &algebra.SPC{
		Name: "uk_report",
		Atoms: []algebra.RelAtom{
			{Source: "uk_feed", Attrs: []string{"cust", "country", "city", "zip"}},
			{Source: "countries", Attrs: []string{"code", "continent"}},
		},
		Selection:  []algebra.EqAtom{{Left: "country", Right: "code"}},
		Projection: []string{"cust", "city", "zip", "continent"},
	}

	// 1. Compose the stages.
	composed, err := algebra.Compose(db, stage2, stage1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("composed query: %s\n\n", composed)

	// 2. Propagate: staged vs composed.
	cover1, err := core.PropCFDSPC(db, stage1, sigma, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	stage2DB := rel.MustDBSchema(cover1.ViewSchema, db.Relation("countries"))
	stagedSigma := append(append([]*cfd.CFD{}, cover1.Cover...),
		cfd.MustParse(`countries([code] -> [continent])`))
	cover2, err := core.PropCFDSPC(stage2DB, stage2, stagedSigma, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	coverC, err := core.PropCFDSPC(db, composed, sigma, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("stage-1 cover (uk_feed):")
	for _, c := range cover1.Cover {
		fmt.Printf("  %s\n", c)
	}
	fmt.Println("staged cover (uk_report, via stage-1 cover):")
	for _, c := range cover2.Cover {
		fmt.Printf("  %s\n", c)
	}
	fmt.Println("composed cover (uk_report, direct):")
	for _, c := range coverC.Cover {
		fmt.Printf("  %s\n", c)
	}

	// 3. Check a materialized report against the composed cover.
	reportSchema, err := composed.ViewSchema(db)
	if err != nil {
		log.Fatal(err)
	}
	d := rel.NewDatabase(rel.MustDBSchema(reportSchema))
	d.MustInsert("uk_report", "ann", "London", "W1", "Europe")
	d.MustInsert("uk_report", "bob", "Londn", "W1", "Europe") // typo: same zip, other city
	fmt.Println("\nchecking the materialized report against the composed cover:")
	clean := true
	for _, c := range coverC.Cover {
		vs, err := cfd.Violations(d.Instance("uk_report"), c)
		if err != nil {
			log.Fatal(err)
		}
		for _, v := range vs {
			fmt.Printf("  %s\n", v)
			clean = false
		}
	}
	fmt.Printf("pipeline output clean: %v\n", clean)
}
