package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"cfdprop/internal/cfd"
	"cfdprop/internal/core"
	"cfdprop/internal/daemon"
	"cfdprop/internal/spec"
)

// TestExampleSpecIsUsable guards the -example output: it must decode and
// produce the expected cover.
func TestExampleSpecIsUsable(t *testing.T) {
	db, sigma, view, err := spec.Decode([]byte(exampleSpec))
	if err != nil {
		t.Fatalf("example spec broken: %v", err)
	}
	if len(view.Disjuncts) != 1 {
		t.Fatalf("example spec must be a single SPC view")
	}
	res, err := core.PropCFDSPC(db, view.Disjuncts[0], sigma, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The three source CFDs survive (identity-plus-constant view) and the
	// constant column is added.
	if len(res.Cover) != 4 {
		t.Fatalf("example cover has %d CFDs, want 4: %v", len(res.Cover), res.Cover)
	}
	ok, err := res.IsPropagated(cfd.MustParse(`R([] -> [CC=44])`))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("CC must be constant 44 in the example")
	}
	ok, err = res.IsPropagated(cfd.MustParse(`R([CC=44, zip] -> [street])`))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("ϕ1 must be implied by the example cover")
	}
}

// TestOutputSameLocallyAndRemotely: the Example 1.1 refutation and cover
// print the same bytes in-process and through a daemon (-server), and a
// counterexample's fresh constants print as ⋆n, never as NUL-prefixed
// placeholders.
func TestOutputSameLocallyAndRemotely(t *testing.T) {
	db, sigma, view, err := spec.Decode([]byte(exampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	var problem spec.Problem
	if err := json.Unmarshal([]byte(exampleSpec), &problem); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(daemon.New(daemon.Config{}).Handler())
	defer hs.Close()
	client := &daemon.Client{Base: hs.URL}
	ctx := context.Background()

	phi := cfd.MustParse(`R([city] -> [AC])`)
	local, err := checkLocal(ctx, db, view, sigma, phi, 1)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := checkRemote(ctx, client, &problem, phi, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var lout, rout bytes.Buffer
	if printCheck(&lout, local) || printCheck(&rout, remote) {
		t.Fatalf("%s must be refuted", phi)
	}
	if lout.String() != rout.String() {
		t.Errorf("check output differs\nlocal:\n%s\nremote:\n%s", lout.String(), rout.String())
	}
	if strings.ContainsRune(lout.String(), 0) || !strings.Contains(lout.String(), "(⋆0, ") {
		t.Errorf("counterexample must render fresh constants as ⋆n:\n%q", lout.String())
	}

	cover, err := coverLocal(db, view, sigma, core.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	remoteCover, err := client.Cover(ctx, &daemon.CoverRequest{Spec: &problem, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	lout.Reset()
	rout.Reset()
	printCover(&lout, cover)
	printCover(&rout, remoteCover)
	if lout.String() != rout.String() {
		t.Errorf("cover output differs\nlocal:\n%s\nremote:\n%s", lout.String(), rout.String())
	}
}
