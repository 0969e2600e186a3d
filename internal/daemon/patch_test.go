package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"testing"
)

// unionSpecJSON is a two-relation union view in the Example 1.1 style:
// one disjunct embeds R1 tagged CC=1, the other R2 tagged CC=2. The tags
// make cross-disjunct tableau pairs vacuous for guarded candidates, so
// the union cover is non-trivial ([CC=1, A] -> B and friends) — and a Σ
// edit touching only R1 leaves every (R2, R2) pair verdict intact, so
// memo migration has entries to carry.
const unionSpecJSON = `{
  "relations": [
    {"name": "R1", "attrs": ["A", "B", "C"]},
    {"name": "R2", "attrs": ["A", "B", "C"]}
  ],
  "cfds": [
    "R1(A -> B)",
    "R1(B -> C)",
    "R2(A -> B)",
    "R2(A -> C)"
  ],
  "union": [
    {"name": "V", "consts": [{"attr": "CC", "value": "1"}],
     "atoms": [{"source": "R1", "attrs": ["A", "B", "C"]}], "projection": ["CC", "A", "B", "C"]},
    {"name": "V", "consts": [{"attr": "CC", "value": "2"}],
     "atoms": [{"source": "R2", "attrs": ["A", "B", "C"]}], "projection": ["CC", "A", "B", "C"]}
  ]
}`

// unionSpecPatchedJSON is unionSpecJSON after PATCH {add: R2(B -> C),
// remove: R2(A -> C)} — the oracle for fingerprint and cover equality.
const unionSpecPatchedJSON = `{
  "relations": [
    {"name": "R1", "attrs": ["A", "B", "C"]},
    {"name": "R2", "attrs": ["A", "B", "C"]}
  ],
  "cfds": [
    "R1(A -> B)",
    "R1(B -> C)",
    "R2(A -> B)",
    "R2(B -> C)"
  ],
  "union": [
    {"name": "V", "consts": [{"attr": "CC", "value": "1"}],
     "atoms": [{"source": "R1", "attrs": ["A", "B", "C"]}], "projection": ["CC", "A", "B", "C"]},
    {"name": "V", "consts": [{"attr": "CC", "value": "2"}],
     "atoms": [{"source": "R2", "attrs": ["A", "B", "C"]}], "projection": ["CC", "A", "B", "C"]}
  ]
}`

// TestSigmaPatchCarriesWarmState is the daemon PATCH contract: a Σ delta
// produces the same universe a from-scratch registration of the edited Σ
// would (same content-addressed fingerprint, same cover), while migrating
// the memo (carryover counters > 0 on the response and on /statusz) and
// keeping /v1/implies served from the new cover.
func TestSigmaPatchCarriesWarmState(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	client := &Client{Base: hs.URL}
	ctx := context.Background()

	// Register and warm: the cover populates the memo with pair verdicts
	// across the union candidates.
	code, _, body := post(t, hs.URL+"/v1/cover", nil, &CoverRequest{Spec: mustProblem(t, unionSpecJSON)})
	if code != http.StatusOK {
		t.Fatalf("cover: status %d: %s", code, body)
	}
	var cov CoverResponse
	if err := json.Unmarshal(body, &cov); err != nil {
		t.Fatal(err)
	}

	patched, err := client.PatchSigma(ctx, cov.Universe, &SigmaPatchRequest{
		Add:    []string{"R2(B -> C)"},
		Remove: []string{"R2(A -> C)"},
	})
	if err != nil {
		t.Fatalf("patch: %v", err)
	}
	if patched.Universe == cov.Universe || patched.Generation != 2 || patched.SigmaSize != 4 {
		t.Fatalf("patch response: %+v", patched)
	}
	if patched.Carried.PairsCarried == 0 {
		t.Fatalf("patch carried no pair verdicts (R1-only pairs must survive an R2 edit): %+v", patched.Carried)
	}
	if patched.Carried.PairsDropped == 0 {
		t.Fatalf("patch dropped no pair verdicts (R2 pairs must be invalidated): %+v", patched.Carried)
	}

	// The old fingerprint stops resolving.
	if code, body := get(t, hs.URL+"/v1/universe/"+cov.Universe); code != http.StatusNotFound {
		t.Fatalf("stale fingerprint resolved: status %d: %s", code, body)
	}

	// Content addressing: registering the edited Σ from scratch on a
	// second daemon yields the same fingerprint and the same cover.
	_, hs2 := newTestServer(t, Config{})
	code, _, body = post(t, hs2.URL+"/v1/cover", nil, &CoverRequest{Spec: mustProblem(t, unionSpecPatchedJSON)})
	if code != http.StatusOK {
		t.Fatalf("oracle cover: status %d: %s", code, body)
	}
	var oracle CoverResponse
	if err := json.Unmarshal(body, &oracle); err != nil {
		t.Fatal(err)
	}
	if oracle.Universe != patched.Universe {
		t.Fatalf("patched universe %q != from-scratch fingerprint %q", patched.Universe, oracle.Universe)
	}

	code, _, body = post(t, hs.URL+"/v1/cover", nil, &CoverRequest{Universe: patched.Universe})
	if code != http.StatusOK {
		t.Fatalf("cover after patch: status %d: %s", code, body)
	}
	var cov2 CoverResponse
	if err := json.Unmarshal(body, &cov2); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(cov2.Cover) != fmt.Sprint(oracle.Cover) {
		t.Fatalf("incremental cover diverged from from-scratch:\n got: %v\nwant: %v", cov2.Cover, oracle.Cover)
	}
	if cov2.Generation != 2 {
		t.Fatalf("generation after patch = %d, want 2", cov2.Generation)
	}

	// The successor's sessions answer /v1/implies for the new cover.
	for _, phi := range cov2.Cover {
		imp, err := client.Implies(ctx, &ImpliesRequest{Universe: patched.Universe, Phi: phi})
		if err != nil {
			t.Fatalf("implies %q: %v", phi, err)
		}
		if !imp.Implied {
			t.Fatalf("cover member %q not implied after patch", phi)
		}
	}

	// /statusz surfaces the carryover counters.
	code, body = get(t, hs.URL+"/statusz")
	if code != http.StatusOK {
		t.Fatalf("statusz: status %d: %s", code, body)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Memo.CarriedPairs == 0 {
		t.Fatalf("statusz missing carryover counters: %+v", st.Cache.Memo)
	}
}

// TestSigmaPutCarriesWarmState: a PUT replaces Σ through the same
// successor entry a PATCH builds. Onto a warmed universe it yields the
// universe a from-scratch registration of the new Σ would (fingerprint
// and cover), and it carries the verdicts of the pairs its R2-only delta
// cannot affect: the next check of a φ guarded to the R1 disjunct replays
// them from the memo.
func TestSigmaPutCarriesWarmState(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	client := &Client{Base: hs.URL}
	ctx := context.Background()

	cov, err := client.Cover(ctx, &CoverRequest{Spec: mustProblem(t, unionSpecJSON)})
	if err != nil {
		t.Fatalf("cover: %v", err)
	}
	patchedSpec := mustProblem(t, unionSpecPatchedJSON)
	put, err := client.PutSigma(ctx, cov.Universe, &SigmaRequest{CFDs: patchedSpec.CFDs})
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if put.Universe == cov.Universe || put.Generation != 2 || put.SigmaSize != 4 {
		t.Fatalf("put response: %+v", put)
	}
	if put.Carried.PairsCarried == 0 {
		t.Fatalf("put carried no pair verdicts (R1-only pairs must survive an R2 edit): %+v", put.Carried)
	}

	// The guarded candidate the warm cover checked; its (R1, R1) verdict
	// carried across the edit.
	check, err := client.Check(ctx, &CheckRequest{Universe: put.Universe, Phi: "V([A, CC=1] -> [B])", Parallelism: 1})
	if err != nil {
		t.Fatalf("check after put: %v", err)
	}
	if r := check.Results[0]; r.MemoHits == 0 || !r.Propagated {
		t.Fatalf("check after put replayed nothing or changed its answer: %+v", r)
	}

	_, hs2 := newTestServer(t, Config{})
	oracle, err := (&Client{Base: hs2.URL}).Cover(ctx, &CoverRequest{Spec: patchedSpec})
	if err != nil {
		t.Fatalf("oracle cover: %v", err)
	}
	if oracle.Universe != put.Universe {
		t.Fatalf("put universe %q != from-scratch fingerprint %q", put.Universe, oracle.Universe)
	}
	got, err := client.Cover(ctx, &CoverRequest{Universe: put.Universe})
	if err != nil {
		t.Fatalf("cover after put: %v", err)
	}
	if fmt.Sprint(got.Cover) != fmt.Sprint(oracle.Cover) || got.Generation != 2 {
		t.Fatalf("cover after put diverged from from-scratch:\n got: %v (generation %d)\nwant: %v", got.Cover, got.Generation, oracle.Cover)
	}
}

// TestSigmaPatchAndPutImpliesMatchFromScratch: after a Σ edit that removes
// R1(B -> C) — as a PATCH and as a PUT — and a cover on the successor,
// the successor's /v1/implies no longer derives V([B, CC=1] -> [C]), a
// member of the old cover. On every member of the old and the new cover
// it answers exactly as a from-scratch registration of the edited Σ.
func TestSigmaPatchAndPutImpliesMatchFromScratch(t *testing.T) {
	const removed, phi = "R1(B -> C)", "V([B, CC=1] -> [C])"
	ctx := context.Background()
	edited := mustProblem(t, unionSpecJSON)
	edited.CFDs = slices.DeleteFunc(edited.CFDs, func(c string) bool { return c == removed })

	_, hs2 := newTestServer(t, Config{})
	scratch := &Client{Base: hs2.URL}
	oracle, err := scratch.Cover(ctx, &CoverRequest{Spec: edited})
	if err != nil {
		t.Fatalf("oracle cover: %v", err)
	}

	for _, tc := range []struct {
		name string
		edit func(*Client, string) (*SigmaPatchResponse, error)
	}{
		{"patch", func(c *Client, fp string) (*SigmaPatchResponse, error) {
			return c.PatchSigma(ctx, fp, &SigmaPatchRequest{Remove: []string{removed}})
		}},
		{"put", func(c *Client, fp string) (*SigmaPatchResponse, error) {
			return c.PutSigma(ctx, fp, &SigmaRequest{CFDs: edited.CFDs})
		}},
	} {
		_, hs := newTestServer(t, Config{})
		client := &Client{Base: hs.URL}
		old, err := client.Cover(ctx, &CoverRequest{Spec: mustProblem(t, unionSpecJSON)})
		if err != nil {
			t.Fatalf("%s: warm cover: %v", tc.name, err)
		}
		if !slices.Contains(old.Cover, phi) {
			t.Fatalf("%s: %s is not in the old cover %v", tc.name, phi, old.Cover)
		}
		next, err := tc.edit(client, old.Universe)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cov, err := client.Cover(ctx, &CoverRequest{Universe: next.Universe})
		if err != nil {
			t.Fatalf("%s: cover after edit: %v", tc.name, err)
		}
		if next.Universe != oracle.Universe || fmt.Sprint(cov.Cover) != fmt.Sprint(oracle.Cover) {
			t.Fatalf("%s: successor %s %v != from-scratch %s %v", tc.name, next.Universe, cov.Cover, oracle.Universe, oracle.Cover)
		}
		for _, q := range append(slices.Clone(old.Cover), cov.Cover...) {
			got, err := client.Implies(ctx, &ImpliesRequest{Universe: next.Universe, Phi: q})
			if err != nil {
				t.Fatalf("%s: implies %q: %v", tc.name, q, err)
			}
			want, err := scratch.Implies(ctx, &ImpliesRequest{Universe: oracle.Universe, Phi: q})
			if err != nil {
				t.Fatalf("%s: oracle implies %q: %v", tc.name, q, err)
			}
			if got.Implied != want.Implied {
				t.Fatalf("%s: implies %q = %v after the edit, from scratch %v", tc.name, q, got.Implied, want.Implied)
			}
			if q == phi && got.Implied {
				t.Fatalf("%s: successor still implies %q without %s", tc.name, q, removed)
			}
		}
	}
}

// TestSigmaPatchErrors: malformed deltas answer 400 and leave the universe
// untouched and serving.
func TestSigmaPatchErrors(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	client := &Client{Base: hs.URL}
	ctx := context.Background()

	u, err := client.Register(ctx, &UniverseRequest{Spec: mustProblem(t, unionSpecJSON)})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		req  *SigmaPatchRequest
	}{
		{"empty", &SigmaPatchRequest{}},
		{"remove non-member", &SigmaPatchRequest{Remove: []string{"R1(C -> A)"}}},
		{"bad cfd", &SigmaPatchRequest{Add: []string{"not a cfd"}}},
		{"unknown relation", &SigmaPatchRequest{Add: []string{"R9(A -> B)"}}},
	}
	for _, tc := range cases {
		_, err := client.PatchSigma(ctx, u.Universe, tc.req)
		var serr *StatusError
		if !errorsAs(err, &serr) || serr.Code != http.StatusBadRequest {
			t.Fatalf("%s: got %v, want 400", tc.name, err)
		}
	}
	if _, err := client.PatchSigma(ctx, "deadbeef", &SigmaPatchRequest{Add: []string{"R1(C -> A)"}}); err == nil {
		t.Fatal("unknown fingerprint patched")
	}

	// Still alive and at generation 1.
	code, body := get(t, hs.URL+"/v1/universe/"+u.Universe)
	if code != http.StatusOK {
		t.Fatalf("universe gone after failed patches: status %d: %s", code, body)
	}
	var again UniverseResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if again.Generation != 1 || again.SigmaSize != 4 {
		t.Fatalf("failed patches mutated the universe: %+v", again)
	}
}

// TestSigmaPatchCheckReplaysCarriedVerdicts: a /v1/check after a PATCH
// reports memo hits for pairs the edit could not affect — the carryover is
// observable end-to-end, not just in counters.
func TestSigmaPatchCheckReplaysCarriedVerdicts(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	client := &Client{Base: hs.URL}
	ctx := context.Background()

	// Warm the memo with a check (not a cover): pair verdicts for φ.
	phi := "V(A -> B)"
	first, err := client.Check(ctx, &CheckRequest{Spec: mustProblem(t, unionSpecJSON), Phi: phi, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if first.Results[0].MemoMisses == 0 {
		t.Fatalf("cold check stored nothing: %+v", first.Results[0])
	}

	patched, err := client.PatchSigma(ctx, first.Universe, &SigmaPatchRequest{
		Add: []string{"R2(B -> C)"},
	})
	if err != nil {
		t.Fatal(err)
	}

	after, err := client.Check(ctx, &CheckRequest{Universe: patched.Universe, Phi: phi, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if after.Results[0].MemoHits == 0 {
		t.Fatalf("check after patch replayed nothing: %+v", after.Results[0])
	}
	// Differential: the replayed-verdict answer equals a from-scratch one.
	scratch, err := client.Check(ctx, &CheckRequest{Spec: mustProblem(t, unionSpecPatchedJSONAddOnly), Phi: phi, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if after.Results[0].Propagated != scratch.Results[0].Propagated ||
		after.Results[0].PairsChecked != scratch.Results[0].PairsChecked {
		t.Fatalf("carried check diverged:\n got: %+v\nwant: %+v", after.Results[0], scratch.Results[0])
	}
}

// unionSpecPatchedJSONAddOnly is unionSpecJSON plus R2(B -> C).
const unionSpecPatchedJSONAddOnly = `{
  "relations": [
    {"name": "R1", "attrs": ["A", "B", "C"]},
    {"name": "R2", "attrs": ["A", "B", "C"]}
  ],
  "cfds": [
    "R1(A -> B)",
    "R1(B -> C)",
    "R2(A -> B)",
    "R2(A -> C)",
    "R2(B -> C)"
  ],
  "union": [
    {"name": "V", "consts": [{"attr": "CC", "value": "1"}],
     "atoms": [{"source": "R1", "attrs": ["A", "B", "C"]}], "projection": ["CC", "A", "B", "C"]},
    {"name": "V", "consts": [{"attr": "CC", "value": "2"}],
     "atoms": [{"source": "R2", "attrs": ["A", "B", "C"]}], "projection": ["CC", "A", "B", "C"]}
  ]
}`
