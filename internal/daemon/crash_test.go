//go:build faultinject

package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cfdprop/internal/core"
	"cfdprop/internal/faultinject"
	"cfdprop/internal/implication"
	"cfdprop/internal/propagation"
	"cfdprop/internal/spec"
)

// The daemon half of the randomized crash-safety suite: seeded fault
// schedules — panics and delays at the request, cache, implies and drain
// seams, composed with the deeper chase seams — against a live server.
// Invariants: an injected panic costs at most a 500 for that request (the
// server, its admission tokens and its idle implication sessions survive),
// delays never change response bytes, and after faults clear the daemon
// answers byte-identically to a direct library call.
// Run with: go test -race -tags faultinject ./internal/daemon/

// checkBytes runs one /v1/check against the server and returns the raw
// result bytes, or an error describing the non-200 outcome.
func checkBytes(hs *httptest.Server, req *CheckRequest) (int, []byte, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(hs.URL+"/v1/check", "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, buf.Bytes(), nil
	}
	var out struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		return resp.StatusCode, nil, err
	}
	if len(out.Results) != 1 {
		return resp.StatusCode, nil, fmt.Errorf("%d results", len(out.Results))
	}
	return resp.StatusCode, bytes.TrimSpace(out.Results[0]), nil
}

// stripMemoCounters zeroes the memo_hits/memo_misses fields of a
// marshalled CheckResult. The counters report how warm the universe's
// verdict memo was when the request ran — how many identical-φ requests
// preceded it on this server — which is not something a fault may alter,
// so the byte-identity assertions drop them and compare every other
// field exactly against the memo-cold library reference.
func stripMemoCounters(raw []byte) ([]byte, error) {
	var r CheckResult
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("result %s: %w", raw, err)
	}
	r.MemoHits, r.MemoMisses = 0, 0
	return json.Marshal(r)
}

// TestDaemonSurvivesRandomFaults is the core schedule sweep: 170 seeded
// schedules arm 1–3 faults across the daemon seams (request, cache,
// implies) and the library seams beneath them, then fire concurrent
// traffic: check requests alternating Parallelism 1 and 2, and implies
// requests on the same spec. Allowed outcomes per request: a 200 equal to
// the library's answer, an isolated 500 (injected panic, counted on
// /statusz), or a 429/503 shed. Afterwards, with faults cleared, the
// daemon must answer every check byte-identically to the direct library
// call and every implies as implication.Implies over the library cover —
// so no session that faulted mid-query went back to the idle set. Every
// schedule carries an inert rule on the implies seam, whose hits prove
// the implies traffic reached it.
func TestDaemonSurvivesRandomFaults(t *testing.T) {
	defer faultinject.Reset()
	problem := mustProblem(t, exampleSpecJSON)

	// Fault-free references, straight from the library through ResultOf.
	db, sigma, view, err := spec.Compile(problem)
	if err != nil {
		t.Fatal(err)
	}
	phis := []string{"R(zip -> street)", "R(street -> zip)"}
	refs := make(map[string][]byte, len(phis))
	for _, phi := range phis {
		res, err := propagation.Check(db, view, sigma, mustParseCFD(t, phi),
			propagation.Options{WantCounterexample: true, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if refs[phi], err = json.Marshal(ResultOf(phi, res, db)); err != nil {
			t.Fatal(err)
		}
	}
	// The implies references: implication.Implies over the library cover.
	lib, err := core.PropCFDSPC(db, view.Disjuncts[0], sigma, core.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	impliedRef := make(map[string]bool, len(phis))
	for _, phi := range phis {
		if impliedRef[phi], err = implication.Implies(implication.UniverseOf(lib.ViewSchema), lib.Cover, mustParseCFD(t, phi)); err != nil {
			t.Fatal(err)
		}
	}
	implies := func(hs *httptest.Server, phi string) (int, []byte, error) {
		data, err := json.Marshal(&ImpliesRequest{Spec: problem, Phi: phi})
		if err != nil {
			return 0, nil, err
		}
		resp, err := http.Post(hs.URL+"/v1/implies", "application/json", bytes.NewReader(data))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes(), err
	}
	// impliesDiverged reports how a 200 implies answer differs from the
	// library's, or "" when it agrees.
	impliesDiverged := func(phi string, body []byte) string {
		var imp ImpliesResponse
		if err := json.Unmarshal(body, &imp); err != nil {
			return fmt.Sprintf("body %s: %v", body, err)
		}
		if imp.Implied != impliedRef[phi] {
			return fmt.Sprintf("implies %s answered %v, library says %v", phi, imp.Implied, impliedRef[phi])
		}
		return ""
	}

	sites := []string{
		faultinject.SiteDaemonRequest,
		faultinject.SiteDaemonCache,
		faultinject.SiteChaseStep,
		faultinject.SiteImplicationStep,
		faultinject.SiteDaemonImplies,
	}
	var impliesHits int64
	for seed := int64(0); seed < 170; seed++ {
		rng := rand.New(rand.NewSource(seed))
		srv, hs := newTestServer(t, Config{MaxInFlight: 2, MaxQueue: 2, QueueWait: 5 * time.Millisecond, Parallelism: 2})

		var rules []faultinject.Rule
		for i := 0; i < 1+rng.Intn(3); i++ {
			r := faultinject.Rule{
				Site: sites[rng.Intn(len(sites))],
				Nth:  int64(1 + rng.Intn(10)),
				Act:  faultinject.Panic,
			}
			if rng.Intn(2) == 0 {
				r.Act = faultinject.Delay
				r.Delay = time.Duration(rng.Intn(30)) * time.Microsecond
			}
			rules = append(rules, r)
		}
		rules = append(rules, faultinject.Rule{Site: faultinject.SiteDaemonImplies, Act: faultinject.None})
		// Even seeds compute the cover before the faults, so that chase
		// faults land inside implies queries instead of the cover
		// computation the first implies runs.
		if seed%2 == 0 {
			if code, body, err := implies(hs, phis[0]); err != nil || code != http.StatusOK {
				t.Fatalf("seed %d: warm-up implies: %d %v %s", seed, code, err, body)
			}
		}
		faultinject.Install(rules...)

		var wg sync.WaitGroup
		var internalErrors atomic.Int64
		// countInternal vets a 500: it must carry the injected panic's value
		// and no stack.
		countInternal := func(body []byte) {
			internalErrors.Add(1)
			if !bytes.Contains(body, []byte("injected panic")) {
				t.Errorf("seed %d: non-injected 500: %s", seed, body)
			}
			if bytes.Contains(body, []byte("goroutine ")) {
				t.Errorf("seed %d: 500 body carries a stack: %s", seed, body)
			}
		}
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < 2; k++ {
					phi := phis[(g+k)%len(phis)]
					code, body, err := implies(hs, phi)
					if err != nil {
						t.Errorf("seed %d: implies transport: %v", seed, err)
						return
					}
					switch code {
					case http.StatusOK:
						if d := impliesDiverged(phi, body); d != "" {
							t.Errorf("seed %d: 200 under faults diverged: %s", seed, d)
						}
					case http.StatusInternalServerError:
						countInternal(body)
					case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					default:
						t.Errorf("seed %d: implies: unexpected status %d: %s", seed, code, body)
					}
				}
			}(g)
		}
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				phi := phis[g%len(phis)]
				code, got, err := checkBytes(hs, &CheckRequest{
					Spec: problem, Phi: phi, WantCounterexample: true, Parallelism: 1 + g/2,
				})
				if err != nil {
					t.Errorf("seed %d: transport: %v", seed, err)
					return
				}
				switch code {
				case http.StatusOK:
					norm, err := stripMemoCounters(got)
					if err != nil {
						t.Errorf("seed %d: %v", seed, err)
						return
					}
					if !bytes.Equal(norm, refs[phi]) {
						t.Errorf("seed %d: 200 under faults diverged:\n got %s\nwant %s", seed, got, refs[phi])
					}
				case http.StatusInternalServerError:
					countInternal(got)
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					// Shed under fault-induced slowness: allowed.
				default:
					t.Errorf("seed %d: unexpected status %d: %s", seed, code, got)
				}
			}(g)
		}
		wg.Wait()
		if got, want := srv.stats().Panics, internalErrors.Load(); got != want {
			t.Errorf("seed %d: /statusz counts %d panics for %d 500s", seed, got, want)
		}

		// Faults off: full recovery, byte-identical answers, no leaked
		// admission tokens, no faulted session back in the idle set.
		impliesHits += faultinject.Hits(faultinject.SiteDaemonImplies)
		faultinject.Reset()
		for _, phi := range phis {
			code, got, err := checkBytes(hs, &CheckRequest{
				Spec: problem, Phi: phi, WantCounterexample: true, Parallelism: 1,
			})
			if err != nil || code != http.StatusOK {
				t.Fatalf("seed %d: fault-free request failed: %d %v %s", seed, code, err, got)
			}
			norm, err := stripMemoCounters(got)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !bytes.Equal(norm, refs[phi]) {
				t.Fatalf("seed %d: post-fault answer diverged:\n got %s\nwant %s", seed, got, refs[phi])
			}
		}
		for round := 0; round < 3; round++ {
			for _, phi := range phis {
				code, body, err := implies(hs, phi)
				if err != nil || code != http.StatusOK {
					t.Fatalf("seed %d: fault-free implies failed: %d %v %s", seed, code, err, body)
				}
				if d := impliesDiverged(phi, body); d != "" {
					t.Fatalf("seed %d: post-fault implies diverged: %s", seed, d)
				}
			}
		}
		if st := srv.adm.stats(); st.InFlight != 0 {
			t.Fatalf("seed %d: %d admission tokens leaked", seed, st.InFlight)
		}
		hs.Close()
	}
	if impliesHits == 0 {
		t.Fatal("no implies request reached the implies seam over the sweep")
	}
}

// TestCoverWorkerPanicIs500: a panic inside a library worker of a
// /v1/cover computation — here a §3 pair worker of the union candidate
// filter, which recovers it — answers 500 with the panic value and no
// stack, counts on /statusz, and leaves the universe serving its cover
// once the fault clears.
func TestCoverWorkerPanicIs500(t *testing.T) {
	defer faultinject.Reset()
	problem := mustProblem(t, unionSpecJSON)
	for _, par := range []int{1, 2} {
		srv, hs := newTestServer(t, Config{Parallelism: 2})
		data, err := json.Marshal(&CoverRequest{Spec: problem, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		cover := func() (int, []byte) {
			t.Helper()
			resp, err := http.Post(hs.URL+"/v1/cover", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, buf.Bytes()
		}

		faultinject.Install(faultinject.Rule{Site: faultinject.SitePropWorker, Nth: 1, Act: faultinject.Panic})
		code, body := cover()
		faultinject.Reset()
		if code != http.StatusInternalServerError {
			t.Fatalf("parallelism %d: worker panic answered %d, want 500: %s", par, code, body)
		}
		if !bytes.Contains(body, []byte("internal panic: faultinject: injected panic")) || bytes.Contains(body, []byte("goroutine ")) {
			t.Fatalf("parallelism %d: 500 body must carry the panic value and no stack: %s", par, body)
		}
		if n := srv.stats().Panics; n != 1 {
			t.Fatalf("parallelism %d: /statusz counts %d panics, want 1", par, n)
		}

		code, body = cover()
		var cov CoverResponse
		if err := json.Unmarshal(body, &cov); err != nil || code != http.StatusOK || len(cov.Cover) == 0 {
			t.Fatalf("parallelism %d: cover after the fault cleared: %d %s", par, code, body)
		}
	}
}

// TestDrainCrashSchedules arms faults at the drain seam (between the
// readiness flip and the admission switch) and at the request seam while
// draining with traffic in flight. A panic mid-drain must leave the server
// able to finish draining on retry; delays must not let a request slip
// past a completed drain or hang the suite.
func TestDrainCrashSchedules(t *testing.T) {
	defer faultinject.Reset()
	problem := mustProblem(t, exampleSpecJSON)

	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(6000 + seed))
		srv, hs := newTestServer(t, Config{MaxInFlight: 2, MaxQueue: 2})

		// Warm the universe so drain races against real traffic.
		if code, _, err := checkBytes(hs, &CheckRequest{Spec: problem, Phi: "R(zip -> street)"}); err != nil || code != http.StatusOK {
			t.Fatalf("seed %d: warmup: %d %v", seed, code, err)
		}

		act := faultinject.Panic
		var delay time.Duration
		if rng.Intn(2) == 0 {
			act = faultinject.Delay
			delay = time.Duration(rng.Intn(200)) * time.Microsecond
		}
		faultinject.Install(
			faultinject.Rule{Site: faultinject.SiteDaemonDrain, Nth: 1, Act: act, Delay: delay},
			faultinject.Rule{Site: faultinject.SiteDaemonRequest, Nth: int64(1 + rng.Intn(3)),
				Act: faultinject.Delay, Delay: time.Duration(rng.Intn(100)) * time.Microsecond},
		)

		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				code, body, err := checkBytes(hs, &CheckRequest{Spec: problem, Phi: "R(zip -> street)"})
				if err != nil {
					t.Errorf("seed %d: transport: %v", seed, err)
					return
				}
				switch code {
				case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
				default:
					t.Errorf("seed %d: unexpected status %d: %s", seed, code, body)
				}
			}(g)
		}

		drainPanicked := func() (panicked bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(faultinject.Injected); !ok {
						panic(r)
					}
					panicked = true
				}
			}()
			srv.BeginDrain()
			return false
		}()
		wg.Wait()
		faultinject.Reset()

		if drainPanicked {
			// A crash mid-drain may have flipped readiness without stopping
			// admission; the retry must complete the switch.
			srv.BeginDrain()
		}
		if !srv.Draining() {
			t.Fatalf("seed %d: drain did not complete", seed)
		}
		resp, err := http.Get(hs.URL + "/readyz")
		if err != nil {
			t.Fatalf("seed %d: readyz: %v", seed, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("seed %d: readyz after drain = %d, want 503", seed, resp.StatusCode)
		}
		code, body, err := checkBytes(hs, &CheckRequest{Spec: problem, Phi: "R(zip -> street)"})
		if err != nil {
			t.Fatalf("seed %d: post-drain transport: %v", seed, err)
		}
		if code != http.StatusServiceUnavailable {
			t.Fatalf("seed %d: request slipped past a completed drain: %d %s", seed, code, body)
		}
		if st := srv.adm.stats(); st.InFlight != 0 {
			t.Fatalf("seed %d: %d admission tokens leaked through drain", seed, st.InFlight)
		}
		hs.Close()
	}
}

// TestSigmaEditCrashSchedules injects faults at the cache seam while Σ
// edits race queries: an edit re-keys the universe, so a panic or delay in
// a lookup must never corrupt an entry or serve a stale Σ after the edit
// completes.
func TestSigmaEditCrashSchedules(t *testing.T) {
	defer faultinject.Reset()
	problem := mustProblem(t, exampleSpecJSON)

	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		_, hs := newTestServer(t, Config{MaxInFlight: 4, MaxQueue: 4})

		// Register the universe the implies query and the edit race on.
		var u UniverseResponse
		{
			data, _ := json.Marshal(&UniverseRequest{Spec: problem})
			resp, err := http.Post(hs.URL+"/v1/universe", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.NewDecoder(resp.Body).Decode(&u); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}

		r := faultinject.Rule{
			Site: faultinject.SiteDaemonCache,
			Nth:  int64(1 + rng.Intn(6)),
			Act:  faultinject.Panic,
		}
		if rng.Intn(2) == 0 {
			r.Act = faultinject.Delay
			r.Delay = time.Duration(rng.Intn(100)) * time.Microsecond
		}
		faultinject.Install(r)

		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			data, _ := json.Marshal(&ImpliesRequest{Universe: u.Universe, Phi: "R(zip -> street)"})
			resp, err := http.Post(hs.URL+"/v1/implies", "application/json", bytes.NewReader(data))
			if err == nil {
				resp.Body.Close()
			}
		}()
		var editedFP string
		go func() {
			defer wg.Done()
			body := strings.NewReader(`{"cfds": ["R1(zip -> street)"]}`)
			req, err := http.NewRequest(http.MethodPut, hs.URL+"/v1/universe/"+u.Universe+"/sigma", body)
			if err != nil {
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				var edited UniverseResponse
				if json.NewDecoder(resp.Body).Decode(&edited) == nil {
					editedFP = edited.Universe
				}
			}
		}()
		wg.Wait()
		faultinject.Reset()

		if editedFP != "" {
			// The edit won: its universe must answer with the new Σ (AC ->
			// city is gone) and the old fingerprint must be dead.
			code, got, err := checkBytes(hs, &CheckRequest{Universe: editedFP, Phi: "R(AC -> city)"})
			if err != nil || code != http.StatusOK {
				t.Fatalf("seed %d: edited universe unusable: %d %v", seed, code, err)
			}
			if bytes.Contains(got, []byte(`"propagated":true`)) {
				t.Fatalf("seed %d: stale Σ served after edit: %s", seed, got)
			}
			resp, err := http.Get(hs.URL + "/v1/universe/" + u.Universe)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("seed %d: old fingerprint survived the edit: %d", seed, resp.StatusCode)
			}
		} else {
			// The edit lost to an injected fault: the original universe must
			// be intact.
			code, _, err := checkBytes(hs, &CheckRequest{Universe: u.Universe, Phi: "R(zip -> street)"})
			if err != nil || code != http.StatusOK {
				t.Fatalf("seed %d: original universe corrupted after failed edit: %d %v", seed, code, err)
			}
		}
		hs.Close()
	}
}

// TestSigmaPatchCrashSchedules injects faults at the Σ-edit seam
// (faultinject.SiteSigmaEdit fires in the PATCH handler before any state
// transfer) while PATCHes race warm implies queries. Invariants: a failed
// patch leaves the old universe fully serving; a successful patch serves
// the new Σ (and only it) and covers once the faults clear.
func TestSigmaPatchCrashSchedules(t *testing.T) {
	defer faultinject.Reset()
	problem := mustProblem(t, unionSpecJSON)

	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(9000 + seed))
		_, hs := newTestServer(t, Config{MaxInFlight: 4, MaxQueue: 4})

		// Register and warm: the cover builds the cover session and memo
		// the patch will transfer.
		var u CoverResponse
		{
			data, _ := json.Marshal(&CoverRequest{Spec: problem})
			resp, err := http.Post(hs.URL+"/v1/cover", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.NewDecoder(resp.Body).Decode(&u); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}

		r := faultinject.Rule{
			Site: faultinject.SiteSigmaEdit,
			Nth:  int64(1 + rng.Intn(2)),
			Act:  faultinject.Panic,
		}
		if rng.Intn(2) == 0 {
			r.Act = faultinject.Delay
			r.Delay = time.Duration(rng.Intn(100)) * time.Microsecond
		}
		faultinject.Install(r)

		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			data, _ := json.Marshal(&ImpliesRequest{Universe: u.Universe, Phi: "V(A -> B)"})
			resp, err := http.Post(hs.URL+"/v1/implies", "application/json", bytes.NewReader(data))
			if err == nil {
				resp.Body.Close()
			}
		}()
		var patchedFP string
		go func() {
			defer wg.Done()
			// Removing R1(B -> C) flips the guarded V([CC=1, A] -> [C])
			// from propagated to not.
			body := strings.NewReader(`{"remove": ["R1(B -> C)"]}`)
			req, err := http.NewRequest(http.MethodPatch, hs.URL+"/v1/universe/"+u.Universe+"/sigma", body)
			if err != nil {
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				var patched SigmaPatchResponse
				if json.NewDecoder(resp.Body).Decode(&patched) == nil {
					patchedFP = patched.Universe
				}
			}
		}()
		wg.Wait()
		faultinject.Reset()

		if patchedFP != "" {
			// The patch won: the successor must serve the edited Σ.
			code, got, err := checkBytes(hs, &CheckRequest{Universe: patchedFP, Phi: "V([CC=1, A] -> [C])"})
			if err != nil || code != http.StatusOK {
				t.Fatalf("seed %d: patched universe unusable: %d %v", seed, code, err)
			}
			if bytes.Contains(got, []byte(`"propagated":true`)) {
				t.Fatalf("seed %d: stale Σ served after patch: %s", seed, got)
			}
			resp, err := http.Get(hs.URL + "/v1/universe/" + u.Universe)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("seed %d: old fingerprint survived the patch: %d", seed, resp.StatusCode)
			}
			data, _ := json.Marshal(&CoverRequest{Universe: patchedFP})
			resp, err = http.Post(hs.URL+"/v1/cover", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			var cov CoverResponse
			if err := json.NewDecoder(resp.Body).Decode(&cov); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || len(cov.Cover) == 0 {
				t.Fatalf("seed %d: cover after patch (and cleared faults) broken: %d %+v", seed, resp.StatusCode, cov)
			}
		} else {
			// The patch lost to an injected fault: the original universe is
			// intact and still serves its warm cover.
			code, got, err := checkBytes(hs, &CheckRequest{Universe: u.Universe, Phi: "V([CC=1, A] -> [C])"})
			if err != nil || code != http.StatusOK {
				t.Fatalf("seed %d: original universe corrupted after failed patch: %d %v", seed, code, err)
			}
			if !bytes.Contains(got, []byte(`"propagated":true`)) {
				t.Fatalf("seed %d: original Σ lost after failed patch: %s", seed, got)
			}
		}
		hs.Close()
	}
}

// TestSigmaPatchInFlightImpliesKeepsOldCover races a /v1/implies on the
// old fingerprint against a PATCH. A 300ms delay at the implies seam holds
// the request after it has taken a session of the old universe, before
// its query runs; once it is held, a PATCH removes R1(B -> C) and a cover
// warms the successor. φ = V([B, CC=1] -> [C]) is a member of the old
// cover, and the held request already holds a session compiled with it,
// so it must answer 200 with implied true from the old cover; implied
// false would mean it read the edited cover.
func TestSigmaPatchInFlightImpliesKeepsOldCover(t *testing.T) {
	defer faultinject.Reset()
	const phi = "V([B, CC=1] -> [C])"
	for run := 0; run < 3; run++ {
		_, hs := newTestServer(t, Config{})
		client := &Client{Base: hs.URL}
		ctx := context.Background()
		cov, err := client.Cover(ctx, &CoverRequest{Spec: mustProblem(t, unionSpecJSON)})
		if err != nil {
			t.Fatalf("run %d: warm cover: %v", run, err)
		}
		if !slices.Contains(cov.Cover, phi) {
			t.Fatalf("run %d: %s is not in the old cover %v", run, phi, cov.Cover)
		}

		held := make(chan struct{})
		faultinject.Install(
			faultinject.Rule{Site: faultinject.SiteDaemonImplies, Nth: 1, Act: faultinject.Cancel, Cancel: func() { close(held) }},
			faultinject.Rule{Site: faultinject.SiteDaemonImplies, Nth: 1, Act: faultinject.Delay, Delay: 300 * time.Millisecond},
		)
		type answer struct {
			code int
			body []byte
			err  error
		}
		done := make(chan answer, 1)
		go func() {
			data, _ := json.Marshal(&ImpliesRequest{Universe: cov.Universe, Phi: phi})
			resp, err := http.Post(hs.URL+"/v1/implies", "application/json", bytes.NewReader(data))
			if err != nil {
				done <- answer{err: err}
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			_, err = buf.ReadFrom(resp.Body)
			done <- answer{code: resp.StatusCode, body: buf.Bytes(), err: err}
		}()
		<-held
		patched, err := client.PatchSigma(ctx, cov.Universe, &SigmaPatchRequest{Remove: []string{"R1(B -> C)"}})
		if err != nil {
			t.Fatalf("run %d: patch: %v", run, err)
		}
		if _, err := client.Cover(ctx, &CoverRequest{Universe: patched.Universe}); err != nil {
			t.Fatalf("run %d: cover after patch: %v", run, err)
		}
		a := <-done
		faultinject.Reset()
		if a.err != nil {
			t.Fatalf("run %d: held implies: %v", run, a.err)
		}
		if a.code != http.StatusOK {
			t.Fatalf("run %d: held implies: status %d: %s", run, a.code, a.body)
		}
		var imp ImpliesResponse
		if err := json.Unmarshal(a.body, &imp); err != nil {
			t.Fatalf("run %d: held implies body %s: %v", run, a.body, err)
		}
		if imp.Universe != cov.Universe || !imp.Implied {
			t.Fatalf("run %d: held implies on the old universe answered from the edited cover: %s", run, a.body)
		}
		hs.Close()
	}
}

// TestEvictionDoesNotWaitForBusyEntry: a request whose insert evicts a
// universe must not wait for a cover in flight on that universe. A delay
// at the parutil worker seam holds a /v1/cover on universe A inside its
// entry lock for 1.5 s; a register of universe B then evicts A from the
// one-entry cache and must return well within the hold.
func TestEvictionDoesNotWaitForBusyEntry(t *testing.T) {
	defer faultinject.Reset()
	const hold = 1500 * time.Millisecond
	_, hs := newTestServer(t, Config{CacheSize: 1})

	held := make(chan struct{})
	faultinject.Install(
		faultinject.Rule{Site: faultinject.SiteParutilWorker, Nth: 1, Act: faultinject.Cancel, Cancel: func() { close(held) }},
		faultinject.Rule{Site: faultinject.SiteParutilWorker, Nth: 1, Act: faultinject.Delay, Delay: hold},
	)
	coverDone := make(chan error, 1)
	go func() {
		data, _ := json.Marshal(&CoverRequest{Spec: mustProblem(t, exampleSpecJSON)})
		resp, err := http.Post(hs.URL+"/v1/cover", "application/json", bytes.NewReader(data))
		if err == nil {
			resp.Body.Close()
		}
		coverDone <- err
	}()
	<-held

	data, _ := json.Marshal(&UniverseRequest{Spec: mustProblem(t, unionSpecJSON)})
	start := time.Now()
	resp, err := http.Post(hs.URL+"/v1/universe", "application/json", bytes.NewReader(data))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register of the evicting universe: status %d", resp.StatusCode)
	}
	if elapsed > hold/3 {
		t.Fatalf("register that evicted a busy universe took %v, want under %v", elapsed, hold/3)
	}
	if err := <-coverDone; err != nil {
		t.Fatalf("held cover: %v", err)
	}
}
