package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cfdprop/internal/cfd"
	"cfdprop/internal/core"
	"cfdprop/internal/propagation"
	"cfdprop/internal/spec"
)

func mustParseCFD(t *testing.T, src string) *cfd.CFD {
	t.Helper()
	c, err := cfd.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func errorsAs(err error, target any) bool { return errors.As(err, target) }

// exampleSpecJSON is the propcfd example: infinite domains, single SPC
// view with a CC=44 constant column.
const exampleSpecJSON = `{
  "relations": [
    {"name": "R1", "attrs": ["AC", "phn", "name", "street", "city", "zip"]}
  ],
  "cfds": [
    "R1(zip -> street)",
    "R1(AC -> city)",
    "R1([AC=20] -> [city=ldn])"
  ],
  "view": {
    "name": "R",
    "consts": [{"attr": "CC", "value": "44"}],
    "atoms": [{"source": "R1", "attrs": ["AC", "phn", "name", "street", "city", "zip"]}],
    "projection": ["CC", "AC", "phn", "name", "street", "city", "zip"]
  }
}`

// slowSpecJSON is a 4^16-instantiation general-setting workload as a
// spec: checking V(A1 -> A8) takes far longer than any test deadline even
// on the factorised chase path, so a millisecond-scale deadline reliably
// interrupts it.
var slowSpecJSON = func() string {
	var attrs, cfds []string
	for i := 1; i <= 8; i++ {
		attrs = append(attrs, fmt.Sprintf("%q", fmt.Sprintf("A%d", i)))
	}
	for i := 1; i <= 8; i++ {
		attrs = append(attrs, fmt.Sprintf("%q", fmt.Sprintf("F%d:0|1|2|3", i)))
	}
	for i := 1; i < 8; i++ {
		cfds = append(cfds, fmt.Sprintf("%q", fmt.Sprintf("R1(A%d -> A%d)", i, i+1)))
	}
	all := strings.Join(attrs, ", ")
	return fmt.Sprintf(`{
  "relations": [{"name": "R1", "attrs": [%s]}],
  "cfds": [%s],
  "view": {"name": "V", "atoms": [{"source": "R1", "attrs": [%s]}], "projection": [%s]}
}`, all, strings.Join(cfds, ", "), all, all)
}()

func mustProblem(t *testing.T, src string) *spec.Problem {
	t.Helper()
	var p spec.Problem
	if err := json.Unmarshal([]byte(src), &p); err != nil {
		t.Fatalf("bad test spec: %v", err)
	}
	return &p
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

// post sends a JSON body (already-marshalable value or raw []byte) and
// returns status, headers and body.
func post(t *testing.T, url string, hdr map[string]string, body any) (int, http.Header, []byte) {
	t.Helper()
	var data []byte
	switch b := body.(type) {
	case []byte:
		data = b
	default:
		var err error
		if data, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, out.Bytes()
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Bytes()
}

// TestCheckMatchesLibrary pins the byte-identical contract: the daemon's
// per-φ results serialize to exactly the bytes a direct library call
// produces through ResultOf — for a propagated φ and for a refutation with
// its counterexample witness.
func TestCheckMatchesLibrary(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	problem := mustProblem(t, exampleSpecJSON)
	db, sigma, view, err := spec.Compile(problem)
	if err != nil {
		t.Fatal(err)
	}

	for _, phi := range []string{"R([CC=44, zip] -> [street])", "R(street -> zip)"} {
		// A fresh memo per φ mirrors the daemon's cold universe entry: the
		// two φ use disjoint memo keys, so each request records only misses.
		res, err := propagation.Check(db, view, sigma, mustParseCFD(t, phi),
			propagation.Options{WantCounterexample: true, Parallelism: 1, Memo: propagation.NewMemo()})
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(ResultOf(phi, res, db))
		if err != nil {
			t.Fatal(err)
		}

		code, _, body := post(t, hs.URL+"/v1/check", nil, &CheckRequest{
			Spec: problem, Phi: phi, WantCounterexample: true, Parallelism: 1,
		})
		if code != http.StatusOK {
			t.Fatalf("phi %q: status %d: %s", phi, code, body)
		}
		var resp struct {
			Universe string            `json:"universe"`
			Results  []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != 1 {
			t.Fatalf("phi %q: %d results", phi, len(resp.Results))
		}
		if !bytes.Equal(bytes.TrimSpace(resp.Results[0]), want) {
			t.Errorf("phi %q: daemon result diverges from library:\n got %s\nwant %s",
				phi, resp.Results[0], want)
		}
		if resp.Universe == "" {
			t.Errorf("phi %q: no universe fingerprint in response", phi)
		}
	}
}

// TestUniverseLifecycle covers register → fingerprint reuse → cache hits →
// Σ edit re-keying with generation bump → stale-fingerprint 404.
func TestUniverseLifecycle(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	problem := mustProblem(t, exampleSpecJSON)

	code, _, body := post(t, hs.URL+"/v1/universe", nil, &UniverseRequest{Spec: problem})
	if code != http.StatusOK {
		t.Fatalf("register: status %d: %s", code, body)
	}
	var u UniverseResponse
	if err := json.Unmarshal(body, &u); err != nil {
		t.Fatal(err)
	}
	if u.Universe == "" || u.Generation != 1 || u.SigmaSize != 3 {
		t.Fatalf("register: %+v", u)
	}

	// Check against the fingerprint — no spec resent.
	code, _, body = post(t, hs.URL+"/v1/check", nil, &CheckRequest{
		Universe: u.Universe, Phi: "R(zip -> street)",
	})
	if code != http.StatusOK {
		t.Fatalf("check by fingerprint: status %d: %s", code, body)
	}
	var cr CheckResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if !cr.Results[0].Propagated || cr.Universe != u.Universe || cr.Generation != 1 {
		t.Fatalf("check by fingerprint: %+v", cr)
	}

	// Re-registering the same spec hits the cache, not a new entry.
	before := srv.cache.stats()
	code, _, body = post(t, hs.URL+"/v1/universe", nil, &UniverseRequest{Spec: problem})
	if code != http.StatusOK {
		t.Fatalf("re-register: status %d: %s", code, body)
	}
	var u2 UniverseResponse
	if err := json.Unmarshal(body, &u2); err != nil {
		t.Fatal(err)
	}
	if u2.Universe != u.Universe {
		t.Fatalf("same spec, different fingerprints: %q vs %q", u2.Universe, u.Universe)
	}
	after := srv.cache.stats()
	if after.Hits <= before.Hits || after.Entries != before.Entries {
		t.Fatalf("re-register missed the cache: before %+v after %+v", before, after)
	}

	// Σ edit: new fingerprint, generation 2; the old handle stops resolving.
	req, err := http.NewRequest(http.MethodPut, hs.URL+"/v1/universe/"+u.Universe+"/sigma",
		strings.NewReader(`{"cfds": ["R1(zip -> street)"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var edited UniverseResponse
	if err := json.NewDecoder(resp.Body).Decode(&edited); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sigma edit: status %d", resp.StatusCode)
	}
	if edited.Universe == u.Universe || edited.Generation != 2 || edited.SigmaSize != 1 {
		t.Fatalf("sigma edit: %+v", edited)
	}

	if code, body := get(t, hs.URL+"/v1/universe/"+u.Universe); code != http.StatusNotFound {
		t.Fatalf("stale fingerprint resolved: status %d: %s", code, body)
	}
	if code, _ := get(t, hs.URL+"/v1/universe/"+edited.Universe); code != http.StatusOK {
		t.Fatalf("edited universe missing: status %d", code)
	}

	// The edited Σ no longer propagates AC -> city.
	code, _, body = post(t, hs.URL+"/v1/check", nil, &CheckRequest{
		Universe: edited.Universe, Phi: "R(AC -> city)",
	})
	if code != http.StatusOK {
		t.Fatalf("check after edit: status %d: %s", code, body)
	}
	var cr2 CheckResponse
	if err := json.Unmarshal(body, &cr2); err != nil {
		t.Fatal(err)
	}
	if cr2.Results[0].Propagated {
		t.Fatalf("AC -> city still propagated after Σ edit: %+v", cr2)
	}
	if cr2.Generation != 2 {
		t.Fatalf("generation after edit = %d, want 2", cr2.Generation)
	}
}

// TestCoverAndImplies exercises the warm path: the first cover computes,
// the second is served from the memo, and /v1/implies answers from the
// memoized cover with the exactness flag set for a single-SPC view.
func TestCoverAndImplies(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	problem := mustProblem(t, exampleSpecJSON)

	code, _, body := post(t, hs.URL+"/v1/cover", nil, &CoverRequest{Spec: problem})
	if code != http.StatusOK {
		t.Fatalf("cover: status %d: %s", code, body)
	}
	var cov CoverResponse
	if err := json.Unmarshal(body, &cov); err != nil {
		t.Fatal(err)
	}
	if len(cov.Cover) == 0 || !cov.Exact || cov.Cached {
		t.Fatalf("first cover: %+v", cov)
	}

	code, _, body = post(t, hs.URL+"/v1/cover", nil, &CoverRequest{Universe: cov.Universe})
	if code != http.StatusOK {
		t.Fatalf("second cover: status %d: %s", code, body)
	}
	var cov2 CoverResponse
	if err := json.Unmarshal(body, &cov2); err != nil {
		t.Fatal(err)
	}
	if !cov2.Cached {
		t.Fatalf("second cover not served from the memo: %+v", cov2)
	}
	if fmt.Sprint(cov2.Cover) != fmt.Sprint(cov.Cover) {
		t.Fatalf("memoized cover diverged: %v vs %v", cov2.Cover, cov.Cover)
	}

	// Every member of the cover is implied by it; a junk dependency is not.
	for _, phi := range cov.Cover {
		code, _, body = post(t, hs.URL+"/v1/implies", nil, &ImpliesRequest{Universe: cov.Universe, Phi: phi})
		if code != http.StatusOK {
			t.Fatalf("implies %q: status %d: %s", phi, code, body)
		}
		var imp ImpliesResponse
		if err := json.Unmarshal(body, &imp); err != nil {
			t.Fatal(err)
		}
		if !imp.Implied || !imp.Exact {
			t.Fatalf("implies %q: %+v", phi, imp)
		}
	}
	code, _, body = post(t, hs.URL+"/v1/implies", nil, &ImpliesRequest{Universe: cov.Universe, Phi: "R(street -> AC)"})
	if code != http.StatusOK {
		t.Fatalf("implies junk: status %d: %s", code, body)
	}
	var imp ImpliesResponse
	if err := json.Unmarshal(body, &imp); err != nil {
		t.Fatal(err)
	}
	if imp.Implied {
		t.Fatalf("junk dependency implied: %+v", imp)
	}
}

// TestOverloadSheds429 pins the load-shedding half of the degradation
// contract: with the single in-flight slot held, sustained requests shed
// with 429 and a Retry-After hint instead of queueing without bound.
func TestOverloadSheds429(t *testing.T) {
	srv, hs := newTestServer(t, Config{
		MaxInFlight: 1, MaxQueue: 1, QueueWait: 10 * time.Millisecond, RetryAfter: 2 * time.Second,
	})
	problem := mustProblem(t, exampleSpecJSON)

	// Hold the only in-flight token so every arrival is over capacity.
	srv.adm.tokens <- struct{}{}
	defer func() { <-srv.adm.tokens }()

	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	retryAfters := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, _ := json.Marshal(&CheckRequest{Spec: problem, Phi: "R(zip -> street)"})
			resp, err := http.Post(hs.URL+"/v1/check", "application/json", bytes.NewReader(data))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfters[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusTooManyRequests {
			t.Errorf("request %d: status %d, want 429", i, code)
		}
		if retryAfters[i] != "2" {
			t.Errorf("request %d: Retry-After %q, want \"2\"", i, retryAfters[i])
		}
	}
	if st := srv.adm.stats(); st.Shed < n {
		t.Errorf("shed count %d, want >= %d", st.Shed, n)
	}
}

// TestGracefulDrain proves the SIGTERM semantics end to end: with a slow
// request in flight, BeginDrain flips readiness and refuses new work with
// 503 + Retry-After, the in-flight request still completes (here: with its
// deadline stop), and no goroutines leak once the server closes.
func TestGracefulDrain(t *testing.T) {
	baseline := runtime.NumGoroutine()

	srv, hs := newTestServer(t, Config{RetryAfter: time.Second})
	slow := mustProblem(t, slowSpecJSON)

	type result struct {
		code int
		body []byte
	}
	inflight := make(chan result, 1)
	go func() {
		// The cap is raised past the 4^16 space so the enumeration cannot
		// truncate-and-finish before the deadline fires.
		data, _ := json.Marshal(&CheckRequest{Spec: slow, Phi: "V(A1 -> A8)", DeadlineMillis: 800, MaxInstantiations: 1 << 33})
		resp, err := http.Post(hs.URL+"/v1/check", "application/json", bytes.NewReader(data))
		if err != nil {
			inflight <- result{code: -1}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		inflight <- result{code: resp.StatusCode, body: buf.Bytes()}
	}()

	// Wait until the slow request is admitted before draining.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if srv.adm.stats().InFlight >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow request never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	srv.BeginDrain()
	if !srv.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}

	// Readiness is down and new work is refused with the drain contract.
	if code, _ := get(t, hs.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: status %d, want 503", code)
	}
	code, hdr, body := post(t, hs.URL+"/v1/check", nil, &CheckRequest{
		Spec: mustProblem(t, exampleSpecJSON), Phi: "R(zip -> street)",
	})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("new work during drain: status %d: %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("drain refusal missing Retry-After")
	}
	// Liveness stays up throughout.
	if code, _ := get(t, hs.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz during drain: status %d", code)
	}

	// The in-flight request completes normally — stopped by its own
	// deadline, not killed by the drain.
	select {
	case r := <-inflight:
		if r.code != http.StatusOK {
			t.Fatalf("in-flight request: status %d: %s", r.code, r.body)
		}
		var cr CheckResponse
		if err := json.Unmarshal(r.body, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.Results[0].Stopped != propagation.StopDeadline {
			t.Fatalf("in-flight stopped = %q, want deadline: %+v", cr.Results[0].Stopped, cr.Results[0])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request did not complete during drain")
	}

	hs.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutine leak after drain: %d before, %d after", baseline, n)
	}
}

// TestPanicIsolation: a panicking request answers 500 with a JSON error
// and the server keeps serving; the panic counter records it.
func TestPanicIsolation(t *testing.T) {
	srv, hs := newTestServer(t, Config{})

	boom := httptest.NewServer(srv.recoverWrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})))
	defer boom.Close()
	code, body := get(t, boom.URL+"/")
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || !strings.Contains(er.Error, "kaboom") {
		t.Fatalf("panicking handler body: %s (err %v)", body, err)
	}
	if srv.panics.Load() == 0 {
		t.Fatal("panic not counted")
	}

	// The real server still answers after the panic.
	code, _, body = post(t, hs.URL+"/v1/check", nil, &CheckRequest{
		Spec: mustProblem(t, exampleSpecJSON), Phi: "R(zip -> street)",
	})
	if code != http.StatusOK {
		t.Fatalf("post-panic check: status %d: %s", code, body)
	}
}

// TestBudgetMapping pins the request→Options mapping: a body deadline
// surfaces as "stopped": "deadline", a chase-step header as "stopped":
// "chase step budget", and a malformed budget header is a 400.
func TestBudgetMapping(t *testing.T) {
	_, hs := newTestServer(t, Config{})

	code, _, body := post(t, hs.URL+"/v1/check", nil, &CheckRequest{
		Spec: mustProblem(t, slowSpecJSON), Phi: "V(A1 -> A8)", DeadlineMillis: 1,
	})
	if code != http.StatusOK {
		t.Fatalf("deadline check: status %d: %s", code, body)
	}
	var cr CheckResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Results[0].Stopped != propagation.StopDeadline {
		t.Fatalf("stopped = %q, want deadline", cr.Results[0].Stopped)
	}
	if !bytes.Contains(body, []byte(`"stopped":"deadline"`)) {
		t.Fatalf("wire form missing symbolic stop: %s", body)
	}

	code, _, body = post(t, hs.URL+"/v1/check",
		map[string]string{HeaderChaseSteps: "1"},
		&CheckRequest{Spec: mustProblem(t, exampleSpecJSON), Phi: "R(zip -> street)"})
	if code != http.StatusOK {
		t.Fatalf("chase-budget check: status %d: %s", code, body)
	}
	var cr2 CheckResponse
	if err := json.Unmarshal(body, &cr2); err != nil {
		t.Fatal(err)
	}
	if cr2.Results[0].Stopped != propagation.StopChaseBudget {
		t.Fatalf("stopped = %q, want chase step budget", cr2.Results[0].Stopped)
	}

	code, _, body = post(t, hs.URL+"/v1/check",
		map[string]string{HeaderDeadlineMillis: "soon"},
		&CheckRequest{Spec: mustProblem(t, exampleSpecJSON), Phi: "R(zip -> street)"})
	if code != http.StatusBadRequest {
		t.Fatalf("malformed budget header: status %d: %s", code, body)
	}
}

// TestDecodeStrictness: the strict decoder rejects unknown fields,
// trailing garbage, and requests violating the spec/universe invariants.
func TestDecodeStrictness(t *testing.T) {
	bad := []string{
		`{"universe": "abc", "phi": "R(a -> b)", "budgett_ms": 5}`, // typo'd field
		`{"universe": "abc", "phi": "R(a -> b)"} trailing`,         // trailing data
		`{"phi": "R(a -> b)"}`,                                     // neither spec nor universe
		`{"universe": "abc"}`,                                      // no phi
		`{"universe": "abc", "phi": "R(a -> b)", "deadline_ms": -1}`,
	}
	for _, src := range bad {
		if _, err := DecodeCheckRequest([]byte(src)); err == nil {
			t.Errorf("decoder accepted %s", src)
		}
	}
	good := `{"universe": "abc", "phis": ["R(a -> b)"], "max_chase_steps": 10}`
	if _, err := DecodeCheckRequest([]byte(good)); err != nil {
		t.Errorf("decoder rejected %s: %v", good, err)
	}
}

// TestClientRetriesShedding: the retry client turns a transient 429 burst
// into a success, honoring Retry-After ordering, and gives up cleanly on
// persistent refusal.
func TestClientRetriesShedding(t *testing.T) {
	var mu sync.Mutex
	refusals := 2
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if refusals > 0 {
			refusals--
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(ErrorResponse{Error: "overloaded"})
			return
		}
		json.NewEncoder(w).Encode(CheckResponse{Universe: "u", Generation: 1,
			Results: []CheckResult{{Phi: "R(a -> b)", Propagated: true}}})
	}))
	defer backend.Close()

	c := &Client{Base: backend.URL, Backoff: time.Millisecond, MaxRetries: 4}
	resp, err := c.Check(t.Context(), &CheckRequest{Universe: "u", Phi: "R(a -> b)"})
	if err != nil {
		t.Fatalf("client did not ride out the shed burst: %v", err)
	}
	if !resp.Results[0].Propagated {
		t.Fatalf("unexpected response: %+v", resp)
	}

	mu.Lock()
	refusals = 1 << 30
	mu.Unlock()
	if _, err := c.Check(t.Context(), &CheckRequest{Universe: "u", Phi: "R(a -> b)"}); err == nil {
		t.Fatal("client retried a persistent 429 forever")
	}

	// Non-retryable statuses return immediately with the typed error.
	notFound := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(ErrorResponse{Error: "unknown universe"})
	}))
	defer notFound.Close()
	c2 := &Client{Base: notFound.URL, Backoff: time.Millisecond}
	_, err = c2.Check(t.Context(), &CheckRequest{Universe: "u", Phi: "R(a -> b)"})
	var serr *StatusError
	if !errorsAs(err, &serr) || serr.Code != http.StatusNotFound || serr.Retryable() {
		t.Fatalf("want non-retryable 404 StatusError, got %v", err)
	}
}

// TestAdmissionUnit drives the admission state machine directly.
func TestAdmissionUnit(t *testing.T) {
	a := newAdmission(2, 1, 20*time.Millisecond)
	rel1, st := a.admit(t.Context())
	if st != admitOK {
		t.Fatalf("first admit: %v", st)
	}
	rel2, st := a.admit(t.Context())
	if st != admitOK {
		t.Fatalf("second admit: %v", st)
	}
	if _, st = a.admit(t.Context()); st != admitShed {
		t.Fatalf("over-capacity admit: %v, want shed", st)
	}
	rel1()
	rel3, st := a.admit(t.Context())
	if st != admitOK {
		t.Fatalf("admit after release: %v", st)
	}
	a.beginDrain()
	if _, st = a.admit(t.Context()); st != admitDraining {
		t.Fatalf("admit during drain: %v, want draining", st)
	}
	rel2()
	rel3()
	st2 := a.stats()
	if st2.InFlight != 0 || !st2.Draining || st2.Admitted != 3 || st2.Shed != 1 {
		t.Fatalf("final stats: %+v", st2)
	}
}

// TestCheckMemoAcrossRequests: a universe's verdict memo carries across
// /v1/check requests — a repeat of an identical request replays from the
// memo with no misses — a Σ edit drops the verdicts it can affect, and
// /statusz aggregates the counters over the live entries.
func TestCheckMemoAcrossRequests(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	problem := mustProblem(t, exampleSpecJSON)
	req := &CheckRequest{Spec: problem, Phi: "R([CC=44, zip] -> [street])", Parallelism: 1}

	var resp CheckResponse
	checkOnce := func() CheckResult {
		t.Helper()
		code, _, body := post(t, hs.URL+"/v1/check", nil, req)
		if code != http.StatusOK {
			t.Fatalf("check: status %d: %s", code, body)
		}
		resp = CheckResponse{}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != 1 {
			t.Fatalf("%d results", len(resp.Results))
		}
		return resp.Results[0]
	}

	cold := checkOnce()
	if cold.MemoMisses == 0 {
		t.Fatal("cold check must record memo misses")
	}
	if cold.MemoHits != 0 {
		t.Errorf("cold check: %d hits, want 0", cold.MemoHits)
	}
	warm := checkOnce()
	if warm.MemoMisses != 0 || warm.MemoHits != cold.MemoMisses {
		t.Errorf("warm check: hits=%d misses=%d, want hits=%d misses=0",
			warm.MemoHits, warm.MemoMisses, cold.MemoMisses)
	}
	if warm.Propagated != cold.Propagated || warm.PairsChecked != cold.PairsChecked {
		t.Errorf("memo replay changed the result: cold %+v, warm %+v", cold, warm)
	}

	code, body := get(t, hs.URL+"/statusz")
	if code != http.StatusOK {
		t.Fatalf("statusz: status %d: %s", code, body)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Memo.Pairs == 0 || st.Cache.Memo.Hits == 0 || st.Cache.Memo.Misses == 0 {
		t.Errorf("statusz memo stats not aggregated: %+v", st.Cache.Memo)
	}

	// A Σ edit re-keys the universe and migrates its memo, dropping every
	// pair verdict the edit can affect. This PUT touches R1, the view's
	// only relation, so no pair verdict carries and the next check on the
	// new fingerprint chases every pair again.
	code, _, body = post(t, hs.URL+"/v1/universe", nil, &UniverseRequest{Spec: problem})
	if code != http.StatusOK {
		t.Fatalf("register: status %d: %s", code, body)
	}
	var u UniverseResponse
	if err := json.Unmarshal(body, &u); err != nil {
		t.Fatal(err)
	}
	putReq, err := http.NewRequest(http.MethodPut, hs.URL+"/v1/universe/"+u.Universe+"/sigma", bytes.NewReader(mustJSON(t, &SigmaRequest{CFDs: []string{"R1(zip -> street)", "R1(AC -> city)"}})))
	if err != nil {
		t.Fatal(err)
	}
	putResp, err := http.DefaultClient.Do(putReq)
	if err != nil {
		t.Fatal(err)
	}
	defer putResp.Body.Close()
	var edited UniverseResponse
	if err := json.NewDecoder(putResp.Body).Decode(&edited); err != nil {
		t.Fatal(err)
	}
	if putResp.StatusCode != http.StatusOK {
		t.Fatalf("sigma edit: status %d", putResp.StatusCode)
	}
	req2 := &CheckRequest{Universe: edited.Universe, Phi: req.Phi, Parallelism: 1}
	code, _, body = post(t, hs.URL+"/v1/check", nil, req2)
	if code != http.StatusOK {
		t.Fatalf("check after edit: status %d: %s", code, body)
	}
	var after CheckResponse
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if after.Results[0].MemoHits != 0 || after.Results[0].MemoMisses == 0 {
		t.Errorf("post-edit check must replay no pair verdict: hits=%d misses=%d",
			after.Results[0].MemoHits, after.Results[0].MemoMisses)
	}
}

// chainSpecJSON projects away the middle of an FD chain, so RBR's
// resolvents outgrow a small max_cover_size and the heuristic truncates.
const chainSpecJSON = `{
  "relations": [{"name": "R1", "attrs": ["A", "B", "C", "D", "E"]}],
  "cfds": ["R1(A -> B)", "R1(B -> C)", "R1(C -> D)", "R1(D -> E)", "R1([E, B] -> [A])"],
  "view": {"name": "V", "atoms": [{"source": "R1", "attrs": ["A", "B", "C", "D", "E"]}], "projection": ["A", "C", "E"]}
}`

// TestCoverHeuristicIsOneOff: a max_cover_size cover runs on a one-off
// cover session, for a single-SPC view and a union alike. It answers what
// the library answers under the same bound, and the exact cover served
// after it is the library's exact cover, not a cached heuristic one.
func TestCoverHeuristicIsOneOff(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	client := &Client{Base: hs.URL}
	ctx := context.Background()
	for _, tc := range []struct {
		src   string
		bound int
	}{{chainSpecJSON, 3}, {unionSpecJSON, 1}} {
		problem := mustProblem(t, tc.src)
		db, sigma, view, err := spec.Compile(problem)
		if err != nil {
			t.Fatal(err)
		}
		for _, maxSize := range []int{tc.bound, 0} {
			got, err := client.Cover(ctx, &CoverRequest{Spec: problem, MaxCoverSize: maxSize, Parallelism: 1})
			if err != nil {
				t.Fatalf("cover max %d: %v", maxSize, err)
			}
			opts := core.Options{MaxCoverSize: maxSize, Parallelism: 1}
			var want []*cfd.CFD
			truncated := false
			if len(view.Disjuncts) == 1 {
				res, err := core.PropCFDSPC(db, view.Disjuncts[0], sigma, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, truncated = res.Cover, res.Truncated
				if maxSize > 0 && !truncated {
					t.Fatalf("workload: max_cover_size %d did not truncate the cover", maxSize)
				}
			} else {
				res, err := core.PropCFDSPCU(db, view, sigma, opts)
				if err != nil {
					t.Fatal(err)
				}
				want = res.Cover
			}
			if fmt.Sprint(got.Cover) != fmt.Sprint(cfdStrings(want)) || got.Truncated != truncated || got.Cached {
				t.Fatalf("%s max %d: daemon cover %v (truncated %v, cached %v), library %v (truncated %v)",
					view.Name, maxSize, got.Cover, got.Truncated, got.Cached, cfdStrings(want), truncated)
			}
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
