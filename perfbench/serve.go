package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cfdprop/internal/algebra"
	"cfdprop/internal/bench"
	"cfdprop/internal/cfd"
	"cfdprop/internal/core"
	"cfdprop/internal/daemon"
	"cfdprop/internal/implication"
	"cfdprop/internal/propagation"
	"cfdprop/internal/rel"
	"cfdprop/internal/spec"
)

// The serve phase: daemon.New(daemon.Config{}) behind a loopback httptest
// server, driven by one closed-loop daemon.Client. It runs a seeded stream
// of requests: 60% check (batches of four φ against the client's own union
// universe or the finite-domain one), 15% implies, 15% cover (inline specs
// from a population larger than the universe cache) and 10% edit (a
// one-CFD PATCH swap on the client's own union universe, then /v1/cover).
//
// One client on one P (GOMAXPROCS 1 while the phase is set up and runs,
// so the daemon's defaults resolve to one worker): on a few shared cores,
// two clients beside the daemon's workers, and the cross-CPU wake-ups of
// even one client, measured the host's scheduler more than the daemon.
// The universes, hot sets and cover population come from servePoolSeed;
// the run seed draws the request stream, so every run serves the same
// universes and differs only in the order and the fresh φ.

const (
	serveClients   = 1
	servePoolSeed  = 1  // fixes the universes, hot sets and cover population
	unionDisjuncts = 12 // the Example 1.1 shape at scale
	unionAttrs     = 6
	coverPopSize   = 48 // > the daemon's 32-entry universe cache
	coverPopHot    = 16 // two in three cover requests go to these
	hotPhis        = 32
	checkBatch     = 4
	probeSeconds   = 12 * time.Second // a companion serve phase's timed loop
	finiteSeed     = 1                // fixes the finite-domain universe's Σ
)

type opKind int

const (
	opCheck opKind = iota
	opImplies
	opCover
	opEdit
)

// universe is one registered (Σ, V) the clients query by fingerprint.
type universe struct {
	name  string
	db    *rel.DBSchema
	view  *algebra.SPCU
	sigma []*cfd.CFD // Σ as the daemon holds it: normalized, in edit order
	fp    string
	hot   []string
	fresh func(rng *rand.Rand) string
	// swap holds the two forms of one CFD an edit swaps (union universes
	// only): Σ holds one, and each PATCH replaces it with the other, so
	// every edit is the same size of change.
	swap [2]string
}

// event is one completed client operation, kept for verification and the
// traced replay.
type event struct {
	req     int64
	kind    opKind
	u       *universe
	state   int // index into the client's Σ states (union universe ops)
	phis    []string
	lat     time.Duration
	patch   time.Duration
	check   *daemon.CheckResponse
	implied bool
	cover   []string // /v1/cover answer (cover and edit ops)
	carried propagation.CarryStats
}

// serveClient is one closed-loop caller. It owns its union universe, so no
// other request races its PATCHes.
type serveClient struct {
	rng    *rand.Rand
	union  *universe
	states [][]*cfd.CFD // distinct Σ states of the union universe, in edit order
	cur    int
	log    []event

	covers            int   // cover requests sent
	hotWalk, coldWalk []int // what is left of the current pass over each
}

// nextCover picks the next inline cover spec. Two of every three cover
// requests go to the coverPopHot hot specs, which stay cached; the third
// goes to the other specs, walked in a seeded order per pass. That walk
// outruns the room the cache has left, so a cold pick is nearly always a
// cold compile, and the cached share is the same in every run.
func (c *serveClient) nextCover() int {
	c.covers++
	if c.covers%4 != 0 {
		if len(c.hotWalk) == 0 {
			c.hotWalk = c.rng.Perm(coverPopHot)
		}
		k := c.hotWalk[0]
		c.hotWalk = c.hotWalk[1:]
		return k
	}
	if len(c.coldWalk) == 0 {
		c.coldWalk = c.rng.Perm(coverPopSize - coverPopHot)
	}
	k := coverPopHot + c.coldWalk[0]
	c.coldWalk = c.coldWalk[1:]
	return k
}

type servePhase struct {
	seed int64
	wall time.Duration // the timed slices' length so far

	srv      *daemon.Server
	hs       *httptest.Server
	httpc    *http.Client
	finite   *universe
	implies  *universe
	coverPop []*spec.Problem
	clients  []*serveClient
	reqSeq   atomic.Int64
}

func (p *servePhase) name() string { return "serve" }

// problemOf round-trips library objects into the wire spec.
func problemOf(db *rel.DBSchema, sigma []*cfd.CFD, view *algebra.SPCU) (*spec.Problem, error) {
	data, err := spec.Encode(db, sigma, view)
	if err != nil {
		return nil, err
	}
	var pr spec.Problem
	if err := json.Unmarshal(data, &pr); err != nil {
		return nil, err
	}
	return &pr, nil
}

// unionUniverse is the Example 1.1 shape at scale: relations R1..Rk, each
// embedded by its own disjunct tagged CC=base+i, with a determining chain
// A1 -> ... -> An plus filler FDs. An edit swaps R1's last chain link.
func unionUniverse(rng *rand.Rand, base int) (*universe, error) {
	attrs := make([]string, unionAttrs)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("A%d", i+1)
	}
	schemas := make([]*rel.Schema, unionDisjuncts)
	for r := range schemas {
		schemas[r] = rel.InfiniteSchema(fmt.Sprintf("R%d", r+1), attrs...)
	}
	db := rel.MustDBSchema(schemas...)
	var sigma []*cfd.CFD
	ds := make([]*algebra.SPC, unionDisjuncts)
	for r := 1; r <= unionDisjuncts; r++ {
		name := fmt.Sprintf("R%d", r)
		for i := 0; i+1 < unionAttrs; i++ {
			sigma = append(sigma, cfd.MustParse(fmt.Sprintf("%s(%s -> %s)", name, attrs[i], attrs[i+1])))
		}
		sigma = append(sigma,
			cfd.MustParse(fmt.Sprintf("%s([%s, %s] -> [%s])", name, attrs[0], attrs[unionAttrs-1], attrs[1])),
			cfd.MustParse(fmt.Sprintf("%s([%s, %s] -> [%s])", name, attrs[1], attrs[2], attrs[unionAttrs-1])))
		ds[r-1] = &algebra.SPC{
			Name:       "V",
			Consts:     []algebra.ConstAtom{{Attr: "CC", Value: strconv.Itoa(base + r)}},
			Atoms:      []algebra.RelAtom{{Source: name, Attrs: attrs}},
			Projection: append([]string{"CC"}, attrs...),
		}
	}
	view, err := algebra.NewSPCU("V", ds...)
	if err != nil {
		return nil, err
	}
	// An edit swaps R1's last chain link for the weaker two-attribute form.
	link := cfd.NormalizeAll(sigma[unionAttrs-2 : unionAttrs-1])[0]
	weaker := cfd.NormalizeAll([]*cfd.CFD{cfd.MustParse(fmt.Sprintf("R1([%s, %s] -> [%s])",
		attrs[unionAttrs-3], attrs[unionAttrs-2], attrs[unionAttrs-1]))})[0]
	u := &universe{name: fmt.Sprintf("union/CC=%d+", base), db: db, view: view,
		sigma: cfd.NormalizeAll(sigma), swap: [2]string{link.String(), weaker.String()}}
	phi := func(rng *rand.Rand, fresh bool) string {
		a := 1 + rng.Intn(unionAttrs-1)
		b := a + 1 + rng.Intn(unionAttrs-a)
		cc := base + 1 + rng.Intn(unionDisjuncts)
		switch {
		case fresh:
			return fmt.Sprintf("V([CC=%d, A%d=%d] -> [A%d])", cc, a, rng.Intn(1e9), b)
		case rng.Intn(4) == 0:
			return fmt.Sprintf("V([A%d] -> [A%d])", a, b) // refuted across disjuncts
		default:
			return fmt.Sprintf("V([CC=%d, A%d] -> [A%d])", cc, a, b)
		}
	}
	u.hot = hotSet(rng, func(r *rand.Rand) string { return phi(r, false) })
	u.fresh = func(r *rand.Rand) string { return phi(r, true) }
	return u, nil
}

// finiteUniverse is the general-setting universe of bench.GeneralInstWorkload:
// eight infinite and three 4-valued attributes, so a pair check enumerates
// up to 4^6 assignments. Its Σ is fixed; the φ are drawn from rng.
func finiteUniverse(rng *rand.Rand) *universe {
	db, view, sigma, _ := bench.GeneralInstWorkload(finiteSeed, 3, 4)
	u := &universe{name: "finite/4^6", db: db, view: view, sigma: cfd.NormalizeAll(sigma)}
	phi := func(rng *rand.Rand, fresh bool) string {
		a := 1 + rng.Intn(7)
		b := a + 1 + rng.Intn(8-a)
		f := 1 + rng.Intn(3)
		switch {
		case fresh:
			return fmt.Sprintf("V([A%d=%d, F%d] -> [A%d])", a, rng.Intn(1e9), f, b)
		case rng.Intn(2) == 0:
			return fmt.Sprintf("V([F%d, A%d] -> [A%d])", f, a, b)
		default:
			return fmt.Sprintf("V([A%d, F%d=%d] -> [F%d])", a, f, rng.Intn(4), 1+rng.Intn(3))
		}
	}
	u.hot = hotSet(rng, func(r *rand.Rand) string { return phi(r, false) })
	u.fresh = func(r *rand.Rand) string { return phi(r, true) }
	return u
}

// hotSet draws hotPhis distinct φ.
func hotSet(rng *rand.Rand, draw func(*rand.Rand) string) []string {
	seen := make(map[string]bool)
	var out []string
	for len(out) < hotPhis {
		if s := draw(rng); !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// coverPopulation is coverPopSize draws of one small §5 cell: |Σ| 200,
// |Y| 15, |F| 5, |Ec| 2, var% 40. One cell keeps the cached and the
// cold-compiled answers each in one band; a mix of sizes made the cover
// latencies multimodal, with cover_p50 on the edge between two modes.
func coverPopulation(seed int64) ([]*spec.Problem, error) {
	out := make([]*spec.Problem, coverPopSize)
	for i := range out {
		c := gridCell{"serve", 200, 15, 5, 2, 40}
		s := makeSpec(seed, c, i)
		pr, err := problemOf(s.db, s.sigma, algebra.Single(s.view))
		if err != nil {
			return nil, err
		}
		out[i] = pr
	}
	return out, nil
}

func (p *servePhase) setup() error {
	p.close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p.wall = 0
	rng := rand.New(rand.NewSource(servePoolSeed ^ 0x5e7e))
	p.srv = daemon.New(daemon.Config{})
	p.hs = httptest.NewServer(p.srv.Handler())
	p.httpc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	ctx := context.Background()
	cl := p.client()

	var err error
	if p.coverPop, err = coverPopulation(servePoolSeed); err != nil {
		return err
	}
	p.finite = finiteUniverse(rng)
	is := makeSpec(servePoolSeed, gridCell{"implies", 400, 10, 3, 3, 40}, 0)
	p.implies = &universe{name: "implies/" + is.cell, db: is.db, view: algebra.Single(is.view), sigma: is.sigma}
	p.clients = make([]*serveClient, serveClients)
	unis := []*universe{p.finite, p.implies}
	for i := range p.clients {
		u, err := unionUniverse(rng, 100*(i+1))
		if err != nil {
			return err
		}
		p.clients[i] = &serveClient{rng: rand.New(rand.NewSource(p.seed*7919 + int64(i))), union: u,
			states: [][]*cfd.CFD{u.sigma}}
		unis = append(unis, u)
	}
	// Registration and warm-up: every universe is compiled, covered and
	// has its hot φ checked once, so the timed loop starts warm.
	for _, u := range unis {
		prob, err := problemOf(u.db, u.sigma, u.view)
		if err != nil {
			return err
		}
		reg, err := cl.Register(ctx, &daemon.UniverseRequest{Spec: prob})
		if err != nil {
			return fmt.Errorf("serve: register %s: %w", u.name, err)
		}
		u.fp = reg.Universe
		if u != p.finite {
			cov, err := cl.Cover(ctx, &daemon.CoverRequest{Universe: u.fp})
			if err != nil {
				return fmt.Errorf("serve: warm-up cover %s: %w", u.name, err)
			}
			if u == p.implies {
				u.hot = impliesCandidates(rng, cov.Cover, is)
			}
		}
		if u != p.implies {
			if _, err := cl.Check(ctx, &daemon.CheckRequest{Universe: u.fp, Phis: u.hot}); err != nil {
				return fmt.Errorf("serve: warm-up check %s: %w", u.name, err)
			}
		}
	}
	for k := 0; k < coverPopHot; k++ {
		if _, err := cl.Cover(ctx, &daemon.CoverRequest{Spec: p.coverPop[k]}); err != nil {
			return fmt.Errorf("serve: warm-up cover %d: %w", k, err)
		}
	}
	return nil
}

// impliesCandidates mixes the served cover's members (implied) with random
// view CFDs (mostly not implied).
func impliesCandidates(rng *rand.Rand, cover []string, s coverSpec) []string {
	out := append([]string(nil), cover[:min(len(cover), hotPhis/2)]...)
	ys := s.view.Projection
	for len(out) < hotPhis {
		a, b := ys[rng.Intn(len(ys))], ys[rng.Intn(len(ys))]
		c := ys[rng.Intn(len(ys))]
		if a == b || c == b || a == c {
			continue
		}
		out = append(out, fmt.Sprintf("V([%s, %s] -> [%s])", a, c, b))
	}
	return out
}

func (p *servePhase) client() *daemon.Client {
	return &daemon.Client{Base: p.hs.URL, HTTPClient: p.httpc}
}

func (p *servePhase) close() {
	if p.hs != nil {
		p.hs.Close()
		p.httpc.CloseIdleConnections()
		p.hs, p.srv = nil, nil
	}
}

// failure turns a wire answer that is not a complete one into an error.
func checkFailure(resp *daemon.CheckResponse) error {
	for _, r := range resp.Results {
		if r.Stopped != propagation.StopNone || r.Truncated {
			return fmt.Errorf("check %s: incomplete (stopped=%q truncated=%t)", r.Phi, r.Stopped, r.Truncated)
		}
	}
	return nil
}

// step runs one seeded client operation and logs it.
func (p *servePhase) step(m *meter, c *serveClient, cl *daemon.Client, tr *tracer) {
	ctx := context.Background()
	req := p.reqSeq.Add(1)
	ev := event{req: req, state: c.cur}
	var err error
	x := c.rng.Intn(100)
	switch {
	case x < 60:
		ev.kind = opCheck
		// Two in three checks go to the union universe, so check_p50 falls
		// inside its band of memo replays and not on the edge between it
		// and the finite universe's slower band.
		ev.u = c.union
		if c.rng.Intn(3) == 0 {
			ev.u = p.finite
		}
		// Fresh φ go only to the finite universe, which is never edited:
		// the union universe's memo, which every PATCH migrates, then stays
		// one size through the run, so edit latency does not grow with it.
		for i := 0; i < checkBatch; i++ {
			if ev.u == c.union || c.rng.Intn(2) == 0 {
				ev.phis = append(ev.phis, ev.u.hot[c.rng.Intn(len(ev.u.hot))])
			} else {
				ev.phis = append(ev.phis, ev.u.fresh(c.rng))
			}
		}
		sp := tr.begin("daemon.Client.Check", ev.u.name, 0, req)
		t := time.Now()
		ev.check, err = cl.Check(ctx, &daemon.CheckRequest{Universe: ev.u.fp, Phis: ev.phis})
		ev.lat = time.Since(t)
		sp.end()
		if err == nil {
			err = checkFailure(ev.check)
		}
	case x < 75:
		ev.kind = opImplies
		ev.u = p.implies
		ev.phis = []string{p.implies.hot[c.rng.Intn(len(p.implies.hot))]}
		sp := tr.begin("daemon.Client.Implies", "", 0, req)
		t := time.Now()
		var resp *daemon.ImpliesResponse
		resp, err = cl.Implies(ctx, &daemon.ImpliesRequest{Universe: p.implies.fp, Phi: ev.phis[0]})
		ev.lat = time.Since(t)
		sp.end()
		if err == nil {
			ev.implied = resp.Implied
		}
	case x < 90:
		ev.kind = opCover
		k := c.nextCover()
		sp := tr.begin("daemon.Client.Cover", "inline spec "+strconv.Itoa(k), 0, req)
		t := time.Now()
		var resp *daemon.CoverResponse
		resp, err = cl.Cover(ctx, &daemon.CoverRequest{Spec: p.coverPop[k]})
		ev.lat = time.Since(t)
		sp.end()
		if err == nil {
			ev.cover = resp.Cover
			if resp.Truncated {
				err = fmt.Errorf("cover: truncated")
			}
		}
	default:
		ev.kind = opEdit
		ev.u = c.union
		from, to := c.union.swap[0], c.union.swap[1]
		if !c.holds(from) {
			from, to = to, from
		}
		patch := &daemon.SigmaPatchRequest{Remove: []string{from}, Add: []string{to}}
		root := tr.begin("perfbench.edit", c.union.name, 0, req)
		t := time.Now()
		sp := tr.begin("daemon.Client.PatchSigma", "", root.id(), req)
		var pr *daemon.SigmaPatchResponse
		pr, err = cl.PatchSigma(ctx, c.union.fp, patch)
		ev.patch = sp.end()
		if err == nil {
			c.union.fp = pr.Universe
			ev.carried = pr.Carried
			c.applyPatch(patch)
			ev.state = c.cur
			sp = tr.begin("daemon.Client.Cover", "post-PATCH", root.id(), req)
			var resp *daemon.CoverResponse
			resp, err = cl.Cover(ctx, &daemon.CoverRequest{Universe: c.union.fp})
			sp.end()
			if err == nil {
				ev.cover = resp.Cover
			}
		}
		ev.lat = time.Since(t)
		root.end()
	}
	m.op(err)
	if ev.kind == opEdit {
		m.op(err) // an edit is two requests
	}
	if err == nil {
		c.log = append(c.log, ev)
	}
}

// holds reports whether the client's current Σ holds the CFD s.
func (c *serveClient) holds(s string) bool {
	for _, x := range c.states[c.cur] {
		if x.String() == s {
			return true
		}
	}
	return false
}

// applyPatch mirrors the daemon's PATCH on the client's Σ: removals match
// by normalized form, additions are normalized and appended.
func (c *serveClient) applyPatch(pr *daemon.SigmaPatchRequest) {
	var next []*cfd.CFD
	for _, x := range c.states[c.cur] {
		if len(pr.Remove) == 0 || x.String() != pr.Remove[0] {
			next = append(next, x)
		}
	}
	for _, a := range pr.Add {
		next = append(next, cfd.NormalizeAll([]*cfd.CFD{cfd.MustParse(a)})...)
	}
	key := sigmaKey(next)
	for i, s := range c.states {
		if sigmaKey(s) == key {
			c.cur = i
			return
		}
	}
	c.states = append(c.states, next)
	c.cur = len(c.states) - 1
}

func sigmaKey(s []*cfd.CFD) string {
	var b strings.Builder
	for _, c := range s {
		b.WriteString(c.String())
		b.WriteByte(';')
	}
	return b.String()
}

// loop drives every client, on one P, until d has passed and, when need is
// set, the percentiles have their samples, counting those of earlier loops
// since set-up.
func (p *servePhase) loop(m *meter, d time.Duration, need bool, tr *tracer) (time.Duration, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var checks, covers, edits atomic.Int64
	for _, ev := range p.events() {
		switch ev.kind {
		case opCheck:
			checks.Add(1)
		case opCover:
			covers.Add(1)
		case opEdit:
			edits.Add(1)
		}
	}
	enough := func() bool {
		return !need || (checks.Load() >= int64(minSamples(0.99)) &&
			covers.Load() >= int64(minSamples(0.90)) && edits.Load() >= int64(minSamples(0.90)))
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range p.clients {
		wg.Add(1)
		go func(c *serveClient) {
			defer wg.Done()
			cl := p.client()
			for (time.Since(start) < d || !enough()) && time.Since(start) < hardCap {
				n := len(c.log)
				p.step(m, c, cl, tr)
				if len(c.log) > n {
					switch c.log[n].kind {
					case opCheck:
						checks.Add(1)
					case opCover:
						covers.Add(1)
					case opEdit:
						edits.Add(1)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if !enough() {
		return 0, fmt.Errorf("serve: too few samples for the percentiles within %s", hardCap)
	}
	return time.Since(start), nil
}

// events merges the client logs in request order.
func (p *servePhase) events() []event {
	var all []event
	for _, c := range p.clients {
		all = append(all, c.log...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].req < all[j].req })
	return all
}

func (p *servePhase) statusz() (*daemon.Stats, error) {
	resp, err := p.httpc.Get(p.hs.URL + "/statusz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st daemon.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("serve: /statusz: %w", err)
	}
	return &st, nil
}

func (p *servePhase) probe() time.Duration { return probeSeconds }

func (p *servePhase) slice(m *meter, main bool, d time.Duration) error {
	wall, err := p.loop(m, d, false, nil)
	p.wall += wall
	return err
}

func (p *servePhase) traced(m *meter, main bool) error {
	// The library replay runs on one P too, as the daemon did.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	d := m.seconds
	if !main {
		d = probeSeconds
	}
	return p.runTraced(m, main, d)
}

// finish tops the slices up until every percentile has its samples, then
// reports the metrics and verifies the answers.
func (p *servePhase) finish(m *meter, main bool) error {
	wall, err := p.loop(m, 0, true, nil)
	p.wall += wall
	if err != nil {
		return err
	}
	wall = p.wall
	evs := p.events()
	var check, cover, edit samples
	requests := 0
	for _, ev := range evs {
		requests++
		switch ev.kind {
		case opCheck:
			check = append(check, ev.lat)
		case opCover:
			cover = append(cover, ev.lat)
		case opEdit:
			edit = append(edit, ev.lat)
			requests++
		}
	}
	m.e2e.put("requests_per_s", "1/s", float64(requests)/wall.Seconds())
	m.e2e.put("covers_per_s", "1/s", float64(len(cover))/wall.Seconds())
	m.e2e.put("cover_p50_ms", "ms", ms(cover.quantile(0.50)))
	m.e2e.put("cover_p90_ms", "ms", ms(cover.quantile(0.90)))
	m.e2e.put("check_p50_ms", "ms", ms(check.quantile(0.50)))
	m.e2e.put("check_p99_ms", "ms", ms(check.quantile(0.99)))
	m.e2e.put("edit_p50_ms", "ms", ms(edit.quantile(0.50)))
	m.e2e.put("edit_p90_ms", "ms", ms(edit.quantile(0.90)))
	role := map[bool]string{true: "main", false: "companion"}[main]
	m.note("serve(%s, request seed %d, pool seed %d, finite Σ seed %d): %d requests by %d closed-loop clients in %.1fs: %d checks, %d covers, %d edits",
		role, p.seed, servePoolSeed, finiteSeed, requests, len(p.clients), wall.Seconds(), len(check), len(cover), len(edit))
	m.note("serve(%s) check ms: %s", role, check.profile())
	m.note("serve(%s) cover ms: %s", role, cover.profile())
	m.note("serve(%s) edit ms: %s", role, edit.profile())
	st, err := p.verify(evs)
	if err != nil {
		return err
	}
	w := countWire(evs)
	m.note("serve(%s): cache hit ratio %.3f, %d evictions, memo hit ratio %.3f, %s",
		role, st.Cache.HitRate, st.Cache.Evictions, ratio(float64(w.hits), float64(w.hits+w.misses)), gcNote())
	if main {
		return serveGuards(evs, st)
	}
	return nil
}

// wireCounters totals the check answers' counters.
type wireCounters struct {
	results, pairs, insts, hits, misses int
	edits                               int
	carried, dropped                    int64
}

func countWire(evs []event) wireCounters {
	var w wireCounters
	for _, ev := range evs {
		if ev.check != nil {
			for _, r := range ev.check.Results {
				w.results++
				w.pairs += r.PairsChecked
				w.insts += r.Instantiations
				w.hits += r.MemoHits
				w.misses += r.MemoMisses
			}
		}
		if ev.kind == opEdit {
			w.edits++
		}
		w.carried += ev.carried.PairsCarried
		w.dropped += ev.carried.PairsDropped
	}
	return w
}

// serveGuards fails a run whose traffic degenerated: the memo must both
// hit and miss, the cache must evict, and PATCHes must carry verdicts.
func serveGuards(evs []event, st *daemon.Stats) error {
	w := countWire(evs)
	hr := ratio(float64(w.hits), float64(w.hits+w.misses))
	switch {
	case hr <= 0 || hr >= 1:
		return fmt.Errorf("serve: memo hit ratio %.3f is not strictly between 0 and 1", hr)
	case st.Cache.Evictions == 0:
		return fmt.Errorf("serve: the universe cache never evicted; the cover working set fits")
	case w.carried == 0:
		return fmt.Errorf("serve: no PATCH carried a pair verdict")
	}
	return nil
}

// verify checks a seeded sample of answers against the library, every
// post-PATCH cover against a library cover on the same Σ, every implies
// answer against a library session, and that nothing panicked.
func (p *servePhase) verify(evs []event) (*daemon.Stats, error) {
	st, err := p.statusz()
	if err != nil {
		return nil, err
	}
	if st.Panics != 0 {
		return nil, fmt.Errorf("serve: /statusz reports %d panics", st.Panics)
	}
	owner := make(map[*universe]*serveClient)
	for _, c := range p.clients {
		owner[c.union] = c
	}
	sigmaOf := func(ev event) []*cfd.CFD {
		if c := owner[ev.u]; c != nil {
			return c.states[ev.state]
		}
		return ev.u.sigma
	}
	rng := rand.New(rand.NewSource(p.seed ^ 0x7e51f1))
	libCovers := make(map[string][]string)
	sess, err := p.impliesSession()
	if err != nil {
		return nil, err
	}
	sampled := 0
	for _, ev := range evs {
		switch ev.kind {
		case opCheck:
			if rng.Intn(16) != 0 || sampled >= 40 {
				continue
			}
			sampled++
			sigma := sigmaOf(ev)
			for i, src := range ev.phis {
				phi := cfd.MustParse(src)
				res, err := propagation.Check(ev.u.db, ev.u.view, sigma, phi,
					propagation.Options{General: ev.u.db.HasFiniteAttr(), Parallelism: 1})
				if err != nil {
					return nil, fmt.Errorf("serve: library check %s: %w", src, err)
				}
				want, got := daemon.ResultOf(src, res, ev.u.db), ev.check.Results[i]
				got.MemoHits, got.MemoMisses = 0, 0 // memo traffic is outside the identity contract
				if !reflect.DeepEqual(got, want) {
					return nil, fmt.Errorf("serve: check %s on %s: daemon %+v, library %+v", src, ev.u.name, got, want)
				}
			}
		case opEdit:
			sigma := sigmaOf(ev)
			key := ev.u.name + "\x00" + sigmaKey(sigma)
			want, ok := libCovers[key]
			if !ok {
				res, err := core.PropCFDSPCU(ev.u.db, ev.u.view, sigma, core.Options{})
				if err != nil {
					return nil, fmt.Errorf("serve: library cover: %w", err)
				}
				want = cfdStrings(res.Cover)
				libCovers[key] = want
			}
			if !reflect.DeepEqual(ev.cover, want) {
				return nil, fmt.Errorf("serve: post-PATCH cover on %s differs from the library cover", ev.u.name)
			}
		case opImplies:
			ok, err := sess.Implies(cfd.MustParse(ev.phis[0]))
			if err != nil {
				return nil, err
			}
			if ok != ev.implied {
				return nil, fmt.Errorf("serve: implies %s: daemon %t, library %t", ev.phis[0], ev.implied, ok)
			}
		}
	}
	if sampled == 0 {
		return nil, fmt.Errorf("serve: no check was sampled for verification")
	}
	return st, nil
}

// impliesSession is a library session holding the implies universe's
// cover — what /v1/implies answers against.
func (p *servePhase) impliesSession() (*implication.Session, error) {
	res, err := core.PropCFDSPC(p.implies.db, p.implies.view.Disjuncts[0], p.implies.sigma, core.Options{})
	if err != nil {
		return nil, err
	}
	sess := implication.NewSession(implication.UniverseOf(res.ViewSchema))
	if err := sess.SetSigma(res.Cover); err != nil {
		return nil, err
	}
	return sess, nil
}

func cfdStrings(cs []*cfd.CFD) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.String()
	}
	return out
}

// runTraced runs the loop untraced and then, on a fresh daemon, traced,
// and replays the traced requests through the library to split each
// answer's time by layer.
func (p *servePhase) runTraced(m *meter, main bool, d time.Duration) error {
	half := d / 2
	plainWall, err := p.loop(m, half, false, nil)
	if err != nil {
		return err
	}
	plainReqs := len(p.events())
	if err := p.setup(); err != nil {
		return err
	}
	tracedWall, err := p.loop(m, half, false, m.tr)
	if err != nil {
		return err
	}
	evs := p.events()
	st, err := p.verify(evs)
	if err != nil {
		return err
	}
	if main {
		if err := serveGuards(evs, st); err != nil {
			return err
		}
	}
	plainRate := float64(plainReqs) / plainWall.Seconds()
	tracedRate := float64(len(evs)) / tracedWall.Seconds()
	m.layer.put("trace.overhead_pct", "%", 100*(ratio(plainRate, tracedRate)-1))

	w := countWire(evs)
	m.layer.put("propagation.pairs_checked", "count/check", ratio(float64(w.pairs), float64(w.results)))
	m.layer.put("propagation.instantiations", "count/check", ratio(float64(w.insts), float64(w.results)))
	m.layer.put("propagation.memo_hit_ratio", "ratio", ratio(float64(w.hits), float64(w.hits+w.misses)))
	m.layer.put("core.pairs_carried", "count/edit", ratio(float64(w.carried), float64(w.edits)))
	m.layer.put("core.pairs_dropped", "count/edit", ratio(float64(w.dropped), float64(w.edits)))
	m.layer.put("daemon.cache_hit_ratio", "ratio", st.Cache.HitRate)
	m.layer.put("daemon.memo_empty_hit_ratio", "ratio", st.Cache.MemoEmptyHitRate)
	m.layer.put("daemon.evictions", "count", float64(st.Cache.Evictions))
	m.layer.put("daemon.shed", "count", float64(st.Admission.Shed))
	m.layer.put("daemon.panics", "count", float64(st.Panics))
	if lc, ok := st.Latency["check"]; ok {
		m.layer.put("daemon.server_check_p50_ms", "ms", lc.P50Ms)
		m.layer.put("daemon.server_check_p99_ms", "ms", lc.P99Ms)
	}
	var patch []float64
	for _, ev := range evs {
		if ev.kind == opEdit {
			patch = append(patch, ms(ev.patch))
		}
	}
	m.layer.put("daemon.patch_ms", "ms", median(patch))
	if err := p.replay(m, evs); err != nil {
		return err
	}
	// The cover population's library split stands in for the cover phase's
	// when this run has none.
	var splits []coverSplit
	for k, pr := range p.coverPop {
		db, sigma, view, err := spec.Compile(pr)
		if err != nil {
			return err
		}
		sp, err := splitCover(m.tr, coverSpec{cell: "serve/" + strconv.Itoa(k), db: db, view: view.Disjuncts[0], sigma: sigma}, 0)
		if err != nil {
			return err
		}
		splits = append(splits, sp)
	}
	splitStats(m, splits)
	return nil
}

// replay re-runs the traced requests through the library in request order
// with the daemon's memo discipline: one memo per universe, migrated across
// each PATCH and shared with the union universe's CoverSession.
func (p *servePhase) replay(m *meter, evs []event) error {
	ctx := context.Background()
	type libUniverse struct {
		memo  *propagation.Memo
		cs    *core.CoverSession
		sigma []*cfd.CFD
	}
	libs := map[*universe]*libUniverse{p.finite: {memo: propagation.NewMemo(), sigma: p.finite.sigma}}
	owner := make(map[*universe]*serveClient)
	for _, c := range p.clients {
		owner[c.union] = c
		l := &libUniverse{memo: propagation.NewMemo(), sigma: c.states[0]}
		cs, err := core.NewCoverSession(c.union.db, c.union.view, core.Options{})
		if err != nil {
			return err
		}
		cs.SetMemo(l.memo)
		if _, err := cs.Cover(ctx, l.sigma); err != nil { // the registration warm-up
			return err
		}
		l.cs = cs
		libs[c.union] = l
	}
	// Checks warm the hot set during setup; replay that too.
	for u, l := range libs {
		for _, src := range u.hot {
			if _, err := propagation.Check(u.db, u.view, l.sigma, cfd.MustParse(src),
				propagation.Options{General: u.db.HasFiniteAttr(), Memo: l.memo}); err != nil {
				return err
			}
		}
	}
	sess, err := p.impliesSession()
	if err != nil {
		return err
	}
	var checkMs, overheadMs, impliesMs, csMs []float64
	for _, ev := range evs {
		switch ev.kind {
		case opCheck:
			l := libs[ev.u]
			root := m.tr.begin("perfbench.replay", "check", 0, ev.req)
			var lib time.Duration
			for _, src := range ev.phis {
				sp := m.tr.begin("propagation.Check", src, root.id(), ev.req)
				_, err := propagation.Check(ev.u.db, ev.u.view, l.sigma, cfd.MustParse(src),
					propagation.Options{General: ev.u.db.HasFiniteAttr(), Memo: l.memo})
				lib += sp.end()
				if err != nil {
					return err
				}
			}
			root.end()
			checkMs = append(checkMs, ms(lib))
			overheadMs = append(overheadMs, ms(ev.lat-lib))
		case opImplies:
			sp := m.tr.begin("implication.Session.Implies", ev.phis[0], 0, ev.req)
			_, err := sess.Implies(cfd.MustParse(ev.phis[0]))
			impliesMs = append(impliesMs, ms(sp.end()))
			if err != nil {
				return err
			}
		case opEdit:
			l := libs[ev.u]
			next := owner[ev.u].states[ev.state]
			l.memo, _ = l.memo.Migrate(ev.u.view, propagation.DiffSigma(l.sigma, next))
			l.sigma = next
			l.cs.RebaseMemo(l.memo, next)
			sp := m.tr.begin("core.CoverSession.Cover", ev.u.name, 0, ev.req)
			_, err := l.cs.Cover(ctx, next)
			csMs = append(csMs, ms(sp.end()))
			if err != nil {
				return err
			}
		}
	}
	m.layer.put("propagation.check_ms", "ms", median(checkMs))
	m.layer.put("daemon.overhead_ms", "ms", median(overheadMs))
	m.layer.put("implication.implies_ms", "ms", median(impliesMs))
	m.layer.put("core.coversession_ms", "ms", median(csMs))
	return nil
}
