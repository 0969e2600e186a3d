//go:build faultinject

package faultinject

import (
	"sync"
	"sync/atomic"
	"time"
)

// Enabled reports whether the fault-injection layer is compiled in.
const Enabled = true

// Action selects what a Rule does when it fires.
type Action uint8

const (
	// None makes the rule inert (counting only).
	None Action = iota
	// Panic panics with an Injected payload.
	Panic
	// Delay sleeps for Rule.Delay before returning.
	Delay
	// Cancel invokes Rule.Cancel (typically a context.CancelFunc).
	Cancel
)

// Rule arms one fault at one site: on the Nth visit (1-based, counted since
// the last Reset) of Site, perform Act.
type Rule struct {
	Site   string
	Nth    int64
	Act    Action
	Delay  time.Duration
	Cancel func()
}

// Injected is the panic payload produced by a Panic rule, so recovery code
// and the crash suite can tell injected faults from genuine bugs.
type Injected struct {
	Site string
	Hit  int64
}

func (e Injected) Error() string { return "faultinject: injected panic at " + e.Site }

type siteState struct {
	count atomic.Int64
	rules []Rule
}

var (
	mu    sync.Mutex
	sites atomic.Pointer[map[string]*siteState]
)

// Install arms the given rules, replacing any previously installed set and
// zeroing all hit counters.
func Install(rules ...Rule) {
	mu.Lock()
	defer mu.Unlock()
	m := make(map[string]*siteState)
	for _, r := range rules {
		ss := m[r.Site]
		if ss == nil {
			ss = &siteState{}
			m[r.Site] = ss
		}
		ss.rules = append(ss.rules, r)
	}
	sites.Store(&m)
}

// Reset removes all rules and counters.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	sites.Store(nil)
}

// Hits returns the visit count of a site since the last Install/Reset.
func Hits(site string) int64 {
	p := sites.Load()
	if p == nil {
		return 0
	}
	ss := (*p)[site]
	if ss == nil {
		return 0
	}
	return ss.count.Load()
}

// Hit marks a fault-injection site, firing any rule armed for this visit.
func Hit(site string) {
	p := sites.Load()
	if p == nil {
		return
	}
	ss := (*p)[site]
	if ss == nil {
		return
	}
	n := ss.count.Add(1)
	for _, r := range ss.rules {
		if r.Nth != n {
			continue
		}
		switch r.Act {
		case Panic:
			panic(Injected{Site: site, Hit: n})
		case Delay:
			time.Sleep(r.Delay)
		case Cancel:
			if r.Cancel != nil {
				r.Cancel()
			}
		}
	}
}
