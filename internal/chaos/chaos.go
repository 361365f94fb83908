package chaos

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stencilivc/internal/core"
	"stencilivc/internal/obsv"
)

// Injector is a deterministic, seeded core.Injector. Rules attach to
// named fault sites; each visit of a site increments a per-site counter
// and the rule decides — as a pure function of (seed, site, visit
// number) — whether the fault fires. Identical construction therefore
// replays the identical schedule on a sequential solve; on a concurrent
// solve each visit still gets exactly one verdict (the counters are
// atomic), though the scheduler decides which goroutine draws which
// visit number.
//
// Configure rules before handing the Injector to a solver: the rule
// table is read-only during injection, so Inject needs no lock.
type Injector struct {
	seed uint64

	mu     sync.Mutex // guards rules, flight, and sealed during construction
	sealed bool       // set under mu; late rule edits panic
	rules  map[core.FaultSite]*rule
	flight *obsv.FlightRecorder

	// frozen is an immutable snapshot of the configuration (rules and
	// flight recorder), published exactly once by sealOnce on the first
	// Inject. Inject reads it lock-free; the sync.Once gives every
	// injecting goroutine a happens-before edge on the copy.
	sealOnce sync.Once
	frozen   frozenConfig
}

// frozenConfig is the immutable post-seal view of an Injector.
type frozenConfig struct {
	rules  map[core.FaultSite]*rule
	flight *obsv.FlightRecorder
}

// rule is the per-site schedule. Counter fields are atomic; the
// schedule fields are frozen once the injector seals.
type rule struct {
	nth     int64         // fire exactly on this visit (1-based); 0 = off
	every   int64         // fire on every every-th visit; 0 = off
	budget  int64         // cap on fires for the every/prob triggers; 0 = unlimited
	prob    float64       // per-visit probability via the seeded hash; 0 = off
	doPanic bool          // on fire: panic(core.InjectedPanic{Site: site})
	stall   time.Duration // on fire: sleep this long before returning

	visits atomic.Int64
	fires  atomic.Int64
}

// New returns an empty Injector: every site reports "no fault" until
// rules are attached. The seed only matters for probabilistic rules.
func New(seed uint64) *Injector {
	return &Injector{seed: seed, rules: map[core.FaultSite]*rule{}}
}

func (in *Injector) rule(site core.FaultSite) *rule {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.sealed {
		panic("chaos: rule added after injection started")
	}
	r := in.rules[site]
	if r == nil {
		r = &rule{}
		in.rules[site] = r
	}
	return r
}

// seal publishes the immutable configuration snapshot on first call and
// returns it. Safe for concurrent use; after it returns, rule() and
// WithFlight refuse edits.
func (in *Injector) seal() frozenConfig {
	in.sealOnce.Do(func() {
		in.mu.Lock()
		in.sealed = true
		rules := make(map[core.FaultSite]*rule, len(in.rules))
		for s, r := range in.rules {
			rules[s] = r
		}
		in.frozen = frozenConfig{rules: rules, flight: in.flight}
		in.mu.Unlock()
	})
	return in.frozen
}

// OnNth fires site's fault exactly once, on its nth visit (1-based).
func (in *Injector) OnNth(site core.FaultSite, nth int64) *Injector {
	in.rule(site).nth = nth
	return in
}

// EveryNth fires site's fault on every n-th visit, at most budget times
// (budget <= 0 means unlimited).
func (in *Injector) EveryNth(site core.FaultSite, n, budget int64) *Injector {
	r := in.rule(site)
	r.every, r.budget = n, budget
	return in
}

// WithProb fires site's fault on each visit with probability p, decided
// by a hash of (seed, site, visit number) — deterministic replay, no
// shared PRNG state to contend on.
func (in *Injector) WithProb(site core.FaultSite, p float64) *Injector {
	in.rule(site).prob = p
	return in
}

// Panicking makes site's fault panic with core.InjectedPanic instead of
// merely returning true, exercising the pipeline's recover paths.
func (in *Injector) Panicking(site core.FaultSite) *Injector {
	in.rule(site).doPanic = true
	return in
}

// Stalling makes site's fault sleep for d before returning, simulating
// a slow worker without breaking correctness.
func (in *Injector) Stalling(site core.FaultSite, d time.Duration) *Injector {
	in.rule(site).stall = d
	return in
}

// WithFlight makes every fault firing record a fault.injected event in
// rec (detail the site, arg the 1-based visit) under the faulted
// operation's trace id, so a storm's disruptions appear inline in the
// /debug/flight dump of the request they hit; untraced firings reach
// only rec's Export stream. Must be called before injection starts.
func (in *Injector) WithFlight(rec *obsv.FlightRecorder) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.sealed {
		panic("chaos: flight recorder attached after injection started")
	}
	in.flight = rec
	return in
}

// Inject implements core.Injector. It is safe for concurrent use.
func (in *Injector) Inject(site core.FaultSite) bool {
	return in.InjectTraced(site, 0)
}

// InjectTraced implements core.TracedInjector: Inject with the visiting
// operation's flight-recorder trace id, under which — when WithFlight
// configured a recorder — the fault.injected event is recorded. A zero
// trace behaves exactly like Inject.
func (in *Injector) InjectTraced(site core.FaultSite, trace uint64) bool {
	cfg := in.seal() // frozen snapshot: lock-free after first call
	r := cfg.rules[site]
	if r == nil {
		return false
	}
	v := r.visits.Add(1)
	fire := false
	switch {
	case r.nth > 0 && v == r.nth:
		fire = true
	case r.every > 0 && v%r.every == 0:
		fire = true
	case r.prob > 0 && hashToUnit(in.seed, site, v) < r.prob:
		fire = true
	}
	if !fire {
		return false
	}
	if r.budget > 0 {
		if n := r.fires.Add(1); n > r.budget {
			r.fires.Add(-1)
			return false
		}
	} else {
		r.fires.Add(1)
	}
	cfg.flight.RecordEvent(trace, "fault.injected", string(site), v)
	if r.stall > 0 {
		time.Sleep(r.stall)
	}
	if r.doPanic {
		panic(core.InjectedPanic{Site: site})
	}
	return true
}

// lookup returns site's rule under mu (nil if unconfigured). The rule's
// counter fields are atomic, so callers may read them without the lock.
func (in *Injector) lookup(site core.FaultSite) *rule {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rules[site]
}

// Visits returns how many times site has been consulted.
func (in *Injector) Visits(site core.FaultSite) int64 {
	if r := in.lookup(site); r != nil {
		return r.visits.Load()
	}
	return 0
}

// Fires returns how many times site's fault actually fired.
func (in *Injector) Fires(site core.FaultSite) int64 {
	if r := in.lookup(site); r != nil {
		return r.fires.Load()
	}
	return 0
}

// TotalFires sums fires across every configured site.
func (in *Injector) TotalFires() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var n int64
	for _, r := range in.rules {
		n += r.fires.Load()
	}
	return n
}

// String renders the per-site visit/fire counters (sites sorted) for
// test failure messages.
func (in *Injector) String() string {
	in.mu.Lock()
	defer in.mu.Unlock()
	sites := make([]string, 0, len(in.rules))
	for s := range in.rules {
		sites = append(sites, string(s))
	}
	sort.Strings(sites)
	var b strings.Builder
	b.WriteString("chaos.Injector{")
	for i, s := range sites {
		if i > 0 {
			b.WriteString(", ")
		}
		r := in.rules[core.FaultSite(s)]
		fmt.Fprintf(&b, "%s: %d/%d", s, r.fires.Load(), r.visits.Load())
	}
	b.WriteString("}")
	return b.String()
}

// hashToUnit maps (seed, site, visit) to [0, 1) with a splitmix64-style
// finalizer — stateless, so concurrent visits never contend and replay
// is exact.
func hashToUnit(seed uint64, site core.FaultSite, visit int64) float64 {
	x := seed ^ uint64(visit)*0x9e3779b97f4a7c15
	for i := 0; i < len(site); i++ {
		x = (x ^ uint64(site[i])) * 0xbf58476d1ce4e5b9
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}
