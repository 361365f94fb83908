package core

import (
	"errors"
	"fmt"
)

// FaultSite names one instrumented fault-injection point in the solve
// pipeline, e.g. "pgreedy/worker-stall". The packages that own
// instrumented code export their site names as constants; the
// internal/chaos package builds deterministic schedules over them.
type FaultSite string

// Injector is the fault-injection hook of a solve. Instrumented code
// calls Inject at each named site it passes; the injector decides —
// deterministically, from its seed and per-site schedule — whether the
// site's fault fires at this visit. An injector may also act directly
// inside Inject: sleeping models a stalled worker, and panicking (with
// an InjectedPanic value) models a crashing one. The boolean return is
// for faults the instrumented code must enact itself, such as skipping
// a halo read or dropping a repair update.
//
// A nil Injector in SolveOptions disables every site at zero cost: the
// hot paths guard with a single nil check and never allocate.
// Implementations must be safe for concurrent use — tile workers call
// Inject concurrently.
type Injector interface {
	// Inject reports whether the fault at site fires on this visit.
	Inject(site FaultSite) bool
}

// InjectorFunc adapts a function to the Injector interface, the same
// way http.HandlerFunc adapts handlers; handy for tests that want a
// one-off fault without building a chaos schedule.
type InjectorFunc func(FaultSite) bool

// Inject calls f.
func (f InjectorFunc) Inject(site FaultSite) bool { return f(site) }

// TracedInjector is the optional extension an Injector implements when
// it can attribute fired faults to the request that suffered them: the
// trace id (a flight-recorder id, 0 when the operation is untraced)
// rides along so fault.injected flight events correlate with the
// originating job. internal/chaos implements it;
// call through InjectTraced so plain Injectors keep working.
type TracedInjector interface {
	Injector
	// InjectTraced is Inject with the visiting operation's trace id.
	InjectTraced(site FaultSite, trace uint64) bool
}

// InjectTraced consults inj at site on behalf of a traced operation: a
// TracedInjector receives the trace id, any other Injector falls back
// to plain Inject, and a nil injector never fires — so instrumented
// sites carry attribution without caring which kind they hold.
func InjectTraced(inj Injector, site FaultSite, trace uint64) bool {
	if inj == nil {
		return false
	}
	if ti, ok := inj.(TracedInjector); ok {
		return ti.InjectTraced(site, trace)
	}
	return inj.Inject(site)
}

// InjectedPanic is the value a fault injector panics with when a site
// is scheduled to crash. Recovery code (PanicToError) recognizes it and
// records the originating site in the resulting SolveError, so a chaos
// test can assert exactly which injected fault an error came from.
type InjectedPanic struct {
	// Site is the fault site that crashed.
	Site FaultSite
}

// String renders the panic value for logs and recovered-error messages.
func (p InjectedPanic) String() string {
	return fmt.Sprintf("injected panic at %s", p.Site)
}

// SolveError is the typed failure of one algorithm run. It carries
// enough structure for a portfolio to degrade gracefully instead of
// aborting: which algorithm failed, whether it failed by panicking
// (recovered into this error rather than crashing the process), the
// fault site when the failure came from an injected fault, and the
// underlying cause.
type SolveError struct {
	// Algorithm is the registry name of the failing algorithm ("" when
	// the failure happened outside registry dispatch).
	Algorithm string
	// Site is the fault-injection site nearest the failure, when known.
	Site FaultSite
	// Panicked reports whether the failure was a recovered panic, as
	// opposed to an ordinary error return. Portfolio treats panicked
	// errors as degradable: the crashing algorithm is dropped and the
	// remaining results still compete.
	Panicked bool
	// Cause is the underlying error or recovered panic value.
	Cause error
}

// Error formats the failure with its algorithm and site context.
func (e *SolveError) Error() string {
	what := "failed"
	if e.Panicked {
		what = "panicked"
	}
	switch {
	case e.Algorithm != "" && e.Site != "":
		return fmt.Sprintf("solve %s %s at %s: %v", e.Algorithm, what, e.Site, e.Cause)
	case e.Algorithm != "":
		return fmt.Sprintf("solve %s %s: %v", e.Algorithm, what, e.Cause)
	case e.Site != "":
		return fmt.Sprintf("solve %s at %s: %v", what, e.Site, e.Cause)
	default:
		return fmt.Sprintf("solve %s: %v", what, e.Cause)
	}
}

// Unwrap exposes the cause to errors.Is/As chains.
func (e *SolveError) Unwrap() error { return e.Cause }

// PanicToError converts a recovered panic value into a *SolveError,
// preserving the fault site when the panic was injected (an
// InjectedPanic value) and wrapping error and non-error panic values
// alike. It is the single conversion every recovery point in the
// pipeline uses, so panics look the same whether they were recovered in
// registry dispatch, a portfolio worker, or a tile worker.
func PanicToError(alg string, rec any) *SolveError {
	se := &SolveError{Algorithm: alg, Panicked: true}
	switch v := rec.(type) {
	case InjectedPanic:
		se.Site = v.Site
		se.Cause = errors.New(v.String())
	case *SolveError:
		// A recovery point above another recovery point: keep the inner
		// error's structure, only filling in the algorithm name.
		if v.Algorithm == "" {
			v.Algorithm = alg
		}
		return v
	case error:
		se.Cause = v
	default:
		se.Cause = fmt.Errorf("%v", v)
	}
	return se
}

// ErrPartial is the sentinel wrapped by Portfolio/Best when a solve was
// cut short (deadline, cancellation) but at least one algorithm had
// already produced a valid coloring and SolveOptions.PartialOnCancel
// asked for best-so-far results instead of discarded work. The coloring
// returned alongside an ErrPartial error is complete and valid — only
// the portfolio is partial, so a better algorithm might have won given
// more time. Test with errors.Is(err, ErrPartial).
var ErrPartial = errors.New("partial result: solve cut short before the full portfolio completed")
