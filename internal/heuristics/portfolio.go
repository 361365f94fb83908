package heuristics

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
)

// Portfolio runs the given algorithms on one stencil instance and returns
// the best coloring — lowest maxcolor, ties broken by position in algs
// (callers passing All() therefore tie-break in paper order). It replaces
// the copy-pasted Best2D/Best3D loops with one dimension-generic runner.
//
// When opts.Parallelism > 1 the algorithms run concurrently on up to that
// many goroutines. Every algorithm is deterministic and the reduction
// scans results in slice order, so the outcome is byte-identical to the
// sequential run; parallelism only changes the wall time.
//
// Failure handling follows the degradation ladder:
//
//   - Fatal errors — unknown names, dimension mismatches, failed
//     decompositions — abort the portfolio; the error of the earliest
//     failing slice position is returned so concurrent failures stay
//     deterministic.
//   - An algorithm that panicked (recovered by Run into a
//     *core.SolveError) is dropped (a portfolio.drop event) and the
//     remaining results still compete; the portfolio only errors — with
//     the earliest such typed error — when every algorithm crashed.
//   - Cancellation normally aborts, but with opts.PartialOnCancel the
//     portfolio returns the best coloring among the algorithms that
//     completed — re-validated, so a degraded result can never leak an
//     invalid coloring — tagged with the core.ErrPartial sentinel, and
//     counts it in solver_partial_results_total and a solve.partial
//     event. With zero completed results the context's error propagates
//     as before.
func Portfolio(s grid.Stencil, algs []Algorithm, opts *core.SolveOptions) (core.Coloring, Algorithm, error) {
	if len(algs) == 0 {
		return core.Coloring{}, "", fmt.Errorf("heuristics: empty portfolio")
	}
	type result struct {
		c   core.Coloring
		err error
	}
	results := make([]result, len(algs))
	runOne := func(i int) {
		results[i].c, results[i].err = Run(algs[i], s, opts)
	}
	if par := min(opts.Par(), len(algs)); par <= 1 {
		for i := range algs {
			runOne(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < par; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					runOne(i)
				}
			}()
		}
		for i := range algs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	// Reduce in slice order: classify failures, track the best completed
	// coloring. Earliest-position errors win within each class, keeping
	// concurrent failures deterministic.
	best, bestAlg, bestVal := core.Coloring{}, Algorithm(""), int64(-1)
	var firstFatal, firstCancel, firstPanic error
	completed := 0
	for i, r := range results {
		if r.err != nil {
			var se *core.SolveError
			switch {
			case errors.As(r.err, &se) && se.Panicked:
				opts.FlightCtx().Event("portfolio.drop", r.err.Error(), 0)
				if firstPanic == nil {
					firstPanic = r.err
				}
			case errors.Is(r.err, context.Canceled) || errors.Is(r.err, context.DeadlineExceeded):
				if firstCancel == nil {
					firstCancel = r.err
				}
			default:
				if firstFatal == nil {
					firstFatal = r.err
				}
			}
			continue
		}
		completed++
		if mc := r.c.MaxColor(s); bestVal < 0 || mc < bestVal {
			best, bestAlg, bestVal = r.c, algs[i], mc
		}
	}
	switch {
	case firstFatal != nil:
		return core.Coloring{}, "", firstFatal
	case firstCancel != nil:
		if opts.Partial() && completed > 0 {
			if err := best.Validate(s); err != nil {
				// A degraded pipeline must never hand out an invalid
				// coloring; fall through to the plain cancellation error.
				return core.Coloring{}, "", firstCancel
			}
			if m := opts.Meters(); m != nil {
				m.PartialResults.Add(1)
			}
			opts.FlightCtx().Event("solve.partial", string(bestAlg), int64(completed))
			return best, bestAlg, fmt.Errorf(
				"%w (%d/%d algorithms completed, best %s)",
				core.ErrPartial, completed, len(algs), bestAlg)
		}
		return core.Coloring{}, "", firstCancel
	case completed == 0:
		// Every algorithm panicked; surface the earliest typed error.
		return core.Coloring{}, "", firstPanic
	}
	return best, bestAlg, nil
}

// Best runs the paper's full algorithm portfolio (All()) on s and returns
// the winning coloring and algorithm.
func Best(s grid.Stencil, opts *core.SolveOptions) (core.Coloring, Algorithm, error) {
	return Portfolio(s, All(), opts)
}
