package stencilivc_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"stencilivc"
)

// TestSolveCanceledPromptly: on a large grid (1M vertices) a canceled
// context must surface context.Canceled well before the solve could have
// finished — the engine polls at line/block granularity.
func TestSolveCanceledPromptly(t *testing.T) {
	g := stencilivc.MustGrid2D(1024, 1024)
	for v := range g.W {
		g.W[v] = int64(v%17) + 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range stencilivc.Algorithms() {
		t0 := time.Now()
		_, err := stencilivc.Solve(alg, g, &stencilivc.SolveOptions{Ctx: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", alg, err)
		}
		if dt := time.Since(t0); dt > 2*time.Second {
			t.Errorf("%s: cancellation took %v, want prompt return", alg, dt)
		}
	}
}

// TestSolveTimeout: a deadline that expires mid-solve aborts with
// context.DeadlineExceeded.
func TestSolveTimeout(t *testing.T) {
	g := stencilivc.MustGrid2D(1024, 1024)
	for v := range g.W {
		g.W[v] = int64(v%17) + 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, _, err := stencilivc.Best(g, &stencilivc.SolveOptions{Ctx: ctx, Parallelism: 4})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestBestParallelMatchesSequential exercises the public portfolio path
// with Parallelism >= 4 under the race detector and pins byte-identical
// results against the sequential compatibility wrappers.
func TestBestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g2 := stencilivc.MustGrid2D(20, 20)
	for v := range g2.W {
		g2.W[v] = rng.Int63n(10)
	}
	g3 := stencilivc.MustGrid3D(5, 6, 4)
	for v := range g3.W {
		g3.W[v] = rng.Int63n(10)
	}

	seq2, alg2, err := stencilivc.Best2D(g2)
	if err != nil {
		t.Fatal(err)
	}
	par2, palg2, err := stencilivc.Best(g2, &stencilivc.SolveOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if palg2 != alg2 || !reflect.DeepEqual(par2.Start, seq2.Start) {
		t.Errorf("2D parallel best (%s) differs from sequential (%s)", palg2, alg2)
	}

	seq3, alg3, err := stencilivc.Best3D(g3)
	if err != nil {
		t.Fatal(err)
	}
	par3, palg3, err := stencilivc.Best(g3, &stencilivc.SolveOptions{Parallelism: 7})
	if err != nil {
		t.Fatal(err)
	}
	if palg3 != alg3 || !reflect.DeepEqual(par3.Start, seq3.Start) {
		t.Errorf("3D parallel best (%s) differs from sequential (%s)", palg3, alg3)
	}
}

// TestSolveStats: the public options thread the stats sink and the
// trace context through the whole pipeline: the counters fill, and the
// solve's span holds BDP's two phases.
func TestSolveStats(t *testing.T) {
	g := stencilivc.MustGrid2D(10, 10)
	for v := range g.W {
		g.W[v] = int64(v % 5)
	}
	var stats stencilivc.Stats
	rec := stencilivc.NewFlightRecorder(64, nil)
	c, err := stencilivc.Solve(stencilivc.BDP, g, &stencilivc.SolveOptions{
		Stats: &stats, TraceCtx: rec.NewContext("", ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
	if stats.Placements() == 0 || stats.Probes() == 0 {
		t.Errorf("stats empty: placements=%d probes=%d", stats.Placements(), stats.Probes())
	}
	spans := map[string]stencilivc.FlightRecord{}
	for _, r := range rec.Snapshot(0, "", "", 0) {
		spans[r.Name] = r
	}
	solve, ok := spans["solve:BDP"]
	if !ok {
		t.Fatalf("no solve:BDP span (have %v)", spans)
	}
	for _, phase := range []string{"BDP/decompose", "BDP/post"} {
		if sp, ok := spans[phase]; !ok || sp.Parent != solve.Span {
			t.Errorf("phase %s missing or not under solve:BDP (have %v)", phase, spans)
		}
	}
}

// TestAlgorithmRegistry: the public registry view exposes the paper's
// seven plus the extensions (BDL, PGLL, PGLF), and the paper flag
// matches Algorithms().
func TestAlgorithmRegistry(t *testing.T) {
	infos := stencilivc.AlgorithmRegistry()
	paper := map[stencilivc.Algorithm]bool{}
	for _, alg := range stencilivc.Algorithms() {
		paper[alg] = true
	}
	extensions := map[stencilivc.Algorithm]bool{
		stencilivc.BDL: false, stencilivc.PGLL: false, stencilivc.PGLF: false,
	}
	for _, d := range infos {
		if _, isExt := extensions[d.Name]; isExt {
			extensions[d.Name] = true
			if d.Paper {
				t.Errorf("%s must not be flagged as a paper algorithm", d.Name)
			}
		} else if !paper[d.Name] {
			t.Errorf("registry holds %s, not in Algorithms() and not an extension", d.Name)
		}
	}
	for name, found := range extensions {
		if !found {
			t.Errorf("registry missing extension %s", name)
		}
	}
	if len(infos) != len(paper)+len(extensions) {
		t.Errorf("registry size %d, want %d", len(infos), len(paper)+len(extensions))
	}
}

// TestPortfolioSubset: the public Portfolio honors a caller-chosen list.
func TestPortfolioSubset(t *testing.T) {
	g := stencilivc.MustGrid2D(8, 8)
	for v := range g.W {
		g.W[v] = int64(v % 7)
	}
	algs := []stencilivc.Algorithm{stencilivc.BD, stencilivc.BDP}
	c, winner, err := stencilivc.Portfolio(g, algs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if winner != stencilivc.BD && winner != stencilivc.BDP {
		t.Errorf("winner %s not in portfolio", winner)
	}
	if err := c.Validate(g); err != nil {
		t.Error(err)
	}
}
