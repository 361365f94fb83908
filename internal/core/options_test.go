package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSolveOptionsNilSafety: every accessor tolerates a nil receiver and
// a zero value, so solvers never branch on options being present.
func TestSolveOptionsNilSafety(t *testing.T) {
	var o *SolveOptions
	if o.Context() != context.Background() {
		t.Error("nil options: Context() != Background")
	}
	if o.Err() != nil {
		t.Error("nil options: Err() != nil")
	}
	if o.Par() != 1 {
		t.Errorf("nil options: Par() = %d, want 1", o.Par())
	}
	if o.Sink() != nil {
		t.Error("nil options: Sink() != nil")
	}
	zero := &SolveOptions{}
	if zero.Par() != 1 || zero.Err() != nil || zero.Sink() != nil {
		t.Error("zero options must behave like nil options")
	}
	if o.TenantID() != "default" || zero.TenantID() != "default" {
		t.Error("nil/zero options: TenantID() != \"default\"")
	}
	if got, stop := o.WithDeadlineContext(); got != nil {
		stop()
		t.Error("nil options: WithDeadlineContext() != nil")
	}
}

// TestTenantAndDeadline: the service-layer plumbing — TenantID defaults,
// and WithDeadlineContext bounds the context by the absolute deadline
// while keeping an earlier Ctx expiry.
func TestTenantAndDeadline(t *testing.T) {
	o := &SolveOptions{Tenant: "team-a"}
	if o.TenantID() != "team-a" {
		t.Errorf("TenantID = %q, want team-a", o.TenantID())
	}

	// No deadline: same options back, no derived context.
	same, stop := o.WithDeadlineContext()
	stop()
	if same != o {
		t.Error("WithDeadlineContext without a deadline must return the receiver")
	}

	// Expired deadline: the derived context reports DeadlineExceeded.
	o = &SolveOptions{Deadline: time.Now().Add(-time.Second)}
	bounded, stop := o.WithDeadlineContext()
	defer stop()
	if !errors.Is(bounded.Err(), context.DeadlineExceeded) {
		t.Errorf("expired deadline: Err() = %v, want DeadlineExceeded", bounded.Err())
	}

	// An already-canceled Ctx wins over a far-future deadline.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o = &SolveOptions{Ctx: ctx, Deadline: time.Now().Add(time.Hour)}
	bounded, stop = o.WithDeadlineContext()
	defer stop()
	if !errors.Is(bounded.Err(), context.Canceled) {
		t.Errorf("canceled parent: Err() = %v, want Canceled", bounded.Err())
	}
	if bounded.Tenant != o.Tenant || bounded.Deadline != o.Deadline {
		t.Error("WithDeadlineContext must preserve the other fields")
	}
}

// TestStatsNilSafety: a nil *Stats absorbs every record call and reports
// zeros, so instrumentation is unconditional in solver code.
func TestStatsNilSafety(t *testing.T) {
	var s *Stats
	s.AddPlacements(3)
	s.AddProbes(5)
	if s.Placements() != 0 || s.Probes() != 0 {
		t.Error("nil stats must report zero values")
	}
	if !strings.Contains(s.String(), "disabled") {
		t.Errorf("nil stats String() = %q", s.String())
	}
}

// TestStatsAccumulation covers the counters and their rendering.
func TestStatsAccumulation(t *testing.T) {
	var s Stats
	s.AddPlacements(2)
	s.AddPlacements(3)
	s.AddProbes(7)
	if s.Placements() != 5 {
		t.Errorf("placements = %d, want 5", s.Placements())
	}
	if s.Probes() != 7 {
		t.Errorf("probes = %d, want 7", s.Probes())
	}
	if got := s.String(); got != "stats: placements=5 probes=7" {
		t.Errorf("String() = %q", got)
	}
}

// TestStatsConcurrent hammers one sink from several goroutines; run
// under -race this is the portfolio-sharing safety test at the core
// layer.
func TestStatsConcurrent(t *testing.T) {
	var s Stats
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.AddPlacements(1)
				s.AddProbes(2)
			}
		}()
	}
	wg.Wait()
	if s.Placements() != workers*each {
		t.Errorf("placements = %d, want %d", s.Placements(), workers*each)
	}
	if s.Probes() != 2*workers*each {
		t.Errorf("probes = %d, want %d", s.Probes(), 2*workers*each)
	}
}

// TestGreedyColorOptsCancellation: a canceled context aborts the greedy
// engine at its first poll, returning the context error and no coloring.
func TestGreedyColorOptsCancellation(t *testing.T) {
	g := Chain(make([]int64, 100))
	order := make([]int, g.Len())
	for i := range order {
		order[i] = i
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := GreedyColorOpts(g, order, &SolveOptions{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(c.Start) != 0 {
		t.Error("canceled solve returned a coloring")
	}
}

// TestGreedyColorOptsStats: placements equal the vertex count and probes
// the colored-neighbor intervals examined.
func TestGreedyColorOptsStats(t *testing.T) {
	weights := []int64{1, 2, 3, 4, 5}
	g := Chain(weights)
	order := []int{0, 1, 2, 3, 4}
	var s Stats
	c, err := GreedyColorOpts(g, order, &SolveOptions{Stats: &s})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
	if s.Placements() != int64(g.Len()) {
		t.Errorf("placements = %d, want %d", s.Placements(), g.Len())
	}
	// Chain in natural order: each vertex after the first sees exactly one
	// colored neighbor.
	if s.Probes() != int64(g.Len()-1) {
		t.Errorf("probes = %d, want %d", s.Probes(), g.Len()-1)
	}
}

// TestGreedyColorOptsMatchesGreedyColor: the opts path is the plain path
// when options are nil or inert.
func TestGreedyColorOptsMatchesGreedyColor(t *testing.T) {
	weights := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	g := Chain(weights)
	order := []int{7, 2, 5, 0, 3, 6, 1, 4}
	want, err := GreedyColor(g, order)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GreedyColorOpts(g, order, &SolveOptions{Stats: &Stats{}})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.Start {
		if want.Start[v] != got.Start[v] {
			t.Fatalf("vertex %d: opts path start %d, plain path %d", v, got.Start[v], want.Start[v])
		}
	}
}
