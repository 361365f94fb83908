package main

import (
	"strings"
	"testing"
)

const benchText = `
goos: linux
goarch: amd64
pkg: stencilivc/internal/core
BenchmarkPlaceLowest/9pt-8   	 5000000	       123.4 ns/op	       0 B/op	       0 allocs/op
BenchmarkPlaceLowest/27pt-8  	 2000000	       456.0 ns/op
BenchmarkSolve/GLL/256x256-8 	     100	   1.25e+07 ns/op	 1024 B/op	      12 allocs/op
PASS
ok  	stencilivc/internal/core	4.2s
`

// TestParseBenchText: go-test output parses into normalized benches —
// CPU suffixes stripped, missing -benchmem allocs marked unknown (-1).
func TestParseBenchText(t *testing.T) {
	s, err := parseBenchText("bench.txt", []byte(benchText))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Order) != 3 {
		t.Fatalf("parsed %d benches %v, want 3", len(s.Order), s.Order)
	}
	b := s.Benches["PlaceLowest/9pt"]
	if b.NsPerOp != 123.4 || b.AllocsOp != 0 {
		t.Errorf("PlaceLowest/9pt = %+v, want 123.4 ns/op 0 allocs", b)
	}
	if b := s.Benches["PlaceLowest/27pt"]; b.NsPerOp != 456.0 || b.AllocsOp != -1 {
		t.Errorf("PlaceLowest/27pt = %+v, want 456 ns/op unknown allocs", b)
	}
	if b := s.Benches["Solve/GLL/256x256"]; b.NsPerOp != 1.25e7 || b.AllocsOp != 12 {
		t.Errorf("Solve/GLL/256x256 = %+v, want 1.25e7 ns/op 12 allocs", b)
	}
	if _, err := parseBenchText("empty.txt", []byte("PASS\nok\n")); err == nil {
		t.Error("bench-free text did not error")
	}
}

// TestParseJSON: the ivcbench report schema parses, and git metadata
// becomes the snapshot label.
func TestParseJSON(t *testing.T) {
	data := []byte(`{
		"git": {"commit": "0123456789abcdef0123", "branch": "main", "dirty": true},
		"results": [
			{"name": "Fig4/GLL/2D", "ns_op": 1000, "allocs_op": 5},
			{"name": "PlaceLowest", "ns_op": 50, "allocs_op": 0}
		]
	}`)
	s, err := parseJSON("BENCH.json", data)
	if err != nil {
		t.Fatal(err)
	}
	if s.Label != "0123456789ab+dirty" {
		t.Errorf("label = %q, want short commit + dirty marker", s.Label)
	}
	if len(s.Order) != 2 || s.Order[0] != "Fig4/GLL/2D" {
		t.Errorf("order = %v", s.Order)
	}
	if b := s.Benches["PlaceLowest"]; b.NsPerOp != 50 || b.AllocsOp != 0 {
		t.Errorf("PlaceLowest = %+v", b)
	}
	if _, err := parseJSON("bad.json", []byte(`{"results": []}`)); err == nil {
		t.Error("result-free JSON did not error")
	}
}

// TestAllocsRegressed pins the allocation gate: unknown never gates,
// any increase from zero gates, nonzero baselines get the relative
// threshold, improvements never gate.
func TestAllocsRegressed(t *testing.T) {
	cases := []struct {
		old, new  int64
		threshold float64
		want      bool
	}{
		{-1, 5, 0.1, false},  // unknown baseline
		{5, -1, 0.1, false},  // unknown new
		{0, 0, 0.1, false},   // pinned and holding
		{0, 1, 0.1, true},    // 0 allocs/op pin broken: always gates
		{10, 10, 0.1, false}, // unchanged
		{10, 11, 0.1, false}, // within threshold (10%)
		{10, 12, 0.1, true},  // beyond threshold
		{12, 10, 0.1, false}, // improvement
	}
	for _, c := range cases {
		if got := allocsRegressed(c.old, c.new, c.threshold); got != c.want {
			t.Errorf("allocsRegressed(%d, %d, %g) = %v, want %v",
				c.old, c.new, c.threshold, got, c.want)
		}
	}
}

// TestDiff: matched benchmarks classify against the threshold; new-only
// and old-only names land in Added/Removed without gating.
func TestDiff(t *testing.T) {
	oldSnap := &Snapshot{Path: "old", Label: "old", Benches: map[string]Bench{}}
	oldSnap.add(Bench{Name: "Stable", NsPerOp: 100, AllocsOp: 0})
	oldSnap.add(Bench{Name: "Slower", NsPerOp: 100, AllocsOp: 3})
	oldSnap.add(Bench{Name: "Faster", NsPerOp: 100, AllocsOp: 3})
	oldSnap.add(Bench{Name: "Gone", NsPerOp: 100, AllocsOp: 0})
	oldSnap.add(Bench{Name: "AllocPin", NsPerOp: 100, AllocsOp: 0})

	newSnap := &Snapshot{Path: "new", Label: "new", Benches: map[string]Bench{}}
	newSnap.add(Bench{Name: "Stable", NsPerOp: 104, AllocsOp: 0})
	newSnap.add(Bench{Name: "Slower", NsPerOp: 150, AllocsOp: 3})
	newSnap.add(Bench{Name: "Faster", NsPerOp: 60, AllocsOp: 3})
	newSnap.add(Bench{Name: "AllocPin", NsPerOp: 100, AllocsOp: 2})
	newSnap.add(Bench{Name: "Fresh", NsPerOp: 10, AllocsOp: 0})

	d := diff(oldSnap, newSnap, 0.10)
	if len(d.Deltas) != 4 {
		t.Fatalf("compared %d, want 4", len(d.Deltas))
	}
	byName := map[string]Delta{}
	for _, dl := range d.Deltas {
		byName[dl.Name] = dl
	}
	if dl := byName["Stable"]; dl.NsRegressed || dl.AllocsRegressed {
		t.Errorf("Stable (+4%%) gated: %+v", dl)
	}
	if dl := byName["Slower"]; !dl.NsRegressed || dl.AllocsRegressed {
		t.Errorf("Slower (+50%%) not flagged as ns/op regression: %+v", dl)
	}
	if dl := byName["Faster"]; dl.NsRegressed || dl.AllocsRegressed {
		t.Errorf("Faster (-40%%) gated: %+v", dl)
	}
	if dl := byName["AllocPin"]; !dl.AllocsRegressed || dl.NsRegressed {
		t.Errorf("AllocPin (0 -> 2 allocs) not flagged: %+v", dl)
	}
	if len(d.Regressions) != 2 {
		t.Errorf("regressions = %d (%v), want 2", len(d.Regressions), d.Regressions)
	}
	if len(d.Added) != 1 || d.Added[0] != "Fresh" {
		t.Errorf("added = %v, want [Fresh]", d.Added)
	}
	if len(d.Removed) != 1 || d.Removed[0] != "Gone" {
		t.Errorf("removed = %v, want [Gone]", d.Removed)
	}

	out := render(d, oldSnap, newSnap)
	for _, want := range []string{
		"REGRESSION (ns/op)", "REGRESSION (allocs/op)", "improved",
		"added:   Fresh", "removed: Gone", "4 compared, 2 regressed, 1 added, 1 removed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

// TestDiffOneSidedNeverGates: a benchmark present in only one snapshot
// is reported (added or removed) but never contributes a regression —
// in either direction, and no matter how extreme its numbers look.
func TestDiffOneSidedNeverGates(t *testing.T) {
	oldSnap := &Snapshot{Path: "old", Label: "old", Benches: map[string]Bench{}}
	oldSnap.add(Bench{Name: "Shared", NsPerOp: 100, AllocsOp: 0})
	oldSnap.add(Bench{Name: "OldOnly", NsPerOp: 1, AllocsOp: 0})

	newSnap := &Snapshot{Path: "new", Label: "new", Benches: map[string]Bench{}}
	newSnap.add(Bench{Name: "Shared", NsPerOp: 100, AllocsOp: 0})
	newSnap.add(Bench{Name: "NewOnly", NsPerOp: 1e9, AllocsOp: 999})

	d := diff(oldSnap, newSnap, 0.10)
	if len(d.Regressions) != 0 {
		t.Errorf("one-sided benchmarks gated: %+v", d.Regressions)
	}
	if len(d.Added) != 1 || d.Added[0] != "NewOnly" {
		t.Errorf("added = %v, want [NewOnly]", d.Added)
	}
	if len(d.Removed) != 1 || d.Removed[0] != "OldOnly" {
		t.Errorf("removed = %v, want [OldOnly]", d.Removed)
	}
	out := render(d, oldSnap, newSnap)
	for _, want := range []string{"added:   NewOnly", "removed: OldOnly", "1 compared, 0 regressed"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

// TestExitStatusOneSidedNewRowsInformational pins the gate decision
// itself, not just the diff bookkeeping: a snapshot that adds a new
// benchmark row (the situation every PR introducing a bench stage
// creates, e.g. the CacheHit rows) exits 0 however slow the new row
// is, regressions on shared rows exit 1, and a comparison that matched
// nothing exits 2 even when one-sided rows exist on both sides.
func TestExitStatusOneSidedNewRowsInformational(t *testing.T) {
	oldSnap := &Snapshot{Path: "old", Label: "old", Benches: map[string]Bench{}}
	oldSnap.add(Bench{Name: "Shared", NsPerOp: 100, AllocsOp: 0})
	newSnap := &Snapshot{Path: "new", Label: "new", Benches: map[string]Bench{}}
	newSnap.add(Bench{Name: "Shared", NsPerOp: 100, AllocsOp: 0})
	newSnap.add(Bench{Name: "CacheHit/2048x2048", NsPerOp: 9e9, AllocsOp: 4096})

	if got := exitStatus(diff(oldSnap, newSnap, 0.10)); got != 0 {
		t.Errorf("new one-sided row changed the exit status to %d, want 0", got)
	}

	// A real regression on the shared row still gates with the new row
	// present: informational rows must not mask the decision either way.
	newSnap.add(Bench{Name: "Shared", NsPerOp: 200, AllocsOp: 0})
	if got := exitStatus(diff(oldSnap, newSnap, 0.10)); got != 1 {
		t.Errorf("shared-row regression exited %d, want 1", got)
	}

	// One-sided rows alone are not a comparison.
	disjoint := &Snapshot{Path: "new", Label: "new", Benches: map[string]Bench{}}
	disjoint.add(Bench{Name: "CacheHit/2048x2048", NsPerOp: 1, AllocsOp: 0})
	if got := exitStatus(diff(oldSnap, disjoint, 0.10)); got != 2 {
		t.Errorf("disjoint snapshots exited %d, want 2", got)
	}
}

// TestDiffDisjointComparesNothing: snapshots with no shared names
// produce zero deltas and zero regressions — the condition main turns
// into exit status 2, because a gate that matched nothing must not
// pass as if it had.
func TestDiffDisjointComparesNothing(t *testing.T) {
	oldSnap := &Snapshot{Path: "old", Label: "old", Benches: map[string]Bench{}}
	oldSnap.add(Bench{Name: "A", NsPerOp: 100, AllocsOp: 0})
	newSnap := &Snapshot{Path: "new", Label: "new", Benches: map[string]Bench{}}
	newSnap.add(Bench{Name: "B", NsPerOp: 100, AllocsOp: 0})

	d := diff(oldSnap, newSnap, 0.10)
	if len(d.Deltas) != 0 || len(d.Regressions) != 0 {
		t.Errorf("disjoint snapshots compared something: deltas=%v regressions=%v",
			d.Deltas, d.Regressions)
	}
	if len(d.Added) != 1 || len(d.Removed) != 1 {
		t.Errorf("added=%v removed=%v, want one each", d.Added, d.Removed)
	}
	if out := render(d, oldSnap, newSnap); !strings.Contains(out, "0 compared") {
		t.Errorf("render output missing \"0 compared\":\n%s", out)
	}
}

// TestSnapshotAddDuplicates: repeated names (go test -count=N) keep the
// later measurement without duplicating the order.
func TestSnapshotAddDuplicates(t *testing.T) {
	s := &Snapshot{Path: "p", Label: "p", Benches: map[string]Bench{}}
	s.add(Bench{Name: "X", NsPerOp: 100, AllocsOp: 1})
	s.add(Bench{Name: "X", NsPerOp: 90, AllocsOp: 1})
	if len(s.Order) != 1 {
		t.Fatalf("order = %v, want one entry", s.Order)
	}
	if s.Benches["X"].NsPerOp != 90 {
		t.Errorf("duplicate add kept ns/op %g, want the later 90", s.Benches["X"].NsPerOp)
	}
}

// TestParseThreshold: the -threshold flag accepts fraction and
// percentage forms and rejects garbage and negatives.
func TestParseThreshold(t *testing.T) {
	for _, c := range []struct {
		in   string
		want float64
		ok   bool
	}{
		{"0.10", 0.10, true},
		{"0.15", 0.15, true},
		{"15%", 0.15, true},
		{"10 %", 0.10, true},
		{" 7.5% ", 0.075, true},
		{"0", 0, true},
		{"0%", 0, true},
		{"-0.1", 0, false},
		{"-5%", 0, false},
		{"ten", 0, false},
		{"%", 0, false},
		{"", 0, false},
	} {
		got, err := parseThreshold(c.in)
		if c.ok != (err == nil) {
			t.Errorf("parseThreshold(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("parseThreshold(%q) = %g, want %g", c.in, got, c.want)
		}
	}
}
