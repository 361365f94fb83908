package experiments

import (
	"strings"
	"testing"

	"stencilivc/internal/datasets"
	"stencilivc/internal/heuristics"
	"stencilivc/internal/perfprof"
)

// tiny keeps test runtimes small while still sweeping real instances.
func tiny() Options {
	return Options{Seed: 1, Stride: 4, MaxDim: 8, ExactBudget: 50_000, MaxExactCells: 500_000}
}

func TestRun2DSuite(t *testing.T) {
	res, err := Run2DSuite(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("no records")
	}
	nAlgs := len(heuristics.All())
	if len(res.Records)%nAlgs != 0 {
		t.Fatalf("record count %d not a multiple of %d algorithms", len(res.Records), nAlgs)
	}
	for _, rec := range res.Records {
		lb := res.LowerBound[rec.Instance]
		if rec.Value < lb {
			t.Fatalf("%s on %s: %d below LB %d", rec.Algorithm, rec.Instance, rec.Value, lb)
		}
		if rec.Runtime < 0 {
			t.Fatalf("negative runtime")
		}
	}
	// Profiles must be computable (complete matrix).
	if _, err := perfprof.Compute(res.Records); err != nil {
		t.Fatal(err)
	}
}

func TestRun3DSuiteAndTables(t *testing.T) {
	res, err := Run3DSuite(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("no records")
	}
	t2, err := MakeTable2(res)
	if err != nil {
		t.Fatal(err)
	}
	out := t2.Format()
	if !strings.Contains(out, "SGK colors vs GLF") {
		t.Errorf("table 2 malformed:\n%s", out)
	}
}

func TestTable1(t *testing.T) {
	res, err := Run2DSuite(tiny())
	if err != nil {
		t.Fatal(err)
	}
	t1, err := MakeTable1(res)
	if err != nil {
		t.Fatal(err)
	}
	if t1.BDPOverLB < 1.0 {
		t.Errorf("BDP/LB ratio %v below 1 — impossible for a valid LB", t1.BDPOverLB)
	}
	if t1.BDPOverLB > 2.0 {
		t.Errorf("BDP/LB ratio %v above the 2-approximation guarantee", t1.BDPOverLB)
	}
	if t1.PostGain < 0 {
		t.Errorf("post gain %v negative — BDP worse than BD", t1.PostGain)
	}
	if t1.OptimalRateBDP < 0 || t1.OptimalRateBDP > 1 {
		t.Errorf("optimal rate %v out of range", t1.OptimalRateBDP)
	}
	if !strings.Contains(t1.Format(), "paper: 1.03") {
		t.Error("table 1 missing paper reference values")
	}
}

func TestFilterByDataset(t *testing.T) {
	res, err := Run2DSuite(tiny())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, name := range datasets.Names() {
		recs := res.FilterByDataset(string(name))
		total += len(recs)
		if len(recs) == 0 {
			t.Errorf("no records for %s", name)
		}
		if _, err := perfprof.Compute(recs); err != nil {
			t.Errorf("%s records incomplete: %v", name, err)
		}
	}
	if total != len(res.Records) {
		t.Errorf("dataset split loses records: %d of %d", total, len(res.Records))
	}
}

func TestProvenOptimalAndFig9(t *testing.T) {
	res, err := Run2DSuite(tiny())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := res.ProvenOptimal(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ByLBMatch+rep.ByExact+rep.Unsolved != len(res.BestValue) {
		t.Fatalf("certification counts do not add up")
	}
	if len(rep.Optimum) == 0 {
		t.Fatal("no instance certified optimal; suspicious for small grids")
	}
	// Certified optima never exceed the best heuristic value.
	for inst, opt := range rep.Optimum {
		if opt > res.BestValue[inst] {
			t.Fatalf("certified optimum %d above best heuristic %d on %s", opt, res.BestValue[inst], inst)
		}
		if opt < res.LowerBound[inst] {
			t.Fatalf("certified optimum %d below LB on %s", opt, inst)
		}
	}
	recs := OptimalRecords(res.Records, rep)
	if len(recs) == 0 {
		t.Fatal("no Fig 9 records")
	}
	prof, err := perfprof.Compute(recs)
	if err != nil {
		t.Fatal(err)
	}
	// OPT always ties the best by construction.
	if prof.BestAt1("OPT") != 1.0 {
		t.Errorf("OPT win rate %v != 1", prof.BestAt1("OPT"))
	}
	t3 := MakeTable3(rep)
	if !strings.Contains(t3.Format("2D"), "certified optimal") {
		t.Error("table 3 malformed")
	}
}

func TestFig4(t *testing.T) {
	maps, err := Fig4(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range datasets.Names() {
		art, ok := maps[name]
		if !ok || len(art) == 0 {
			t.Errorf("no heat map for %s", name)
		}
		if !strings.Contains(art, "\n") {
			t.Errorf("%s heat map not multi-line", name)
		}
	}
}

func TestFig10SmallRun(t *testing.T) {
	// One small instance, few workers/runs: end-to-end through the real
	// parallel application.
	cfgs := []STKDEConfig{{
		Name:    "test-instance",
		Dataset: datasets.Dengue,
		Voxels:  [3]int{16, 16, 16},
		Boxes:   [3]int{4, 4, 4},
		BWFrac:  1.0 / 8,
	}}
	ms, err := Fig10(cfgs, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(heuristics.All()) {
		t.Fatalf("measurements = %d", len(ms))
	}
	for _, m := range ms {
		if m.Colors <= 0 {
			t.Errorf("%s: nonpositive colors", m.Algorithm)
		}
		if m.MeanSeconds < 0 {
			t.Errorf("%s: negative time", m.Algorithm)
		}
		if m.SimMakespan < m.Colors/10 {
			t.Errorf("%s: absurd sim makespan %d for %d colors", m.Algorithm, m.SimMakespan, m.Colors)
		}
	}
	reg, err := Fig10Regression(ms, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reg["test-instance"]; !ok {
		t.Fatal("no regression for the instance")
	}
	if _, err := Fig10(cfgs, 1, 0, 1); err == nil {
		t.Error("0 workers accepted")
	}
}

func TestQuickAndFullOptions(t *testing.T) {
	q, f := Quick(), Full()
	if q.Stride <= f.Stride && q.MaxDim == 0 {
		t.Error("Quick not smaller than Full")
	}
	if f.ExactBudget <= q.ExactBudget {
		t.Error("Full budget not larger")
	}
}

func TestRunAblations(t *testing.T) {
	rep, err := RunAblations(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BDP > rep.BD || rep.BDIterated > rep.BD {
		t.Fatalf("post passes worsened BD: %+v", rep)
	}
	if rep.BalancedMaxBox > rep.UniformMaxBox {
		t.Fatalf("balancing worsened the max box: %+v", rep)
	}
	if rep.DAGMakespan <= 0 || rep.WaveMakespan <= 0 {
		t.Fatalf("degenerate makespans: %+v", rep)
	}
	out := rep.Format()
	if !strings.Contains(out, "post-optimization ladder") {
		t.Errorf("format malformed:\n%s", out)
	}
	if _, err := RunAblations(1, 0); err == nil {
		t.Error("0 processors accepted")
	}
}

func TestFig10InstancesAllBuildable(t *testing.T) {
	cfgs := Fig10Instances()
	if len(cfgs) != 6 {
		t.Fatalf("instances = %d, want 6 as in the paper", len(cfgs))
	}
	seen := map[string]bool{}
	for _, cfg := range cfgs {
		if seen[cfg.Name] {
			t.Fatalf("duplicate instance name %s", cfg.Name)
		}
		seen[cfg.Name] = true
		app, err := BuildSTKDE(cfg, 1)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		g := app.BoxGrid()
		if g.X() != cfg.Boxes[0] || g.Y() != cfg.Boxes[1] || g.Z() != cfg.Boxes[2] {
			t.Fatalf("%s: box grid %dx%dx%d != config %v", cfg.Name, g.X(), g.Y(), g.Z(), cfg.Boxes)
		}
	}
}

func TestProvenOptimalVertexGate(t *testing.T) {
	// With a 1-vertex gate, every LB-mismatched instance must be counted
	// unsolved rather than exact-solved.
	res, err := Run2DSuite(tiny())
	if err != nil {
		t.Fatal(err)
	}
	gated := tiny()
	gated.MaxExactVertices = 1
	rep, err := res.ProvenOptimal(gated)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ByExact != 0 {
		t.Fatalf("exact solves ran despite the gate: %d", rep.ByExact)
	}
	mismatched := 0
	for label, best := range res.BestValue {
		if best != res.LowerBound[label] {
			mismatched++
		}
	}
	if rep.Unsolved != mismatched {
		t.Fatalf("unsolved = %d, want all %d mismatched", rep.Unsolved, mismatched)
	}
}

// TestFig10SimulatedCorrelationPositive: on all six Figure 10 instances
// the makespan simulated at the paper's 6 processors grows with the
// coloring's maxcolor (r > 0), as §VII reports. The simulation ignores
// the real worker count, so one worker is enough here.
func TestFig10SimulatedCorrelationPositive(t *testing.T) {
	cfgs := Fig10Instances()
	ms, err := Fig10(cfgs, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := Fig10Regression(ms, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range cfgs {
		if r := reg[cfg.Name][2]; r <= 0 {
			t.Errorf("%s: simulated colors->makespan r = %+.3f, want > 0", cfg.Name, r)
		}
	}
}
