package main

import (
	"fmt"
	"runtime"
	"time"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/heuristics"
	"stencilivc/internal/obsv"
)

// batchRun is the solve-batch workload: the library path
// (heuristics.Run, as stencilivc.Solve calls it) with no daemon and no
// cache, over every weight family, both stencils and every algorithm of
// batchAlgs.
type batchRun struct {
	cfg   config
	par   int
	insts []*instance
	refs  map[string]ref // sequential algorithms only; keyed by pairKey
	t     *tally
}

func pairKey(in *instance, alg string) string { return in.key + "/" + alg }

func isPGLL(alg string) bool { return alg == string(heuristics.PGLL) }

func newBatchRun(cfg config, t *tally) (*batchRun, error) {
	b := &batchRun{cfg: cfg, par: runtime.GOMAXPROCS(0), refs: map[string]ref{}, t: t}
	for _, f := range families {
		for _, dims := range []int{2, 3} {
			b.insts = append(b.insts, batchInstance(cfg.seed, f, dims, cfg.sizes))
		}
	}
	// References are the benchmark's own cost: computed before set-up.
	// PGLL at par > 1 speculates without blinding, so its coloring depends
	// on timing and each result is checked on its own instead.
	for _, in := range b.insts {
		for _, alg := range batchAlgs {
			if isPGLL(alg) {
				continue
			}
			r, err := reference(in, alg, b.par)
			if err != nil {
				return nil, err
			}
			r.starts = nil
			b.refs[pairKey(in, alg)] = r
		}
	}
	return b, nil
}

// opts returns the solve options of one call: nil, except Parallelism for
// PGLL; the traced phase also attaches a Stats sink and a metrics bundle.
func (b *batchRun) opts(alg string, traced *core.SolveOptions) *core.SolveOptions {
	if traced == nil && !isPGLL(alg) {
		return nil
	}
	o := &core.SolveOptions{}
	if traced != nil {
		*o = *traced
	}
	if isPGLL(alg) {
		o.Parallelism = b.par
	}
	return o
}

// setup builds the grids and runs one warm-up solve per algorithm, weight
// family and stencil, cfg.setups times; each repetition's scaled CPU time
// is taken.
func (b *batchRun) setup(p *phase, traced *core.SolveOptions) ([]grid.Stencil, error) {
	var ss []grid.Stencil
	for range b.cfg.setups {
		c0 := cpuNow()
		ss = ss[:0]
		for _, in := range b.insts {
			s, err := in.stencil()
			if err != nil {
				return nil, err
			}
			ss = append(ss, s)
		}
		for _, s := range ss {
			for _, alg := range batchAlgs {
				if _, err := heuristics.Run(heuristics.Algorithm(alg), s, b.opts(alg, traced)); err != nil {
					return nil, fmt.Errorf("warm-up %s: %w", alg, err)
				}
			}
		}
		p.setup = append(p.setup, scaleBy(cpuNow()-c0, calMedian(2*calWindow+1)))
	}
	return ss, nil
}

// check compares one timed solve with its reference, or for PGLL
// validates it and checks it against the lower bound. It returns
// maxcolor / lower bound.
func (b *batchRun) check(in *instance, alg string, s grid.Stencil, c core.Coloring) (float64, error) {
	if isPGLL(alg) {
		mc, lb, err := checkColoring(s, c)
		if err != nil {
			return 0, fmt.Errorf("PGLL on %s: %w", in.key, err)
		}
		return float64(mc) / float64(lb), nil
	}
	r := b.refs[pairKey(in, alg)]
	if mc := c.MaxColor(s); mc != r.maxcolor || hashStarts(c.Start) != r.hash {
		return 0, fmt.Errorf("%s on %s: maxcolor %d differs from the reference %d or its starts do",
			alg, in.key, mc, r.maxcolor)
	}
	return float64(r.maxcolor) / float64(r.lb), nil
}

// phase runs set-up and then whole passes over the solve sequence until
// cfg.seconds have passed and cfg.minOps solves completed. quality_ratio
// is the mean over the first pass, a fixed list of solves.
func (b *batchRun) phase(traced *core.SolveOptions) (*phase, error) {
	p := &phase{}
	ss, err := b.setup(p, traced)
	if err != nil {
		return nil, err
	}
	limit := time.Duration(b.cfg.seconds * float64(time.Second))
	var qsum float64
	qn := 0
	p.passLen = len(ss) * len(batchAlgs)
	for _, in := range b.insts {
		p.passVerts += int64(in.vertices() * len(batchAlgs))
	}
	p.begin()
	for pass := 0; p.busy < limit || len(p.lat) < b.cfg.minOps; pass++ {
		for i, s := range ss {
			in := b.insts[i]
			for _, alg := range batchAlgs {
				opts := b.opts(alg, traced)
				c0, t0 := cpuNow(), time.Now()
				c, err := heuristics.Run(heuristics.Algorithm(alg), s, opts)
				d := time.Since(t0)
				dc := cpuNow() - c0
				if err == nil {
					var q float64
					q, err = b.check(in, alg, s, c)
					if pass == 0 && err == nil {
						qsum += q
						qn++
					}
				}
				b.t.check(err)
				p.busy += d
				p.op(d, dc, in.vertices())
			}
		}
	}
	p.end()
	if qn > 0 {
		p.quality = qsum / float64(qn)
	}
	return p, nil
}

// run executes the workload; traced, it repeats the phase with a Stats
// sink and a metrics bundle on every solve, and adds the per-layer
// metrics and the tracing overhead.
func (b *batchRun) run(st *stamp) (*metricSet, error) {
	m := &metricSet{}
	base, err := b.phase(nil)
	if err != nil {
		return nil, err
	}
	base.stampHost(st)
	st.Samples["ops"] = len(base.lat)
	st.Samples["passes"] = len(base.lat) / base.passLen
	st.Samples["heap_cycles"] = cycles(base)
	st.Samples["setup"] = len(base.setup)
	if !b.cfg.trace {
		base.endToEnd(m, "")
		return m, nil
	}
	reg := obsv.NewRegistry()
	traced, err := b.phase(&core.SolveOptions{Stats: &core.Stats{}, Metrics: obsv.NewSolveMetrics(reg)})
	if err != nil {
		return nil, err
	}
	st.Samples["traced_ops"] = len(traced.lat)
	base.wallMetrics(m)
	bypassedLayers(m)
	if err := solverLayers(m, b.insts, b.cfg); err != nil {
		return nil, err
	}
	overhead(m, base, traced)
	return m, nil
}
