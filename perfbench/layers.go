package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/heuristics"
	"stencilivc/internal/obsv"
	"stencilivc/internal/resultcache"
	"stencilivc/internal/service"
)

// perCall returns, in milliseconds, the median over reps of the mean time
// of f over items 0..n-1.
func perCall(reps, n int, f func(i int) error) (float64, error) {
	if n == 0 {
		return 0, nil
	}
	var per []float64
	for range reps {
		t0 := time.Now()
		for i := range n {
			if err := f(i); err != nil {
				return 0, err
			}
		}
		per = append(per, ms(time.Since(t0))/float64(n))
	}
	return median(per), nil
}

// decodeRequest is the daemon's request path up to admission, called
// from outside: JSON decode into service.Request, then the grid
// constructor of whichever form the request used.
func decodeRequest(body []byte) error {
	var req service.Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return err
	}
	var err error
	switch {
	case req.Instance != "":
		_, _, err = grid.Read(strings.NewReader(req.Instance))
	case req.Z > 0:
		_, err = grid.FromWeights3D(req.X, req.Y, req.Z, req.Weights)
	default:
		_, err = grid.FromWeights2D(req.X, req.Y, req.Weights)
	}
	return err
}

// serveLayers times the service and result-cache layers' public functions
// on the workload's sample, then the solver layers.
func serveLayers(m *metricSet, sample []*instance, hit bool, cfg config) error {
	type item struct {
		in   *instance
		s    grid.Stencil
		c    core.Coloring
		body []byte
	}
	var items []item
	for i, in := range sample {
		s, err := in.stencil()
		if err != nil {
			return err
		}
		r, err := reference(in, in.alg, runtime.GOMAXPROCS(0))
		if err != nil {
			return err
		}
		c := core.Coloring{Start: r.starts}
		// serve-hit sends both forms; serve-miss the structured one.
		items = append(items, item{in, s, c, in.body(tenantName(i), hit && i%2 == 1)})
	}
	reps := cfg.layerReps * 4
	dec, err := perCall(reps, len(items), func(i int) error { return decodeRequest(items[i].body) })
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	var buf bytes.Buffer
	enc, err := perCall(reps, len(items), func(i int) error {
		it := items[i]
		buf.Reset()
		e := json.NewEncoder(&buf)
		e.SetIndent("", "  ")
		return e.Encode(service.Result{
			ID: "job-1", Tenant: tenantName(i), Status: service.StatusDone, Alg: it.in.alg,
			MaxColor: it.c.MaxColor(it.s), Starts: it.c.Start, TraceID: obsv.FlightID(1),
		})
	})
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	m.set("service.decode_ms", dec, unitMS)
	m.set("service.encode_ms", enc, unitMS)

	// Fingerprint and Store cannot fail, so their perCall errors are nil.
	cache := resultcache.New(resultcache.Config{})
	keys := make([]core.CacheKey, len(items))
	fp, _ := perCall(reps, len(items), func(i int) error {
		keys[i] = resultcache.Fingerprint(items[i].in.alg, items[i].s)
		return nil
	})
	store, _ := perCall(reps, len(items), func(i int) error {
		it := items[i]
		cache.Store(keys[i], it.in.alg, tenantName(i), it.s, it.c, time.Millisecond)
		return nil
	})
	lookup, err := perCall(reps, len(items), func(i int) error {
		if _, _, ok := cache.Lookup(items[i].in.alg, items[i].s, tenantName(i)); !ok {
			return fmt.Errorf("resultcache: stored entry %s missed", items[i].in.key)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("resultcache.fingerprint_ms", fp, unitMS)
	m.set("resultcache.lookup_hit_ms", lookup, unitMS)
	m.set("resultcache.store_ms", store, unitMS)
	return solverLayers(m, sample, cfg)
}

// bypassedLayers records the daemon and cache layers as idle: solve-batch
// calls the library directly, so they do no work on it.
func bypassedLayers(m *metricSet) {
	for _, name := range []string{"service.decode_ms", "service.encode_ms",
		"service.admission_ms", "service.batch_wait_ms", "service.schedule_wait_ms",
		"service.solve_span_ms", "service.overhead_ms"} {
		m.set(name, 0, unitMS)
	}
	m.set("service.batch_size_mean", 0, unitCount)
	m.set("service.alloc_kb_per_request", 0, unitKB)
	for _, name := range []string{"resultcache.fingerprint_ms", "resultcache.lookup_hit_ms", "resultcache.store_ms"} {
		m.set(name, 0, unitMS)
	}
	m.set("resultcache.hit_ratio", 0, unitRatio)
	m.set("resultcache.evictions", 0, unitCount)
	m.set("resultcache.bytes", 0, unitBytes)
	m.set("obsv.flight_records_per_request", 0, unitCount)
}

// solverLayers times the heuristics, core, parallel and obsv layers on
// the workload's sample instances.
func solverLayers(m *metricSet, sample []*instance, cfg config) error {
	par := runtime.GOMAXPROCS(0)
	byDims := map[int][]grid.Stencil{}
	for _, in := range sample {
		s, err := in.stencil()
		if err != nil {
			return err
		}
		byDims[in.dims()] = append(byDims[in.dims()], s)
	}
	solveMS := map[string]float64{}
	for _, alg := range batchAlgs {
		var opts *core.SolveOptions
		if isPGLL(alg) {
			opts = &core.SolveOptions{Parallelism: par}
		}
		for _, d := range []int{2, 3} {
			ss := byDims[d]
			t, err := perCall(cfg.layerReps, len(ss), func(i int) error {
				_, err := heuristics.Run(heuristics.Algorithm(alg), ss[i], opts)
				return err
			})
			if err != nil {
				return err
			}
			m.set(fmt.Sprintf("heuristics.solve_ms.%s.%dd", alg, d), t, unitMS)
			solveMS[alg] += t
		}
	}
	for _, d := range []int{2, 3} {
		ss := byDims[d]
		t, err := perCall(1, len(ss), func(i int) error {
			_, _, err := heuristics.Best(ss[i], nil)
			return err
		})
		if err != nil {
			return err
		}
		m.set(fmt.Sprintf("heuristics.best_ms.%dd", d), t, unitMS)
	}

	// Exact counts: one sequential solve per paper algorithm and instance.
	st := &core.Stats{}
	for _, d := range []int{2, 3} {
		for _, s := range byDims[d] {
			for _, alg := range heuristics.All() {
				if _, err := heuristics.Run(alg, s, &core.SolveOptions{Stats: st}); err != nil {
					return err
				}
			}
		}
	}
	m.set("core.placements", float64(st.Placements()), unitCount)
	m.set("core.probes", float64(st.Probes()), unitCount)
	ppp := 0.0
	if st.Placements() > 0 {
		ppp = float64(st.Probes()) / float64(st.Placements())
	}
	m.set("core.probes_per_placement", ppp, unitRatio)
	for _, d := range []int{2, 3} {
		name := map[int]string{2: "core.place_ns.9pt", 3: "core.place_ns.27pt"}[d]
		ns, err := placeNS(byDims[d], cfg.layerReps)
		if err != nil {
			return err
		}
		m.set(name, ns, unitNS)
	}

	speedup := 0.0
	if solveMS["PGLL"] > 0 {
		speedup = solveMS["GLL"] / solveMS["PGLL"]
	}
	m.set("parallel.speedup", speedup, unitRatio)
	sm := obsv.NewSolveMetrics(obsv.NewRegistry())
	solves := 0
	for _, d := range []int{2, 3} {
		for _, s := range byDims[d] {
			if _, err := heuristics.Run(heuristics.PGLL, s, &core.SolveOptions{Parallelism: par, Metrics: sm}); err != nil {
				return err
			}
			solves++
		}
	}
	per := func(c *obsv.Counter) float64 { return float64(c.Value()) / float64(max(solves, 1)) }
	m.set("parallel.conflicts", per(sm.Conflicts), unitCount)
	m.set("parallel.repairs", per(sm.Repairs), unitCount)
	m.set("parallel.rounds", per(sm.RepairRounds), unitCount)
	m.set("parallel.steals", per(sm.Steals), unitCount)

	over, err := metricsOverhead(byDims[2], cfg.layerReps*4)
	if err != nil {
		return err
	}
	m.set("obsv.metrics_overhead_ms", over, unitMS)
	return nil
}

// placeNS times FitScratch.PlaceLowest over a line-order greedy sweep of
// each instance and returns nanoseconds per placement (median over reps).
func placeNS(ss []grid.Stencil, reps int) (float64, error) {
	n := 0
	for _, s := range ss {
		n += s.Len()
	}
	if n == 0 {
		return 0, nil
	}
	var per []float64
	for range reps {
		var total time.Duration
		for _, s := range ss {
			var fs core.FitScratch
			c := core.NewColoring(s.Len())
			t0 := time.Now()
			for v := range s.Len() {
				c.Start[v] = fs.PlaceLowest(s, c, v, -1)
			}
			total += time.Since(t0)
			if err := c.Validate(s); err != nil {
				return 0, fmt.Errorf("PlaceLowest sweep: %w", err)
			}
		}
		per = append(per, float64(total.Nanoseconds())/float64(n))
	}
	return median(per), nil
}

// metricsOverhead is GLL with the daemon's metrics bundle and runtime
// sampler minus GLL with nil options, per solve in milliseconds. The two
// are interleaved so drift hits both alike.
func metricsOverhead(ss []grid.Stencil, reps int) (float64, error) {
	reg := obsv.NewRegistry()
	with := &core.SolveOptions{Metrics: obsv.NewSolveMetrics(reg), Sampler: obsv.NewSampler(reg, 0)}
	var on, off []float64
	for range reps {
		for _, pair := range []struct {
			opts *core.SolveOptions
			out  *[]float64
		}{{nil, &off}, {with, &on}} {
			t, err := perCall(1, len(ss), func(i int) error {
				_, err := heuristics.Run(heuristics.GLL, ss[i], pair.opts)
				return err
			})
			if err != nil {
				return 0, err
			}
			*pair.out = append(*pair.out, t)
		}
	}
	return median(on) - median(off), nil
}

// overhead records traced minus untraced for every end-to-end metric.
func overhead(m *metricSet, base, traced *phase) {
	var b, t metricSet
	base.endToEnd(&b, "")
	traced.endToEnd(&t, "")
	for _, e := range endToEnd {
		m.set("trace_overhead."+e.name, t.get(e.name)-b.get(e.name), e.unit)
	}
}
