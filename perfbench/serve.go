package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"stencilivc/internal/obsv"
	"stencilivc/internal/resultcache"
	"stencilivc/internal/service"
)

// tracedFlightEntries sizes the flight ring of the traced phase so it
// keeps every request of a run; the daemon's default 4096 entries keep
// only about 700.
const tracedFlightEntries = 1 << 17

// daemon is one solve daemon configured the way `ivc -serve` builds it
// (a registry, the runtime sampler, default workers, the default 64 MiB
// in-memory cache, no cache directory, no event log), driven in-process
// through its HTTP handler.
type daemon struct {
	srv *service.Server
	h   http.Handler
}

func newDaemon(flightEntries int) (*daemon, error) {
	reg := obsv.NewRegistry()
	srv, err := service.New(service.Config{
		Registry:      reg,
		Sampler:       obsv.NewSampler(reg, 0),
		FlightEntries: flightEntries,
	})
	if err != nil {
		return nil, fmt.Errorf("service.New: %w", err)
	}
	return &daemon{srv: srv, h: srv.Handler()}, nil
}

// close drains the daemon and waits for its workers to exit.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return d.srv.Close(ctx)
}

// post sends one request through the handler and returns its wall and
// CPU time. Both cover the ServeHTTP call alone: building the request
// happens before it and decoding the response after it.
func (d *daemon) post(body []byte) (wall, cpu time.Duration, rec *httptest.ResponseRecorder) {
	req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body))
	rec = httptest.NewRecorder()
	c0, t0 := cpuNow(), time.Now()
	d.h.ServeHTTP(rec, req)
	wall = time.Since(t0)
	return wall, cpuNow() - c0, rec
}

// scrape reads the unlabelled samples of GET /metrics.
func (d *daemon) scrape() map[string]float64 {
	rec := httptest.NewRecorder()
	d.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

// outcome is one checked response, kept small: the instance is
// regenerated from src when its reference is computed.
type outcome struct {
	key      string
	src      func() *instance
	code     int
	res      service.Result // Starts dropped after hashing
	hash     uint64
	trace    uint64
	lat      time.Duration
	panel    bool
	decodeOK bool
}

// request is one request of a workload's closed loop.
type request struct {
	key  string
	src  func() *instance
	body []byte
	n    int // vertices
}

// tenantName names the workload's two tenants.
func tenantName(i int) string { return "tenant-" + string(rune('a'+i%2)) }

// missTraffic returns request k of serve-miss: a distinct seeded
// instance, the two tenants alternating.
func missTraffic(seed uint64, sz sizes) func(k int) request {
	return func(k int) request {
		src := func() *instance { return serveInstance(seed, streamTimed, k, sz) }
		in := src()
		return request{key: in.key, src: src, body: in.body(tenantName(k), false), n: in.vertices()}
	}
}

// poolBodies pre-encodes every pool instance for both tenants and both
// forms: bodies[tenant][form][i].
func poolBodies(pool []*instance) [2][2][][]byte {
	var out [2][2][][]byte
	for t := range 2 {
		for f := range 2 {
			for _, in := range pool {
				out[t][f] = append(out[t][f], in.body(tenantName(t), f == 1))
			}
		}
	}
	return out
}

// hitTraffic returns request k of serve-hit: the warmed pool in order,
// the two tenants alternating, and every two passes over the pool a
// switch between the structured and the text form. One client, not one
// per tenant: two clients and two workers oversubscribe two cores, and
// their tail latency then follows the host's load more than the daemon.
func hitTraffic(pool []*instance, bodies [2][2][][]byte) func(k int) request {
	return func(k int) request {
		i := k % len(pool)
		tenant, form := (k+k/len(pool))%2, k/(2*len(pool))%2
		in := pool[i]
		return request{key: in.key, src: func() *instance { return in },
			body: bodies[tenant][form][i], n: in.vertices()}
	}
}

// drive runs the closed loop, one request at a time, until at least
// seconds have passed and at least minOps requests completed. It returns
// the timed phase and every response's outcome.
func drive(d *daemon, next func(k int) request, seconds float64, minOps int, tamper func(int, *service.Result)) (*phase, []outcome) {
	p := &phase{}
	var outs []outcome
	limit := time.Duration(seconds * float64(time.Second))
	p.begin()
	for k := 0; time.Since(p.start) < limit || k < minOps; k++ {
		rq := next(k)
		l, c, rec := d.post(rq.body)
		o := outcome{key: rq.key, src: rq.src, code: rec.Code, lat: l}
		o.decode(rec.Body.Bytes(), func(r *service.Result) {
			if tamper != nil {
				tamper(k, r)
			}
		})
		outs = append(outs, o)
		p.op(l, c, rq.n)
	}
	p.end()
	return p, outs
}

// decode parses the response body, lets edit change it (the tests'
// tampering hook), and keeps the starts' hash instead of the starts.
func (o *outcome) decode(body []byte, edit func(*service.Result)) {
	if err := json.Unmarshal(body, &o.res); err != nil {
		return
	}
	o.decodeOK = true
	edit(&o.res)
	o.hash = hashStarts(o.res.Starts)
	o.res.Starts = nil
	o.trace = obsv.ParseFlightID(o.res.TraceID)
}

// sendAll posts each request sequentially (warm-up and panel passes).
func sendAll(d *daemon, rqs []request, panel bool) []outcome {
	var outs []outcome
	for _, rq := range rqs {
		l, _, rec := d.post(rq.body)
		o := outcome{key: rq.key, src: rq.src, code: rec.Code, lat: l, panel: panel}
		o.decode(rec.Body.Bytes(), func(*service.Result) {})
		outs = append(outs, o)
	}
	return outs
}

// refBook computes and keeps the reference answer of every distinct
// instance it is asked about.
type refBook struct {
	par  int
	mu   sync.Mutex
	refs map[string]ref
	errs map[string]error
}

func newRefBook() *refBook {
	return &refBook{par: runtime.GOMAXPROCS(0), refs: map[string]ref{}, errs: map[string]error{}}
}

// fill computes the missing references of outs on GOMAXPROCS workers.
func (b *refBook) fill(outs []outcome) {
	todo := map[string]func() *instance{}
	b.mu.Lock()
	for _, o := range outs {
		if _, ok := b.refs[o.key]; !ok && b.errs[o.key] == nil {
			todo[o.key] = o.src
		}
	}
	b.mu.Unlock()
	work := make(chan func() *instance)
	var wg sync.WaitGroup
	for range b.par {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for src := range work {
				in := src()
				r, err := reference(in, in.alg, b.par)
				r.starts = nil // serve checks compare hashes only
				b.mu.Lock()
				if err != nil {
					b.errs[in.key] = err
				} else {
					b.refs[in.key] = r
				}
				b.mu.Unlock()
			}
		}()
	}
	for _, src := range todo {
		work <- src
	}
	close(work)
	wg.Wait()
}

// check compares one response with its reference: HTTP 200, a done and
// complete result, and the reference's algorithm, maxcolor and starts.
func (b *refBook) check(o outcome) error {
	b.mu.Lock()
	r, ok := b.refs[o.key]
	rerr := b.errs[o.key]
	b.mu.Unlock()
	switch {
	case rerr != nil:
		return rerr
	case !ok:
		return fmt.Errorf("%s: no reference", o.key)
	case o.code != http.StatusOK || !o.decodeOK:
		return fmt.Errorf("%s: HTTP %d", o.key, o.code)
	case o.res.Status != service.StatusDone || o.res.Partial:
		return fmt.Errorf("%s: status %q partial=%v: %s", o.key, o.res.Status, o.res.Partial, o.res.Error)
	case o.res.Alg != r.alg || o.res.MaxColor != r.maxcolor:
		return fmt.Errorf("%s: got %s maxcolor %d, reference %s maxcolor %d",
			o.key, o.res.Alg, o.res.MaxColor, r.alg, r.maxcolor)
	case o.hash != r.hash:
		return fmt.Errorf("%s: starts differ from the reference coloring", o.key)
	}
	return nil
}

// verify checks every outcome against its reference and tallies it. It
// returns the panel's mean maxcolor / lower bound.
func (b *refBook) verify(outs []outcome, t *tally) float64 {
	b.fill(outs)
	var sum float64
	n := 0
	for _, o := range outs {
		err := b.check(o)
		t.check(err)
		if o.panel && err == nil {
			sum += float64(o.res.MaxColor) / float64(b.refs[o.key].lb)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// serveRun is one serve workload: its inputs, references and daemons.
type serveRun struct {
	cfg    config
	hit    bool
	warm   []request // the set-up pass
	panel  []request // the fixed quality panel
	sample []*instance
	next   func(k int) request
	book   *refBook
	t      *tally
}

func newServeRun(cfg config, hit bool, t *tally) *serveRun {
	sz := cfg.sizes
	r := &serveRun{cfg: cfg, hit: hit, book: newRefBook(), t: t}
	for i := range cfg.panel {
		in := serveInstance(panelSeed, streamPanel, i, sz)
		r.panel = append(r.panel, request{key: in.key, src: func() *instance { return in },
			body: in.body(tenantName(i), hit && i%2 == 1), n: in.vertices()})
	}
	if hit {
		pool := make([]*instance, cfg.pool)
		for i := range pool {
			pool[i] = serveInstance(cfg.seed, streamPool, i, sz)
		}
		bodies := poolBodies(pool)
		// Set-up solves every pool instance once, cold, as a restarted
		// daemon would.
		for i, in := range pool {
			r.warm = append(r.warm, request{key: in.key, src: func() *instance { return in },
				body: bodies[0][0][i], n: in.vertices()})
		}
		r.next = hitTraffic(pool, bodies)
		r.sample = pickSample(func(i int) *instance { return pool[i%len(pool)] })
		return r
	}
	for i := range cfg.warmups {
		in := serveInstance(cfg.seed, streamWarm, i, sz)
		r.warm = append(r.warm, request{key: in.key, src: func() *instance { return in },
			body: in.body(tenantName(i), false), n: in.vertices()})
	}
	r.next = missTraffic(cfg.seed, sz)
	r.sample = pickSample(func(i int) *instance { return serveInstance(cfg.seed, streamTimed, i, sz) })
	return r
}

// pickSample takes the first two 9-pt and the first two 27-pt instances
// of a stream: the inputs the per-layer timings run on.
func pickSample(gen func(int) *instance) []*instance {
	var out []*instance
	n2, n3 := 0, 0
	for i := 0; i < 256 && (n2 < 2 || n3 < 2); i++ {
		in := gen(i)
		if in.dims() == 2 && n2 < 2 {
			out, n2 = append(out, in), n2+1
		} else if in.dims() == 3 && n3 < 2 {
			out, n3 = append(out, in), n3+1
		}
	}
	return out
}

// setup builds the daemon cfg.setups times, each time running the
// warm-up pass, and keeps the last one. It returns each repetition's
// scaled CPU time and every warm-up response.
func (r *serveRun) setup(flightEntries int) (*daemon, []time.Duration, []outcome, error) {
	var (
		d     *daemon
		times []time.Duration
		outs  []outcome
	)
	for range r.cfg.setups {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, nil, nil, err
			}
		}
		c0 := cpuNow()
		var err error
		if d, err = newDaemon(flightEntries); err != nil {
			return nil, nil, nil, err
		}
		w := sendAll(d, r.warm, false)
		times = append(times, scaleBy(cpuNow()-c0, calMedian(2*calWindow+1)))
		outs = append(outs, w...)
	}
	return d, times, outs, nil
}

// cacheDelta is the result cache's accounting over a timed phase.
type cacheDelta struct {
	hits, misses, evictions, bytes int64
}

func cacheSpan(c *resultcache.Cache, before resultcache.Stats) cacheDelta {
	after := c.Snapshot()
	return cacheDelta{
		hits: after.Hits - before.Hits, misses: after.Misses - before.Misses,
		evictions: after.Evictions - before.Evictions, bytes: after.Bytes,
	}
}

// run executes the workload. Untraced, it measures the end-to-end
// metrics; traced, it measures them twice — on the daemon as shipped and
// with a ring large enough to keep every request's spans — and adds the
// per-layer metrics and the tracing overhead.
func (r *serveRun) run(st *stamp) (*metricSet, error) {
	m := &metricSet{}
	base, extras, err := r.phase(0, st, "")
	if err != nil {
		return nil, err
	}
	if !r.cfg.trace {
		base.endToEnd(m, "")
		return m, nil
	}
	traced, spans, err := r.phase(tracedFlightEntries, st, "traced_")
	if err != nil {
		return nil, err
	}
	traced.quality = base.quality
	base.wallMetrics(m)
	layerService(m, extras, spans)
	if err := serveLayers(m, r.sample, r.hit, r.cfg); err != nil {
		return nil, err
	}
	overhead(m, base, traced)
	return m, nil
}

// serveExtras holds what a phase measured beyond the end-to-end metrics.
type serveExtras struct {
	cache       cacheDelta
	batchSize   float64
	records     float64
	allocKB     float64
	spanMeans   map[string]float64
	overheadMS  float64
	tracedCount int
}

// phase runs set-up, the timed closed loop, the quality panel and the
// checks on one daemon.
func (r *serveRun) phase(flightEntries int, st *stamp, label string) (*phase, serveExtras, error) {
	d, setups, warm, err := r.setup(flightEntries)
	if err != nil {
		return nil, serveExtras{}, err
	}
	cs0, m0, a0 := d.srv.Cache().Snapshot(), d.scrape(), allocBytes()
	tp, outs := drive(d, r.next, r.cfg.seconds, r.cfg.minOps, r.cfg.tamper)
	a1, m1 := allocBytes(), d.scrape()
	ex := serveExtras{cache: cacheSpan(d.srv.Cache(), cs0)}
	ex.allocKB = float64(a1-a0) / 1024 / float64(len(outs))
	if n := m1["service_batch_size_count"] - m0["service_batch_size_count"]; n > 0 {
		ex.batchSize = (m1["service_batch_size_sum"] - m0["service_batch_size_sum"]) / n
	}
	ex.records = (m1["flight_records_total"] - m0["flight_records_total"]) / float64(len(outs))
	if flightEntries > 0 {
		ex.spanMeans, ex.overheadMS, ex.tracedCount = spanMeans(d.srv.Flight(), outs)
	}
	panel := sendAll(d, r.panel, true)
	if err := d.close(); err != nil {
		return nil, serveExtras{}, err
	}
	tp.setup = setups
	all := append(append(warm, outs...), panel...)
	tp.quality = r.book.verify(all, r.t)
	if label == "" {
		tp.stampHost(st)
	}
	st.Samples[label+"ops"] = len(tp.lat)
	st.Samples[label+"heap_cycles"] = cycles(tp)
	st.Samples[label+"setup"] = len(tp.setup)
	if ex.tracedCount > 0 {
		st.Samples[label+"spans"] = ex.tracedCount
	}
	return tp, ex, nil
}

// spanMeans averages the flight-recorder spans of every timed request
// whose trace the ring still holds: admission, batch wait, scheduler
// wait and solve, plus request latency minus the solve span.
func spanMeans(fr *obsv.FlightRecorder, outs []outcome) (map[string]float64, float64, int) {
	want := map[string]bool{"admission": true, "batch": true, "schedule": true, "solve": true}
	byTrace := map[uint64]map[string]int64{}
	for _, rec := range fr.Snapshot(0, "", "", 0) {
		if rec.Kind != obsv.FlightKindSpan || !want[rec.Name] {
			continue
		}
		spans := byTrace[rec.Trace]
		if spans == nil {
			spans = map[string]int64{}
			byTrace[rec.Trace] = spans
		}
		spans[rec.Name] += rec.WallNS
	}
	sums := map[string]float64{}
	var over float64
	n := 0
	for _, o := range outs {
		spans, ok := byTrace[o.trace]
		if !ok || spans["solve"] == 0 {
			continue
		}
		for name := range want {
			sums[name] += float64(spans[name]) / 1e6
		}
		over += ms(o.lat) - float64(spans["solve"])/1e6
		n++
	}
	if n == 0 {
		return sums, 0, 0
	}
	for name := range sums {
		sums[name] /= float64(n)
	}
	return sums, over / float64(n), n
}

// layerService records the daemon-side per-layer metrics: counters from
// the untraced phase, span means from the traced one.
func layerService(m *metricSet, base, traced serveExtras) {
	sp := traced.spanMeans
	m.set("service.admission_ms", sp["admission"], unitMS)
	m.set("service.batch_wait_ms", sp["batch"], unitMS)
	m.set("service.schedule_wait_ms", sp["schedule"], unitMS)
	m.set("service.solve_span_ms", sp["solve"], unitMS)
	m.set("service.overhead_ms", traced.overheadMS, unitMS)
	m.set("service.batch_size_mean", base.batchSize, unitCount)
	m.set("service.alloc_kb_per_request", base.allocKB, unitKB)
	c := base.cache
	ratio := 0.0
	if c.hits+c.misses > 0 {
		ratio = float64(c.hits) / float64(c.hits+c.misses)
	}
	m.set("resultcache.hit_ratio", ratio, unitRatio)
	m.set("resultcache.evictions", float64(c.evictions), unitCount)
	m.set("resultcache.bytes", float64(c.bytes), unitBytes)
	m.set("obsv.flight_records_per_request", base.records, unitCount)
}
