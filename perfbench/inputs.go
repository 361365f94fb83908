package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strconv"

	"stencilivc/internal/bounds"
	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/heuristics"
	"stencilivc/internal/service"
)

// Stream ids keep the benchmark's input families apart: the same seed
// and index never produce the same instance in two streams, so warm-up,
// pool and timed instances are distinct.
const (
	streamTimed uint64 = iota + 1
	streamWarm
	streamPool
	streamPanel
	streamBatch
)

// panelSeed seeds the serve workloads' quality panel. It is fixed, not
// taken from --seed, so quality_ratio on serve-* is identical across runs
// and seeds: it is never averaged over whatever finished in a window.
const panelSeed = 0x5eed

// algBest is the service's portfolio pseudo-algorithm.
const algBest = "best"

// serveAlgs is the serve mix: the paper's seven plus the portfolio, in
// equal proportions.
var serveAlgs = append(algNames(heuristics.All()), algBest)

// batchAlgs is the solve-batch sequence: the paper's seven plus PGLL.
var batchAlgs = append(algNames(heuristics.All()), string(heuristics.PGLL))

func algNames(algs []heuristics.Algorithm) []string {
	out := make([]string, len(algs))
	for i, a := range algs {
		out[i] = string(a)
	}
	return out
}

// instance is one generated input: a weighted stencil plus the algorithm
// and request form it is solved with. z == 0 marks a 2D (9-pt) instance.
type instance struct {
	key     string // unique per generated instance; keys the reference map
	x, y, z int
	w       []int64
	alg     string
}

func (in *instance) dims() int {
	if in.z == 0 {
		return 2
	}
	return 3
}

func (in *instance) vertices() int { return len(in.w) }

// stencil builds the grid through the public constructors.
func (in *instance) stencil() (grid.Stencil, error) {
	if in.z == 0 {
		return grid.FromWeights2D(in.x, in.y, in.w)
	}
	return grid.FromWeights3D(in.x, in.y, in.z, in.w)
}

// instanceText renders the ivc2d/ivc3d text form.
func (in *instance) instanceText() string {
	var b []byte
	if in.z == 0 {
		b = fmt.Appendf(b, "ivc2d %d %d\n", in.x, in.y)
	} else {
		b = fmt.Appendf(b, "ivc3d %d %d %d\n", in.x, in.y, in.z)
	}
	for v, w := range in.w {
		if v > 0 {
			if v%in.x == 0 {
				b = append(b, '\n')
			} else {
				b = append(b, ' ')
			}
		}
		b = strconv.AppendInt(b, w, 10)
	}
	return string(append(b, '\n'))
}

// body encodes the POST /solve request for tenant, in the ivc text form
// when text is set and the structured x/y/z + weights form otherwise.
func (in *instance) body(tenant string, text bool) []byte {
	req := service.Request{Tenant: tenant, Alg: in.alg}
	if text {
		req.Instance = in.instanceText()
	} else {
		req.X, req.Y, req.Z, req.Weights = in.x, in.y, in.z, in.w
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a Request of ints and strings always encodes
	}
	return b
}

// sizes sets the side lengths of the generated instances: a range per
// stencil for the serve workloads, one side per stencil for solve-batch.
type sizes struct {
	min2, max2 int // 9-pt side
	min3, max3 int // 27-pt side
	batch2     int // solve-batch 2D side
	batch3     int // solve-batch 3D side
}

var fullSizes = sizes{min2: 64, max2: 128, min3: 16, max3: 24, batch2: 256, batch3: 40}

// smallSizes keeps the benchmark's own tests fast.
var smallSizes = sizes{min2: 8, max2: 16, min3: 4, max3: 6, batch2: 24, batch3: 8}

func rngFor(seed, stream uint64, idx int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream<<40|uint64(idx)))
}

// serveBlock is how many consecutive serve instances share one layout:
// every algorithm of serveAlgs once on each stencil.
var serveBlock = 2 * len(serveAlgs)

// serveInstance generates instance idx of a serve stream, with weights
// 1–9. Instances come in blocks that hold every algorithm once per
// stencil, in a seeded order. The sides do not depend on the seed: over a
// cycle of len(serveAlgs) blocks every algorithm meets the midpoint of
// every stratum of the size range once on each axis. The seed draws only
// the order within a block and the weights, so the work of a run, and
// the slowest requests that set p99, are the same for every seed.
func serveInstance(seed, stream uint64, idx int, sz sizes) *instance {
	block, pos := idx/serveBlock, idx%serveBlock
	slot := rngFor(seed, stream|1<<20, block).Perm(serveBlock)[pos]
	na := len(serveAlgs)
	j := slot % na
	// step is odd and na a power of two, so (j+step*block) % na runs
	// through every stratum as block does.
	side := func(step, lo, hi int) int {
		stratum := (j + step*block) % na
		return lo + (2*stratum+1)*(hi-lo+1)/(2*na)
	}
	in := &instance{key: fmt.Sprintf("%d/%d/%d", seed, stream, idx), alg: serveAlgs[j]}
	if slot < na {
		in.x, in.y = side(1, sz.min2, sz.max2), side(3, sz.min2, sz.max2)
	} else {
		in.x, in.y, in.z = side(1, sz.min3, sz.max3), side(3, sz.min3, sz.max3), side(5, sz.min3, sz.max3)
	}
	r := rngFor(seed, stream, idx)
	in.w = make([]int64, in.x*in.y*max(in.z, 1))
	for v := range in.w {
		in.w[v] = 1 + r.Int64N(9)
	}
	return in
}

// Weight families of solve-batch.
var families = []string{"random", "constant", "corner"}

// batchConstant is the weight of the constant family. It is fixed, not
// seeded, so the solve sequence does the same work for every seed.
const batchConstant = 5

// batchInstance generates the solve-batch instance of one weight family
// and dimensionality: random 1–9 (the streaming mixed-weight kernel), a
// constant (the packed free-map kernel), or 1–9 with a heavy 60–99
// corner of a quarter per axis (work stealing in PGLL).
func batchInstance(seed uint64, family string, dims int, sz sizes) *instance {
	fi := 0
	for i, f := range families {
		if f == family {
			fi = i
		}
	}
	r := rngFor(seed, streamBatch, fi*4+dims)
	in := &instance{key: fmt.Sprintf("%d/batch/%s/%dd", seed, family, dims)}
	side := sz.batch2
	in.x, in.y = side, side
	if dims == 3 {
		side = sz.batch3
		in.x, in.y, in.z = side, side, side
	}
	in.w = make([]int64, in.x*in.y*max(in.z, 1))
	for v := range in.w {
		switch family {
		case "constant":
			in.w[v] = batchConstant
		default:
			in.w[v] = 1 + r.Int64N(9)
		}
	}
	if family == "corner" {
		q := side / 4
		for v := range in.w {
			i, j, k := v%in.x, v/in.x%in.y, v/(in.x*in.y)
			if i < q && j < q && (dims == 2 || k < q) {
				in.w[v] = 60 + r.Int64N(40)
			}
		}
	}
	return in
}

// ref is the checked reference answer for one (instance, algorithm) pair.
type ref struct {
	alg      string // the algorithm that produced it (the winner for best)
	maxcolor int64
	lb       int64 // the §III clique bound: MaxK4 in 2D, MaxK8 in 3D
	hash     uint64
	starts   []int64
}

// lowerBound returns the §III clique lower bound of s.
func lowerBound(s grid.Stencil) int64 {
	switch g := s.(type) {
	case *grid.Grid2D:
		return bounds.MaxK4(g)
	case *grid.Grid3D:
		return bounds.MaxK8(g)
	}
	return 0
}

// checkColoring validates c on s and checks it against the lower bound,
// returning its maxcolor and the bound.
func checkColoring(s grid.Stencil, c core.Coloring) (mc, lb int64, err error) {
	if err := c.Validate(s); err != nil {
		return 0, 0, err
	}
	mc, lb = c.MaxColor(s), lowerBound(s)
	if mc < lb {
		return mc, lb, fmt.Errorf("maxcolor %d below the clique bound %d", mc, lb)
	}
	return mc, lb, nil
}

// reference solves in with alg the way the library path does —
// heuristics.Best for the portfolio, heuristics.Run otherwise — with nil
// options (Parallelism for PGLL), and checks the result.
func reference(in *instance, alg string, par int) (ref, error) {
	s, err := in.stencil()
	if err != nil {
		return ref{}, err
	}
	var opts *core.SolveOptions
	if alg == string(heuristics.PGLL) {
		opts = &core.SolveOptions{Parallelism: par}
	}
	var (
		c   core.Coloring
		win = heuristics.Algorithm(alg)
	)
	if alg == algBest {
		c, win, err = heuristics.Best(s, opts)
	} else {
		c, err = heuristics.Run(win, s, opts)
	}
	if err != nil {
		return ref{}, fmt.Errorf("%s on %s: %w", alg, in.key, err)
	}
	mc, lb, err := checkColoring(s, c)
	if err != nil {
		return ref{}, fmt.Errorf("%s on %s: %w", alg, in.key, err)
	}
	return ref{alg: string(win), maxcolor: mc, lb: lb, hash: hashStarts(c.Start), starts: c.Start}, nil
}

// hashStarts fingerprints a coloring (FNV-1a over the start words) so
// responses are compared with their reference without keeping every
// response's starts.
func hashStarts(starts []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range starts {
		h = (h ^ uint64(s)) * 1099511628211
	}
	return h
}
