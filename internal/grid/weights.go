package grid

import (
	"fmt"
	"math"
	"slices"
)

// weightStore is the one owner of a grid's vertex weights, for both
// grid types: the slice and its running total. Every write goes
// through it — the constructors check and then copy or adopt a slice,
// Set replaces one weight under the overflow guard, Clone copies — so
// the total is always the exact sum, and the guarantee it backs holds
// for every grid: Σw fits in int64, hence so does every interval end
// start+w a solver can produce.
type weightStore struct {
	w     []int64
	total int64
}

// adoptWeights checks ws for a grid of cells vertices — the count, no
// negative weight, a total that fits in int64 — and returns a store
// that keeps ws itself, so it suits only a caller that holds the slice
// alone (Read). Nothing is allocated, so a request naming huge
// dimensions with too few weights costs nothing.
func adoptWeights(cells int, ws []int64) (weightStore, error) {
	if len(ws) != cells {
		return weightStore{}, fmt.Errorf("grid: want %d weights, got %d", cells, len(ws))
	}
	s := weightStore{w: ws}
	for _, w := range ws {
		if w < 0 {
			return weightStore{}, fmt.Errorf("grid: negative weight %d", w)
		}
		if s.total > math.MaxInt64-w {
			return weightStore{}, fmt.Errorf("grid: total weight overflows int64 (interval ends would wrap)")
		}
		s.total += w
	}
	return s, nil
}

// copyWeights is adoptWeights keeping a copy of ws, made once the
// checks pass: the store of FromWeights2D/3D and Layer.
func copyWeights(cells int, ws []int64) (weightStore, error) {
	s, err := adoptWeights(cells, ws)
	if err != nil {
		return weightStore{}, err
	}
	return s.clone(), nil
}

// clone returns an independent copy of the store.
func (s weightStore) clone() weightStore {
	return weightStore{w: slices.Clone(s.w), total: s.total}
}

// set replaces the weight of vertex id. A negative weight, or one that
// would push the total past int64, panics: exactly the assignments the
// constructors reject, so any grid FromWeights2D/3D accepts is
// buildable through Set and no other.
func (s *weightStore) set(id int, w int64) {
	if w < 0 {
		panic(fmt.Sprintf("grid: negative weight %d", w))
	}
	rest := s.total - s.w[id]
	if rest > math.MaxInt64-w {
		panic(fmt.Sprintf("grid: weight %d overflows the grid's total weight", w))
	}
	s.total = rest + w
	s.w[id] = w
}
