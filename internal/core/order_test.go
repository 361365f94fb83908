package core

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// referenceOrder is OrderByKey's specification: the indices stably
// sorted by key with the standard library.
func referenceOrder(keys []uint64) []int {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(keys[a], keys[b]) })
	return idx
}

func checkOrderByKey(t *testing.T, label string, keys []uint64) {
	t.Helper()
	want := referenceOrder(keys)
	got := OrderByKey(slices.Clone(keys))
	if !slices.Equal(got, want) {
		t.Fatalf("%s: OrderByKey(%v) = %v, want %v", label, keys, got, want)
	}
}

func TestOrderByKeyMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randKeys := func(n int, gen func() uint64) []uint64 {
		k := make([]uint64, n)
		for i := range k {
			k[i] = gen()
		}
		return k
	}
	cases := []struct {
		name string
		keys []uint64
	}{
		{"empty", nil},
		{"one", []uint64{42}},
		{"two sorted", []uint64{1, 2}},
		{"two reversed", []uint64{2, 1}},
		{"two equal", []uint64{7, 7}},
		{"all equal", randKeys(300, func() uint64 { return 0xdeadbeef })},
		{"heavy ties", randKeys(1000, func() uint64 { return uint64(rng.Intn(4)) })},
		{"top byte only", randKeys(500, func() uint64 { return uint64(rng.Intn(256)) << 56 })},
		{"top and bottom byte", randKeys(500, func() uint64 {
			return uint64(rng.Intn(3))<<56 | uint64(rng.Intn(3))
		})},
		{"zero and max", randKeys(200, func() uint64 {
			if rng.Intn(2) == 0 {
				return 0
			}
			return math.MaxUint64
		})},
		{"extremes and middle", []uint64{math.MaxUint64, 0, 1 << 63, math.MaxUint64, 0, 1<<63 - 1}},
		{"two bytes", randKeys(2000, func() uint64 { return uint64(rng.Intn(1 << 16)) })},
		{"three bytes", randKeys(2000, func() uint64 { return uint64(rng.Intn(1 << 24)) })},
		{"full width", randKeys(2000, rng.Uint64)},
		{"weight keys", randKeys(1000, func() uint64 { return WeightDescKey(rng.Int63n(1<<40) - 1<<39) })},
	}
	for _, tc := range cases {
		checkOrderByKey(t, tc.name, tc.keys)
	}
}

// TestWeightDescKeyReversesOrder: a heavier weight always gets a smaller
// key, across the whole int64 range, negative weights included.
func TestWeightDescKeyReversesOrder(t *testing.T) {
	if k := WeightDescKey(math.MaxInt64); k != 0 {
		t.Errorf("WeightDescKey(MaxInt64) = %d, want 0", k)
	}
	if k := WeightDescKey(math.MinInt64); k != math.MaxUint64 {
		t.Errorf("WeightDescKey(MinInt64) = %d, want MaxUint64", k)
	}
	if k := WeightDescKey(0); k != math.MaxInt64 {
		t.Errorf("WeightDescKey(0) = %d, want MaxInt64", k)
	}
	ws := []int64{math.MinInt64, math.MinInt64 + 1, -1 << 40, -2, -1, 0, 1, 2, 1 << 40, math.MaxInt64 - 1, math.MaxInt64}
	for _, a := range ws {
		for _, b := range ws {
			if (a > b) != (WeightDescKey(a) < WeightDescKey(b)) {
				t.Errorf("weights %d, %d: keys %d, %d do not reverse their order", a, b, WeightDescKey(a), WeightDescKey(b))
			}
		}
	}
}

// FuzzOrderByKey checks OrderByKey against the stable library sort on
// fuzzer-chosen keys. mask clears key bits so ties, and keys differing
// in few bytes, are common.
func FuzzOrderByKey(f *testing.F) {
	f.Add([]byte{}, uint64(math.MaxUint64))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}, uint64(math.MaxUint64))
	f.Add([]byte("keys differing in the top byte only......"), uint64(0xff00000000000000))
	f.Add([]byte("low byte ties, then a full-width run of keys"), uint64(0x3))
	f.Fuzz(func(t *testing.T, data []byte, mask uint64) {
		keys := make([]uint64, len(data)/8)
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint64(data[8*i:]) & mask
		}
		checkOrderByKey(t, "fuzz", keys)
	})
}

// TestOrderByKeyAllocs: the kernel allocates its result, plus two
// scratch buffers only when the keys disagree in more than one byte.
func TestOrderByKeyAllocs(t *testing.T) {
	oneByte := make([]uint64, 4096)
	threeBytes := make([]uint64, 4096)
	for i := range oneByte {
		oneByte[i] = uint64(i % 200)
		threeBytes[i] = uint64(i * 4099)
	}
	keys := make([]uint64, 4096)
	for _, tc := range []struct {
		src  []uint64
		want float64
	}{{oneByte, 1}, {threeBytes, 3}} {
		if n := testing.AllocsPerRun(20, func() {
			copy(keys, tc.src)
			OrderByKey(keys)
		}); n != tc.want {
			t.Errorf("OrderByKey allocs = %v, want %v", n, tc.want)
		}
	}
}
