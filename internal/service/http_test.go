package service

import (
	"bytes"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"testing"
)

// TestWriteResultMatchesEncoder holds the Result writer to its contract:
// for randomized results — every field left empty or set, strings that
// need escaping, floats in both notations, nil, empty and long starts —
// writeResult sends exactly the status, header and bytes writeJSON (the
// indented json.Encoder) sends. Fields are filled by reflection, so a
// field added to Result is covered, and one of a kind the test cannot
// fill fails it.
func TestWriteResultMatchesEncoder(t *testing.T) {
	strs := []string{"", "job-17", "<b>&amp;</b>", `say "hi" \ bye`, "line\nbreak\ttab\r",
		"naïve ✓ 日本語", "\u2028\u2029", "\x00\x1f\x7f", "\xff\xfe", "trace 0123456789abcdef"}
	floats := []float64{0, 0.001, 1.5, 12345.678, 1e-7, 2.5e-9, 1e21, 1.23e25,
		123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64, -4.75}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		var res Result
		v := reflect.ValueOf(&res).Elem()
		for f := 0; f < v.NumField(); f++ {
			fv, name := v.Field(f), v.Type().Field(f).Name
			if rng.Intn(3) == 0 {
				continue // left empty: omitempty drops most fields
			}
			switch fv.Kind() {
			case reflect.String:
				fv.SetString(strs[rng.Intn(len(strs))])
			case reflect.Int64:
				fv.SetInt(rng.Int63() >> rng.Intn(63) * int64(1-2*rng.Intn(2)))
			case reflect.Bool:
				fv.SetBool(rng.Intn(2) == 0)
			case reflect.Float64:
				fv.SetFloat(floats[rng.Intn(len(floats))])
			case reflect.Slice:
				var starts []int64
				switch n := rng.Intn(40) - 5; {
				case n < 0:
					starts = []int64{}
				case n > 0:
					starts = make([]int64, n)
					for k := range starts {
						starts[k] = rng.Int63() >> rng.Intn(63) * int64(1-2*rng.Intn(2))
					}
				}
				fv.Set(reflect.ValueOf(starts))
			default:
				t.Fatalf("Result.%s is a %s, which this test cannot fill: extend it and the writer", name, fv.Kind())
			}
		}
		status := []int{200, 202, 500, 503, 504}[rng.Intn(5)]
		want, got := httptest.NewRecorder(), httptest.NewRecorder()
		writeJSON(want, status, res)
		writeResult(got, status, res)
		if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) {
			t.Fatalf("result %+v: status %d header %v, want %d %v", res, got.Code, got.Header(), want.Code, want.Header())
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("result %+v:\ngot:\n%s\nwant:\n%s", res, got.Body.Bytes(), want.Body.Bytes())
		}
	}
}
