package service

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"stencilivc/internal/datasets"
	"stencilivc/internal/grid"
	"stencilivc/internal/heuristics"
)

// TestWriteResultMatchesEncoder holds the Result writer to its contract:
// for randomized results — every field left empty or set, strings that
// need escaping, floats in both notations, nil, empty and long starts —
// writeResult sends exactly the status, header and bytes writeJSON (the
// indented json.Encoder) sends. Fields are filled by reflection, so a
// field added to Result is covered, and one of a kind the test cannot
// fill fails it. Two fixed results follow: one whose starts cross every
// digit-count boundary of the starts encoder, signs and the int64
// extremes included, and one with a single start.
func TestWriteResultMatchesEncoder(t *testing.T) {
	check := func(status int, res Result) {
		t.Helper()
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
		check([]int{200, 202, 500, 503, 504}[rng.Intn(5)], res)
	}
	check(200, Result{ID: "job-1", Tenant: "t", Status: StatusDone, Alg: "GLL", MaxColor: 1000,
		Starts: []int64{0, 9, 10, 99, 100, 101, 999, 1000, 1e18, math.MaxInt64,
			-1, -10, -100, math.MinInt64}, WallMS: 1.5})
	check(200, Result{ID: "job-2", Tenant: "t", Status: StatusDone, Starts: []int64{7}})
}

// discardResponse is an http.ResponseWriter that keeps the status and
// drops the body, so a benchmark times the handler and not a recorder.
type discardResponse struct {
	header http.Header
	status int
}

func (d *discardResponse) Header() http.Header {
	if d.header == nil {
		d.header = http.Header{}
	}
	return d.header
}

func (d *discardResponse) WriteHeader(status int) { d.status = status }

func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkServeHit times a served cache hit inside the daemon: one
// POST /solve through Handler().ServeHTTP, from decoding the body to
// encoding the result, for a best request (seven portfolio members,
// seven hits) and a single-algorithm one, as a JSON body on a 96² grid
// and as ivc text on a 20³ one. Each body is solved once before the
// timer starts, and the run fails unless every timed request was
// answered from the cache.
func BenchmarkServeHit(b *testing.B) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	}()
	h := srv.Handler()
	for _, tc := range []struct {
		name    string
		x, y, z int
		text    bool
	}{{"json/96x96", 96, 96, 0, false}, {"text/20x20x20", 20, 20, 20, true}} {
		for _, alg := range []string{"best", "GLL"} {
			b.Run(tc.name+"/"+alg, func(b *testing.B) {
				body := requestBody(b, alg, tc.x, tc.y, tc.z, tc.text)
				post := func() {
					w := discardResponse{}
					h.ServeHTTP(&w, httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body)))
					if w.status != http.StatusOK {
						b.Fatalf("POST /solve: status %d", w.status)
					}
				}
				post() // the solve that fills the cache
				members := int64(1)
				if alg == "best" {
					members = int64(len(heuristics.All()))
				}
				hits := srv.Cache().Snapshot().Hits
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					post()
				}
				b.StopTimer()
				if got := srv.Cache().Snapshot().Hits - hits; got != members*int64(b.N) {
					b.Fatalf("%d cache hits over %d requests, want %d", got, b.N, members*int64(b.N))
				}
			})
		}
	}
}

// BenchmarkEncodeResult times encodeResult on a done GLL job's result,
// whose starts are a real coloring: of a 96² grid of weights 1–9, nearly
// all below 100; of a 20³ grid, many of three digits; and of the Dengue
// dataset binned onto 32², each cell weighing its event count as the
// paper's instances do, a maxcolor of four digits.
func BenchmarkEncodeResult(b *testing.B) {
	ds, err := datasets.Generate(datasets.Dengue, 1)
	if err != nil {
		b.Fatal(err)
	}
	dengue, err := datasets.Voxelize2D(ds.Points, ds.Bounds, datasets.XY, 32, 32)
	if err != nil {
		b.Fatal(err)
	}
	type encodeCase struct {
		name string
		g    grid.Stencil
	}
	cases := []encodeCase{{"dengue-32x32", dengue}}
	for _, dims := range [][3]int{{96, 96, 0}, {20, 20, 20}} {
		req, err := decodeRequest(bytes.NewReader(requestBody(b, "GLL", dims[0], dims[1], dims[2], false)))
		if err != nil {
			b.Fatal(err)
		}
		_, _, g, err := parseRequest(&req)
		if err != nil {
			b.Fatal(err)
		}
		cases = append(cases, encodeCase{fmt.Sprintf("%dx%dx%d", dims[0], dims[1], max(dims[2], 1)), g})
	}
	for _, tc := range cases {
		c, err := heuristics.Run(heuristics.GLL, tc.g, nil)
		if err != nil {
			b.Fatal(err)
		}
		res := Result{ID: "job-1", Tenant: "bench", Status: StatusDone, Alg: "GLL",
			MaxColor: c.MaxColor(tc.g), Starts: c.Start, WallMS: 1.25, TraceID: "0123456789abcdef"}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := encodeResult(res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
