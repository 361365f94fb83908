package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"stencilivc/internal/grid"
)

// requestBody encodes a POST /solve body asking alg for an x×y(×z)
// instance with seeded weights 1–9, in the ivc text form when text is
// set and the structured form otherwise, as a client's json.Marshal
// writes it.
func requestBody(tb testing.TB, alg string, x, y, z int, text bool) []byte {
	tb.Helper()
	n := x * y * max(z, 1)
	rng := rand.New(rand.NewSource(int64(n)))
	w := make([]int64, n)
	for i := range w {
		w[i] = rng.Int63n(9) + 1
	}
	req := Request{Tenant: "bench", Alg: alg}
	switch {
	case !text:
		req.X, req.Y, req.Z, req.Weights = x, y, z, w
	case z == 0:
		var sb strings.Builder
		g, err := grid.FromWeights2D(x, y, w)
		if err == nil {
			err = grid.Write2D(&sb, g)
		}
		if err != nil {
			tb.Fatal(err)
		}
		req.Instance = sb.String()
	default:
		var sb strings.Builder
		g, err := grid.FromWeights3D(x, y, z, w)
		if err == nil {
			err = grid.Write3D(&sb, g)
		}
		if err != nil {
			tb.Fatal(err)
		}
		req.Instance = sb.String()
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestDecodeRequestEveryField decodes a null under each of Request's
// JSON names, which every field type accepts, so a field added to
// Request that the decoder does not know fails here and not only when
// the fuzzer finds it.
func TestDecodeRequestEveryField(t *testing.T) {
	rt := reflect.TypeOf(Request{})
	for i := 0; i < rt.NumField(); i++ {
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		body := []byte(fmt.Sprintf(`{%q:null}`, name))
		req, err := decodeRequest(bytes.NewReader(body))
		want, werr := reflectRequest(body)
		if err != nil || werr != nil || !reflect.DeepEqual(req, want) {
			t.Errorf("%s: decoded %+v, %v; reflective decoder %+v, %v", body, req, err, want, werr)
		}
	}
}

// TestDecodeRequestAllocs pins the decoder's allocations to the
// request's shape, not its size: a 128² body makes as many as a 32²
// one, in both forms. The body is read into a pooled buffer and each
// decoded value is allocated once, at its final size.
func TestDecodeRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, text := range []bool{false, true} {
		var allocs [2]float64
		for k, n := range []int{32, 128} {
			body := requestBody(t, "GLL", n, n, 0, text)
			r := bytes.NewReader(body)
			allocs[k] = testing.AllocsPerRun(20, func() {
				r.Reset(body)
				if _, err := decodeRequest(r); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[0] != allocs[1] {
			t.Errorf("text=%v: %v allocations for a 32² body, %v for a 128² body", text, allocs[0], allocs[1])
		}
		t.Logf("text=%v: %v allocations per decode", text, allocs[0])
	}
}

// TestSolveBodyCap sends POST /solve bodies of exactly maxRequestBytes
// and one byte more, each a valid request padded with white space:
// the first is solved, the second is a 400.
func TestSolveBodyCap(t *testing.T) {
	// The bodies and the buffer the handler reads them into come to
	// about 100 MB of garbage; collect it before the next test, so a
	// wall-clock-bounded test does not pay for this one's heap.
	defer debug.FreeOSMemory()
	srv, _ := newTestService(t, Config{Workers: 1})
	h := srv.Handler()
	head := `{"alg":"GLL","x":2,"y":1,"weights":[1,2]}`
	for _, tc := range []struct {
		size int
		want int
	}{{maxRequestBytes, http.StatusOK}, {maxRequestBytes + 1, http.StatusBadRequest}} {
		body := head + strings.Repeat(" ", tc.size-len(head))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(body)))
		if rec.Code != tc.want {
			t.Errorf("%d-byte body: status %d, want %d (%.80s)", tc.size, rec.Code, tc.want, rec.Body)
		}
	}
}

// TestSolveBodyClaimNotTrusted sends a 40-byte body under a
// Content-Length that claims 32 MiB: the request must be served
// without allocating anywhere near the claim, because nothing is sized
// by a length the bytes do not back.
func TestSolveBodyClaimNotTrusted(t *testing.T) {
	srv, _ := newTestService(t, Config{Workers: 1})
	h := srv.Handler()
	body := `{"alg":"GLL","x":1,"y":1,"weights":[7]} `
	if len(body) != 40 {
		t.Fatalf("body is %d bytes, want 40", len(body))
	}
	req := httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(body))
	req.ContentLength = maxRequestBytes
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", rec.Code, rec.Body)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a 40-byte body claiming %d bytes allocated %d bytes, want < 1 MiB", req.ContentLength, got)
	}
}

// BenchmarkDecodeRequest times the daemon's request path up to
// admission — decodeRequest, then parseRequest building the grid — on
// one 96² and one 20³ instance, in the structured JSON form and the
// ivc text form.
func BenchmarkDecodeRequest(b *testing.B) {
	for _, dims := range [][3]int{{96, 96, 0}, {20, 20, 20}} {
		for _, text := range []bool{false, true} {
			form := "json"
			if text {
				form = "text"
			}
			name := fmt.Sprintf("%s/%dx%d", form, dims[0], dims[1])
			if dims[2] > 0 {
				name += fmt.Sprintf("x%d", dims[2])
			}
			b.Run(name, func(b *testing.B) {
				body := requestBody(b, "GLL", dims[0], dims[1], dims[2], text)
				r := bytes.NewReader(body)
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					r.Reset(body)
					req, err := decodeRequest(r)
					if err == nil {
						_, _, _, err = parseRequest(&req)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
