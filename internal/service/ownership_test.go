package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"stencilivc/internal/chaos"
	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/heuristics"
)

// holdsGrid reports whether j still references its instance.
func holdsGrid(j *job) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stencil != nil
}

// sameArray reports whether a and b are one non-empty backing array.
func sameArray(a, b []int64) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// submitAndWait admits req and waits for its job to finish.
func submitAndWait(t *testing.T, srv *Server, req *Request) *job {
	t.Helper()
	j, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.done:
	case <-time.After(15 * time.Second):
		t.Fatalf("job %s did not finish", j.id)
	}
	return j
}

// TestFinishedJobHoldsNoGrid: a finished job keeps only its answer,
// however it finished — solved, shed at admission, shed on expiry in
// the queue, or failed by a worker panic — so the JobRetention window
// pins no instances.
func TestFinishedJobHoldsNoGrid(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cfg       Config
		drain     bool
		timeoutMS int64
		want      string
	}{
		{"done", Config{Workers: 1}, false, 0, StatusDone},
		{"shed-at-admission", Config{Workers: 1}, true, 0, StatusShed},
		{"shed-on-expiry", Config{Workers: 1,
			Injector: chaos.New(1).EveryNth(SiteBatchStall, 1, 0).Stalling(SiteBatchStall, 50*time.Millisecond)},
			false, 5, StatusShed},
		{"panicked", Config{Workers: 1,
			Injector: chaos.New(1).OnNth(SiteWorkerPanic, 1).Panicking(SiteWorkerPanic)},
			false, 0, StatusError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := newTestService(t, tc.cfg)
			if tc.drain {
				if err := srv.Close(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			j := submitAndWait(t, srv, &Request{Alg: "GLL", X: 4, Y: 4, Weights: gridWeights(4), TimeoutMS: tc.timeoutMS})
			if res := j.snapshot(); res.Status != tc.want {
				t.Fatalf("status %q (%s), want %q", res.Status, res.Error, tc.want)
			}
			if holdsGrid(j) {
				t.Error("the finished job still holds its grid")
			}
		})
	}
}

// TestServiceHitSharesCacheEntry: the daemon holds each answer once. A
// second identical request is a cache hit whose starts are the cache
// entry's own array, which is also the array the first (solving) job
// returned; for a "best" job, the array is the winner's entry.
func TestServiceHitSharesCacheEntry(t *testing.T) {
	srv, _ := newTestService(t, Config{Workers: 1})
	w := gridWeights(6)[:30]
	g, err := grid.FromWeights2D(6, 5, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"GLL", "best"} {
		t.Run(alg, func(t *testing.T) {
			req := Request{Alg: alg, X: 6, Y: 5, Weights: w}
			first := submitAndWait(t, srv, &req).snapshot()
			second := submitAndWait(t, srv, &req).snapshot()
			if first.Status != StatusDone || second.Status != StatusDone {
				t.Fatalf("statuses %q/%q, want done/done", first.Status, second.Status)
			}
			if alg == "best" && second.Alg == "best" {
				t.Fatal("a best job names no winner")
			}
			entry, _, ok := srv.Cache().Shared().Lookup(second.Alg, g, "default")
			if !ok {
				t.Fatalf("no cache entry for the winner %s", second.Alg)
			}
			if !sameArray(second.Starts, entry.Start) {
				t.Error("the hit's starts are a copy of the cache entry")
			}
			if !sameArray(first.Starts, entry.Start) {
				t.Error("the solving job's starts are a copy of the cache entry")
			}
		})
	}
}

// TestServiceSharedAnswersConcurrent storms the shared answers: several
// clients POST the same instances (some async, then polled through
// GET /jobs/{id}) while a small cache evicts entries under them. Every
// response must equal a direct, uncached solve. Run it under -race
// -count=10 (make cache-check). The storm stores 18 entries of 12,924
// bytes in all, so a 6000-byte budget keeps evicting.
func TestServiceSharedAnswersConcurrent(t *testing.T) {
	srv, ts := newTestService(t, Config{Workers: 2, CacheBytes: 6000})
	type instance struct {
		req  Request
		want []int64
	}
	var insts []instance
	for i, alg := range []string{"GLL", "BDP", "best", "GLF", "GLL", "best"} {
		n := 5 + i
		w := gridWeights(n)
		w[i] += 3 // keep instances of one side length distinct
		g, err := grid.FromWeights2D(n, n, w)
		if err != nil {
			t.Fatal(err)
		}
		var c core.Coloring
		if alg == "best" {
			c, _, err = heuristics.Best(g, nil)
		} else {
			c, err = heuristics.Run(heuristics.Algorithm(alg), g, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, instance{Request{Alg: alg, X: n, Y: n, Weights: w}, c.Start})
	}

	const clients, rounds = 4, 6
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range insts {
					in := insts[(k+cl)%len(insts)]
					req := in.req
					req.Tenant = fmt.Sprintf("t%d", cl%2)
					req.Async = (r+cl)%2 == 0
					res, err := solveOverHTTP(ts.URL, req)
					if err != nil {
						t.Error(err)
						return
					}
					if res.Status != StatusDone || !slices.Equal(res.Starts, in.want) {
						t.Errorf("client %d %s %dx%d: status %q, starts differ from a direct solve",
							cl, req.Alg, req.X, req.Y, res.Status)
						return
					}
				}
			}
		}(cl)
	}
	wg.Wait()
	if st := srv.Cache().Snapshot(); st.Evictions == 0 || st.Hits == 0 {
		t.Errorf("cache evictions=%d hits=%d: the storm never evicted or never hit", st.Evictions, st.Hits)
	}
}

// solveOverHTTP POSTs req and, for an async job, polls GET /jobs/{id}
// until it finishes. It is safe to call from several goroutines.
func solveOverHTTP(base string, req Request) (Result, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return Result{}, err
	}
	res, err := getResult(http.Post(base+"/solve", "application/json", bytes.NewReader(body)))
	for deadline := time.Now().Add(15 * time.Second); err == nil && res.Status == StatusQueued; {
		if time.Now().After(deadline) {
			return res, fmt.Errorf("job %s still queued", res.ID)
		}
		time.Sleep(time.Millisecond)
		res, err = getResult(http.Get(base + "/jobs/" + res.ID))
	}
	return res, err
}

// getResult decodes one Result response.
func getResult(resp *http.Response, err error) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	defer resp.Body.Close()
	var res Result
	err = json.NewDecoder(resp.Body).Decode(&res)
	return res, err
}
