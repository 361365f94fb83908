package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"time"

	"stencilivc/internal/obsv"
	"stencilivc/internal/resultcache"
)

// maxRequestBytes bounds a POST /solve body; a 27-pt instance of a few
// million weights fits comfortably, a hostile body does not.
const maxRequestBytes = 32 << 20

// Handler returns the daemon's HTTP API:
//
//	POST /solve        submit a job (sync by default, async with "async": true)
//	GET  /jobs/{id}    poll a job's result
//	GET  /healthz      liveness plus per-tenant scheduler accounting
//	GET  /metrics      Prometheus exposition of the configured registry
//	GET  /debug/flight flight-recorder dump (filter by trace/tenant/job)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve", s.handleSolve)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /debug/flight", obsv.FlightHandler(s.flight))
	if s.cfg.Registry != nil {
		mux.Handle("GET /metrics", obsv.Handler(s.cfg.Registry))
	}
	return mux
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// httpError writes a JSON error body.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// statusCode maps a terminal job result to its HTTP status: done (full
// or partial) is 200, shed is 503 (retry later — the overload policy
// refused it), a deadline failure is 504, anything else 500.
func statusCode(res Result) int {
	switch res.Status {
	case StatusDone:
		return http.StatusOK
	case StatusShed:
		return http.StatusServiceUnavailable
	case StatusError:
		if strings.Contains(res.Error, "deadline exceeded") {
			return http.StatusGatewayTimeout
		}
		return http.StatusInternalServerError
	default: // still queued
		return http.StatusAccepted
	}
}

// handleSolve is POST /solve: decode, admit, and either wait for the
// result (sync) or return 202 with the job id (async).
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	j, err := s.Submit(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Async {
		snap := j.snapshot()
		writeJSON(w, statusCode(snap), snap)
		return
	}
	select {
	case <-j.done:
		snap := j.snapshot()
		writeJSON(w, statusCode(snap), snap)
	case <-r.Context().Done():
		// The client went away; the job keeps running and stays pollable.
		writeJSON(w, http.StatusAccepted, j.snapshot())
	}
}

// decodeRequest parses a POST /solve body. Unknown fields are an error,
// so a misspelled or unsupported option is refused instead of silently
// ignored.
func decodeRequest(body io.Reader) (Request, error) {
	var req Request
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// handleJob is GET /jobs/{id}: report a job's current snapshot.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	snap := j.snapshot()
	writeJSON(w, statusCode(snap), snap)
}

// healthz is the GET /healthz body.
type healthz struct {
	// Status is "ok" while the daemon accepts jobs, "draining" during
	// shutdown.
	Status string `json:"status"`
	// UptimeS is seconds since the server started.
	UptimeS float64 `json:"uptime_s"`
	// Workers is the configured worker-pool size.
	Workers int `json:"workers"`
	// Busy is the number of workers currently running a batch.
	Busy int64 `json:"busy"`
	// Tenants is the per-tenant scheduler accounting.
	Tenants []TenantStats `json:"tenants"`
	// Cache is the result cache's accounting — totals plus per-tenant
	// hit/miss counts — or null when caching is disabled.
	Cache *resultcache.Stats `json:"cache,omitempty"`
}

// handleHealthz is GET /healthz: liveness plus scheduler accounting.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.closeMu.RLock()
	status := "ok"
	if s.closing {
		status = "draining"
	}
	s.closeMu.RUnlock()
	h := healthz{
		Status:  status,
		UptimeS: time.Since(s.started).Seconds(),
		Workers: s.cfg.Workers,
		Busy:    s.busy.Load(),
		Tenants: s.Stats(),
	}
	if s.cache != nil {
		cs := s.cache.Snapshot()
		h.Cache = &cs
	}
	writeJSON(w, http.StatusOK, h)
}
