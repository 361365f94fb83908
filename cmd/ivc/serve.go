package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"stencilivc/internal/obsv"
	"stencilivc/internal/service"
)

// cacheConfig carries the -cache-* flags into runServe: where the
// persistent tier lives, the in-memory byte budget, and the open-time
// sweep bounds (entry cap, age expiry) of the persistent tier.
type cacheConfig struct {
	dir        string
	bytes      int64
	maxEntries int
	ttl        time.Duration
}

// runServe runs ivc as a long-lived solve daemon: the internal/service
// job API (POST /solve, GET /jobs/{id}, GET /healthz, GET /metrics)
// with expvar and pprof riding at /debug/. -log attaches its stream to
// the daemon's flight recorder before the first request, so it sees
// every record the daemon writes.
// It serves until SIGINT or SIGTERM cancels ctx, then drains: in-flight
// requests finish within service.ShutdownGrace, queued jobs run to
// completion under their deadlines, and a second ^C terminates
// immediately (the signal handler unregisters on the first).
func runServe(ctx context.Context, addr, logPath string, workers int,
	defaultTimeout time.Duration, cache cacheConfig, flightEntries int) error {

	reg := obsv.NewRegistry()
	reg.Publish("ivc")
	var logW io.Writer
	closeLog := func() error { return nil }
	if logPath != "" {
		w, c, err := openLog(logPath)
		if err != nil {
			return err
		}
		logW, closeLog = w, c
	}

	srv, err := service.New(service.Config{
		Workers:         workers,
		DefaultTimeout:  defaultTimeout,
		Registry:        reg,
		Sampler:         obsv.NewSampler(reg, 0),
		CacheBytes:      cache.bytes,
		CacheDir:        cache.dir,
		CacheMaxEntries: cache.maxEntries,
		CacheTTL:        cache.ttl,
		FlightEntries:   flightEntries,
	})
	if err != nil {
		return err
	}
	rec := srv.Flight()
	if logW != nil {
		rec.Export(logW)
	}
	top := http.NewServeMux()
	top.Handle("/debug/", http.DefaultServeMux) // expvar + pprof
	// More specific than the /debug/ catch-all: the flight recorder must
	// win over the default mux, which knows nothing about it.
	top.Handle("GET /debug/flight", obsv.FlightHandler(rec))
	top.Handle("/", srv.Handler())

	ln, err := service.Listen(addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving solve API on http://%s\n", ln.Addr())
	httpSrv := service.NewHTTPServer(top)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}
	fmt.Println("shutting down: draining in-flight requests and queued jobs")
	if err := service.ShutdownHTTP(httpSrv); err != nil {
		fmt.Fprintln(os.Stderr, "ivc: http shutdown:", err)
	}
	cctx, cancel := context.WithTimeout(context.Background(), service.ShutdownGrace)
	defer cancel()
	if err := srv.Close(cctx); err != nil {
		fmt.Fprintln(os.Stderr, "ivc:", err)
	}
	if logPath != "" {
		n := rec.Export(nil)
		if err := closeLog(); err != nil {
			return err
		}
		fmt.Printf("log: %d records -> %s\n", n, logPath)
	}
	return nil
}
