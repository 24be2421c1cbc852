package main

// admin.go is the only HTTP server in the repository: the library
// renders its admin views to an io.Writer and never links net/http, and
// this file turns those renderers into endpoints.

import (
	"io"
	"log"
	"net/http"
	"net/http/pprof"

	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// render adapts one renderer into an endpoint serving contentType.
func render(contentType string, write func(io.Writer) error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", contentType)
		// A failed write means the client went away mid-body: the
		// status is already sent and there is no one left to tell.
		_ = write(w)
	})
}

// adminMux mounts the admin surface: the registry at /metrics (the
// Prometheus text format, or the JSON snapshot for ?format=json), the
// flight recorder, the tracer's two views (nil-safe: without a tracer
// both report {"enabled":false}) and net/http/pprof.
func adminMux(reg *telemetry.Registry, rec *telemetry.Recorder, tracer *trace.Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	prom := render("text/plain; version=0.0.4", reg.WritePrometheus)
	js := render("application/json", reg.WriteJSON)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" {
			js.ServeHTTP(w, req)
			return
		}
		prom.ServeHTTP(w, req)
	})
	mux.Handle("/debug/flightrecorder", render("text/plain", rec.WriteText))
	mux.Handle("/debug/traces", render("application/json", tracer.WriteJSON))
	mux.Handle("/debug/alloc", render("application/json", tracer.WriteAllocJSON))
	// The mux is custom, so net/http/pprof's DefaultServeMux
	// registrations never see traffic; mount its handlers explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveAdmin serves adminMux on addr in the background for the life of
// the process; a listen failure is logged and the pipeline runs on.
func serveAdmin(addr string, reg *telemetry.Registry, rec *telemetry.Recorder, tracer *trace.Tracer) {
	mux := adminMux(reg, rec, tracer)
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			log.Printf("metrics server: %v", err)
		}
	}()
}
