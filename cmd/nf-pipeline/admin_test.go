package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// get fetches path from srv and returns the status, content type and body.
func get(t *testing.T, srv *httptest.Server, path string) (int, string, []byte) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// TestAdminServesTheRenderers: every admin path serves, byte for byte,
// what the library's renderer writes for the same state, under the
// content type the handlers in the library used to set — the HTTP
// stack moved out of the library without changing a body.
func TestAdminServesTheRenderers(t *testing.T) {
	reg := telemetry.NewRegistry()
	var c telemetry.Counter
	c.Add(7)
	reg.RegisterCounter("admin_test_total", telemetry.Labels{"k": "v"}, &c)
	rec := telemetry.NewRecorder(16)
	a := rec.Actor("worker-0")
	rec.Record(a, telemetry.EvRecv, 1)
	rec.Record(a, telemetry.EvRestart, 2)
	tracer := trace.New(trace.Config{SampleEvery: 1, Ring: 8, Recorder: rec})
	tracer.RegisterMetrics(reg, nil)
	samp := tracer.NewSampler()
	var sp trace.Span
	samp.MaybeArm(&sp, 0)
	sp.StampAt(trace.StageParse, tracer.Now())
	tracer.Complete(&sp)

	for _, tc := range []struct {
		name    string
		tracer  *trace.Tracer
		path    string
		ctype   string
		render  func(io.Writer) error
		wantSub string
	}{
		{"prometheus", tracer, "/metrics", "text/plain; version=0.0.4", reg.WritePrometheus, `admin_test_total{k="v"} 7`},
		{"json", tracer, "/metrics?format=json", "application/json", reg.WriteJSON, `"admin_test_total{k=\"v\"}":7`},
		{"flightrecorder", tracer, "/debug/flightrecorder", "text/plain", rec.WriteText, "worker-0"},
		{"traces", tracer, "/debug/traces", "application/json", tracer.WriteJSON, `"enabled": true`},
		{"alloc", tracer, "/debug/alloc", "application/json", tracer.WriteAllocJSON, `"stage": "parse"`},
		{"traces-off", nil, "/debug/traces", "application/json", (*trace.Tracer)(nil).WriteJSON, `{"enabled":false}`},
		{"alloc-off", nil, "/debug/alloc", "application/json", (*trace.Tracer)(nil).WriteAllocJSON, `{"enabled":false}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(adminMux(reg, rec, tc.tracer))
			defer srv.Close()
			status, ctype, body := get(t, srv, tc.path)
			if status != http.StatusOK || ctype != tc.ctype {
				t.Fatalf("GET %s: status %d, Content-Type %q; want 200 and %q", tc.path, status, ctype, tc.ctype)
			}
			var want bytes.Buffer
			if err := tc.render(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want.Bytes()) {
				t.Fatalf("GET %s served\n%s\nthe renderer writes\n%s", tc.path, body, want.Bytes())
			}
			if !strings.Contains(string(body), tc.wantSub) {
				t.Fatalf("GET %s: body lacks %q:\n%s", tc.path, tc.wantSub, body)
			}
		})
	}
}

// TestAdminServesPprof: the profiling surface is mounted on the custom
// mux, not left on DefaultServeMux where nothing would route to it.
func TestAdminServesPprof(t *testing.T) {
	srv := httptest.NewServer(adminMux(telemetry.NewRegistry(), telemetry.NewRecorder(16), nil))
	defer srv.Close()
	for path, want := range map[string]string{
		"/debug/pprof/":             "goroutine",
		"/debug/pprof/heap?debug=1": "heap profile",
		"/debug/pprof/cmdline":      "nf-pipeline",
	} {
		status, _, body := get(t, srv, path)
		if status != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("GET %s: status %d, body lacks %q", path, status, want)
		}
	}
}
