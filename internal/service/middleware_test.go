package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dspot/internal/engine"
	"dspot/internal/obs"
)

// instrumentedServer returns a test server with metrics (and optional
// logging) enabled, plus its Metrics handle.
func instrumentedServer(t *testing.T, logBuf *bytes.Buffer) (*httptest.Server, *Metrics) {
	t.Helper()
	m := NewMetrics()
	s := &Server{Workers: 2, Metrics: m}
	if logBuf != nil {
		s.Logger = obs.NewLogger(logBuf, slog.LevelInfo, false)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv, m
}

func scrape(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestMetricsAfterFit drives a fit through the instrumented handler and
// checks the Prometheus exposition carries request and fit-stage series.
func TestMetricsAfterFit(t *testing.T) {
	var logBuf bytes.Buffer
	srv, _ := instrumentedServer(t, &logBuf)
	csv := smallTensorCSV(t)

	resp, body := post(t, srv.URL+"/v1/fit?global_only=1&no_growth=1", "text/csv", csv)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fit status %d: %s", resp.StatusCode, body)
	}

	out := scrape(t, srv)
	for _, want := range []string{
		`http_requests_total{path="/v1/fit",method="POST",code="200"} 1`,
		`http_request_seconds_bucket{path="/v1/fit",le="+Inf"} 1`,
		`http_request_seconds_count{path="/v1/fit"} 1`,
		`http_response_bytes_total{path="/v1/fit"}`,
		`# TYPE fit_stage_seconds histogram`,
		`fit_stage_seconds_count{stage="base"}`,
		`fit_stage_seconds_count{stage="global"} 1`,
		`fit_keywords_total 1`,
		`# TYPE fit_lm_iterations_total counter`,
		`# TYPE fit_shocks_tried_total counter`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The fit did real LM work and tried at least one shock candidate.
	for _, counter := range []string{"fit_lm_iterations_total", "fit_shocks_tried_total"} {
		if strings.Contains(out, counter+" 0\n") {
			t.Errorf("%s stayed zero after a fit", counter)
		}
	}
	// Request logging emitted both the request line and the fit summary.
	logs := logBuf.String()
	for _, want := range []string{"msg=request", "path=/v1/fit", "msg=fit", "shocks_tried="} {
		if !strings.Contains(logs, want) {
			t.Errorf("log missing %q in:\n%s", want, logs)
		}
	}
}

// TestObserveFitReportCountsStalls pins the stall counter to the report:
// a report with stalled LM runs moves fit_lm_stalls_total by its count.
func TestObserveFitReportCountsStalls(t *testing.T) {
	m := NewMetrics()
	m.ObserveFitReport(&engine.FitReport{LMIterations: 40, LMStalls: 3})
	m.ObserveFitReport(&engine.FitReport{LMIterations: 10, LMStalls: 2})
	if got := m.fitLMStalls.Value(); got != 5 {
		t.Fatalf("fit_lm_stalls_total = %v, want 5", got)
	}
}

// TestMiddlewareCountsErrors checks 4xx responses are labelled correctly
// and the in-flight gauge returns to zero.
func TestMiddlewareCountsErrors(t *testing.T) {
	srv, m := instrumentedServer(t, nil)

	resp, err := http.Get(srv.URL + "/v1/fit") // wrong method
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	post(t, srv.URL+"/v1/events", "application/json", "not json") // 400

	out := scrape(t, srv)
	for _, want := range []string{
		`http_requests_total{path="/v1/fit",method="GET",code="405"} 1`,
		`http_requests_total{path="/v1/events",method="POST",code="400"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
	if got := m.inflight.Value(); got != 0 {
		t.Fatalf("in-flight gauge %g after requests drained", got)
	}
}

// TestOversizedBody asserts the MaxBody limit answers 413 with the JSON
// error shape on every body-reading endpoint.
func TestOversizedBody(t *testing.T) {
	s := &Server{Workers: 1, MaxBody: 64}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	// Leading whitespace is valid prefix for both CSV and JSON parsing, so
	// every decoder is forced to read past the byte limit.
	big := strings.Repeat(" ", 1024) + "{}"
	for _, path := range []string{"/v1/fit", "/v1/events", "/v1/forecast", "/v1/anomalies"} {
		resp, body := post(t, srv.URL+path, "application/octet-stream", big)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s oversized body: status %d (want 413): %s", path, resp.StatusCode, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
			t.Fatalf("%s: error payload not JSON {error}: %q", path, body)
		}
	}
}

// TestAllowHeaders asserts 405 responses carry the mandatory Allow header.
func TestAllowHeaders(t *testing.T) {
	srv := testServer(t)
	for _, path := range []string{"/v1/fit", "/v1/events", "/v1/forecast", "/v1/anomalies"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s status %d", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != "POST" {
			t.Fatalf("GET %s Allow header %q, want POST", path, allow)
		}
	}
	resp, _ := post(t, srv.URL+"/healthz", "text/plain", "")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz status %d", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "GET" {
		t.Fatalf("POST /healthz Allow header %q, want GET", allow)
	}
}

// TestMalformedBodies covers the JSON error shape on parse failures.
func TestMalformedBodies(t *testing.T) {
	srv := testServer(t)
	cases := []struct{ path, body string }{
		{"/v1/fit", "keyword,location\nbroken,row"},
		{"/v1/events", `{"keywords": 42}`},
		{"/v1/anomalies", `[1,2,3]`},
	}
	for _, c := range cases {
		resp, body := post(t, srv.URL+c.path, "application/json", c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", c.path, resp.StatusCode, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
			t.Fatalf("%s: error payload not JSON {error}: %q", c.path, body)
		}
	}
}

// TestMetricsRouteAbsentWithoutMetrics: a bare Server must not expose
// /metrics.
func TestMetricsRouteAbsentWithoutMetrics(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics on bare server: status %d, want 404", resp.StatusCode)
	}
}
