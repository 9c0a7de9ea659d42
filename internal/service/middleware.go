package service

import (
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"dspot/internal/admit"
	"dspot/internal/engine"
	"dspot/internal/obs"
	"dspot/internal/obs/trace"
)

// Metrics bundles the service's instrumentation over one obs.Registry:
// per-endpoint request counts, latency histograms, an in-flight gauge,
// response sizes, per-engine fit counts, and fit-pipeline stage metrics
// fed from FitTrace reports. Expose the registry at GET /metrics via
// Server.Handler.
type Metrics struct {
	Registry *obs.Registry

	requests  *obs.CounterVec   // http_requests_total{path,method,code}
	latency   *obs.HistogramVec // http_request_seconds{path}
	inflight  *obs.Gauge        // http_inflight_requests
	respBytes *obs.CounterVec   // http_response_bytes_total{path}

	fits           *obs.CounterVec   // fits_total{engine}
	fitStage       *obs.HistogramVec // fit_stage_seconds{stage}
	fitLMIters     *obs.Counter      // fit_lm_iterations_total
	fitLMStalls    *obs.Counter      // fit_lm_stalls_total
	shocksTried    *obs.Counter      // fit_shocks_tried_total
	shocksAccepted *obs.Counter      // fit_shocks_accepted_total
	fitKeywords    *obs.Counter      // fit_keywords_total

	sheds        *obs.CounterVec // http_sheds_total{reason}
	breakerState *obs.GaugeVec   // engine_breaker_state{engine}
}

// NewMetrics returns service metrics registered on a fresh registry.
func NewMetrics() *Metrics {
	return NewMetricsOn(obs.NewRegistry())
}

// NewMetricsOn registers the service metrics on reg.
func NewMetricsOn(reg *obs.Registry) *Metrics {
	return &Metrics{
		Registry: reg,
		requests: reg.CounterVec("http_requests_total",
			"HTTP requests served, by endpoint, method and status code.",
			"path", "method", "code"),
		latency: reg.HistogramVec("http_request_seconds",
			"HTTP request latency in seconds, by endpoint.",
			obs.DefBuckets(), "path"),
		inflight: reg.Gauge("http_inflight_requests",
			"Requests currently being served."),
		respBytes: reg.CounterVec("http_response_bytes_total",
			"Response body bytes written, by endpoint.", "path"),
		fits: reg.CounterVec("fits_total",
			"Successful model fits, by the engine that produced the model.",
			"engine"),
		fitStage: reg.HistogramVec("fit_stage_seconds",
			"Wall-clock per fit pipeline stage (worker time for inner stages).",
			obs.DefBuckets(), "stage"),
		fitLMIters: reg.Counter("fit_lm_iterations_total",
			"Levenberg-Marquardt iterations spent fitting."),
		fitLMStalls: reg.Counter("fit_lm_stalls_total",
			"Levenberg-Marquardt runs that stalled: damping hit its ceiling "+
				"without an improving step. A rising rate is the early sign "+
				"of a wrong Jacobian."),
		shocksTried: reg.Counter("fit_shocks_tried_total",
			"Shock candidates evaluated by the MDL gate."),
		shocksAccepted: reg.Counter("fit_shocks_accepted_total",
			"Shock candidates accepted by the MDL gate."),
		fitKeywords: reg.Counter("fit_keywords_total",
			"Keyword sequences fitted."),
		sheds: reg.CounterVec("http_sheds_total",
			"Requests rejected by admission control, by reason: "+
				"\"breaker_open\", \"over_budget\", \"queue_full\", \"append_lag\".",
			"reason"),
		breakerState: reg.GaugeVec("engine_breaker_state",
			"Per-engine circuit breaker position: 0 closed, 1 half-open, 2 open.",
			"engine"),
	}
}

// ObserveShed counts one admission-control rejection under its reason.
func (m *Metrics) ObserveShed(reason string) {
	if m == nil {
		return
	}
	m.sheds.With(reason).Inc()
}

// SetBreakerState exports one engine breaker's position (0 closed,
// 1 half-open, 2 open). Wired as the BreakerSet's transition observer by
// NewBreakerSet.
func (m *Metrics) SetBreakerState(engineName string, s admit.State) {
	if m == nil {
		return
	}
	m.breakerState.With(engineName).Set(float64(s))
}

// ObserveFit counts one successful fit under the engine that produced the
// model (for auto fits: the winner).
func (m *Metrics) ObserveFit(engineName string) {
	if m == nil {
		return
	}
	if engineName == "" {
		engineName = engine.Default
	}
	m.fits.With(engineName).Inc()
}

// ObserveFitReport folds one fit run's report into the fit metrics.
func (m *Metrics) ObserveFitReport(rep *engine.FitReport) {
	if m == nil || rep == nil {
		return
	}
	for stage, d := range rep.StageDurations {
		m.fitStage.With(stage).Observe(d.Seconds())
	}
	m.fitLMIters.Add(float64(rep.LMIterations))
	m.fitLMStalls.Add(float64(rep.LMStalls))
	m.shocksTried.Add(float64(rep.ShocksTried))
	m.shocksAccepted.Add(float64(rep.ShocksAccepted))
	m.fitKeywords.Add(float64(rep.Keywords))
}

// statusRecorder captures the status code and bytes written by a handler.
// It deliberately re-exposes the optional ResponseWriter capabilities the
// embedded-interface trick would otherwise hide: Flush (streaming handlers
// stall without it), ReadFrom (sendfile-style copies keep their fast path
// while still being counted), and Unwrap (http.ResponseController finds the
// rest).
type statusRecorder struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (r *statusRecorder) ReadFrom(src io.Reader) (int64, error) {
	// io.Copy picks the underlying writer's ReaderFrom when it has one, so
	// the copy stays on the fast path and the bytes still get counted.
	n, err := io.Copy(r.ResponseWriter, src)
	r.bytes += n
	return n, err
}

func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// instrument wraps next with request metrics, tracing and optional request
// logging. path is the route label (the registered pattern, not the raw
// URL, so label cardinality stays bounded).
func instrument(path string, m *Metrics, log *slog.Logger, tr *trace.Tracer, next http.Handler) http.Handler {
	if m == nil && log == nil && tr == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if m != nil {
			m.inflight.Inc()
			defer m.inflight.Dec()
		}
		var span *trace.Span
		traceID := ""
		if tr != nil {
			ctx := r.Context()
			// An inbound traceparent (upstream proxy, another shard) makes
			// this request's span a child in the caller's trace.
			if remote := trace.Extract(r.Header); remote.Valid() {
				ctx = trace.ContextWithRemote(ctx, remote)
			}
			ctx, span = tr.Start(ctx, "http.request",
				trace.String("route", path),
				trace.String("method", r.Method),
				trace.String("path", r.URL.Path))
			r = r.WithContext(ctx)
			traceID = span.Context().TraceID.String()
			// Echo the id so clients (and the CI smoke test) can pull the
			// trace from /debug/traces/{id} without parsing logs.
			w.Header().Set("X-Trace-Id", traceID)
		}
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start)
		span.SetAttr("status", rec.code)
		span.SetAttr("bytes", rec.bytes)
		span.End()
		if m != nil {
			m.requests.With(path, r.Method, strconv.Itoa(rec.code)).Inc()
			m.latency.With(path).Observe(elapsed.Seconds())
			m.respBytes.With(path).Add(float64(rec.bytes))
		}
		if log != nil {
			args := []any{
				"method", r.Method, "route", path, "path", r.URL.Path,
				"status", rec.code, "bytes", rec.bytes,
				"duration", elapsed, "remote", r.RemoteAddr,
			}
			if traceID != "" {
				args = append(args, "trace_id", traceID)
			}
			log.Info("request", args...)
		}
	})
}
