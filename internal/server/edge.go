// The serve edge: the one request spine both roles stand behind. The
// daemon (Server) and the router (Router) each embed an edge, which
// owns admission, request IDs, deadlines, error mapping, spans, RED and
// SLO observations, access logs and the listener lifecycle. The roles
// differ only in the data they hand it, so a new serve phase or series
// is added here once and reaches both.

package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"netmaster/internal/cfgerr"
	"netmaster/internal/metrics"
	"netmaster/internal/parallel"
	"netmaster/internal/reqtrace"
	"netmaster/internal/slo"
)

// edgeConfig is the part of Config and RouterConfig the serve edge
// reads; both roles carry these fields under the same names.
type edgeConfig struct {
	Addr           string
	MaxInFlight    int
	RequestTimeout time.Duration
	ShutdownGrace  time.Duration
	Parallelism    int
	LogWriter      io.Writer
	Metrics        *metrics.Registry
	SlowRequest    time.Duration
	TraceRing      int
	SLO            slo.Config
}

// validate checks the shared fields, naming component (the public
// config struct, e.g. "server.Config") in every field error. Nested
// slo.Config errors keep their own component name.
func (c edgeConfig) validate(component string) cfgerr.Errors {
	var es cfgerr.Errors
	check := func(bad bool, field string, value any, reason string) {
		if bad {
			es = append(es, cfgerr.New(component, field, value, reason))
		}
	}
	check(c.Addr == "", "Addr", c.Addr, "must be set")
	check(c.MaxInFlight <= 0, "MaxInFlight", c.MaxInFlight, "must be positive")
	check(c.RequestTimeout <= 0, "RequestTimeout", c.RequestTimeout, "must be positive")
	check(c.ShutdownGrace <= 0, "ShutdownGrace", c.ShutdownGrace, "must be positive")
	check(c.Parallelism < 0, "Parallelism", c.Parallelism, "must be non-negative")
	check(c.SlowRequest < 0, "SlowRequest", c.SlowRequest, "must be non-negative")
	check(c.TraceRing < 0, "TraceRing", c.TraceRing, "must be non-negative")
	err := c.SLO.Validate()
	var sub cfgerr.Errors
	if errors.As(err, &sub) {
		return append(es, sub...)
	}
	if fe, ok := cfgerr.Field(err); ok {
		return append(es, fe)
	}
	return es
}

// edge is the serve edge of one role.
type edge struct {
	cfg edgeConfig
	// role names the spans and prefixes the aggregate series
	// (<role>_requests_total, ...): "server" or "router".
	role string
	// logRole is the access-log role field; empty (omitted) on the
	// daemon.
	logRole string
	// storeMode reports the durable-store mode recorded on each span;
	// nil where there is no store (the router).
	storeMode func() string

	mux  *http.ServeMux
	http *http.Server
	ln   net.Listener

	sem      chan struct{}
	inflight atomic.Int64

	// Request observability: span ring behind /debug/requests, edge
	// request-ID generation, SLO burn tracking, and an injectable clock
	// so log/span tests can pin time.
	spans   *reqtrace.Ring
	ids     *reqtrace.IDGen
	tracker *slo.Tracker
	now     func() time.Time

	// <role>_* aggregate instrumentation (nil-tolerant handles).
	mRequests  *metrics.Counter
	mErrors    *metrics.Counter
	mRejected  *metrics.Counter
	mTimeouts  *metrics.Counter
	mInflight  *metrics.Gauge
	mLatencyMS *metrics.Histogram
}

// newEdge builds a role's edge with its mux, on which it serves GET
// /debug/requests; the role registers its own routes on e.mux.
func newEdge(role, logRole string, cfg edgeConfig) *edge {
	prefix := role + "_"
	e := &edge{
		cfg:     cfg,
		role:    role,
		logRole: logRole,
		mux:     http.NewServeMux(),
		sem:     make(chan struct{}, cfg.MaxInFlight),

		spans:   reqtrace.NewRing(cfg.TraceRing, 0),
		ids:     reqtrace.NewIDGen(),
		tracker: slo.NewTracker(cfg.SLO, cfg.Metrics, prefix),
		now:     time.Now,

		mRequests:  cfg.Metrics.Counter(prefix + "requests_total"),
		mErrors:    cfg.Metrics.Counter(prefix + "errors_total"),
		mRejected:  cfg.Metrics.Counter(prefix + "rejected_total"),
		mTimeouts:  cfg.Metrics.Counter(prefix + "timeouts_total"),
		mInflight:  cfg.Metrics.Gauge(prefix + "in_flight"),
		mLatencyMS: cfg.Metrics.Histogram(prefix+"latency_ms", LatencyBuckets),
	}
	e.mux.HandleFunc("GET /debug/requests", handleDebugRequests(e.spans))
	e.http = &http.Server{Handler: e.mux}
	return e
}

// statusWriter records the status code for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// limited wraps an API handler with the full request spine: request-ID
// assignment/propagation, semaphore admission (429 on overload),
// deadline, error mapping, span capture, RED metrics, SLO tracking and
// logging. endpoint keys the per-endpoint series and span records.
func (e *edge) limited(endpoint string, h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	ep := newEndpointObs(e.cfg.Metrics, e.role+"_", endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		arrive := e.now()
		// The edge mints the request ID; a propagated one (router hop)
		// wins. Either way the response echoes it immediately, so even
		// a 429 is correlatable.
		reqID, hop := reqtrace.Incoming(r.Header)
		if reqID == "" {
			reqID = e.ids.Next()
		}
		w.Header().Set(reqtrace.HeaderRequestID, reqID)
		e.mRequests.Inc()
		ep.requests.Inc()
		sp := reqtrace.Span{RequestID: reqID, Role: e.role, Endpoint: endpoint,
			Method: r.Method, Path: r.URL.Path, Hop: hop}
		select {
		case e.sem <- struct{}{}:
		default:
			// Full house: shed immediately. Retry-After is advisory;
			// the bound is requests in flight, not a rate. Rejected
			// requests still span + count, so /debug/requests
			// reconciles exactly with <role>_requests_total.
			e.mRejected.Inc()
			writeError(w, &apiError{Code: http.StatusTooManyRequests,
				Kind: "overloaded", Msg: "too many requests in flight"})
			e.finish(ep, sp, w.Header(), http.StatusTooManyRequests, "overloaded", 0, arrive, arrive)
			return
		}
		e.mInflight.Set(float64(e.inflight.Add(1)))
		ep.enter()
		start := e.now()
		defer func() {
			<-e.sem
			e.mInflight.Set(float64(e.inflight.Add(-1)))
			ep.exit()
		}()

		ctx, cancel := context.WithTimeout(r.Context(), e.cfg.RequestTimeout)
		defer cancel()
		ctx = reqtrace.WithRequestID(ctx, reqID)
		sw := &statusWriter{ResponseWriter: w}
		err := h(sw, r.WithContext(ctx))
		e.mLatencyMS.Observe(float64(e.now().Sub(start).Milliseconds()))
		errKind := ""
		if err != nil {
			e.mErrors.Inc()
			var ae *apiError
			switch {
			case errors.As(err, &ae):
			case errors.Is(err, context.DeadlineExceeded):
				e.mTimeouts.Inc()
				ae = &apiError{Code: http.StatusGatewayTimeout,
					Kind: "timeout", Msg: "request deadline exceeded"}
			default:
				ae = &apiError{Code: http.StatusInternalServerError,
					Kind: "internal", Msg: err.Error()}
			}
			writeError(sw, ae)
			errKind = ae.Kind
		}
		e.finish(ep, sp, sw.Header(), sw.status, errKind, sw.bytes, arrive, start)
	}
}

// finish closes out one request: it completes the span and records it,
// lands the RED and SLO observations, and emits the slow-request and
// access-log lines. start equals arrive on the 429 path (the request
// never reached a handler). The routed shard comes from the
// X-Netmaster-Shard response header, which only the router sets.
func (e *edge) finish(ep *endpointObs, sp reqtrace.Span, hdr http.Header, status int, errKind string, bytes int, arrive, start time.Time) {
	end := e.now()
	sp.Status = status
	sp.ErrKind = errKind
	sp.Shard = hdr.Get(reqtrace.HeaderShard)
	sp.Cache = hdr.Get("X-Netmaster-Cache")
	if e.storeMode != nil {
		sp.StoreMode = e.storeMode()
	}
	sp.QueueWaitMS = durMS(start.Sub(arrive))
	sp.HandleMS = durMS(end.Sub(start))
	sp.TotalMS = durMS(end.Sub(arrive))
	sp.Bytes = bytes
	ep.finish(status, sp.TotalMS)
	e.tracker.Observe(sp.TotalMS, status >= 500)
	e.spans.Record(sp)
	if e.cfg.SlowRequest > 0 && end.Sub(arrive) >= e.cfg.SlowRequest {
		emitLog(e.cfg.LogWriter, slowLine{SlowRequest: sp})
	}
	emitLog(e.cfg.LogWriter, accessLine{
		Role: e.logRole, Method: sp.Method, Path: sp.Path, Status: status, Bytes: bytes,
		Millis: end.Sub(arrive).Milliseconds(), InFlight: e.inflight.Load(),
		RequestID: sp.RequestID, Shard: sp.Shard, Cache: sp.Cache, QueueWaitMS: sp.QueueWaitMS,
	})
}

// sloStatus is the /healthz SLO block, nil while tracking is disabled.
func (e *edge) sloStatus() *slo.Status {
	st := e.tracker.Status()
	if st.Status == "" {
		return nil
	}
	return &st
}

// serveMetricsJSON answers GET /metrics?format=json with the raw
// registry snapshot (scope=self only) and reports whether the request
// was one; the text expositions are left to the role.
func (e *edge) serveMetricsJSON(w http.ResponseWriter, r *http.Request) bool {
	if r.URL.Query().Get("format") != "json" {
		return false
	}
	if scope := r.URL.Query().Get("scope"); scope != "self" {
		writeError(w, &apiError{Code: http.StatusBadRequest, Kind: "bad_request",
			Msg: "format=json requires scope=self"})
		return true
	}
	writeJSON(w, http.StatusOK, e.cfg.Metrics.Snapshot())
	return true
}

// workers is the bounded fan-out width for per-request parallel work.
func (e *edge) workers() int {
	if e.cfg.Parallelism > 0 {
		return e.cfg.Parallelism
	}
	return parallel.DefaultWorkers()
}

func (e *edge) start() error {
	ln, err := net.Listen("tcp", e.cfg.Addr)
	if err != nil {
		return fmt.Errorf("%s: listen %s: %w", e.role, e.cfg.Addr, err)
	}
	e.ln = ln
	go e.http.Serve(ln)
	return nil
}

func (e *edge) addr() string {
	if e.ln == nil {
		return e.cfg.Addr
	}
	return e.ln.Addr().String()
}

func (e *edge) shutdown(ctx context.Context) error {
	dctx, cancel := context.WithTimeout(ctx, e.cfg.ShutdownGrace)
	defer cancel()
	return e.http.Shutdown(dctx)
}
