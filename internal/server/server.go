// Package server is the long-running daemon face of the repository: the
// mining, scheduling, simulation and fleet-telemetry pipelines behind
// an HTTP/JSON API (cmd/netmaster-serve). Production posture:
//
//   - habit profiles are cached in an LRU keyed by sketch-state hash
//     (reached through cheap request-shape aliases), so repeated mining
//     of the same trace is one hash away and incremental updates via
//     POST /v1/profile/update cost O(new events);
//   - request fan-out goes through internal/parallel with a bounded
//     in-flight semaphore — overload answers 429, never queues without
//     bound;
//   - every request carries a deadline, cancelled down into the
//     scheduler and evaluator via ScheduleCtx/CompareCtx;
//   - SIGTERM drains in-flight requests before exit;
//   - request counts, errors, latency and cache traffic land in a
//     metrics.Registry (server_* names) served on /metrics in
//     Prometheus text format via telemetry.WriteProm.
package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"

	"netmaster/internal/atomicfile"
	"netmaster/internal/cfgerr"
	"netmaster/internal/metrics"
	"netmaster/internal/parallel"
	"netmaster/internal/slo"
	"netmaster/internal/store"
	"netmaster/internal/telemetry"
	"netmaster/internal/telemetry/analyze"
	"netmaster/internal/tracing"
)

// LatencyBuckets are the server_latency_ms histogram bounds.
var LatencyBuckets = []float64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 5000, 30000}

// Config parameterises the daemon.
type Config struct {
	// Addr is the listen address, e.g. ":8080" or "127.0.0.1:0".
	Addr string
	// MaxInFlight bounds concurrently served API requests; excess
	// requests are answered 429 immediately (backpressure, not
	// queueing).
	MaxInFlight int
	// CacheSize is the habit-profile LRU capacity (entries). Zero
	// disables the cache; negative is invalid.
	CacheSize int
	// RequestTimeout is the per-request deadline, threaded as a
	// context into the mining, scheduling and simulation pipelines.
	RequestTimeout time.Duration
	// ShutdownGrace bounds the drain on SIGTERM: in-flight requests
	// get this long to finish before the listener is torn down.
	ShutdownGrace time.Duration
	// Parallelism caps the worker pool used by request fan-out; zero
	// keeps the process-wide default.
	Parallelism int
	// LogWriter receives one structured (JSON) line per request; nil
	// disables request logging.
	LogWriter io.Writer
	// Metrics receives server_* counters, gauges and histograms; nil
	// disables instrumentation (handles are nil-tolerant).
	Metrics *metrics.Registry
	// StateDir, when set, makes fleet ingests and profile updates
	// durable: a write-ahead journal plus snapshot compaction under
	// this directory, recovered on startup. Empty keeps the daemon
	// purely in-memory.
	StateDir string
	// StateFS overrides the filesystem the durable store writes
	// through; nil uses the real one. Tests inject faults.FS here.
	StateFS atomicfile.FS
	// CompactEvery is how many journal records accumulate before the
	// state is compacted into a snapshot; zero uses
	// DefaultCompactEvery.
	CompactEvery int
	// SlowRequest, when positive, emits a structured slow_request log
	// line (the request's full span) for any request whose total wall
	// time reaches the threshold. Zero disables slow-request capture.
	SlowRequest time.Duration
	// TraceRing is the /debug/requests recent-span ring capacity; zero
	// uses reqtrace.DefaultCapacity.
	TraceRing int
	// SLO configures online burn tracking against a p99 latency target
	// and an error-rate target, exposed as server_slo_* series and on
	// /healthz. The zero value disables tracking (and keeps /healthz
	// bodies unchanged).
	SLO slo.Config
}

// DefaultCompactEvery is the journal-records-per-snapshot compaction
// threshold when Config.CompactEvery is zero.
const DefaultCompactEvery = 256

// DefaultConfig returns production-shaped defaults (listener on an
// ephemeral localhost port, so tests and first runs never collide).
func DefaultConfig() Config {
	return Config{
		Addr:           "127.0.0.1:0",
		MaxInFlight:    64,
		CacheSize:      128,
		RequestTimeout: 30 * time.Second,
		ShutdownGrace:  5 * time.Second,
	}
}

// Validate checks the configuration, returning cfgerr field errors.
func (c *Config) Validate() error {
	es := c.edgeConfig().validate("server.Config")
	if c.CacheSize < 0 {
		es = append(es, cfgerr.New("server.Config", "CacheSize", c.CacheSize, "must be non-negative"))
	}
	if c.CompactEvery < 0 {
		es = append(es, cfgerr.New("server.Config", "CompactEvery", c.CompactEvery, "must be non-negative"))
	}
	if c.StateDir != "" && c.CacheSize == 0 {
		es = append(es, cfgerr.New("server.Config", "CacheSize", c.CacheSize, "must be positive when StateDir is set (recovered profiles need a cache to live in)"))
	}
	return es.Err()
}

// edgeConfig is the daemon's share of the serve-edge settings.
func (c *Config) edgeConfig() edgeConfig {
	return edgeConfig{Addr: c.Addr, MaxInFlight: c.MaxInFlight, RequestTimeout: c.RequestTimeout,
		ShutdownGrace: c.ShutdownGrace, Parallelism: c.Parallelism, LogWriter: c.LogWriter,
		Metrics: c.Metrics, SlowRequest: c.SlowRequest, TraceRing: c.TraceRing, SLO: c.SLO}
}

// ingested is one device's artifacts as received on /v1/fleet/ingest.
type ingested struct {
	metrics *metrics.Snapshot
	header  tracing.Header
	events  []tracing.Event
}

// Server is the daemon: an http.Handler plus the state behind it.
type Server struct {
	*edge
	cfg Config

	profiles  *lru // sketch-state profile ID → *profileEntry
	aliases   *lru // request-shape alias → profile ID
	batchAcks *lru // batch request_id → ack bytes (idempotent replay)

	fleetMu sync.Mutex
	fleet   map[string]ingested

	// Durable state (nil store without Config.StateDir). stateMu
	// serialises journal-append + in-memory apply + compaction so a
	// snapshot always covers exactly the records whose effects it holds.
	stateMu   sync.Mutex
	store     *store.Store
	persisted *lru // profile ID → sketch binary, the durably held set

	// server_* cache instrumentation (nil-tolerant handles).
	mCacheHit  *metrics.Counter
	mCacheMiss *metrics.Counter
	mCacheEvic *metrics.Counter
	mProfHit   *metrics.Counter
	mProfMiss  *metrics.Counter
	mProfEvic  *metrics.Counter

	// server_store_* instrumentation, registered only with a StateDir.
	mStoreAppends  *metrics.Counter
	mStoreReplays  *metrics.Counter
	mStoreCompact  *metrics.Counter
	mStoreTorn     *metrics.Counter
	mStoreRecovery *metrics.Gauge
}

// New builds a Server from the config. The listener is not opened
// until Start (or ListenAndServe via cmd/netmaster-serve).
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		edge:      newEdge("server", "", cfg.edgeConfig()),
		cfg:       cfg,
		profiles:  newLRU(cfg.CacheSize),
		aliases:   newLRU(cfg.CacheSize),
		batchAcks: newLRU(cfg.CacheSize),
		fleet:     make(map[string]ingested),

		mCacheHit:  cfg.Metrics.Counter("server_cache_hits_total"),
		mCacheMiss: cfg.Metrics.Counter("server_cache_misses_total"),
		mCacheEvic: cfg.Metrics.Counter("server_cache_evictions_total"),
		mProfHit:   cfg.Metrics.Counter("server_profile_cache_hits_total"),
		mProfMiss:  cfg.Metrics.Counter("server_profile_cache_misses_total"),
		mProfEvic:  cfg.Metrics.Counter("server_profile_cache_evictions_total"),
	}
	s.persisted = newLRU(cfg.CacheSize)
	if cfg.StateDir != "" {
		s.mStoreAppends = cfg.Metrics.Counter("server_store_appends_total")
		s.mStoreReplays = cfg.Metrics.Counter("server_store_replays_total")
		s.mStoreCompact = cfg.Metrics.Counter("server_store_compactions_total")
		s.mStoreTorn = cfg.Metrics.Counter("server_store_torn_tails_total")
		s.mStoreRecovery = cfg.Metrics.Gauge("server_store_recovery_ms")
		if err := s.openStore(); err != nil {
			return nil, err
		}
		s.edge.storeMode = s.journalMode
	}
	s.routes()
	return s, nil
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/mine", s.limited("mine", s.handleMine))
	s.mux.HandleFunc("POST /v1/profile/update", s.limited("profile_update", s.handleProfileUpdate))
	s.mux.HandleFunc("POST /v1/schedule", s.limited("schedule", s.handleSchedule))
	s.mux.HandleFunc("POST /v1/simulate", s.limited("simulate", s.handleSimulate))
	s.mux.HandleFunc("POST /v1/fleet/ingest", s.limited("ingest", s.handleIngest))
	s.mux.HandleFunc("POST /v1/fleet/ingest:batch", s.limited("ingest_batch", s.handleIngestBatch))
	s.mux.HandleFunc("POST /v1/schedule:batch", s.limited("schedule_batch", s.handleScheduleBatch))
	s.mux.HandleFunc("GET /v1/fleet/report", s.limited("fleet_report", s.handleFleetReport))
	s.mux.HandleFunc("GET /v1/fleet/devices", s.limited("fleet_devices", s.handleFleetDevices))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// ServeHTTP makes the server usable under httptest without a listener.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeJSON writes an indented, deterministic JSON body.
func writeJSON(w http.ResponseWriter, code int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func writeError(w http.ResponseWriter, e *apiError) {
	// Overload (429), upstream failure (502) and degraded-store (503)
	// answers are retryable by contract: advertise that uniformly, so
	// every such response carries Retry-After whichever path produced
	// it. An already-set header (e.g. relayed from a shard) wins.
	switch e.Code {
	case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable:
		if w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", "1")
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.Code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Error *apiError `json:"error"`
	}{e})
}

// decode parses a JSON request body, rejecting unknown fields so typos
// fail loudly instead of silently keeping defaults.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &apiError{Code: http.StatusBadRequest, Kind: "bad_json", Msg: err.Error()}
	}
	return nil
}

// Start opens the listener and serves until Shutdown. It returns once
// the listener is accepting, with the bound address in Addr().
func (s *Server) Start() error { return s.start() }

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.addr() }

// Shutdown drains in-flight requests within the configured grace and
// tears the listener down.
func (s *Server) Shutdown(ctx context.Context) error { return s.shutdown(ctx) }

// InFlight returns the number of API requests currently being served.
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// Devices returns the current ingested fleet size.
func (s *Server) Devices() int {
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	return len(s.fleet)
}

// deviceDumps snapshots the ingested fleet in sorted-ID order: each
// device's raw metrics plus (optionally) its analyzed report. This is
// the shard's contribution to a routed fleet report — the router fetches
// dumps from every shard and folds them with fleetDocFromDumps.
func (s *Server) deviceDumps(model string, withReports bool) ([]DeviceDump, error) {
	acfg := analyze.DefaultConfig()
	m, err := powerModel(model)
	if err != nil {
		return nil, err
	}
	acfg.ActivePowerMW = m.ActivePowerMW

	s.fleetMu.Lock()
	ids := make([]string, 0, len(s.fleet))
	for id := range s.fleet {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	ins := make([]analyze.DeviceInput, len(ids))
	dumps := make([]DeviceDump, len(ids))
	for i, id := range ids {
		d := s.fleet[id]
		ins[i] = analyze.DeviceInput{ID: id, Header: d.header, Events: d.events, Metrics: d.metrics}
		dumps[i] = DeviceDump{DeviceID: id, Metrics: d.metrics}
	}
	s.fleetMu.Unlock()

	if withReports {
		reports, err := parallel.MapN(s.workers(), len(ins), func(i int) (analyze.DeviceReport, error) {
			return analyze.Device(ins[i], acfg), nil
		})
		if err != nil {
			return nil, err
		}
		for i := range dumps {
			dumps[i].Report = &reports[i]
			dumps[i].DeferSecs = reports[i].DeferSecs()
		}
	}
	return dumps, nil
}

// fleetDoc assembles the live fleet report: the exact structure
// netmaster-analyze produces offline, so the two are byte-comparable.
func (s *Server) fleetDoc(model string) (FleetReportResponse, error) {
	dumps, err := s.deviceDumps(model, true)
	if err != nil {
		return FleetReportResponse{}, err
	}
	return fleetDocFromDumps(s.workers(), dumps)
}

// fleetDocFromDumps folds per-device dumps into the fleet document.
// The same fold serves one node's memory and a router's N shards: the
// telemetry merge is exactly associative and analyze.Fleet sorts its
// inputs, so the result is independent of how devices were grouped —
// which is what makes a routed report byte-identical to a single-node
// run.
func fleetDocFromDumps(workers int, dumps []DeviceDump) (FleetReportResponse, error) {
	var mdevs []telemetry.Device
	reports := make([]analyze.DeviceReport, 0, len(dumps))
	for _, d := range dumps {
		if d.Metrics != nil {
			mdevs = append(mdevs, telemetry.Device{ID: d.DeviceID, Snapshot: *d.Metrics})
		}
		if d.Report != nil {
			rep := *d.Report
			if rep.DeferSecs() == nil {
				// Rebuilt from JSON: the raw waits ride next to the
				// report, not inside it.
				rep.SetDeferSecs(d.DeferSecs)
			}
			reports = append(reports, rep)
		}
	}
	agg, err := telemetry.AggregateParallel(workers, mdevs)
	if err != nil {
		return FleetReportResponse{}, err
	}
	return FleetReportResponse{Metrics: agg.Export(), Analysis: analyze.Fleet(reports)}, nil
}
