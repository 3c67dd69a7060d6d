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
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

// ingested is one device's artifacts as received on /v1/fleet/ingest,
// plus the memo of its analysis. Every ingest path stores a fresh
// *ingested, so re-ingesting a device drops its memo by construction.
// The artifacts never change after the store; reports is read and
// written under fleetMu only.
type ingested struct {
	metrics *metrics.Snapshot
	header  tracing.Header
	events  []tracing.Event
	// reports holds the device's analysis per analysis config — one
	// entry per power model read so far, at most two. Memoised analyses
	// are shared by every later read and never mutated.
	reports map[analyze.Config]*analysis
}

// analysis is analyze.Device's answer for one device under one config,
// plus that report as its fleet-report per_device entry (encodeEntry),
// which every later report read splices in verbatim.
type analysis struct {
	report *analyze.DeviceReport
	body   []byte
}

// Server is the daemon: an http.Handler plus the state behind it.
type Server struct {
	*edge
	cfg Config

	profiles  *lru // sketch-state profile ID → *profileEntry (its entries with a blob are the durable set)
	aliases   *lru // request-shape alias → profile ID
	batchAcks *lru // batch request_id → ack bytes (idempotent replay)

	fleetMu sync.Mutex
	fleet   map[string]*ingested

	// The report read's analysis fold per analysis config (at most two).
	foldsMu sync.Mutex
	folds   map[analyze.Config]*fleetFold

	// Durable state (nil store without Config.StateDir). stateMu
	// serialises journal-append + in-memory apply + compaction so a
	// snapshot always covers exactly the records whose effects it holds.
	stateMu sync.Mutex
	store   *store.Store

	// server_profile_cache_* instrumentation (nil-tolerant handles).
	mProfHit  *metrics.Counter
	mProfMiss *metrics.Counter
	mProfEvic *metrics.Counter

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
		fleet:     make(map[string]*ingested),
		folds:     make(map[analyze.Config]*fleetFold),

		mProfHit:  cfg.Metrics.Counter("server_profile_cache_hits_total"),
		mProfMiss: cfg.Metrics.Counter("server_profile_cache_misses_total"),
		mProfEvic: cfg.Metrics.Counter("server_profile_cache_evictions_total"),
	}
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

// eachDevice calls visit on every ingested device in sorted-ID order,
// inside one fleetMu critical section. It is the one snapshot shape of
// the fleet, so visit must stay cheap: it copies what it needs and
// never analyses.
func (s *Server) eachDevice(visit func(id string, d *ingested)) {
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	ids := make([]string, 0, len(s.fleet))
	for id := range s.fleet {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		visit(id, s.fleet[id])
	}
}

// analysisConfig is the analysis a fleet read of the named power model
// runs: the default thresholds, pricing active seconds at the model's
// active draw.
func analysisConfig(model string) (analyze.Config, error) {
	m, err := powerModel(model)
	if err != nil {
		return analyze.Config{}, err
	}
	acfg := analyze.DefaultConfig()
	acfg.ActivePowerMW = m.ActivePowerMW
	return acfg, nil
}

// deviceDumps snapshots the ingested fleet in sorted-ID order: each
// device's raw metrics plus (optionally) its analyzed report. This is
// the shard's contribution to a routed fleet report — the router fetches
// dumps from every shard and folds them with fleetDocFromDumps. With
// reports, entries holds each report's encoded per_device entry,
// index-aligned with the dumps.
//
// Reports come from each device's memo; only devices ingested since
// they were last analysed under this config run analyze.Device (and
// encodeEntry), outside the lock. A fresh analysis is published to the
// memo only if the device was not re-ingested meanwhile, so a newer
// ingest always wins.
func (s *Server) deviceDumps(acfg analyze.Config, withReports bool) (dumps []DeviceDump, entries [][]byte, err error) {
	type miss struct {
		i int // index into dumps
		d *ingested
	}
	dumps = []DeviceDump{}
	var misses []miss
	s.eachDevice(func(id string, d *ingested) {
		dump := DeviceDump{DeviceID: id, Metrics: d.metrics}
		if withReports {
			if a := d.reports[acfg]; a != nil {
				dump.Report = a.report
				entries = append(entries, a.body)
			} else {
				misses = append(misses, miss{len(dumps), d})
				entries = append(entries, nil)
			}
		}
		dumps = append(dumps, dump)
	})
	if !withReports {
		return dumps, nil, nil
	}

	if len(misses) > 0 {
		fresh, err := parallel.MapN(s.workers(), len(misses), func(k int) (*analysis, error) {
			m := misses[k]
			rep := analyze.Device(analyze.DeviceInput{ID: dumps[m.i].DeviceID, Header: m.d.header, Events: m.d.events, Metrics: m.d.metrics}, acfg)
			body, err := encodeEntry(&rep)
			if err != nil {
				return nil, err
			}
			return &analysis{report: &rep, body: body}, nil
		})
		if err != nil {
			return nil, nil, err
		}
		s.fleetMu.Lock()
		for k, m := range misses {
			dumps[m.i].Report, entries[m.i] = fresh[k].report, fresh[k].body
			if s.fleet[dumps[m.i].DeviceID] == m.d {
				if m.d.reports == nil {
					m.d.reports = make(map[analyze.Config]*analysis, 1)
				}
				m.d.reports[acfg] = fresh[k]
			}
		}
		s.fleetMu.Unlock()
	}
	for i := range dumps {
		dumps[i].DeferSecs = dumps[i].Report.DeferSecs()
	}
	return dumps, entries, nil
}

// fleetDocFromDumps folds per-device dumps into the fleet document.
// The same fold serves one node's memory and a router's N shards: the
// telemetry export and analyze.Fleet both sort their inputs, so the
// result is independent of how devices were grouped — which is what
// makes a routed report byte-identical to a single-node run. A daemon's
// own report read keeps its analysis in a fleetFold instead, which
// gives the same bytes.
func fleetDocFromDumps(dumps []DeviceDump) (FleetReportResponse, error) {
	m, err := fleetMetrics(dumps)
	if err != nil {
		return FleetReportResponse{}, err
	}
	reports := make([]analyze.DeviceReport, 0, len(dumps))
	for _, d := range dumps {
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
	return FleetReportResponse{Metrics: m, Analysis: analyze.Fleet(reports)}, nil
}

// fleetMetrics is the metrics half of the fleet document: the dumps'
// snapshots folded by the telemetry exporter.
func fleetMetrics(dumps []DeviceDump) (telemetry.FleetSnapshot, error) {
	var mdevs []telemetry.Device
	for _, d := range dumps {
		if d.Metrics != nil {
			mdevs = append(mdevs, telemetry.Device{ID: d.DeviceID, Snapshot: *d.Metrics})
		}
	}
	agg, err := telemetry.Aggregate(mdevs...)
	if err != nil {
		return telemetry.FleetSnapshot{}, err
	}
	return agg.Export(), nil
}

// fleetFold is a daemon's analysis half of the fleet report for one
// analysis config, kept across reads: a read merges in only the devices
// whose memoised report changed since the fold last saw them.
type fleetFold struct {
	mu   sync.Mutex
	fold analyze.Fold
}

// report syncs the fold to exactly the reports in dumps (each a
// memoised analysis, compared by pointer) and rolls it up.
func (f *fleetFold) report(dumps []DeviceDump) analyze.FleetReport {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, d := range dumps {
		f.fold.Set(d.Report)
	}
	// Devices never leave the fleet, but two concurrent reads can sync
	// out of order: a snapshot taken before a new device's ingest finds
	// the fold already holding it from the later one.
	if f.fold.Len() > len(dumps) {
		in := make(map[string]bool, len(dumps))
		for _, d := range dumps {
			in[d.DeviceID] = true
		}
		for _, id := range f.fold.IDs() {
			if !in[id] {
				f.fold.Remove(id)
			}
		}
	}
	return f.fold.Report()
}

// fleetFold returns the report fold for acfg, creating it on first use.
func (s *Server) fleetFold(acfg analyze.Config) *fleetFold {
	s.foldsMu.Lock()
	defer s.foldsMu.Unlock()
	f := s.folds[acfg]
	if f == nil {
		f = &fleetFold{}
		s.folds[acfg] = f
	}
	return f
}

// entryIndent is the line prefix of a per_device entry inside the
// fleet document: depth 3 (document → analysis → per_device → entry)
// of encodeJSON's two-space indent.
const entryIndent = "      "

// fleetDocTail is how encodeJSON ends a FleetReportResponse whose
// Analysis.PerDevice is nil: per_device is the last field of analysis,
// and analysis the last field of the document.
const fleetDocTail = "\"per_device\": null\n  }\n}\n"

// encodeEntry renders one device report exactly as encodeJSON prints it
// as an element of a fleet document's per_device array: indented for
// depth 3, with no trailing newline. (MarshalIndent escapes HTML like
// an Encoder does, and is a json.Encoder's SetIndent output minus the
// newline.)
func encodeEntry(rep *analyze.DeviceReport) ([]byte, error) {
	b, err := json.MarshalIndent(rep, entryIndent, "  ")
	if err != nil {
		return nil, err
	}
	// MarshalIndent leaves up to a quarter of its buffer spare, and a
	// memoised body lives as long as the device's artifacts.
	return bytes.Clone(b), nil
}

// encodeFleetDoc writes doc to w as a 200, byte for byte as writeJSON
// would with doc.Analysis.PerDevice holding the fleet's device reports,
// given each of them already encoded by encodeEntry, in device-ID
// order; doc.Analysis.PerDevice itself is not read. Only the small head
// of the document is encoded here; the entries are streamed after it as
// they are, which skips the re-indent an encoder applies to
// json.RawMessage or Marshaler output, and never holds the whole
// document in memory.
func encodeFleetDoc(w http.ResponseWriter, doc FleetReportResponse, entries [][]byte) error {
	if len(entries) != doc.Analysis.Devices {
		return fmt.Errorf("fleet document: %d encoded entries for %d devices",
			len(entries), doc.Analysis.Devices)
	}
	doc.Analysis.PerDevice = nil
	if len(entries) == 0 {
		body, err := encodeJSON(doc)
		if err != nil {
			return err
		}
		return writeRaw(w, http.StatusOK, body)
	}
	head, err := encodeJSON(doc)
	if err != nil {
		return err
	}
	return splicePerDevice(w, head, entries)
}

// spliceBuffer caps the buffer that batches the spliced document's
// small writes into a few large ones on the connection.
const spliceBuffer = 256 << 10

// splicePerDevice writes head as a 200 with its ending per_device null
// replaced by the array of entries. A head that does not end in
// fleetDocTail is an error returned before anything is written, so the
// caller answers 500 rather than a malformed or truncated 200.
func splicePerDevice(w http.ResponseWriter, head []byte, entries [][]byte) error {
	head, ok := bytes.CutSuffix(head, []byte(fleetDocTail))
	if !ok {
		return errors.New("fleet document: encoded head does not end in a null per_device")
	}
	const (
		open    = "\"per_device\": ["
		element = "\n" + entryIndent // each entry's own line
		end     = "\n    ]\n  }\n}\n"
	)
	size := len(head) + len(open) + len(end)
	for _, e := range entries {
		size += len(",") + len(element) + len(e)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriterSize(w, min(size, spliceBuffer))
	bw.Write(head)
	bw.WriteString(open)
	for i, e := range entries {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(element)
		bw.Write(e)
	}
	bw.WriteString(end)
	return bw.Flush()
}
