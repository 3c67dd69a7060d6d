// Router is the shard-ready face of the serve tier: a netmaster-serve
// process started with -router proxies the /v1/* API across N backend
// daemons, placing every device on exactly one shard via the
// internal/shard consistent-hash ring. Single-device requests forward
// to the owning shard untouched; fleet-wide reads (/v1/fleet/report,
// /v1/fleet/devices, /metrics) fan out to every shard and fold the
// per-device dumps through the same exactly-associative telemetry merge
// a single node uses — so a routed fleet report is byte-identical to a
// one-node run over the same cohort. Batch endpoints partition their
// items by device, fan sub-batches out in parallel, and stitch the
// per-item results back into request order; a shard that cannot be
// reached fails only its own items (kind "bad_gateway"), never the
// envelope, and never fabricates a success.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"netmaster/internal/metrics"
	"netmaster/internal/parallel"
	"netmaster/internal/reqtrace"
	"netmaster/internal/shard"
	"netmaster/internal/slo"
	"netmaster/internal/telemetry"
)

// RouterConfig parameterises the routing tier.
type RouterConfig struct {
	// Addr is the router's listen address.
	Addr string
	// Backends are the shard base URLs, e.g. "http://127.0.0.1:9101".
	// Order does not matter: placement depends only on the set.
	Backends []string
	// VNodes is the consistent-hash virtual-node count per shard; zero
	// means shard.DefaultVNodes.
	VNodes int
	// MaxInFlight bounds concurrently served requests (429 beyond it).
	MaxInFlight int
	// RequestTimeout is the per-request deadline, covering the full
	// fan-out.
	RequestTimeout time.Duration
	// ShutdownGrace bounds the drain on SIGTERM.
	ShutdownGrace time.Duration
	// Parallelism caps the shard fan-out width; zero keeps the
	// process-wide default.
	Parallelism int
	// LogWriter receives one structured line per request; nil disables.
	LogWriter io.Writer
	// Metrics receives router_* counters; nil disables instrumentation.
	Metrics *metrics.Registry
	// HTTPClient overrides the backend transport; nil uses a default
	// client (per-request deadlines come from the request context).
	HTTPClient *http.Client
	// SlowRequest, when positive, emits a structured slow_request log
	// line for any request whose total wall time reaches the threshold.
	SlowRequest time.Duration
	// TraceRing is the /debug/requests recent-span ring capacity; zero
	// uses reqtrace.DefaultCapacity.
	TraceRing int
	// SLO configures online burn tracking, exposed as router_slo_*
	// series and on /healthz. The zero value disables it.
	SLO slo.Config
}

// DefaultRouterConfig returns production-shaped router defaults; the
// caller must still provide Backends.
func DefaultRouterConfig() RouterConfig {
	return RouterConfig{
		Addr:           "127.0.0.1:0",
		MaxInFlight:    256,
		RequestTimeout: 60 * time.Second,
		ShutdownGrace:  5 * time.Second,
	}
}

// Validate checks the configuration, returning cfgerr field errors.
// Backend-set errors come from shard.Config's own validation.
func (c *RouterConfig) Validate() error {
	return c.edgeConfig().validate("server.RouterConfig").Err()
}

// edgeConfig is the router's share of the serve-edge settings.
func (c *RouterConfig) edgeConfig() edgeConfig {
	return edgeConfig{Addr: c.Addr, MaxInFlight: c.MaxInFlight, RequestTimeout: c.RequestTimeout,
		ShutdownGrace: c.ShutdownGrace, Parallelism: c.Parallelism, LogWriter: c.LogWriter,
		Metrics: c.Metrics, SlowRequest: c.SlowRequest, TraceRing: c.TraceRing, SLO: c.SLO}
}

// ShardHealth is one backend's slice of the router's /healthz.
type ShardHealth struct {
	Shard   string `json:"shard"`
	Status  string `json:"status"` // the shard's own status, or "unreachable"
	Devices int    `json:"devices"`
	Error   string `json:"error,omitempty"`
}

// RouterHealthResponse is the body of GET /healthz in -router mode.
// Status is "ok" only when every shard answered "ok".
type RouterHealthResponse struct {
	Status   string        `json:"status"` // ok | degraded
	Shards   []ShardHealth `json:"shards"`
	Devices  int           `json:"devices"`
	InFlight int64         `json:"in_flight"`
	SLO      *slo.Status   `json:"slo,omitempty"`
}

// Router proxies the /v1/* API across the shard ring.
type Router struct {
	*edge
	cfg    RouterConfig
	ring   *shard.Ring
	client *http.Client

	// router_* routing instrumentation (nil-tolerant handles).
	mProxied *metrics.Counter
	mFanouts *metrics.Counter
}

// NewRouter builds a Router from the config. The listener is not opened
// until Start.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ring, err := shard.New(shard.Config{Shards: cfg.Backends, VNodes: cfg.VNodes})
	if err != nil {
		return nil, err
	}
	client := cfg.HTTPClient
	if client == nil {
		client = &http.Client{}
	}
	rt := &Router{
		edge:     newEdge("router", "router", cfg.edgeConfig()),
		cfg:      cfg,
		ring:     ring,
		client:   client,
		mProxied: cfg.Metrics.Counter("router_proxied_total"),
		mFanouts: cfg.Metrics.Counter("router_fanouts_total"),
	}
	rt.routes()
	return rt, nil
}

func (rt *Router) routes() {
	for _, rp := range []struct{ pattern, endpoint string }{
		{"POST /v1/mine", "mine"},
		{"POST /v1/profile/update", "profile_update"},
		{"POST /v1/schedule", "schedule"},
		{"POST /v1/simulate", "simulate"},
		{"POST /v1/fleet/ingest", "ingest"},
	} {
		rt.mux.HandleFunc(rp.pattern, rt.limited(rp.endpoint, rt.handleRouted))
	}
	rt.mux.HandleFunc("POST /v1/fleet/ingest:batch", rt.limited("ingest_batch", rt.handleIngestBatch))
	rt.mux.HandleFunc("POST /v1/schedule:batch", rt.limited("schedule_batch", rt.handleScheduleBatch))
	rt.mux.HandleFunc("GET /v1/fleet/report", rt.limited("fleet_report", rt.handleFleetReport))
	rt.mux.HandleFunc("GET /v1/fleet/devices", rt.limited("fleet_devices", rt.handleFleetDevices))
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
}

// ServeHTTP makes the router usable under httptest without a listener.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// Ring exposes the placement ring (read-only; the Ring is immutable).
func (rt *Router) Ring() *shard.Ring { return rt.ring }

// routeProbe is a loose view of any /v1/* request body: just the fields
// that can carry a routing key.
type routeProbe struct {
	DeviceID  string `json:"device_id"`
	ProfileID string `json:"profile_id"`
	Gen       *struct {
		User string `json:"user"`
	} `json:"gen"`
	Trace *struct {
		UserID string `json:"user_id"`
	} `json:"trace"`
}

// routeKey extracts the placement key for a single-device request. An
// explicit X-Netmaster-Route-Key header wins; then device_id, the gen
// user, the inline trace's user, the profile ID, and finally the raw
// body bytes (a stable, if arbitrary, assignment). profile_id ranks
// below the user keys because a profile ID alone cannot prove which
// user it belongs to — callers that schedule by bare profile_id against
// a router should pin affinity with the header (docs/api.md).
func routeKey(r *http.Request, body []byte) string {
	if k := r.Header.Get("X-Netmaster-Route-Key"); k != "" {
		return k
	}
	var p routeProbe
	if json.Unmarshal(body, &p) == nil {
		switch {
		case p.DeviceID != "":
			return p.DeviceID
		case p.Gen != nil && p.Gen.User != "":
			return p.Gen.User
		case p.Trace != nil && p.Trace.UserID != "":
			return p.Trace.UserID
		case p.ProfileID != "":
			return p.ProfileID
		}
	}
	return string(body)
}

// errShard is the typed answer for an unreachable or misbehaving shard.
func errShard(backend string, err error) *apiError {
	return &apiError{Code: http.StatusBadGateway, Kind: "bad_gateway",
		Msg: fmt.Sprintf("shard %s: %v", backend, err)}
}

// handleRouted forwards a single-device request verbatim to the shard
// that owns its routing key and relays the response.
func (rt *Router) handleRouted(w http.ResponseWriter, r *http.Request) error {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return &apiError{Code: http.StatusBadRequest, Kind: "bad_request", Msg: err.Error()}
	}
	backend := rt.ring.Owner(routeKey(r, body))
	// The chosen shard rides back on the response (and so into the span
	// and access log) even when the proxy attempt fails.
	w.Header().Set(reqtrace.HeaderShard, backend)
	req, err := http.NewRequestWithContext(r.Context(), r.Method, backend+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return errShard(backend, err)
	}
	req.Header.Set("Content-Type", "application/json")
	reqtrace.Propagate(req.Header, reqtrace.RequestID(r.Context()), 1)
	resp, err := rt.client.Do(req)
	if err != nil {
		return errShard(backend, err)
	}
	defer resp.Body.Close()
	rt.mProxied.Inc()
	for _, h := range []string{"Content-Type", "X-Netmaster-Cache", "X-Netmaster-Idempotent-Replay", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	// Past this point the status is on the wire; a copy failure only
	// means the client went away.
	io.Copy(w, resp.Body)
	return nil
}

// shardJSON sends one request to a shard — a GET when in is nil, else
// a JSON POST of in — and decodes the 200 body into out. hop is the
// fan-out leg index stamped on the sub-request (with the context's
// request ID) so the shard's span correlates back to the routed
// request.
func (rt *Router) shardJSON(ctx context.Context, backend, path string, in, out any, hop int) (http.Header, error) {
	method, body := http.MethodGet, io.Reader(nil)
	if in != nil {
		payload, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		method, body = http.MethodPost, bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, backend+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	reqtrace.Propagate(req.Header, reqtrace.RequestID(ctx), hop)
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return resp.Header, json.Unmarshal(raw, out)
}

// shardDumps fans GET /v1/fleet/devices out to every shard and returns
// the union in sorted-ID order. A device reported by two shards is a
// placement violation and fails the read (kind "shard_conflict") —
// merging would silently double-count it.
func (rt *Router) shardDumps(ctx context.Context, query string) ([]DeviceDump, error) {
	shards := rt.ring.Shards()
	rt.mFanouts.Inc()
	per, err := parallel.MapNCtx(ctx, rt.workers(), len(shards), func(i int) ([]DeviceDump, error) {
		var fd FleetDevicesResponse
		if _, err := rt.shardJSON(ctx, shards[i], "/v1/fleet/devices"+query, nil, &fd, i+1); err != nil {
			return nil, errShard(shards[i], err)
		}
		return fd.Devices, nil
	})
	if err != nil {
		return nil, err
	}
	owner := make(map[string]string)
	var all []DeviceDump
	for i, dumps := range per {
		for _, d := range dumps {
			if prev, dup := owner[d.DeviceID]; dup {
				return nil, &apiError{Code: http.StatusBadGateway, Kind: "shard_conflict",
					Msg: fmt.Sprintf("device %s reported by both %s and %s", d.DeviceID, prev, shards[i])}
			}
			owner[d.DeviceID] = shards[i]
			all = append(all, d)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].DeviceID < all[j].DeviceID })
	return all, nil
}

// forwardQuery re-encodes the named query parameters r sets, for a
// shard sub-request; "" when none is set.
func forwardQuery(r *http.Request, keys ...string) string {
	q := url.Values{}
	for _, k := range keys {
		if v := r.URL.Query().Get(k); v != "" {
			q.Set(k, v)
		}
	}
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}

func (rt *Router) handleFleetReport(w http.ResponseWriter, r *http.Request) error {
	// A bad model is a 400 here, not every shard's refusal relayed as
	// a 502.
	if _, err := powerModel(r.URL.Query().Get("model")); err != nil {
		return err
	}
	dumps, err := rt.shardDumps(r.Context(), forwardQuery(r, "model"))
	if err != nil {
		return err
	}
	doc, err := fleetDocFromDumps(dumps)
	if err != nil {
		return err
	}
	// The router holds no memo: it encodes every per_device entry, then
	// writes the document through the same splice as a single node.
	per := doc.Analysis.PerDevice
	entries, err := parallel.MapN(rt.workers(), len(per), func(i int) ([]byte, error) {
		return encodeEntry(&per[i])
	})
	if err != nil {
		return err
	}
	return encodeFleetDoc(w, doc, entries)
}

func (rt *Router) handleFleetDevices(w http.ResponseWriter, r *http.Request) error {
	// Bad parameters are a 400 here, as on a shard, not every shard's
	// refusal relayed as a 502.
	if _, err := powerModel(r.URL.Query().Get("model")); err != nil {
		return err
	}
	if _, err := wantReports(r); err != nil {
		return err
	}
	dumps, err := rt.shardDumps(r.Context(), forwardQuery(r, "model", "reports"))
	if err != nil {
		return err
	}
	if dumps == nil {
		dumps = []DeviceDump{}
	}
	return writeJSON(w, http.StatusOK, FleetDevicesResponse{Devices: dumps})
}

// handleMetrics mirrors the daemon's /metrics scopes: "fleet" merges
// every shard's ingested devices (byte-identical to a single node's
// ?scope=fleet over the same cohort), "self" is the router's own
// registry, and the default is both. The additional "serve" scope
// merges the serve-tier process registries instead — the router's own
// router_* series plus every shard's server_* series, folded through
// the same exactly-associative merge, so per-endpoint latency
// histograms sum bucket-wise across shards and two scrapes of
// identical state render byte-identical text. ?format=json&scope=self
// returns the raw registry snapshot, as on the daemon.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if rt.serveMetricsJSON(w, r) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	self := telemetry.Device{ID: "router", Snapshot: rt.cfg.Metrics.Snapshot()}
	fleet := func() ([]telemetry.Device, error) {
		dumps, err := rt.shardDumps(ctx, "?reports=0")
		if err != nil {
			return nil, err
		}
		var devs []telemetry.Device
		for _, d := range dumps {
			if d.Metrics != nil {
				devs = append(devs, telemetry.Device{ID: d.DeviceID, Snapshot: *d.Metrics})
			}
		}
		return devs, nil
	}
	var devs []telemetry.Device
	var err error
	switch scope := r.URL.Query().Get("scope"); scope {
	case "", "all":
		devs, err = fleet()
		devs = append([]telemetry.Device{self}, devs...)
	case "fleet":
		devs, err = fleet()
	case "self":
		devs = []telemetry.Device{self}
	case "serve":
		devs, err = rt.serveRegistries(ctx)
	default:
		writeError(w, &apiError{Code: http.StatusBadRequest, Kind: "bad_request",
			Msg: fmt.Sprintf("unknown metrics scope %q (want all, fleet, self or serve)", scope)})
		return
	}
	if err == nil {
		var agg *telemetry.Agg
		agg, err = telemetry.Aggregate(devs...)
		if err == nil {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			telemetry.WriteProm(w, "netmaster_", agg.Export())
			return
		}
	}
	var ae *apiError
	if !errors.As(err, &ae) {
		ae = &apiError{Code: http.StatusInternalServerError, Kind: "internal", Msg: err.Error()}
	}
	writeError(w, ae)
}

// serveRegistries gathers the serve-tier process registries — the
// router's own plus every shard's (fetched as raw JSON snapshots) —
// one telemetry device per process, keyed by shard URL. Aggregating
// them merges per-endpoint latency histograms bucket-exactly, because
// every process uses the shared LatencyBuckets bounds. Neither this
// scrape nor the shards' /metrics handlers pass through the limited
// spine, so scraping never perturbs the counters being read — two
// scrapes of identical state are byte-identical.
func (rt *Router) serveRegistries(ctx context.Context) ([]telemetry.Device, error) {
	shards := rt.ring.Shards()
	per, err := parallel.MapNCtx(ctx, rt.workers(), len(shards), func(i int) (telemetry.Device, error) {
		var snap metrics.Snapshot
		if _, err := rt.shardJSON(ctx, shards[i], "/metrics?format=json&scope=self", nil, &snap, i+1); err != nil {
			return telemetry.Device{}, errShard(shards[i], err)
		}
		return telemetry.Device{ID: shards[i], Snapshot: snap}, nil
	})
	if err != nil {
		return nil, err
	}
	return append([]telemetry.Device{{ID: "router", Snapshot: rt.cfg.Metrics.Snapshot()}}, per...), nil
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	shards := rt.ring.Shards()
	h := RouterHealthResponse{Status: "ok", Shards: make([]ShardHealth, len(shards)), InFlight: rt.InFlight()}
	var mu sync.Mutex
	parallel.ForEachN(rt.workers(), len(shards), func(i int) error {
		var sh HealthResponse
		if _, err := rt.shardJSON(ctx, shards[i], "/healthz", nil, &sh, i+1); err != nil {
			h.Shards[i] = ShardHealth{Shard: shards[i], Status: "unreachable", Error: err.Error()}
			return nil
		}
		h.Shards[i] = ShardHealth{Shard: shards[i], Status: sh.Status, Devices: sh.Devices}
		mu.Lock()
		h.Devices += sh.Devices
		mu.Unlock()
		return nil
	})
	for _, sh := range h.Shards {
		if sh.Status != "ok" {
			h.Status = "degraded"
			break
		}
	}
	h.SLO = rt.sloStatus()
	writeJSON(w, http.StatusOK, h)
}

// shardReply is one shard's complete answer to its routed sub-batch.
type shardReply[S any] struct {
	resp S
	hdr  http.Header
}

// fanOutBatch partitions a batch's items across their owning shards,
// posts one sub-batch per shard in parallel, and stitches the per-item
// results back into request order. owners[i] is item i's shard; ""
// leaves out an item whose result is already set. sub builds the
// sub-request for the shard at position si of the sorted shard list
// from its item indexes, and got reads a sub-response's results. A
// shard that cannot be reached, or that answers with the wrong number
// of results, fails only its own items, each through fail with a
// bad_gateway error. The replies follow the sorted shard list, nil for
// a failed shard.
func fanOutBatch[S, R any](rt *Router, ctx context.Context, path string, owners []string, results []R,
	sub func(si int, idxs []int) any, got func(*S) []R, fail func(*R, *BatchItemError)) ([]*shardReply[S], error) {
	byShard := make(map[string][]int)
	for i, owner := range owners {
		if owner != "" {
			byShard[owner] = append(byShard[owner], i)
		}
	}
	shards := make([]string, 0, len(byShard))
	for s := range byShard {
		shards = append(shards, s)
	}
	sort.Strings(shards)

	rt.mFanouts.Inc()
	replies := make([]*shardReply[S], len(shards))
	err := parallel.ForEachNCtx(ctx, rt.workers(), len(shards), func(si int) error {
		idxs := byShard[shards[si]]
		var resp S
		hdr, err := rt.shardJSON(ctx, shards[si], path, sub(si, idxs), &resp, si+1)
		if err != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		if n := len(got(&resp)); err == nil && n != len(idxs) {
			err = fmt.Errorf("returned %d results for %d items", n, len(idxs))
		}
		if err != nil {
			e := errShard(shards[si], err)
			for _, i := range idxs {
				fail(&results[i], &BatchItemError{Kind: e.Kind, Msg: e.Msg})
			}
			return nil
		}
		for j, i := range idxs {
			results[i] = got(&resp)[j]
		}
		replies[si] = &shardReply[S]{resp: resp, hdr: hdr}
		return nil
	})
	return replies, err
}

// pick gathers the items at idxs, in order.
func pick[T any](items []T, idxs []int) []T {
	out := make([]T, len(idxs))
	for j, i := range idxs {
		out[j] = items[i]
	}
	return out
}

// handleIngestBatch partitions the batch by device owner, fans
// sub-batches out, and stitches per-item results back into request
// order. Sub-batch idempotency keys derive deterministically from the
// caller's request_id and the shard's position in the sorted shard
// list, so a retried router batch deduplicates at every shard.
func (rt *Router) handleIngestBatch(w http.ResponseWriter, r *http.Request) error {
	var req BatchIngestRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	if len(req.Items) == 0 {
		return &apiError{Code: http.StatusBadRequest, Kind: "bad_request", Msg: "items must be non-empty"}
	}
	results := make([]BatchIngestResult, len(req.Items))
	owners := make([]string, len(req.Items))
	for i := range req.Items {
		results[i].DeviceID = req.Items[i].DeviceID
		if err := checkIngest(&req.Items[i]); err != nil {
			results[i].Error = &BatchItemError{Kind: "bad_request", Msg: err.Error()}
			continue
		}
		owners[i] = rt.ring.Owner(req.Items[i].DeviceID)
	}
	replies, err := fanOutBatch(rt, r.Context(), "/v1/fleet/ingest:batch", owners, results,
		func(si int, idxs []int) any {
			sub := BatchIngestRequest{Items: pick(req.Items, idxs)}
			if req.RequestID != "" {
				sub.RequestID = req.RequestID + "#" + strconv.Itoa(si)
			}
			return &sub
		},
		func(resp *BatchIngestResponse) []BatchIngestResult { return resp.Results },
		func(res *BatchIngestResult, e *BatchItemError) { res.Error = e })
	if err != nil {
		return err
	}

	resp := BatchIngestResponse{RequestID: req.RequestID, Results: results}
	allReplayed := len(replies) > 0
	for _, rep := range replies {
		if rep == nil {
			allReplayed = false
			continue
		}
		resp.Devices += rep.resp.Devices
		if rep.hdr.Get("X-Netmaster-Idempotent-Replay") != "true" {
			allReplayed = false
		}
	}
	for i := range results {
		if results[i].Error == nil {
			results[i].OK = true
			resp.Accepted++
		} else {
			results[i].OK = false
			resp.Failed++
		}
	}
	if req.RequestID != "" && allReplayed {
		w.Header().Set("X-Netmaster-Idempotent-Replay", "true")
	}
	return writeJSON(w, http.StatusOK, resp)
}

// scheduleItemKey is routeKey's precedence for a decoded schedule item.
func scheduleItemKey(it *ScheduleRequest) string {
	switch {
	case it.DeviceID != "":
		return it.DeviceID
	case it.Gen != nil && it.Gen.User != "":
		return it.Gen.User
	case it.Trace != nil && it.Trace.UserID != "":
		return it.Trace.UserID
	case it.ProfileID != "":
		return it.ProfileID
	}
	b, err := json.Marshal(it)
	if err != nil {
		return ""
	}
	return string(b)
}

func (rt *Router) handleScheduleBatch(w http.ResponseWriter, r *http.Request) error {
	var req BatchScheduleRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	if len(req.Items) == 0 {
		return &apiError{Code: http.StatusBadRequest, Kind: "bad_request", Msg: "items must be non-empty"}
	}
	results := make([]BatchScheduleResult, len(req.Items))
	owners := make([]string, len(req.Items))
	for i := range req.Items {
		results[i].DeviceID = req.Items[i].DeviceID
		owners[i] = rt.ring.Owner(scheduleItemKey(&req.Items[i]))
	}
	if _, err := fanOutBatch(rt, r.Context(), "/v1/schedule:batch", owners, results,
		func(_ int, idxs []int) any { return &BatchScheduleRequest{Items: pick(req.Items, idxs)} },
		func(resp *BatchScheduleResponse) []BatchScheduleResult { return resp.Results },
		func(res *BatchScheduleResult, e *BatchItemError) { res.Error = e }); err != nil {
		return err
	}
	resp := BatchScheduleResponse{Results: results}
	for i := range results {
		if results[i].OK {
			resp.Succeeded++
		} else {
			resp.Failed++
		}
	}
	return writeJSON(w, http.StatusOK, resp)
}

// Start opens the listener and serves until Shutdown.
func (rt *Router) Start() error { return rt.start() }

// Addr returns the bound listen address (useful with ":0").
func (rt *Router) Addr() string { return rt.addr() }

// Shutdown drains in-flight requests within the configured grace.
func (rt *Router) Shutdown(ctx context.Context) error { return rt.shutdown(ctx) }

// InFlight returns the number of requests currently being served.
func (rt *Router) InFlight() int64 { return rt.inflight.Load() }
