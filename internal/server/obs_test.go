// Tests for the serve tier's request observability: the access-log
// golden, the error envelope (typed kind + Retry-After), end-to-end
// request-ID propagation through the router, span/counter
// reconciliation, and the serve-scope metrics fold.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netmaster/internal/cfgerr"
	"netmaster/internal/metrics"
	"netmaster/internal/reqtrace"
	"netmaster/internal/slo"
)

// syncBuffer is a goroutine-safe log sink for the access-log tests.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// fakeClock steps a fixed interval per call, making queue-wait, handle
// and total times exact in log lines and spans.
func fakeClock(step time.Duration) func() time.Time {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	var n atomic.Int64
	return func() time.Time {
		return base.Add(time.Duration(n.Add(1)-1) * step)
	}
}

// TestGoldenAccessLog pins the access-log and slow-request line shapes
// of both roles: a deterministic clock and a seeded request-ID
// generator make the emitted JSON byte-stable, so any schema drift
// shows up as a diff.
func TestGoldenAccessLog(t *testing.T) {
	t.Run("server", func(t *testing.T) {
		logs := &syncBuffer{}
		s, ts, _ := testServer(t, func(c *Config) {
			c.LogWriter = logs
			c.SlowRequest = time.Millisecond // every request also emits a slow line
		})
		s.now = fakeClock(5 * time.Millisecond)
		s.ids = reqtrace.NewIDGenSeeded("cafe0001")

		tr := testTrace(t, "volunteer1", 7)
		mineBody, err := json.Marshal(MineRequest{Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		// miss, hit, then a 400: covers the cache disposition and the
		// error-path line.
		for i, body := range [][]byte{mineBody, mineBody, []byte(`{}`)} {
			if code := postStatus(t, ts.URL+"/v1/mine", body, nil); i < 2 && code != http.StatusOK {
				t.Fatalf("mine %d: status %d", i, code)
			}
		}
		checkLogGolden(t, "access_log.golden", logs.String())
	})

	t.Run("router", func(t *testing.T) {
		// Shards answer in-process under fixed names, so the routed
		// shard in the log lines is stable; shard-b is down.
		shard, _, _ := testServer(t, nil)
		logs := &syncBuffer{}
		cfg := DefaultRouterConfig()
		cfg.Backends = []string{"http://shard-a", "http://shard-b"}
		cfg.HTTPClient = &http.Client{Transport: inProcess{"shard-a": shard}}
		cfg.LogWriter = logs
		cfg.SlowRequest = time.Millisecond
		rt, err := NewRouter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt.now = fakeClock(5 * time.Millisecond)
		rt.ids = reqtrace.NewIDGenSeeded("cafe0002")
		ts := httptest.NewServer(rt)
		t.Cleanup(ts.Close)

		keyOn := func(backend string) string {
			for i := 0; ; i++ {
				if k := fmt.Sprintf("dev-%d", i); rt.Ring().Owner(k) == backend {
					return k
				}
			}
		}
		mine := []byte(`{"gen": {"user": "volunteer1", "days": 7}}`)
		// A routed 200, a routed 502 from the down shard, and a 400
		// the router answers itself.
		if code := postStatus(t, ts.URL+"/v1/mine", mine, map[string]string{
			"X-Netmaster-Route-Key": keyOn("http://shard-a")}); code != http.StatusOK {
			t.Fatalf("routed mine: status %d", code)
		}
		if code := postStatus(t, ts.URL+"/v1/mine", mine, map[string]string{
			"X-Netmaster-Route-Key": keyOn("http://shard-b")}); code != http.StatusBadGateway {
			t.Fatalf("mine on down shard: status %d", code)
		}
		if code := postStatus(t, ts.URL+"/v1/fleet/ingest:batch", []byte(`{"items": []}`), nil); code != http.StatusBadRequest {
			t.Fatalf("empty batch: status %d", code)
		}
		checkLogGolden(t, "access_log_router.golden", logs.String())
	})
}

// inProcess is a RoundTripper that serves each backend host straight
// from an in-process handler; an unknown host is a transport error.
type inProcess map[string]http.Handler

func (m inProcess) RoundTrip(r *http.Request) (*http.Response, error) {
	h, ok := m[r.URL.Host]
	if !ok {
		return nil, fmt.Errorf("dial %s: connection refused", r.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// postStatus posts body with the extra headers and returns the status,
// discarding the response body.
func postStatus(t *testing.T, url string, body []byte, hdr map[string]string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// checkLogGolden compares captured log lines with testdata/name,
// rewriting the file under -update.
func checkLogGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("access log drifted from %s:\n got: %s\nwant: %s", path, got, want)
	}
}

// TestErrorEnvelopeRetryAfter table-tests the uniform error envelope:
// retryable statuses (429/502/503) always carry Retry-After, other
// errors never do, and an upstream-set header is preserved.
func TestErrorEnvelopeRetryAfter(t *testing.T) {
	cases := []struct {
		name       string
		err        *apiError
		preset     string // pre-existing Retry-After header, "" = none
		retryAfter string // expected header, "" = absent
	}{
		{"429 overloaded", &apiError{Code: 429, Kind: "overloaded", Msg: "full"}, "", "1"},
		{"502 bad_gateway", &apiError{Code: 502, Kind: "bad_gateway", Msg: "shard down"}, "", "1"},
		{"502 shard_conflict", &apiError{Code: 502, Kind: "shard_conflict", Msg: "dup device"}, "", "1"},
		{"503 read_only", &apiError{Code: 503, Kind: "read_only", Msg: "journal dead"}, "", "1"},
		{"relayed header wins", &apiError{Code: 503, Kind: "read_only", Msg: "journal dead"}, "7", "7"},
		{"400 not retryable", &apiError{Code: 400, Kind: "bad_request", Msg: "nope"}, "", ""},
		{"504 not retryable", &apiError{Code: 504, Kind: "timeout", Msg: "deadline"}, "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			if tc.preset != "" {
				rec.Header().Set("Retry-After", tc.preset)
			}
			writeError(rec, tc.err)
			if rec.Code != tc.err.Code {
				t.Errorf("status = %d, want %d", rec.Code, tc.err.Code)
			}
			if got := rec.Header().Get("Retry-After"); got != tc.retryAfter {
				t.Errorf("Retry-After = %q, want %q", got, tc.retryAfter)
			}
			var env struct {
				Error *apiError `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("body not an error envelope: %v", err)
			}
			if env.Error == nil || env.Error.Kind != tc.err.Kind {
				t.Errorf("envelope = %+v, want kind %q", env.Error, tc.err.Kind)
			}
		})
	}
}

// TestRouterErrorPathsCarryEnvelope drives the two router failure modes
// end-to-end: an unreachable shard (502 bad_gateway) and a placement
// conflict (502 shard_conflict). Both must answer with the typed
// envelope, Retry-After, and a request ID.
func TestRouterErrorPathsCarryEnvelope(t *testing.T) {
	t.Run("unreachable shard", func(t *testing.T) {
		f := routerFixture(t, 1, nil, nil)
		f.shardTS[0].Close()
		resp, err := http.Post(f.ts.URL+"/v1/fleet/ingest", "application/json",
			strings.NewReader(`{"device_id":"dev-1"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		checkRouterError(t, resp, http.StatusBadGateway, "bad_gateway")
	})
	t.Run("shard conflict", func(t *testing.T) {
		f := routerFixture(t, 2, nil, nil)
		// Ingest the same device into both shards directly, violating
		// placement behind the router's back.
		body := ingestBody(t, "conflict/dev-1")
		for _, ts := range f.shardTS {
			resp, err := http.Post(ts.URL+"/v1/fleet/ingest", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("direct shard ingest: status %d", resp.StatusCode)
			}
		}
		resp, err := http.Get(f.ts.URL + "/v1/fleet/report")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		checkRouterError(t, resp, http.StatusBadGateway, "shard_conflict")
	})
}

// ingestBody marshals a minimal valid ingest request for deviceID.
func ingestBody(t *testing.T, deviceID string) []byte {
	t.Helper()
	base := replayCohort(t, 2)
	req := base[0]
	req.DeviceID = deviceID
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func checkRouterError(t *testing.T, resp *http.Response, code int, kind string) {
	t.Helper()
	if resp.StatusCode != code {
		t.Errorf("status = %d, want %d", resp.StatusCode, code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("missing Retry-After")
	}
	if resp.Header.Get(reqtrace.HeaderRequestID) == "" {
		t.Error("missing request ID header")
	}
	var env struct {
		Error *apiError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("body not an error envelope: %v", err)
	}
	if env.Error == nil || env.Error.Kind != kind {
		t.Errorf("envelope = %+v, want kind %q", env.Error, kind)
	}
}

// TestRoutedRequestIDEndToEnd is the tracing contract across a 3-shard
// tier (run under -race in CI): every routed response carries one
// request ID, that ID reappears in the owning shard's span ring with
// the propagated hop, fan-out reads land the same ID on every shard,
// and each shard's ring reconciles exactly with its server_* counters.
func TestRoutedRequestIDEndToEnd(t *testing.T) {
	f := routerFixture(t, 3, nil, nil)

	// Routed single-device writes: remember which ID each got.
	ids := map[string]string{} // device -> request ID
	for i := 0; i < 12; i++ {
		dev := fmt.Sprintf("trace/dev-%02d", i)
		resp, err := http.Post(f.ts.URL+"/v1/fleet/ingest", "application/json",
			bytes.NewReader(ingestBody(t, dev)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %s: status %d", dev, resp.StatusCode)
		}
		id := resp.Header.Get(reqtrace.HeaderRequestID)
		if id == "" {
			t.Fatalf("ingest %s: no request ID on response", dev)
		}
		ids[dev] = id
	}

	// A fan-out read: its ID must reach every shard.
	resp, err := http.Get(f.ts.URL + "/v1/fleet/report")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	fanoutID := resp.Header.Get(reqtrace.HeaderRequestID)
	if fanoutID == "" {
		t.Fatal("fleet report: no request ID on response")
	}

	// Collect every shard's spans (reading /debug/requests must not
	// append to the ring, so totals stay stable while we look).
	type spanHit struct {
		shard int
		span  reqtrace.Span
	}
	byID := map[string][]spanHit{}
	for si, ts := range f.shardTS {
		dump, err := NewClient(ts.URL, nil).DebugRequests(context.Background(), 1000)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range dump.Recent {
			byID[sp.RequestID] = append(byID[sp.RequestID], spanHit{si, sp})
			if sp.Role != "server" {
				t.Errorf("shard %d span role = %q, want server", si, sp.Role)
			}
		}
	}

	// Each routed write landed on exactly one shard, hop 1, same ID.
	for dev, id := range ids {
		hits := byID[id]
		if len(hits) != 1 {
			t.Fatalf("%s: request ID %s seen on %d shard spans, want 1", dev, id, len(hits))
		}
		if sp := hits[0].span; sp.Hop != 1 || sp.Endpoint != "ingest" {
			t.Errorf("%s: span = %+v, want hop 1 endpoint ingest", dev, sp)
		}
	}
	// The fan-out ID landed on all three shards, with distinct hops.
	hops := map[int]bool{}
	for _, hit := range byID[fanoutID] {
		hops[hit.span.Hop] = true
	}
	if len(byID[fanoutID]) != 3 || !hops[1] || !hops[2] || !hops[3] {
		t.Errorf("fan-out ID %s spans = %+v, want one per shard with hops 1..3",
			fanoutID, byID[fanoutID])
	}

	// The router's own ring has one span per routed request, role
	// "router", with the chosen shard recorded for single-device hops.
	rdump, err := f.client.DebugRequests(context.Background(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	routerSeen := map[string]reqtrace.Span{}
	for _, sp := range rdump.Recent {
		routerSeen[sp.RequestID] = sp
		if sp.Role != "router" {
			t.Errorf("router span role = %q", sp.Role)
		}
	}
	for dev, id := range ids {
		sp, ok := routerSeen[id]
		if !ok {
			t.Errorf("%s: ID %s missing from router ring", dev, id)
			continue
		}
		if sp.Shard == "" {
			t.Errorf("%s: router span has no shard", dev)
		}
	}
	if _, ok := routerSeen[fanoutID]; !ok {
		t.Errorf("fan-out ID %s missing from router ring", fanoutID)
	}

	// Reconciliation: per shard, ring total == server_requests_total ==
	// sum of per-endpoint request counters.
	for si, s := range f.shards {
		snap := s.cfg.Metrics.Snapshot()
		total := snap.Counters["server_requests_total"]
		if got := int64(s.spans.Total()); got != total {
			t.Errorf("shard %d: ring total %d != server_requests_total %d", si, got, total)
		}
		var perEP int64
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, "server_http_") && strings.HasSuffix(name, "_requests_total") {
				perEP += v
			}
		}
		if perEP != total {
			t.Errorf("shard %d: per-endpoint sum %d != server_requests_total %d", si, perEP, total)
		}
	}
	rsnap := f.rt.cfg.Metrics.Snapshot()
	if got, want := int64(f.rt.spans.Total()), rsnap.Counters["router_requests_total"]; got != want {
		t.Errorf("router: ring total %d != router_requests_total %d", got, want)
	}
}

// TestMetricsScopeServeDeterministic pins the serve-scope fold: two
// scrapes of identical state are byte-identical, and the exposition
// carries the merged per-endpoint histograms and SLO burn series.
func TestMetricsScopeServeDeterministic(t *testing.T) {
	sloCfg := slo.Config{TargetP99MS: 2000, TargetErrorRate: 0.01}
	f := routerFixture(t, 3,
		func(c *Config) { c.SLO = sloCfg },
		func(c *RouterConfig) { c.SLO = sloCfg })
	for i := 0; i < 9; i++ {
		resp, err := http.Post(f.ts.URL+"/v1/fleet/ingest", "application/json",
			bytes.NewReader(ingestBody(t, fmt.Sprintf("serve/dev-%02d", i))))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(f.ts.URL + "/metrics?scope=serve")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scope=serve: status %d", resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	first, second := scrape(), scrape()
	if first != second {
		t.Error("two serve-scope scrapes of identical state differ")
	}
	for _, series := range []string{
		"netmaster_server_http_ingest_latency_ms_bucket",
		"netmaster_server_http_ingest_requests_total",
		"netmaster_router_http_ingest_latency_ms_bucket",
		"netmaster_server_slo_requests_total",
		"netmaster_server_slo_error_burn_rate",
		"netmaster_router_slo_latency_burn_rate",
	} {
		if !strings.Contains(first, series) {
			t.Errorf("serve-scope exposition missing %s", series)
		}
	}
}

// TestMetricsFormatJSON covers the raw-snapshot endpoint the fold and
// the bench scrape: scope=self parses as a metrics.Snapshot, any other
// scope with format=json is a 400.
func TestMetricsFormatJSON(t *testing.T) {
	_, ts, c := testServer(t, nil)
	if _, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	snap, err := c.MetricsSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Counters["server_requests_total"]; !ok {
		t.Errorf("snapshot missing server_requests_total: %v", snap.Counters)
	}
	resp, err := http.Get(ts.URL + "/metrics?format=json&scope=fleet")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("format=json&scope=fleet: status %d, want 400", resp.StatusCode)
	}
}

// TestDebugRequestsEndpoint covers the dump endpoint's knobs: ?n=
// bounds the recent set, bad values 400, and scraping the dump does not
// itself grow the ring.
func TestDebugRequestsEndpoint(t *testing.T) {
	_, ts, c := testServer(t, nil)
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/mine", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	dump, err := c.DebugRequests(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Recent) != 1 || dump.Total != 3 {
		t.Errorf("dump = recent %d total %d, want 1/3", len(dump.Recent), dump.Total)
	}
	if dump.Capacity != reqtrace.DefaultCapacity {
		t.Errorf("capacity = %d, want default %d", dump.Capacity, reqtrace.DefaultCapacity)
	}
	again, err := c.DebugRequests(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if again.Total != dump.Total {
		t.Errorf("dump scrape grew the ring: %d -> %d", dump.Total, again.Total)
	}
	resp, err := http.Get(ts.URL + "/debug/requests?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad n: status %d, want 400", resp.StatusCode)
	}
}

// TestObsConfigValidate checks the new observability knobs reject
// nonsense with typed field errors, on both the daemon and router
// configs.
func TestObsConfigValidate(t *testing.T) {
	cases := []struct {
		name             string
		mutate           func(slow *time.Duration, ring *int, sloCfg *slo.Config)
		component, field string
	}{
		{"negative slow threshold",
			func(s *time.Duration, _ *int, _ *slo.Config) { *s = -time.Second },
			"", "SlowRequest"},
		{"negative trace ring",
			func(_ *time.Duration, r *int, _ *slo.Config) { *r = -1 },
			"", "TraceRing"},
		{"negative slo p99",
			func(_ *time.Duration, _ *int, c *slo.Config) { c.TargetP99MS = -1 },
			"slo.Config", "TargetP99MS"},
		{"error rate above one",
			func(_ *time.Duration, _ *int, c *slo.Config) { c.TargetErrorRate = 1.5 },
			"slo.Config", "TargetErrorRate"},
		{"negative window",
			func(_ *time.Duration, _ *int, c *slo.Config) { c.Window = -5 },
			"slo.Config", "Window"},
	}
	for _, tc := range cases {
		t.Run("server/"+tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg.SlowRequest, &cfg.TraceRing, &cfg.SLO)
			comp := tc.component
			if comp == "" {
				comp = "server.Config"
			}
			if err := cfg.Validate(); !cfgerr.Is(err, comp, tc.field) {
				t.Errorf("error %v does not name %s.%s", err, comp, tc.field)
			}
		})
		t.Run("router/"+tc.name, func(t *testing.T) {
			cfg := DefaultRouterConfig()
			cfg.Backends = []string{"http://127.0.0.1:1"}
			cfg.Metrics = metrics.NewRegistry()
			tc.mutate(&cfg.SlowRequest, &cfg.TraceRing, &cfg.SLO)
			comp := tc.component
			if comp == "" {
				comp = "server.RouterConfig"
			}
			if err := cfg.Validate(); !cfgerr.Is(err, comp, tc.field) {
				t.Errorf("error %v does not name %s.%s", err, comp, tc.field)
			}
		})
	}
}
