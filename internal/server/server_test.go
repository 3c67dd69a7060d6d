package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"netmaster/internal/cfgerr"
	"netmaster/internal/metrics"
	"netmaster/internal/synth"
	"netmaster/internal/trace"
)

func testServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server, *Client) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Metrics = metrics.NewRegistry()
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, NewClient(ts.URL, nil)
}

func testTrace(t *testing.T, user string, days int) *trace.Trace {
	t.Helper()
	for _, spec := range append(synth.MotivationCohort(), synth.EvalCohort()...) {
		if spec.ID == user {
			tr, err := synth.Generate(spec, days)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
	}
	t.Fatalf("no cohort user %q", user)
	return nil
}

func TestConfigValidateFields(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		field  string // "" = valid
	}{
		{"default ok", func(c *Config) {}, ""},
		{"empty addr", func(c *Config) { c.Addr = "" }, "Addr"},
		{"zero in-flight", func(c *Config) { c.MaxInFlight = 0 }, "MaxInFlight"},
		{"negative cache", func(c *Config) { c.CacheSize = -1 }, "CacheSize"},
		{"zero timeout", func(c *Config) { c.RequestTimeout = 0 }, "RequestTimeout"},
		{"zero grace", func(c *Config) { c.ShutdownGrace = 0 }, "ShutdownGrace"},
		{"negative parallelism", func(c *Config) { c.Parallelism = -2 }, "Parallelism"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if !cfgerr.Is(err, "server.Config", tc.field) {
				t.Errorf("error %v does not name server.Config.%s", err, tc.field)
			}
		})
	}
}

func TestHealthz(t *testing.T) {
	_, _, c := testServer(t, nil)
	h, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Devices != 0 {
		t.Errorf("healthz = %+v", h)
	}
}

func TestMineCacheHeader(t *testing.T) {
	_, ts, _ := testServer(t, nil)
	tr := testTrace(t, "volunteer1", 7)
	body, err := json.Marshal(MineRequest{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	var bodies []string
	var states []string
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/mine", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		b := new(strings.Builder)
		if _, err := io.Copy(b, resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, b.String())
		}
		bodies = append(bodies, b.String())
		states = append(states, resp.Header.Get("X-Netmaster-Cache"))
	}
	if states[0] != "miss" || states[1] != "hit" {
		t.Errorf("cache headers = %v, want [miss hit]", states)
	}
	if bodies[0] != bodies[1] {
		t.Error("mine response bytes differ between cold and warm cache")
	}
}

func TestScheduleByProfileID(t *testing.T) {
	_, _, c := testServer(t, nil)
	tr := testTrace(t, "volunteer1", 14)
	mine, err := c.Mine(context.Background(), MineRequest{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	req := ScheduleRequest{
		ProfileID: mine.ProfileID,
		Day:       1,
		Activities: []ActivityJSON{
			{ID: 1, TimeSecs: 86400 + 3*3600, Bytes: 200_000, ActiveSecs: 5},
			{ID: 2, TimeSecs: 86400 + 4*3600, Bytes: 50_000, ActiveSecs: 2},
		},
	}
	resp, err := c.Schedule(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ProfileID != mine.ProfileID {
		t.Errorf("profile ID changed: %s", resp.ProfileID)
	}
	if len(resp.Assignments)+len(resp.Unscheduled) != 2 {
		t.Errorf("activities not conserved: %+v", resp)
	}
}

func TestScheduleUnknownProfile(t *testing.T) {
	_, _, c := testServer(t, nil)
	_, err := c.Schedule(context.Background(), ScheduleRequest{
		ProfileID:  "sha256:beef",
		Activities: []ActivityJSON{{ID: 1, TimeSecs: 100, Bytes: 10, ActiveSecs: 1}},
	})
	var ae *apiError
	if !errors.As(err, &ae) || ae.Code != http.StatusNotFound || ae.Kind != "unknown_profile" {
		t.Fatalf("err = %v, want 404 unknown_profile", err)
	}
}

func TestSimulateOnline(t *testing.T) {
	_, _, c := testServer(t, nil)
	resp, err := c.Simulate(context.Background(), SimulateRequest{
		Gen:    &GenSpec{User: "volunteer2", Days: 7},
		Policy: "online",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Baseline.EnergyJ <= 0 {
		t.Errorf("baseline energy = %v", resp.Baseline.EnergyJ)
	}
	if resp.EnergySaving <= 0 {
		t.Errorf("online policy saved nothing: %+v", resp)
	}
}

func TestSimulateUnknownPolicy(t *testing.T) {
	_, _, c := testServer(t, nil)
	_, err := c.Simulate(context.Background(), SimulateRequest{
		Gen:    &GenSpec{User: "volunteer2", Days: 7},
		Policy: "nope",
	})
	var ae *apiError
	if !errors.As(err, &ae) || ae.Code != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400", err)
	}
}

func TestRequestTimeoutReturns504(t *testing.T) {
	_, _, c := testServer(t, func(cfg *Config) {
		cfg.RequestTimeout = 1 * time.Nanosecond
	})
	_, err := c.Simulate(context.Background(), SimulateRequest{
		Gen:    &GenSpec{User: "volunteer1", Days: 7},
		Policy: "baseline",
	})
	var ae *apiError
	if !errors.As(err, &ae) || ae.Code != http.StatusGatewayTimeout {
		t.Fatalf("err = %v, want 504 timeout", err)
	}
}

func TestUnknownFieldRejected(t *testing.T) {
	_, ts, _ := testServer(t, nil)
	resp, err := http.Post(ts.URL+"/v1/mine", "application/json",
		strings.NewReader(`{"bogus_field": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestMetricsEndpointServesProm(t *testing.T) {
	_, ts, c := testServer(t, nil)
	if _, err := c.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b := new(strings.Builder)
	io.Copy(b, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(b.String(), "netmaster_server_requests_total") {
		t.Errorf("prom output missing server counters:\n%s", b.String())
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Metrics = metrics.NewRegistry()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	c := NewClient("http://"+s.Addr(), nil)
	if _, err := c.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Healthz(context.Background()); err == nil {
		t.Error("server still serving after Shutdown")
	}
}
