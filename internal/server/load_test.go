package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"netmaster/internal/metrics"
	"netmaster/internal/reqtrace"
)

// TestConcurrentLoad hammers the server with a mixed workload from many
// goroutines (run under -race in CI). The in-flight bound is sized
// above the client concurrency, so every request must be admitted: zero
// 429s, zero 5xx, and the warm cache must be doing the mining work.
func TestConcurrentLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	reg := metrics.NewRegistry()
	s, ts, _ := testServer(t, func(cfg *Config) {
		cfg.MaxInFlight = 32
		cfg.Metrics = reg
	})

	// Warm the profile cache and capture the reference bodies every
	// concurrent response must match.
	mineBody := `{"gen": {"user": "volunteer1", "days": 7}}`
	schedBody := `{"gen": {"user": "volunteer1", "days": 7}, "day": 1, "activities": [{"id": 1, "time_secs": 97200, "bytes": 200000, "active_secs": 5}]}`
	wantMine := string(post(t, ts, "/v1/mine", mineBody))
	wantSched := string(post(t, ts, "/v1/schedule", schedBody))

	const goroutines = 16
	const perG = 80 // 16*80 = 1280 requests
	var (
		wg       sync.WaitGroup
		status   [600]atomic.Int64
		mismatch atomic.Int64
	)
	do := func(method, path, body string) int {
		var resp *http.Response
		var err error
		if method == "GET" {
			resp, err = http.Get(ts.URL + path)
		} else {
			resp, err = http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		}
		if err != nil {
			t.Error(err)
			return 0
		}
		defer resp.Body.Close()
		b := new(strings.Builder)
		if _, err := io.Copy(b, resp.Body); err != nil {
			t.Error(err)
			return 0
		}
		if resp.StatusCode == http.StatusOK {
			switch path {
			case "/v1/mine":
				if b.String() != wantMine {
					mismatch.Add(1)
				}
			case "/v1/schedule":
				if b.String() != wantSched {
					mismatch.Add(1)
				}
			}
		}
		return resp.StatusCode
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				var code int
				switch i % 4 {
				case 0:
					code = do("POST", "/v1/mine", mineBody)
				case 1:
					code = do("POST", "/v1/schedule", schedBody)
				case 2:
					code = do("GET", "/healthz", "")
				case 3:
					code = do("POST", "/v1/fleet/ingest",
						fmt.Sprintf(`{"device_id": "dev%d", "trace_header": {}}`, g))
				}
				if code >= 100 && code < 600 {
					status[code].Add(1)
				}
				if got := s.InFlight(); got > int64(32) {
					t.Errorf("in-flight %d exceeds MaxInFlight", got)
				}
			}
		}(g)
	}
	wg.Wait()

	total := int64(0)
	for code := 100; code < 600; code++ {
		n := status[code].Load()
		total += n
		if code >= 500 && n > 0 {
			t.Errorf("%d responses with status %d", n, code)
		}
		if code == http.StatusTooManyRequests && n > 0 {
			t.Errorf("%d requests shed despite in-flight bound above client concurrency", n)
		}
	}
	if want := int64(goroutines * perG); total != want {
		t.Errorf("accounted %d responses, sent %d", total, want)
	}
	if n := mismatch.Load(); n > 0 {
		t.Errorf("%d responses differed from the single-threaded reference bytes", n)
	}
	if got := s.InFlight(); got != 0 {
		t.Errorf("in-flight %d after drain", got)
	}

	snap := reg.Snapshot()
	if hits := snap.Counters["server_profile_cache_hits_total"]; hits == 0 {
		t.Error("no cache hits under repeated identical mining")
	}
	// /healthz is served outside the limited() spine, so only 3 of the
	// 4 workload legs (plus the two warm-up calls) are counted.
	if want := int64(goroutines*perG*3/4 + 2); snap.Counters["server_requests_total"] != want {
		t.Errorf("requests_total %d, want %d", snap.Counters["server_requests_total"], want)
	}
	if snap.Gauges["server_in_flight"] != 0 {
		t.Errorf("in-flight gauge %v after drain", snap.Gauges["server_in_flight"])
	}
}

// TestBackpressure429 fills each role's admission semaphore by hand and
// checks the next request is shed with 429 + Retry-After, counted in
// <role>_rejected_total and spanned, then admitted again once a slot
// frees.
func TestBackpressure429(t *testing.T) {
	cases := []struct {
		role string
		boot func(t *testing.T, reg *metrics.Registry) (url string, sem chan struct{})
	}{
		{"server", func(t *testing.T, reg *metrics.Registry) (string, chan struct{}) {
			s, ts, _ := testServer(t, func(cfg *Config) {
				cfg.MaxInFlight = 2
				cfg.Metrics = reg
			})
			return ts.URL, s.sem
		}},
		{"router", func(t *testing.T, reg *metrics.Registry) (string, chan struct{}) {
			f := routerFixture(t, 1, nil, func(cfg *RouterConfig) {
				cfg.MaxInFlight = 2
				cfg.Metrics = reg
			})
			return f.ts.URL, f.rt.sem
		}},
	}
	for _, tc := range cases {
		t.Run(tc.role, func(t *testing.T) {
			reg := metrics.NewRegistry()
			url, sem := tc.boot(t, reg)
			mine := func() *http.Response {
				resp, err := http.Post(url+"/v1/mine", "application/json",
					strings.NewReader(`{"gen": {"user": "volunteer1", "days": 7}}`))
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				return resp
			}
			sem <- struct{}{}
			sem <- struct{}{}

			resp := mine()
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("status %d with full semaphore, want 429", resp.StatusCode)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			if got := reg.Snapshot().Counters[tc.role+"_rejected_total"]; got != 1 {
				t.Errorf("%s_rejected_total = %d, want 1", tc.role, got)
			}
			dump, err := NewClient(url, nil).DebugRequests(context.Background(), 10)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(dump.Recent); n != 1 {
				t.Fatalf("%d spans after one rejection, want 1", n)
			}
			sp := dump.Recent[0]
			if sp.Role != tc.role || sp.Endpoint != "mine" || sp.Status != http.StatusTooManyRequests ||
				sp.ErrKind != "overloaded" || sp.RequestID != resp.Header.Get(reqtrace.HeaderRequestID) {
				t.Errorf("rejection span = %+v", sp)
			}

			<-sem
			<-sem
			if resp := mine(); resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d after slots freed, want 200", resp.StatusCode)
			}
		})
	}
}
