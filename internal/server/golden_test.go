package server

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netmaster/internal/parallel"
)

// The golden files pin each endpoint's response body byte for byte over
// pinned synthetic fixtures. Responses are pure functions of request
// bodies — no wall-clock, no randomness, sorted map keys — so a diff
// means the API's behaviour changed, not noise. Regenerate deliberately
// with
//
//	go test ./internal/server -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden file (re-run with -update if intended)\ngot:\n%s\nwant:\n%s",
			name, got, want)
	}
}

// post returns the raw response body for a POST with the given JSON.
func post(t *testing.T, ts *httptest.Server, path, body string) []byte {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, b)
	}
	return b
}

func get(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, b)
	}
	return b
}

// TestGoldenEndpoints pins the response bytes of every JSON endpoint
// for pinned gen fixtures, and asserts they are identical at every
// worker-pool width and on repeat (warm-cache) calls.
func TestGoldenEndpoints(t *testing.T) {
	was := parallel.DefaultWorkers()
	defer parallel.SetDefaultWorkers(was)

	cases := []struct {
		golden string
		method string
		path   string
		body   string
	}{
		{"mine_volunteer1.golden", "POST", "/v1/mine",
			`{"gen": {"user": "volunteer1", "days": 14}}`},
		{"mine_user4_lowthresh.golden", "POST", "/v1/mine",
			`{"gen": {"user": "user4", "days": 7}, "config": {"weekday_threshold": 0.3, "weekend_threshold": 0.3}}`},
		{"schedule_volunteer1_day1.golden", "POST", "/v1/schedule",
			`{"gen": {"user": "volunteer1", "days": 14}, "day": 1, "activities": [
			   {"id": 1, "time_secs": 97200, "bytes": 200000, "active_secs": 5},
			   {"id": 2, "time_secs": 100800, "bytes": 50000, "active_secs": 2},
			   {"id": 3, "time_secs": 104400, "bytes": 1000000, "active_secs": 12}]}`},
		{"simulate_volunteer2_netmaster.golden", "POST", "/v1/simulate",
			`{"gen": {"user": "volunteer2", "days": 7}, "policy": "netmaster"}`},
		{"simulate_user1_delay.golden", "POST", "/v1/simulate",
			`{"gen": {"user": "user1", "days": 7}, "policy": "delay", "delay_interval_secs": 300, "model": "lte"}`},
		{"schedule_volunteer1_day1_wifi.golden", "POST", "/v1/schedule",
			`{"gen": {"user": "volunteer1", "days": 14}, "day": 1,
			   "networks": {"wifi": {"coverage": [{"Start": 0, "End": 1209600}]}},
			   "activities": [
			   {"id": 1, "time_secs": 97200, "bytes": 200000, "active_secs": 5},
			   {"id": 2, "time_secs": 100800, "bytes": 50000, "active_secs": 2},
			   {"id": 3, "time_secs": 104400, "bytes": 1000000, "active_secs": 12}]}`},
		{"simulate_volunteer2_dual.golden", "POST", "/v1/simulate",
			`{"gen": {"user": "volunteer2", "days": 7, "wifi_coverage": 0.6}, "policy": "netmaster", "networks": {"wifi": {}}}`},
		{"simulate_volunteer2_online_dual.golden", "POST", "/v1/simulate",
			`{"gen": {"user": "volunteer2", "days": 7, "wifi_coverage": 0.6}, "policy": "online", "networks": {"wifi": {}}}`},
		{"simulate_user1_offload.golden", "POST", "/v1/simulate",
			`{"gen": {"user": "user1", "days": 7, "wifi_coverage": 0.8}, "policy": "wifi-offload", "networks": {"wifi": {"model": "wifi"}}}`},
		{"healthz.golden", "GET", "/healthz", ""},
	}

	// First pass at parallelism 1 establishes (or checks) the goldens;
	// the other widths and the repeat pass must match byte for byte.
	bodies := make(map[string][]byte)
	for _, workers := range []int{1, 8, 1} {
		parallel.SetDefaultWorkers(workers)
		_, ts, _ := testServer(t, nil)
		for _, tc := range cases {
			for pass := 0; pass < 2; pass++ { // cold then warm cache
				var b []byte
				if tc.method == "GET" {
					b = get(t, ts, tc.path)
				} else {
					b = post(t, ts, tc.path, tc.body)
				}
				if prev, ok := bodies[tc.golden]; ok {
					if !bytes.Equal(b, prev) {
						t.Errorf("%s: response changed at parallelism %d pass %d", tc.golden, workers, pass)
					}
					continue
				}
				bodies[tc.golden] = b
				checkGolden(t, tc.golden, b)
			}
		}
		ts.Close()
	}
}

// TestGoldenErrors pins the error body shape.
func TestGoldenErrors(t *testing.T) {
	_, ts, _ := testServer(t, nil)
	cases := []struct {
		golden string
		path   string
		body   string
		code   int
	}{
		{"err_no_trace.golden", "/v1/mine", `{}`, 400},
		{"err_bad_user.golden", "/v1/mine", `{"gen": {"user": "nobody", "days": 7}}`, 400},
		{"err_bad_policy.golden", "/v1/simulate", `{"gen": {"user": "user1", "days": 7}, "policy": "warp"}`, 400},
		{"err_unknown_profile.golden", "/v1/schedule",
			`{"profile_id": "sha256:beef", "activities": [{"id": 1, "time_secs": 60, "bytes": 1, "active_secs": 1}]}`, 404},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.golden, resp.StatusCode, tc.code)
		}
		checkGolden(t, tc.golden, b)
	}
}

// TestScheduleWiFiAttribution: a networks block whose coverage spans
// every slot must surface per-decision attribution — at least one
// assignment targets the Wi-Fi NIC — while the same request without the
// block stays byte-identical to the single-radio golden.
func TestScheduleWiFiAttribution(t *testing.T) {
	_, ts, _ := testServer(t, nil)
	acts := `"day": 1, "activities": [
	  {"id": 1, "time_secs": 97200, "bytes": 200000, "active_secs": 5},
	  {"id": 2, "time_secs": 100800, "bytes": 50000, "active_secs": 2},
	  {"id": 3, "time_secs": 104400, "bytes": 1000000, "active_secs": 12}]`
	dual := post(t, ts, "/v1/schedule",
		`{"gen": {"user": "volunteer1", "days": 14}, "networks": {"wifi": {"coverage": [{"Start": 0, "End": 1209600}]}}, `+acts+`}`)
	if !bytes.Contains(dual, []byte(`"network": "wifi"`)) {
		t.Errorf("full-coverage schedule carries no wifi attribution:\n%s", dual)
	}
	plain := post(t, ts, "/v1/schedule", `{"gen": {"user": "volunteer1", "days": 14}, `+acts+`}`)
	if bytes.Contains(plain, []byte(`"network"`)) {
		t.Errorf("single-radio schedule leaked a network field:\n%s", plain)
	}
	checkGolden(t, "schedule_volunteer1_day1.golden", plain)
}

// TestScheduleProfileIDEqualsInline: scheduling against a cached
// profile ID must produce exactly the bytes of scheduling with the gen
// spec inline.
func TestScheduleProfileIDEqualsInline(t *testing.T) {
	_, ts, c := testServer(t, nil)
	mine, err := c.Mine(context.Background(), MineRequest{Gen: &GenSpec{User: "volunteer1", Days: 14}})
	if err != nil {
		t.Fatal(err)
	}
	acts := `"day": 1, "activities": [{"id": 1, "time_secs": 97200, "bytes": 200000, "active_secs": 5}]`
	inline := post(t, ts, "/v1/schedule", `{"gen": {"user": "volunteer1", "days": 14}, `+acts+`}`)
	byID := post(t, ts, "/v1/schedule", fmt.Sprintf(`{"profile_id": %q, %s}`, mine.ProfileID, acts))
	if !bytes.Equal(inline, byID) {
		t.Errorf("profile_id schedule differs from inline schedule:\n%s\nvs\n%s", byID, inline)
	}
}
