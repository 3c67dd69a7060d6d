package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"netmaster/internal/faults"
	"netmaster/internal/power"
)

// postRaw posts a JSON body and returns the raw response (body read and
// closed) — for asserting exact bytes and headers.
func postRaw(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
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
	return resp, b
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestIngestBatchPartialFailure: a batch with an invalid item answers
// 200 with a per-item error at that item's index; the valid items land,
// and the fleet report over them matches the offline pipeline.
func TestIngestBatchPartialFailure(t *testing.T) {
	ingests := replayCohort(t, 2)
	_, ts, c := testServer(t, nil)

	req := BatchIngestRequest{Items: []IngestRequest{ingests[0], {DeviceID: ""}, ingests[1]}}
	resp, err := c.IngestBatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 2 || resp.Failed != 1 || resp.Devices != 2 {
		t.Fatalf("batch ack = accepted %d, failed %d, devices %d; want 2/1/2",
			resp.Accepted, resp.Failed, resp.Devices)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results for 3 items", len(resp.Results))
	}
	if !resp.Results[0].OK || !resp.Results[2].OK {
		t.Errorf("valid items not OK: %+v", resp.Results)
	}
	if resp.Results[1].OK || resp.Results[1].Error == nil || resp.Results[1].Error.Kind != "bad_request" {
		t.Errorf("invalid item result = %+v, want bad_request error", resp.Results[1])
	}

	got := get(t, ts, "/v1/fleet/report")
	want := offlineFleetDoc(t, []IngestRequest{ingests[0], ingests[1]}, 1, power.Model3G())
	if !bytes.Equal(got, want) {
		t.Error("report after batch ingest differs from offline aggregation")
	}
}

// TestIngestBatchEmptyRejected: an empty items array is an envelope
// error, not an empty success.
func TestIngestBatchEmptyRejected(t *testing.T) {
	_, ts, _ := testServer(t, nil)
	resp, _ := postRaw(t, ts, "/v1/fleet/ingest:batch", `{"items": []}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", resp.StatusCode)
	}
}

// TestIngestBatchDedup: re-sending a request_id returns the original
// ack bytes with the replay header, and applies nothing the second
// time.
func TestIngestBatchDedup(t *testing.T) {
	ingests := replayCohort(t, 2)
	s, ts, _ := testServer(t, nil)
	body := mustJSON(t, BatchIngestRequest{RequestID: "batch-1", Items: ingests})

	first, firstBytes := postRaw(t, ts, "/v1/fleet/ingest:batch", body)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first send: status %d: %s", first.StatusCode, firstBytes)
	}
	if first.Header.Get("X-Netmaster-Idempotent-Replay") != "" {
		t.Error("first send carried the replay header")
	}
	devices := s.Devices()

	second, secondBytes := postRaw(t, ts, "/v1/fleet/ingest:batch", body)
	if second.StatusCode != http.StatusOK {
		t.Fatalf("duplicate send: status %d", second.StatusCode)
	}
	if second.Header.Get("X-Netmaster-Idempotent-Replay") != "true" {
		t.Error("duplicate send missing X-Netmaster-Idempotent-Replay: true")
	}
	if !bytes.Equal(firstBytes, secondBytes) {
		t.Errorf("duplicate ack differs from original:\n%s\nvs\n%s", firstBytes, secondBytes)
	}
	if s.Devices() != devices {
		t.Errorf("duplicate batch changed the fleet: %d -> %d devices", devices, s.Devices())
	}
}

// ambiguousOnce completes one real round trip to the target path and
// then reports a transport error — the classic ambiguous failure where
// the server processed the request but the client cannot know it.
type ambiguousOnce struct {
	inner  http.RoundTripper
	path   string
	failed atomic.Bool
	trips  atomic.Int32
}

func (a *ambiguousOnce) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := a.inner.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if req.URL.Path == a.path {
		a.trips.Add(1)
		if !a.failed.Swap(true) {
			resp.Body.Close()
			return nil, fmt.Errorf("connection reset after response (simulated)")
		}
	}
	return resp, nil
}

// TestRetriedDuplicateBatchNotDoubleCounted is the idempotency
// contract end to end on a durable server: a batch whose ack is lost to
// an ambiguous transport error is retried (request_id set), the retry
// is acked from the journal-backed dedup cache, and the batch was
// journaled and applied exactly once.
func TestRetriedDuplicateBatchNotDoubleCounted(t *testing.T) {
	ingests := replayCohort(t, 2)
	s, ts, _, err := durableServer(t, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	amb := &ambiguousOnce{inner: http.DefaultTransport, path: "/v1/fleet/ingest:batch"}
	c := NewClient(ts.URL, &http.Client{Transport: amb}).
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 1})
	c.sleep = func(ctx context.Context, d time.Duration) error { return nil }

	resp, err := c.IngestBatch(context.Background(), BatchIngestRequest{RequestID: "retry-1", Items: ingests})
	if err != nil {
		t.Fatalf("retried batch failed: %v", err)
	}
	if got := int(amb.trips.Load()); got != 2 {
		t.Errorf("made %d batch round trips, want 2 (original + retry)", got)
	}
	if resp.Accepted != len(ingests) || resp.Devices != len(ingests) {
		t.Errorf("ack = accepted %d, devices %d; want %d/%d",
			resp.Accepted, resp.Devices, len(ingests), len(ingests))
	}
	if s.Devices() != len(ingests) {
		t.Errorf("fleet holds %d devices after retried batch, want %d", s.Devices(), len(ingests))
	}
	// Exactly one journal append: the retry was deduplicated, not
	// re-applied.
	if got := s.cfg.Metrics.Snapshot().Counters["server_store_appends_total"]; got != 1 {
		t.Errorf("server_store_appends_total = %d, want 1", got)
	}
}

// TestNoRetryWithoutRequestID: the same ambiguous failure without an
// idempotency key must NOT be retried — the client surfaces the error
// after a single attempt instead of risking a double ingest.
func TestNoRetryWithoutRequestID(t *testing.T) {
	ingests := replayCohort(t, 2)
	_, ts, _ := testServer(t, nil)
	amb := &ambiguousOnce{inner: http.DefaultTransport, path: "/v1/fleet/ingest:batch"}
	c := NewClient(ts.URL, &http.Client{Transport: amb}).
		WithRetry(RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 1})
	c.sleep = func(ctx context.Context, d time.Duration) error { return nil }

	_, err := c.IngestBatch(context.Background(), BatchIngestRequest{Items: ingests})
	if err == nil {
		t.Fatal("ambiguous transport error without request_id did not surface")
	}
	if got := int(amb.trips.Load()); got != 1 {
		t.Errorf("made %d batch round trips, want 1 (no retry without idempotency key)", got)
	}
	// 429 is still retried without a request_id: a shed request was
	// definitively not processed.
	var hits atomic.Int32
	flaky := httptest.NewServer(flakyHandler(t, []int{429}, &hits))
	defer flaky.Close()
	var slept []time.Duration
	rc := retryClient(flaky, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 1}, &slept)
	if _, err := rc.IngestBatch(context.Background(), BatchIngestRequest{Items: ingests}); err != nil {
		t.Fatalf("batch through a 429-then-200 server: %v", err)
	}
	if hits.Load() != 2 {
		t.Errorf("429 path made %d attempts, want 2", hits.Load())
	}
}

// TestBatchDedupSurvivesRestart: the dedup cache is journaled, so a
// duplicate arriving after a restart — journal replay — or after two
// restarts — snapshot — still replays the original ack bytes.
func TestBatchDedupSurvivesRestart(t *testing.T) {
	ingests := replayCohort(t, 2)
	dir := t.TempDir()
	body := mustJSON(t, BatchIngestRequest{RequestID: "crash-1", Items: ingests})

	_, ts1, _, err := durableServer(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp1, ack1 := postRaw(t, ts1, "/v1/fleet/ingest:batch", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first send: status %d: %s", resp1.StatusCode, ack1)
	}
	ts1.Close()

	for restart := 1; restart <= 2; restart++ {
		s, ts, _, err := durableServer(t, dir, nil)
		if err != nil {
			t.Fatalf("restart %d: %v", restart, err)
		}
		if s.Devices() != len(ingests) {
			t.Fatalf("restart %d recovered %d devices, want %d", restart, s.Devices(), len(ingests))
		}
		resp, ack := postRaw(t, ts, "/v1/fleet/ingest:batch", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("restart %d duplicate: status %d", restart, resp.StatusCode)
		}
		if resp.Header.Get("X-Netmaster-Idempotent-Replay") != "true" {
			t.Errorf("restart %d duplicate missing replay header", restart)
		}
		if !bytes.Equal(ack, ack1) {
			t.Errorf("restart %d duplicate ack differs from the original", restart)
		}
		if s.Devices() != len(ingests) {
			t.Errorf("restart %d duplicate changed the fleet to %d devices", restart, s.Devices())
		}
		appends := s.cfg.Metrics.Snapshot().Counters["server_store_appends_total"]
		if appends != 0 {
			t.Errorf("restart %d duplicate appended %d journal records, want 0", restart, appends)
		}
		ts.Close()
	}
}

// TestIngestBatchReadOnlyDegradation: when the journal dies, accepted
// items fail with per-item read_only errors — the envelope still
// answers 200, nothing is acked that was not fsynced, and nothing is
// applied.
func TestIngestBatchReadOnlyDegradation(t *testing.T) {
	ingests := replayCohort(t, 2)
	probe, err := faults.NewFS(nil, faults.FSConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := durableServer(t, t.TempDir(), probe); err != nil {
		t.Fatal(err)
	}
	bootOps := probe.Writes()

	ffs, err := faults.NewFS(nil, faults.FSConfig{Seed: 2, CrashAfterWrites: bootOps + 1})
	if err != nil {
		t.Fatal(err)
	}
	s, _, c, err := durableServer(t, t.TempDir(), ffs)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.IngestBatch(context.Background(),
		BatchIngestRequest{RequestID: "ro-1", Items: []IngestRequest{ingests[0], {DeviceID: ""}, ingests[1]}})
	if err != nil {
		t.Fatalf("batch on dead journal: envelope error %v, want 200 with item errors", err)
	}
	if resp.Accepted != 0 || resp.Failed != 3 {
		t.Fatalf("ack = accepted %d, failed %d; want 0/3", resp.Accepted, resp.Failed)
	}
	for i, want := range []string{"read_only", "bad_request", "read_only"} {
		if resp.Results[i].OK || resp.Results[i].Error == nil || resp.Results[i].Error.Kind != want {
			t.Errorf("item %d = %+v, want %s error", i, resp.Results[i], want)
		}
	}
	if s.Devices() != 0 {
		t.Errorf("read-only batch applied %d devices", s.Devices())
	}
	// The failed attempt must not poison the dedup cache: the key stays
	// replayable-free so a later retry against a recovered daemon is a
	// real commit, not a replay of the failure.
	if _, ok := s.batchAcks.Get("ro-1"); ok {
		t.Error("failed batch cached an ack for its request_id")
	}
}

// TestScheduleBatchMatchesSequential: each batch item's response equals
// the response of the same request sent alone, independent of
// parallelism, and invalid items fail only themselves.
func TestScheduleBatchMatchesSequential(t *testing.T) {
	acts := []ActivityJSON{{ID: 1, TimeSecs: 97200, Bytes: 200000, ActiveSecs: 5}}
	items := []ScheduleRequest{
		{DeviceID: "dev-a", Gen: &GenSpec{User: "volunteer1", Days: 7}, Day: 1, Activities: acts},
		{Day: -1, Gen: &GenSpec{User: "volunteer1", Days: 7}, Activities: acts},
		{ProfileID: "no-such-profile", Day: 1, Activities: acts},
		{DeviceID: "dev-b", Gen: &GenSpec{User: "volunteer2", Days: 7}, Day: 2, Activities: acts},
	}
	for _, par := range []int{1, 8} {
		_, _, c := testServer(t, func(cfg *Config) { cfg.Parallelism = par })
		resp, err := c.ScheduleBatch(context.Background(), BatchScheduleRequest{Items: items})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Succeeded != 2 || resp.Failed != 2 {
			t.Fatalf("parallelism %d: succeeded %d, failed %d; want 2/2", par, resp.Succeeded, resp.Failed)
		}
		if resp.Results[1].Error == nil || resp.Results[1].Error.Kind != "bad_request" {
			t.Errorf("negative-day item = %+v, want bad_request", resp.Results[1])
		}
		if resp.Results[2].Error == nil || resp.Results[2].Error.Kind != "unknown_profile" {
			t.Errorf("unknown-profile item = %+v, want unknown_profile", resp.Results[2])
		}
		for _, i := range []int{0, 3} {
			if !resp.Results[i].OK || resp.Results[i].Response == nil {
				t.Fatalf("parallelism %d: item %d not OK: %+v", par, i, resp.Results[i])
			}
			single, err := c.Schedule(context.Background(), items[i])
			if err != nil {
				t.Fatal(err)
			}
			if mustJSON(t, resp.Results[i].Response) != mustJSON(t, single) {
				t.Errorf("parallelism %d: batch item %d differs from the same request sent alone", par, i)
			}
			if resp.Results[i].Response.DeviceID != items[i].DeviceID {
				t.Errorf("item %d device echo = %q, want %q", i, resp.Results[i].Response.DeviceID, items[i].DeviceID)
			}
		}
	}
}

// TestBatchRejectsUnknownFields: the batch decoder keeps the API's
// strictness — typos fail loudly.
func TestBatchRejectsUnknownFields(t *testing.T) {
	_, ts, _ := testServer(t, nil)
	resp, body := postRaw(t, ts, "/v1/fleet/ingest:batch", `{"itemz": []}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d: %s", resp.StatusCode, body)
	}
	var e struct {
		Error *apiError `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == nil || e.Error.Kind != "bad_json" {
		t.Errorf("unknown field error = %s, want kind bad_json", body)
	}
}
