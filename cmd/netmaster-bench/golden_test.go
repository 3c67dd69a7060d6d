package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"netmaster/internal/cliconfig"
)

// The goldens pin the bench report's two renderings over one canned
// result, so output changes are deliberate. Regenerate with
//
//	go test ./cmd/netmaster-bench -run Golden -update
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

// cannedResult is a fixed report: the goldens test rendering, not the
// machine the tests run on.
func cannedResult() Result {
	return Result{
		Target:         "self",
		Devices:        100000,
		BatchSize:      500,
		Concurrency:    32,
		Requests:       200,
		Errors:         1,
		ItemFailures:   3,
		ErrorRate:      0.005,
		ElapsedMS:      1234.5,
		DevicesPerSec:  80600.2,
		RequestsPerSec: 162.0,
		Latency:        Quantiles{P50: 180.25, P90: 320.5, P99: 410.75, Max: 450.125},
		FleetReadMS:    85.375,
		FleetDevices:   100000,
		SLO:            SLO{MaxErrorRate: 0.01, MaxP99Millis: 5000, Pass: true},
		Server: &ServerStats{
			Role: "server",
			Endpoints: []EndpointLatency{
				{Endpoint: "fleet_report", Requests: 1, P50: 40.5, P90: 70.25, P99: 80.125},
				{Endpoint: "ingest_batch", Requests: 200, P50: 150.5, P90: 300.25, P99: 400.125},
			},
			SLORequests:     201,
			SLOErrors:       1,
			ErrorBurnRate:   0.498,
			LatencyBurnRate: 0,
		},
	}
}

func TestGoldenTextReport(t *testing.T) {
	var buf bytes.Buffer
	if err := renderText(&buf, cannedResult()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "bench_text.golden", buf.Bytes())
}

func TestGoldenJSONReport(t *testing.T) {
	var buf bytes.Buffer
	if err := renderJSON(&buf, cannedResult()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "bench_json.golden", buf.Bytes())
}

// TestBenchServeJSONSchemaPin: the committed BENCH_serve.json decodes
// strictly into Result (no unknown fields, nothing dropped) and
// re-encodes byte-identically — the schema and the committed artifact
// cannot drift apart silently.
func TestBenchServeJSONSchemaPin(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_serve.json"))
	if err != nil {
		t.Fatalf("missing committed BENCH_serve.json: %v", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var r Result
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("BENCH_serve.json does not match the Result schema: %v", err)
	}
	if r.Devices < 100000 {
		t.Errorf("committed bench covers %d devices, want >= 100000", r.Devices)
	}
	if r.Latency.P50 <= 0 || r.Latency.P90 <= 0 || r.Latency.P99 <= 0 {
		t.Errorf("committed bench missing latency quantiles: %+v", r.Latency)
	}
	if r.DevicesPerSec <= 0 {
		t.Errorf("committed bench missing throughput: %f", r.DevicesPerSec)
	}
	if !r.SLO.Pass {
		t.Errorf("committed bench violates its own SLO: %+v", r.SLO)
	}
	if r.Server == nil || len(r.Server.Endpoints) == 0 {
		t.Fatalf("committed bench missing the server-side block: %+v", r.Server)
	}
	var batch *EndpointLatency
	for i := range r.Server.Endpoints {
		if r.Server.Endpoints[i].Endpoint == "ingest_batch" {
			batch = &r.Server.Endpoints[i]
		}
	}
	if batch == nil || batch.P99 <= 0 || batch.Requests <= 0 {
		t.Errorf("committed bench missing server-side ingest_batch quantiles: %+v", r.Server.Endpoints)
	}
	var buf bytes.Buffer
	if err := renderJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Errorf("BENCH_serve.json does not round-trip through Result:\n%s\nvs\n%s", buf.Bytes(), raw)
	}
}

func TestBatchesCoverEveryIndexOnce(t *testing.T) {
	seen := map[int]bool{}
	for _, rng := range batches(1042, 100) {
		for i := rng[0]; i < rng[1]; i++ {
			if seen[i] {
				t.Fatalf("index %d covered twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 1042 {
		t.Errorf("batches cover %d indices, want 1042", len(seen))
	}
}

// TestBenchSelfHostedSmallRun drives the real pipeline end to end on a
// small cohort: zero errors, the full fleet ingested, SLO pass.
func TestBenchSelfHostedSmallRun(t *testing.T) {
	o := cliconfig.DefaultBench()
	o.Devices = 120
	o.Batch = 25
	o.Concurrency = 4
	o.Days = 2
	res, err := runBench(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.ItemFailures != 0 {
		t.Errorf("bench saw %d errors, %d item failures on a healthy daemon", res.Errors, res.ItemFailures)
	}
	if res.FleetDevices != o.Devices {
		t.Errorf("daemon holds %d devices after the bench, want %d", res.FleetDevices, o.Devices)
	}
	if res.Requests != int64(len(batches(o.Devices, o.Batch))) {
		t.Errorf("bench made %d requests, want %d", res.Requests, len(batches(o.Devices, o.Batch)))
	}
	if !res.SLO.Pass {
		t.Errorf("small self-hosted run violated the default SLO: %+v", res)
	}
	if res.Server == nil {
		t.Fatal("self-hosted run produced no server-side block")
	}
	if res.Server.Role != "server" {
		t.Errorf("server block role = %q, want server", res.Server.Role)
	}
	found := false
	for _, ep := range res.Server.Endpoints {
		if ep.Endpoint == "ingest_batch" && ep.Requests == res.Requests && ep.P99 > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("server block lacks a matching ingest_batch entry: %+v", res.Server.Endpoints)
	}
	if res.Server.SLORequests < res.Requests {
		t.Errorf("server SLO saw %d requests, bench made %d", res.Server.SLORequests, res.Requests)
	}
}
