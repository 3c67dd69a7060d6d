package server

import (
	"bytes"
	"context"
	"testing"

	"netmaster/internal/metrics"
	"netmaster/internal/middleware"
	"netmaster/internal/parallel"
	"netmaster/internal/power"
	"netmaster/internal/synth"
	"netmaster/internal/telemetry"
	"netmaster/internal/telemetry/analyze"
	"netmaster/internal/tracing"
)

// replayCohort replays the eval cohort online, producing exactly the
// observability artifacts netmaster-sim writes to an -obs-dir — but in
// memory, ready to ship to /v1/fleet/ingest.
func replayCohort(t testing.TB, days int) []IngestRequest {
	t.Helper()
	model := power.Model3G()
	var out []IngestRequest
	for _, spec := range synth.EvalCohort() {
		tr, err := synth.Generate(spec, days)
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		sink := tracing.NewSink(0)
		cfg := middleware.DefaultReplayConfig(model)
		cfg.Service.Metrics = reg
		cfg.Service.Tracing = sink
		if _, err := middleware.Replay(tr, cfg); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		out = append(out, IngestRequest{
			DeviceID: spec.ID,
			Metrics:  &snap,
			Header:   sink.Header(),
			Events:   sink.Events(),
		})
	}
	return out
}

// offlineReports analyses each device's artifacts straight through
// analyze.Device under model m — no server.
func offlineReports(t testing.TB, ingests []IngestRequest, workers int, m *power.Model) []analyze.DeviceReport {
	t.Helper()
	acfg := analyze.DefaultConfig()
	acfg.ActivePowerMW = m.ActivePowerMW
	reports, err := parallel.MapN(workers, len(ingests), func(i int) (analyze.DeviceReport, error) {
		in := ingests[i]
		return analyze.Device(analyze.DeviceInput{ID: in.DeviceID, Header: in.Header, Events: in.Events, Metrics: in.Metrics}, acfg), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return reports
}

// offlineFleetReport folds the fleet report the way the batch pipeline
// (netmaster-analyze) does, straight from the artifacts — no server.
func offlineFleetReport(t testing.TB, ingests []IngestRequest, workers int, m *power.Model) FleetReportResponse {
	t.Helper()
	var devs []telemetry.Device
	for _, in := range ingests {
		devs = append(devs, telemetry.Device{ID: in.DeviceID, Snapshot: *in.Metrics})
	}
	reports := offlineReports(t, ingests, workers, m)
	agg, err := telemetry.AggregateParallel(workers, devs)
	if err != nil {
		t.Fatal(err)
	}
	return FleetReportResponse{Metrics: agg.Export(), Analysis: analyze.Fleet(reports)}
}

// offlineFleetDoc is offlineFleetReport encoded whole, in one encodeJSON
// pass: the independent oracle for the live handlers, which splice
// pre-encoded per_device entries instead.
func offlineFleetDoc(t testing.TB, ingests []IngestRequest, workers int, m *power.Model) []byte {
	t.Helper()
	b, err := encodeJSON(offlineFleetReport(t, ingests, workers, m))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestIngestReportRoundTrip: ingesting a cohort's artifacts over the
// wire and asking for the live report must reproduce the offline
// aggregation byte for byte — the live and batch pipelines are the same
// pipeline.
func TestIngestReportRoundTrip(t *testing.T) {
	ingests := replayCohort(t, 4)

	_, ts, c := testServer(t, nil)
	for _, in := range ingests {
		ack, err := c.Ingest(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if ack.DeviceID != in.DeviceID {
			t.Errorf("ack for %s, sent %s", ack.DeviceID, in.DeviceID)
		}
	}
	h, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Devices != len(ingests) {
		t.Fatalf("fleet size %d, ingested %d", h.Devices, len(ingests))
	}

	live := get(t, ts, "/v1/fleet/report")
	for _, workers := range []int{1, 8} {
		offline := offlineFleetDoc(t, ingests, workers, power.Model3G())
		if !bytes.Equal(live, offline) {
			t.Errorf("live report differs from offline aggregation (offline workers=%d)\nlive:\n%s\noffline:\n%s",
				workers, live, offline)
		}
	}

	// Re-ingesting a device replaces, not duplicates.
	if ack, err := c.Ingest(context.Background(), ingests[0]); err != nil {
		t.Fatal(err)
	} else if ack.Devices != len(ingests) {
		t.Errorf("re-ingest grew the fleet to %d", ack.Devices)
	}
	if again := get(t, ts, "/v1/fleet/report"); !bytes.Equal(live, again) {
		t.Error("re-ingesting identical artifacts changed the report")
	}
}

// TestIngestRejectsAnonymous: a device_id is mandatory.
func TestIngestRejectsAnonymous(t *testing.T) {
	_, _, c := testServer(t, nil)
	if _, err := c.Ingest(context.Background(), IngestRequest{}); err == nil {
		t.Fatal("ingest without device_id accepted")
	}
}
