package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"netmaster/internal/cliconfig"
	"netmaster/internal/core"
	"netmaster/internal/device"
	"netmaster/internal/habit"
	"netmaster/internal/metrics"
	"netmaster/internal/middleware"
	"netmaster/internal/policy"
	"netmaster/internal/power"
	"netmaster/internal/server"
	"netmaster/internal/slo"
	"netmaster/internal/store"
	"netmaster/internal/telemetry"
	"netmaster/internal/telemetry/analyze"
	"netmaster/internal/trace"
)

// span is one traced interval: a client op, or one call into a layer's
// public entry point while the traced run replays the recorded inputs.
// Replays of a recorded op name that op as their parent.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	next  int64
	spans []span
}

func (t *tracer) record(name string, parent int64, start, end time.Time) {
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Name: name,
		StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0))})
}

// time runs f as one span and returns its duration in ms.
func (t *tracer) time(name string, parent int64, f func()) float64 {
	start := time.Now()
	f()
	end := time.Now()
	t.record(name, parent, start, end)
	return ms(end.Sub(start))
}

// allocs runs f and returns the heap allocations it made.
func allocs(f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// headline names, per workload, the request and response the server
// decode/encode figures are taken on, and the endpoint whose client
// time minus handler time is the transport figure.
var headline = map[string]struct{ decode, encode, transport string }{
	"ingest":     {"ingest_batch", "ingest_batch", "ingest_batch"},
	"fleet-read": {"ingest_batch", "fleet_report", "fleet_report"},
	"plan":       {"schedule", "schedule", "schedule"},
}

var endpoints = []string{"ingest_batch", "fleet_report", "fleet_metrics", "profile_update", "schedule", "simulate"}

func requestOf(name string) any {
	switch name {
	case "ingest_batch":
		return &server.BatchIngestRequest{}
	case "profile_update":
		return &server.ProfileUpdateRequest{}
	case "schedule":
		return &server.ScheduleRequest{}
	case "simulate":
		return &server.SimulateRequest{}
	}
	return nil
}

func responseOf(name string) any {
	switch name {
	case "ingest_batch":
		return &server.BatchIngestResponse{}
	case "fleet_report":
		return &server.FleetReportResponse{}
	case "profile_update":
		return &server.ProfileUpdateResponse{}
	case "schedule":
		return &server.ScheduleResponse{}
	case "simulate":
		return &server.SimulateResponse{}
	}
	return nil
}

// serveConfig is the server.Config netmaster-serve builds from its
// default flags plus the ones the benchmark passes (-quiet, and
// -state-dir when stateDir is set).
func serveConfig(stateDir string) server.Config {
	o := cliconfig.DefaultServe()
	return server.Config{
		Addr:           "127.0.0.1:0",
		MaxInFlight:    o.MaxInFlight,
		CacheSize:      o.CacheSize,
		RequestTimeout: time.Duration(o.RequestTimeoutSecs) * time.Second,
		ShutdownGrace:  time.Duration(o.ShutdownGraceSecs) * time.Second,
		Parallelism:    o.Parallelism,
		Metrics:        metrics.NewRegistry(),
		StateDir:       stateDir,
		CompactEvery:   o.CompactEvery,
		SlowRequest:    time.Duration(o.SlowRequestMillis) * time.Millisecond,
		TraceRing:      o.TraceRing,
		SLO:            slo.Config{TargetP99MS: o.SLOP99Millis, TargetErrorRate: o.SLOErrorRate, Window: o.SLOWindow},
	}
}

// newTwin builds an in-process server configured as netmaster-serve
// configures the daemon, holding the same fleet and plan histories.
func (fx *fixture) newTwin(stateDir string) (*server.Server, error) {
	srv, err := server.New(serveConfig(stateDir))
	if err != nil {
		return nil, err
	}
	serve := func(path string, body []byte) error {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("twin preload %s: status %d", path, rec.Code)
		}
		return nil
	}
	for s := 0; s < fx.sz.Devices/fx.sz.Batch; s++ {
		if err := serve("/v1/fleet/ingest:batch", fx.preloadBody("twin", s)); err != nil {
			return nil, err
		}
	}
	for _, ps := range fx.plan {
		if err := serve("/v1/profile/update", ps.user.historyBody); err != nil {
			return nil, err
		}
	}
	return srv, nil
}

// layers is the traced run's second step: it replays the recorded
// inputs single-threaded through each layer's public entry point on
// twin instances, one span per call, and derives the per-layer figures.
func (fx *fixture) layers(o options, all, main []*op, before, after map[string]int64) (figures, error) {
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	tr := &tracer{t0: all[0].Start}
	for _, op := range all {
		tr.spans = append(tr.spans, span{ID: op.ID, Name: op.Name,
			StartNS: int64(op.Start.Sub(tr.t0)), EndNS: int64(op.End.Sub(tr.t0))})
		tr.next = max(tr.next, op.ID)
	}
	m := figures{}
	h := headline[o.workload]

	// server: the twin answers every kept op through ServeHTTP.
	twinDir := ""
	if o.workload == "ingest" {
		twinDir = filepath.Join(o.work, "twin-state")
	}
	twin, err := fx.newTwin(twinDir)
	if err != nil {
		return nil, err
	}
	defer twin.Close()
	handle := map[string][]float64{}
	allocsBy := map[string][]float64{}
	serve := func(name string, parent int64, method, path string, body []byte) (float64, error) {
		rec := httptest.NewRecorder()
		var d float64
		a := allocs(func() {
			d = tr.time("server.handle", parent, func() {
				twin.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			})
		})
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("twin %s %s: status %d: %s", method, path, rec.Code, rec.Body.Bytes())
		}
		handle[name] = append(handle[name], d)
		allocsBy[name] = append(allocsBy[name], a)
		return d, nil
	}
	handleOf := map[int64]float64{}
	var kept []*op
	for _, op := range all {
		if !op.Kept || op.Failed {
			continue
		}
		kept = append(kept, op)
		if handleOf[op.ID], err = serve(op.Name, op.ID, op.Method, op.Path, op.Body); err != nil {
			return nil, err
		}
	}
	// An endpoint no kept op reached (a short run may keep no simulate)
	// is timed on one request built from the fixture's own inputs.
	ps := fx.plan[0]
	sch, err := json.Marshal(ps.user.scheduleRequest(ps.base, fx.sz.HistoryDays, 0))
	if err != nil {
		return nil, err
	}
	filler := map[string]*op{
		"ingest_batch":   {Method: http.MethodPost, Path: "/v1/fleet/ingest:batch", Body: fx.preloadBody("twin-filler", 0)},
		"fleet_report":   {Method: http.MethodGet, Path: "/v1/fleet/report"},
		"fleet_metrics":  {Method: http.MethodGet, Path: "/metrics?scope=fleet"},
		"profile_update": {Method: http.MethodPost, Path: "/v1/profile/update", Body: ps.user.updateBody(ps.base, 0)},
		"schedule":       {Method: http.MethodPost, Path: "/v1/schedule", Body: sch},
		"simulate":       {Method: http.MethodPost, Path: "/v1/simulate", Body: ps.user.simBody[0]},
	}
	for _, ep := range endpoints {
		if f := filler[ep]; len(handle[ep]) == 0 {
			if _, err := serve(ep, 0, f.Method, f.Path, f.Body); err != nil {
				return nil, err
			}
		}
	}
	if err := twin.Close(); err != nil {
		return nil, err
	}
	for _, ep := range endpoints {
		m.set("server."+ep+".handle_ms.p50", "ms", percentile(handle[ep], 0.5))
		m.set("server."+ep+".allocs_per_op", "count", mean(allocsBy[ep]))
	}
	var dec, enc, transport []float64
	for _, op := range kept {
		if op.Name == h.decode {
			v := requestOf(op.Name)
			var err error
			dec = append(dec, tr.time("server.decode", op.ID, func() {
				d := json.NewDecoder(bytes.NewReader(op.Body))
				d.DisallowUnknownFields()
				err = d.Decode(v)
			}))
			if err != nil {
				return nil, fmt.Errorf("decode %s: %w", op.Name, err)
			}
		}
		if op.Name == h.encode {
			v := responseOf(op.Name)
			if err := json.Unmarshal(op.RespBody, v); err != nil {
				return nil, fmt.Errorf("decode %s response: %w", op.Name, err)
			}
			enc = append(enc, tr.time("server.encode", op.ID, func() { _, err = encodeIndent(v) }))
			if err != nil {
				return nil, fmt.Errorf("encode %s response: %w", op.Name, err)
			}
		}
		if op.Name == h.transport {
			// The client span's self time: what the handler span leaves.
			transport = append(transport, op.ms()-handleOf[op.ID])
		}
	}
	m.set("server.decode_ms.p50", "ms", percentile(dec, 0.5))
	m.set("server.encode_ms.p50", "ms", percentile(enc, 0.5))
	m.set("server.transport_ms.p50", "ms", percentile(transport, 0.5))
	var reqB, respB []float64
	for _, op := range all {
		reqB = append(reqB, float64(op.ReqBytes))
		respB = append(respB, float64(op.Resp))
	}
	m.set("server.request_bytes.mean", "bytes", mean(reqB))
	m.set("server.response_bytes.mean", "bytes", mean(respB))

	fleet, err := fx.fleetState(fx.version)
	if err != nil {
		return nil, err
	}
	if err := fx.storeLayer(o, tr, m, kept, before, after); err != nil {
		return nil, err
	}
	if err := fleetLayers(tr, m, fleet); err != nil {
		return nil, err
	}
	if err := fx.planLayers(tr, m, before, after); err != nil {
		return nil, err
	}

	// Load generator validity.
	m.set("gen.late_ms.p99", "ms", percentile(lateness(main), 0.99))
	failed, rejected := 0, 0
	for _, op := range all {
		if op.Failed {
			failed++
		}
		if op.Status == http.StatusTooManyRequests {
			rejected++
		}
	}
	m.set("ops.attempted", "count", float64(len(all)))
	m.set("ops.failed", "count", float64(failed))
	m.set("ops.rejected_429", "count", float64(rejected))
	m.set("trace.spans", "count", float64(len(tr.spans)))
	return m, tr.write(filepath.Join(filepath.Dir(o.work), fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed)))
}

// walRecord mirrors the journal payload the daemon writes for a batch
// ingest.
type walRecord struct {
	Kind      string                 `json:"kind"`
	RequestID string                 `json:"request_id,omitempty"`
	Items     []server.IngestRequest `json:"items,omitempty"`
	Ack       []byte                 `json:"ack,omitempty"`
}

// daemonSnapshot returns the snapshot a durable daemon writes for this
// run's state. On ingest it is the daemon's own: its restart for the
// recovery check re-compacted everything into one snapshot. Elsewhere a
// durable twin is preloaded with the same state and reopened, which
// recovers its journal and re-compacts the same way.
func (fx *fixture) daemonSnapshot(o options) ([]byte, error) {
	dir := fx.stateDir
	if dir == "" {
		dir = filepath.Join(o.work, "snapshot-twin")
		twin, err := fx.newTwin(dir)
		if err != nil {
			return nil, err
		}
		if err := twin.Close(); err != nil {
			return nil, err
		}
		reopened, err := server.New(serveConfig(dir))
		if err != nil {
			return nil, err
		}
		if err := reopened.Close(); err != nil {
			return nil, err
		}
	}
	st, rec, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	if rec.SnapshotPayload == nil || len(rec.Records) > 0 {
		return nil, fmt.Errorf("%s: want one snapshot and no journal tail, have %d records", dir, len(rec.Records))
	}
	return rec.SnapshotPayload, nil
}

// storeLayer appends each kept ingest batch's journal record to a fresh
// store and compacts the daemon's snapshot a few times.
func (fx *fixture) storeLayer(o options, tr *tracer, m figures, kept []*op, before, after map[string]int64) error {
	snap, err := fx.daemonSnapshot(o)
	if err != nil {
		return fmt.Errorf("daemon snapshot: %w", err)
	}
	st, _, err := store.Open(store.Config{Dir: filepath.Join(o.work, "store-replay")})
	if err != nil {
		return err
	}
	defer st.Close()
	var appends []float64
	var journalBytes, devices float64
	for _, op := range kept {
		if op.Name != "ingest_batch" {
			continue
		}
		var req server.BatchIngestRequest
		if err := json.Unmarshal(op.Body, &req); err != nil {
			return err
		}
		payload, err := json.Marshal(&walRecord{Kind: "ingest_batch", RequestID: req.RequestID, Items: req.Items, Ack: op.RespBody})
		if err != nil {
			return err
		}
		appends = append(appends, tr.time("store.append", op.ID, func() { _, err = st.Append(payload) }))
		if err != nil {
			return err
		}
		journalBytes += float64(len(payload))
		devices += float64(len(req.Items))
	}
	var compacts []float64
	for i := 0; i < 3; i++ {
		compacts = append(compacts, tr.time("store.compact", 0, func() { err = st.Compact(snap) }))
		if err != nil {
			return err
		}
	}
	perDevice := 0.0
	if devices > 0 {
		// Journal bytes per device plus the snapshot each compaction
		// rewrites, spread over the devices journaled between compactions.
		perRecord := devices / float64(len(appends))
		perDevice = journalBytes/devices + float64(len(snap))/(server.DefaultCompactEvery*perRecord)
	}
	m.set("store.append_ms.p50", "ms", percentile(appends, 0.5))
	m.set("store.append_ms.p99", "ms", percentile(appends, 0.99))
	m.set("store.compact_ms.p50", "ms", percentile(compacts, 0.5))
	m.set("store.snapshot_bytes", "bytes", float64(len(snap)))
	m.set("store.bytes_written_per_device", "bytes", perDevice)
	m.set("store.appends", "count", float64(after["server_store_appends_total"]-before["server_store_appends_total"]))
	m.set("store.compactions", "count", float64(after["server_store_compactions_total"]-before["server_store_compactions_total"]))
	return nil
}

// fleetLayers times the fleet fold: telemetry aggregation and export,
// and analyze over every device's decision trace.
func fleetLayers(tr *tracer, m figures, fleet []server.IngestRequest) error {
	devs := make([]telemetry.Device, len(fleet))
	ins := make([]analyze.DeviceInput, len(fleet))
	events := 0
	for i, d := range fleet {
		devs[i] = telemetry.Device{ID: d.DeviceID, Snapshot: *d.Metrics}
		ins[i] = analyze.DeviceInput{ID: d.DeviceID, Header: d.Header, Events: d.Events, Metrics: d.Metrics}
		events += len(d.Events)
	}
	const reps = 5
	var agg, exp, prom []float64
	var err error
	var snap telemetry.FleetSnapshot
	for i := 0; i < reps; i++ {
		var a *telemetry.Agg
		agg = append(agg, tr.time("telemetry.aggregate", 0, func() { a, err = telemetry.AggregateParallel(2, devs) }))
		if err != nil {
			return err
		}
		exp = append(exp, tr.time("telemetry.export", 0, func() { snap = a.Export() }))
		prom = append(prom, tr.time("telemetry.write_prom", 0, func() { err = telemetry.WriteProm(io.Discard, "netmaster_", snap) }))
		if err != nil {
			return err
		}
	}
	m.set("telemetry.aggregate_ms.p50", "ms", percentile(agg, 0.5))
	m.set("telemetry.export_ms.p50", "ms", percentile(exp, 0.5))
	m.set("telemetry.write_prom_ms.p50", "ms", percentile(prom, 0.5))
	m.set("telemetry.allocs_per_op", "count", allocs(func() {
		a, _ := telemetry.AggregateParallel(2, devs)
		a.Export()
	}))

	acfg := analyze.DefaultConfig()
	acfg.ActivePowerMW = power.Model3G().ActivePowerMW
	reports := make([]analyze.DeviceReport, len(ins))
	var perDev, fl []float64
	for i := range ins {
		perDev = append(perDev, 1000*tr.time("analyze.device", 0, func() { reports[i] = analyze.Device(ins[i], acfg) }))
	}
	for i := 0; i < reps; i++ {
		fl = append(fl, tr.time("analyze.fleet", 0, func() { analyze.Fleet(reports) }))
	}
	m.set("analyze.device_us.p50", "us", percentile(perDev, 0.5))
	m.set("analyze.fleet_ms.p50", "ms", percentile(fl, 0.5))
	m.set("analyze.events_per_read", "count", float64(events))
	m.set("analyze.allocs_per_op", "count", allocs(func() {
		rs := make([]analyze.DeviceReport, len(ins))
		for i := range ins {
			rs[i] = analyze.Device(ins[i], acfg)
		}
		analyze.Fleet(rs)
	}))
	return nil
}

// fixedPlan hands device.RunRadios a plan made earlier, so the device
// span times only the metering.
type fixedPlan struct{ plan *device.Plan }

func (p fixedPlan) Name() string                            { return p.plan.PolicyName }
func (p fixedPlan) Plan(*trace.Trace) (*device.Plan, error) { return p.plan, nil }

// planLayers folds every plan device's content days through
// habit.Sketch, schedules each next day with core.Scheduler, and plans,
// replays and meters each device's simulated week dual-radio.
func (fx *fixture) planLayers(tr *tracer, m figures, before, after map[string]int64) error {
	sz := fx.sz
	model, wifi := power.Model3G(), power.ModelWiFi()
	var fold, prof, hash, sched, schedAllocs, acts, slots, items []float64
	var assigned, offered float64
	for _, ps := range fx.plan {
		sk, err := habit.NewSketch("", habit.DefaultConfig())
		if err != nil {
			return err
		}
		if err := sk.FoldTrace(ps.user.tr.PrefixDays(sz.HistoryDays)); err != nil {
			return err
		}
		for j := 0; j < sz.ContentDays; j++ {
			k := sz.HistoryDays + j
			day := ps.user.tr.DayView(k)
			fold = append(fold, tr.time("habit.fold_day", 0, func() {
				sk = sk.Clone()
				err = sk.FoldTraceDay(day, 0)
			}))
			if err != nil {
				return err
			}
			var p *habit.Profile
			prof = append(prof, tr.time("habit.profile", 0, func() { p = sk.Profile() }))
			hash = append(hash, tr.time("habit.hash", 0, func() { sk.Hash() }))

			u := p.PredictedActiveSlots(k + 1)
			if len(u) == 0 {
				continue
			}
			a := coreActivities(ps.user.scheduleRequest("", k+1, (j+1)%sz.ContentDays).Activities)
			s, err := newScheduler(p, model)
			if err != nil {
				return err
			}
			var res *core.Schedule
			n := allocs(func() {
				sched = append(sched, tr.time("core.schedule", 0, func() { res, err = s.Schedule(u, a) }))
			})
			if err != nil {
				return err
			}
			schedAllocs = append(schedAllocs, n)
			acts = append(acts, float64(len(a)))
			slots = append(slots, float64(len(u)))
			assigned += float64(len(res.Assignments))
			offered += float64(len(a))
			loaded := 0
			for _, l := range res.SlotLoad {
				if l > 0 {
					loaded++
				}
			}
			if loaded > 0 {
				items = append(items, float64(len(res.Assignments))/float64(loaded))
			}
		}
	}
	m.set("habit.fold_day_ms.p50", "ms", percentile(fold, 0.5))
	m.set("habit.profile_ms.p50", "ms", percentile(prof, 0.5))
	m.set("habit.hash_ms.p50", "ms", percentile(hash, 0.5))
	hits := after["server_profile_cache_hits_total"] - before["server_profile_cache_hits_total"]
	misses := after["server_profile_cache_misses_total"] - before["server_profile_cache_misses_total"]
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	m.set("habit.profile_cache_hit_ratio", "ratio", ratio)
	m.set("core.schedule_ms.p50", "ms", percentile(sched, 0.5))
	m.set("core.schedule_ms.p99", "ms", percentile(sched, 0.99))
	m.set("core.activities_per_call.mean", "count", mean(acts))
	m.set("core.slots_per_call.mean", "count", mean(slots))
	m.set("core.allocs_per_op", "count", mean(schedAllocs))
	m.set("core.assigned_ratio", "ratio", assigned/offered)
	m.set("knapsack.items_per_slot.mean", "count", mean(items))

	var plan, replay, run []float64
	for _, ps := range fx.plan {
		t := ps.user.tr.PrefixDays(sz.SimDays)
		cfg := policy.DefaultNetMasterConfig(model)
		cfg.WiFi = wifi
		nm, err := policy.NewNetMaster(cfg)
		if err != nil {
			return err
		}
		var p *device.Plan
		plan = append(plan, tr.time("policy.plan", 0, func() { p, err = nm.Plan(t) }))
		if err != nil {
			return err
		}
		rc := middleware.DefaultReplayConfig(model)
		rc.WiFi = wifi
		replay = append(replay, tr.time("middleware.replay", 0, func() { _, err = middleware.Replay(t, rc) }))
		if err != nil {
			return err
		}
		run = append(run, tr.time("device.run_radios", 0, func() { _, err = device.RunRadios(fixedPlan{p}, t, model, wifi) }))
		if err != nil {
			return err
		}
	}
	m.set("policy.plan_ms.p50", "ms", percentile(plan, 0.5))
	m.set("middleware.replay_ms.p50", "ms", percentile(replay, 0.5))
	m.set("device.run_radios_ms.p50", "ms", percentile(run, 0.5))
	return nil
}
