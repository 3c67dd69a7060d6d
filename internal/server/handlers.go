package server

import (
	"context"
	"fmt"
	"net/http"

	"netmaster/internal/core"
	"netmaster/internal/device"
	"netmaster/internal/eval"
	"netmaster/internal/habit"
	"netmaster/internal/middleware"
	"netmaster/internal/policy"
	"netmaster/internal/power"
	"netmaster/internal/simtime"
	"netmaster/internal/synth"
	"netmaster/internal/telemetry"
	"netmaster/internal/trace"
)

func powerModel(name string) (*power.Model, error) {
	switch name {
	case "", "3g":
		return power.Model3G(), nil
	case "lte":
		return power.ModelLTE(), nil
	default:
		return nil, &apiError{Code: http.StatusBadRequest, Kind: "bad_request",
			Msg: fmt.Sprintf("unknown model %q (want 3g or lte)", name)}
	}
}

// wifiNetwork resolves a request's optional Networks block to the NIC
// power model and its merged coverage windows. A nil block means the
// request stays on the single-radio surface.
func wifiNetwork(n *NetworksJSON) (*power.WiFiModel, []simtime.Interval, error) {
	if n == nil || n.WiFi == nil {
		return nil, nil, nil
	}
	switch n.WiFi.Model {
	case "", "wifi":
	default:
		return nil, nil, &apiError{Code: http.StatusBadRequest, Kind: "bad_request",
			Msg: fmt.Sprintf("unknown wifi model %q (want wifi)", n.WiFi.Model)}
	}
	for _, iv := range n.WiFi.Coverage {
		if iv.End < iv.Start {
			return nil, nil, &apiError{Code: http.StatusBadRequest, Kind: "bad_request",
				Msg: fmt.Sprintf("inverted wifi coverage window %v", iv)}
		}
	}
	return power.ModelWiFi(), simtime.MergeIntervals(n.WiFi.Coverage), nil
}

// coversAll reports whether the merged window set contains the whole
// interval.
func coversAll(ivs []simtime.Interval, iv simtime.Interval) bool {
	for _, w := range ivs {
		if w.Start <= iv.Start && iv.End <= w.End {
			return true
		}
	}
	return false
}

func habitConfig(mc *MineConfig) habit.Config {
	cfg := habit.DefaultConfig()
	if mc == nil {
		return cfg
	}
	if mc.SlotWidthSecs > 0 {
		cfg.SlotWidth = simtime.Duration(mc.SlotWidthSecs)
	}
	if mc.WeekdayThreshold != nil {
		cfg.WeekdayThreshold = *mc.WeekdayThreshold
	}
	if mc.WeekendThreshold != nil {
		cfg.WeekendThreshold = *mc.WeekendThreshold
	}
	if mc.RecencyHalfLifeDays > 0 {
		cfg.RecencyHalfLifeDays = mc.RecencyHalfLifeDays
	}
	return cfg
}

func setCacheHeader(w http.ResponseWriter, hit bool) {
	if hit {
		w.Header().Set("X-Netmaster-Cache", "hit")
	} else {
		w.Header().Set("X-Netmaster-Cache", "miss")
	}
}

// firstDayOfType returns the first day index in week 0 of the wanted
// day type, for the representative active-slot summaries.
func firstDayOfType(weekend bool) int {
	for day := 0; day < 7; day++ {
		if simtime.At(day, 0, 0, 0).IsWeekend() == weekend {
			return day
		}
	}
	return 0
}

func dayTypeSummary(p *habit.Profile, dt *habit.DayTypeProfile, weekend bool) DayTypeSummary {
	sum := DayTypeSummary{
		Days:    dt.Days,
		UseProb: make([]float64, len(dt.Slots)),
		NetProb: make([]float64, len(dt.Slots)),
	}
	for i, sl := range dt.Slots {
		sum.UseProb[i] = sl.UseProb
		sum.NetProb[i] = sl.NetProb
	}
	sum.ActiveSlots = p.PredictedActiveSlots(firstDayOfType(weekend))
	if sum.ActiveSlots == nil {
		sum.ActiveSlots = []simtime.Interval{}
	}
	return sum
}

func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) error {
	var req MineRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	e, id, hit, err := s.resolveProfile(req.Trace, req.Gen, habitConfig(req.Config))
	if err != nil {
		return err
	}
	p := e.profile
	resp := MineResponse{
		ProfileID:     id,
		UserID:        p.UserID,
		SlotWidthSecs: int64(p.SlotWidth),
		SpecialApps:   p.SpecialApps,
		Weekday:       dayTypeSummary(p, &p.Weekday, false),
		Weekend:       dayTypeSummary(p, &p.Weekend, true),
	}
	if resp.SpecialApps == nil {
		resp.SpecialApps = []trace.AppID{}
	}
	setCacheHeader(w, hit)
	return writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) error {
	var req ScheduleRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	resp, hit, err := s.scheduleOne(r.Context(), &req)
	if err != nil {
		return err
	}
	setCacheHeader(w, hit)
	return writeJSON(w, http.StatusOK, resp)
}

// scheduleOne answers one schedule request: profile resolution (by ID
// or mined through the cache), predicted slots, and the knapsack
// assignment. Shared by POST /v1/schedule and each /v1/schedule:batch
// item.
func (s *Server) scheduleOne(ctx context.Context, req *ScheduleRequest) (*ScheduleResponse, bool, error) {
	model, err := powerModel(req.Model)
	if err != nil {
		return nil, false, err
	}
	if req.Day < 0 {
		return nil, false, &apiError{Code: http.StatusBadRequest, Kind: "bad_request", Msg: "day must be non-negative"}
	}
	if len(req.Activities) == 0 {
		return nil, false, &apiError{Code: http.StatusBadRequest, Kind: "bad_request", Msg: "no activities to schedule"}
	}

	// Resolve the habit profile: by ID from the cache, or mined from
	// the request's trace (through the same cache).
	var profile *habit.Profile
	var id string
	hit := false
	if req.ProfileID != "" {
		v, ok := s.profiles.Get(req.ProfileID)
		if !ok {
			return nil, false, &apiError{Code: http.StatusNotFound, Kind: "unknown_profile",
				Msg: fmt.Sprintf("profile %s not cached; re-mine or pass the trace", req.ProfileID)}
		}
		s.mCacheHit.Inc()
		s.mProfHit.Inc()
		profile, id, hit = v.(*profileEntry).profile, req.ProfileID, true
	} else {
		e, eid, ehit, rerr := s.resolveProfile(req.Trace, req.Gen, habitConfig(req.MineConfig))
		if rerr != nil {
			return nil, false, rerr
		}
		profile, id, hit = e.profile, eid, ehit
	}

	u := profile.PredictedActiveSlots(req.Day)
	if len(u) == 0 {
		return &ScheduleResponse{
			DeviceID:    req.DeviceID,
			ProfileID:   id,
			Day:         req.Day,
			ActiveSlots: []simtime.Interval{},
			Assignments: []AssignmentJSON{},
			Unscheduled: unscheduledIDs(req.Activities),
			SlotLoad:    []int64{},
		}, hit, nil
	}

	ccfg := core.DefaultConfig()
	if req.Eps != 0 {
		ccfg.Eps = req.Eps
	}
	if req.BandwidthBps != 0 {
		ccfg.BandwidthBps = req.BandwidthBps
	}
	if req.PenaltyRateWattEq != nil {
		ccfg.PenaltyRateWattEq = *req.PenaltyRateWattEq
	}
	ccfg.ProbSlotWidth = profile.SlotWidth
	ccfg.SavedEnergy = func(a core.Activity) float64 { return model.SavedEnergy(a.ActiveSecs) }
	ccfg.UseProb = profile.UseProbAt
	wifi, wifiCov, err := wifiNetwork(req.Networks)
	if err != nil {
		return nil, false, err
	}
	if wifi != nil {
		// Pooled-optimistic Wi-Fi profit, mirroring the offline policy:
		// cellular is credited its marginal burst, Wi-Fi charged only a
		// fractional share of a pooled sync — execution-time gates do the
		// conservative demotion.
		ccfg.WiFiSavedEnergy = func(a core.Activity) float64 {
			cellSecs := model.CompactDuration(a.Bytes).Seconds()
			pooledSecs := float64(a.Bytes) / wifi.BatchBps
			return model.SavedEnergy(a.ActiveSecs) +
				model.MarginalBurstEnergy(cellSecs) -
				wifi.MarginalBurstEnergy(pooledSecs)
		}
		ccfg.WiFiAvailable = func(slot simtime.Interval) bool { return coversAll(wifiCov, slot) }
	}
	sched, err := core.New(ccfg)
	if err != nil {
		return nil, false, &apiError{Code: http.StatusBadRequest, Kind: "bad_config", Msg: err.Error()}
	}

	acts := make([]core.Activity, len(req.Activities))
	for i, a := range req.Activities {
		acts[i] = core.Activity{
			ID:         a.ID,
			Time:       simtime.Instant(a.TimeSecs),
			Bytes:      a.Bytes,
			ActiveSecs: a.ActiveSecs,
			DeferOnly:  a.DeferOnly,
		}
	}
	result, err := sched.ScheduleCtx(ctx, u, acts)
	if err != nil {
		if ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
		return nil, false, &apiError{Code: http.StatusBadRequest, Kind: "schedule_failed", Msg: err.Error()}
	}

	resp := &ScheduleResponse{
		DeviceID:     req.DeviceID,
		ProfileID:    id,
		Day:          req.Day,
		ActiveSlots:  u,
		Assignments:  make([]AssignmentJSON, len(result.Assignments)),
		Unscheduled:  result.Unscheduled,
		TotalSaved:   result.TotalSaved,
		TotalPenalty: result.TotalPenalty,
		Objective:    result.Objective,
		SlotLoad:     result.SlotLoad,
	}
	for i, asg := range result.Assignments {
		resp.Assignments[i] = AssignmentJSON{
			ActivityID: asg.ActivityID,
			SlotIndex:  asg.SlotIndex,
			Slot:       u[asg.SlotIndex],
			TargetSecs: int64(asg.Target),
			Bytes:      asg.Bytes,
			Profit:     asg.Profit,
			Saved:      asg.Saved,
			Penalty:    asg.Penalty,
			Network:    string(asg.Network),
		}
	}
	if resp.Unscheduled == nil {
		resp.Unscheduled = []int{}
	}
	return resp, hit, nil
}

func unscheduledIDs(acts []ActivityJSON) []int {
	ids := make([]int, len(acts))
	for i, a := range acts {
		ids[i] = a.ID
	}
	return ids
}

// plannedPolicy adapts a middleware replay's plan to device.Policy.
type plannedPolicy struct {
	name string
	plan *device.Plan
}

func (p *plannedPolicy) Name() string                              { return p.name }
func (p *plannedPolicy) Plan(t *trace.Trace) (*device.Plan, error) { return p.plan, nil }

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) error {
	var req SimulateRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	model, err := powerModel(req.Model)
	if err != nil {
		return err
	}
	t, spec, err := resolveTrace(req.Trace, req.Gen)
	if err != nil {
		return err
	}
	wifi, wifiCov, err := wifiNetwork(req.Networks)
	if err != nil {
		return err
	}
	if len(wifiCov) > 0 {
		// The request's coverage windows override whatever the trace
		// recorded.
		t = t.Clone()
		t.WiFi = wifiCov
		if verr := t.Validate(); verr != nil {
			return &apiError{Code: http.StatusBadRequest, Kind: "bad_trace", Msg: verr.Error()}
		}
	}

	var p device.Policy
	switch req.Policy {
	case "baseline":
		p = nil
	case "netmaster":
		cfg := policy.DefaultNetMasterConfig(model)
		cfg.WiFi = wifi
		if spec != nil {
			days := req.HistoryDays
			if days == 0 {
				days = 14
			}
			history, herr := synth.GenerateHistory(*spec, days)
			if herr != nil {
				return herr
			}
			cfg.History = history
		}
		p, err = policy.NewNetMaster(cfg)
	case "oracle":
		p, err = policy.NewOracle(model)
	case "delay":
		iv := req.DelayIntervalSecs
		if iv == 0 {
			iv = 600
		}
		p, err = policy.NewDelay(simtime.Duration(iv))
	case "batch":
		size := req.BatchSize
		if size == 0 {
			size = 3
		}
		p, err = policy.NewBatch(size, 0)
	case "online":
		rc := middleware.DefaultReplayConfig(model)
		rc.WiFi = wifi
		res, rerr := middleware.Replay(t, rc)
		if rerr != nil {
			return &apiError{Code: http.StatusBadRequest, Kind: "simulate_failed", Msg: rerr.Error()}
		}
		p = &plannedPolicy{name: res.Plan.PolicyName, plan: res.Plan}
	case "wifi-offload":
		if wifi == nil {
			return &apiError{Code: http.StatusBadRequest, Kind: "bad_request",
				Msg: "policy wifi-offload needs a networks.wifi block"}
		}
		p = policy.WiFiOffload{}
	default:
		return &apiError{Code: http.StatusBadRequest, Kind: "bad_request",
			Msg: fmt.Sprintf("unknown policy %q (want baseline, netmaster, oracle, delay, batch, online or wifi-offload)", req.Policy)}
	}
	if err != nil {
		return &apiError{Code: http.StatusBadRequest, Kind: "bad_config", Msg: err.Error()}
	}

	if wifi != nil {
		return s.simulateDual(w, r, req, t, model, wifi, p)
	}

	// CompareCtx runs the baseline then the policy, honouring the
	// request deadline between runs.
	var pols []device.Policy
	if p != nil {
		pols = append(pols, p)
	}
	results, err := eval.CompareCtx(r.Context(), t, model, pols)
	if err != nil {
		if r.Context().Err() != nil {
			return r.Context().Err()
		}
		return &apiError{Code: http.StatusBadRequest, Kind: "simulate_failed", Msg: err.Error()}
	}
	base := results[0]
	res := results[len(results)-1]
	return writeJSON(w, http.StatusOK, SimulateResponse{
		UserID:        t.UserID,
		Days:          t.Days,
		Model:         model.Name,
		Baseline:      metricsJSON(base.Metrics),
		Result:        metricsJSON(res.Metrics),
		EnergySaving:  res.EnergySaving,
		RadioOnSaving: res.RadioOnSaving,
	})
}

// simulateDual answers a simulate request with the Wi-Fi NIC enabled:
// the baseline stays the unmanaged all-cellular replay — so savings are
// comparable across single- and dual-radio requests — while the policy
// runs under both radio models and its metrics carry the per-NIC
// breakdown.
func (s *Server) simulateDual(w http.ResponseWriter, r *http.Request, req SimulateRequest, t *trace.Trace, model *power.Model, wifi *power.WiFiModel, p device.Policy) error {
	base, err := device.Run(policy.Baseline{}, t, model)
	if err != nil {
		return &apiError{Code: http.StatusBadRequest, Kind: "simulate_failed", Msg: err.Error()}
	}
	if r.Context().Err() != nil {
		return r.Context().Err()
	}
	res := base
	if p != nil {
		res, err = device.RunRadios(p, t, model, wifi)
		if err != nil {
			return &apiError{Code: http.StatusBadRequest, Kind: "simulate_failed", Msg: err.Error()}
		}
	}
	return writeJSON(w, http.StatusOK, SimulateResponse{
		UserID:        t.UserID,
		Days:          t.Days,
		Model:         model.Name,
		Baseline:      metricsJSON(base),
		Result:        metricsJSON(res),
		EnergySaving:  res.EnergySavingVs(base),
		RadioOnSaving: res.RadioOnSavingVs(base),
	})
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) error {
	var req IngestRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	if req.DeviceID == "" {
		return &apiError{Code: http.StatusBadRequest, Kind: "bad_request", Msg: "device_id must be set"}
	}
	// Durability before acknowledgement: the journal append happens (and
	// fsyncs) before the 200, so an acked ingest survives any crash.
	if s.store != nil {
		if err := s.ingestDurable(&req); err != nil {
			return err
		}
	} else {
		s.applyIngest(&req)
	}
	return writeJSON(w, http.StatusOK, IngestResponse{DeviceID: req.DeviceID, Devices: s.Devices()})
}

func (s *Server) handleFleetReport(w http.ResponseWriter, r *http.Request) error {
	doc, err := s.fleetDoc(r.URL.Query().Get("model"))
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, doc)
}

// handleFleetDevices dumps the ingested fleet per device — the shard
// half of a routed fleet report. reports=0 skips the per-device
// analysis when the caller only wants raw metrics.
func (s *Server) handleFleetDevices(w http.ResponseWriter, r *http.Request) error {
	dumps, err := s.deviceDumps(r.URL.Query().Get("model"), r.URL.Query().Get("reports") != "0")
	if err != nil {
		return err
	}
	if dumps == nil {
		dumps = []DeviceDump{}
	}
	return writeJSON(w, http.StatusOK, FleetDevicesResponse{Devices: dumps})
}

// fleetMetricDevices snapshots the ingested devices that carry metrics.
func (s *Server) fleetMetricDevices() []telemetry.Device {
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	var devs []telemetry.Device
	for id, d := range s.fleet {
		if d.metrics != nil {
			devs = append(devs, telemetry.Device{ID: id, Snapshot: *d.metrics})
		}
	}
	return devs
}

// handleMetrics serves the server's own registry (plus any ingested
// fleet) in Prometheus text format, reusing the fleet exporter: the
// server is just one more device in its own fleet. ?scope=fleet drops
// the server's own counters (the surface a router merges, since each
// shard's server_* numbers are its own); ?scope=self drops the fleet.
// ?format=json&scope=self returns the raw registry snapshot instead —
// the surface the router's ?scope=serve fold and netmaster-bench
// scrape, since a snapshot merges and quantiles exactly where text
// exposition would have to be re-parsed.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.serveMetricsJSON(w, r) {
		return
	}
	var devs []telemetry.Device
	switch scope := r.URL.Query().Get("scope"); scope {
	case "", "all":
		devs = append([]telemetry.Device{{ID: "server", Snapshot: s.cfg.Metrics.Snapshot()}}, s.fleetMetricDevices()...)
	case "fleet":
		devs = s.fleetMetricDevices()
	case "self":
		devs = []telemetry.Device{{ID: "server", Snapshot: s.cfg.Metrics.Snapshot()}}
	default:
		writeError(w, &apiError{Code: http.StatusBadRequest, Kind: "bad_request",
			Msg: fmt.Sprintf("unknown metrics scope %q (want all, fleet or self)", scope)})
		return
	}
	agg, err := telemetry.Aggregate(devs...)
	if err != nil {
		writeError(w, &apiError{Code: http.StatusInternalServerError, Kind: "internal", Msg: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	telemetry.WriteProm(w, "netmaster_", agg.Export())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := HealthResponse{
		Status:   "ok",
		Devices:  s.Devices(),
		InFlight: s.InFlight(),
		Store:    s.storeStatus(),
		SLO:      s.sloStatus(),
	}
	if h.Store != nil && h.Store.Mode == "read_only" {
		h.Status = "read_only"
	}
	writeJSON(w, http.StatusOK, h)
}
