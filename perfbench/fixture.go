package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"netmaster/internal/core"
	"netmaster/internal/habit"
	"netmaster/internal/metrics"
	"netmaster/internal/parallel"
	"netmaster/internal/power"
	"netmaster/internal/server"
	"netmaster/internal/simtime"
	"netmaster/internal/telemetry"
	"netmaster/internal/telemetry/analyze"
)

// fixture is one set-up: generated inputs and a daemon holding the
// fleet and every plan device's history. Every workload sets up the
// same state; only the ingest workload's daemon is durable.
type fixture struct {
	o        options
	sz       sizes
	rep      int
	d        *daemon
	c        *client
	stateDir string
	fleet    *fleetInputs
	// version[i] counts the re-ingests sent for device i; it picks the
	// template the device carries (fleetInputs.tmplOf).
	verMu   sync.Mutex
	version []int
	batches atomic.Int64 // ingest-loop batches sent, for request IDs and slots
	plan    []*planState
	rec     *recorder
	sampled atomic.Int64
}

func setUp(o options, sz sizes, rep int) (*fixture, error) {
	fx := &fixture{o: o, sz: sz, rep: rep, rec: &recorder{replays: sz.Replays}}
	var err error
	if fx.fleet, err = newFleetInputs(o.seed, sz); err != nil {
		return nil, err
	}
	fx.version = make([]int, sz.Devices)
	users, err := newPlanUsers(o.seed, sz)
	if err != nil {
		return nil, err
	}
	var args []string
	if o.workload == "ingest" {
		fx.stateDir = filepath.Join(o.work, fmt.Sprintf("state-%d", rep))
		args = append(args, "-state-dir", fx.stateDir)
	}
	if fx.d, err = startDaemon(o.serve, args...); err != nil {
		return nil, err
	}
	fx.c = newClient(fx.d.base)
	if err := fx.preload(users); err != nil {
		fx.close()
		return nil, err
	}
	return fx, nil
}

// preload ingests the fleet at its current versions and folds each plan
// device's history, on two clients.
func (fx *fixture) preload(users []*planUser) error {
	fx.plan = make([]*planState, len(users))
	n := fx.sz.Devices / fx.sz.Batch
	return parallel.ForEachN(2, n+len(users), func(i int) error {
		if i < n {
			var o op
			fx.c.do(&o, http.MethodPost, "/v1/fleet/ingest:batch", fx.preloadBody("preload", i), true)
			fx.checkAck(&o, fx.sz.Batch)
			if o.Failed {
				return fmt.Errorf("preload batch %d: status %d", i, o.Status)
			}
			return nil
		}
		u := users[i-n]
		var o op
		fx.c.do(&o, http.MethodPost, "/v1/profile/update", u.historyBody, true)
		var ur server.ProfileUpdateResponse
		if o.Failed || json.Unmarshal(o.RespBody, &ur) != nil {
			return fmt.Errorf("preload profile %s: status %d", u.id, o.Status)
		}
		fx.plan[i-n] = &planState{user: u, idx: i - n, day: fx.sz.HistoryDays, id: ur.ProfileID, base: ur.ProfileID}
		return nil
	})
}

// preloadBody is batch slot s of the fleet at its current versions.
func (fx *fixture) preloadBody(tag string, s int) []byte {
	fx.verMu.Lock()
	defer fx.verMu.Unlock()
	return batchBody(fmt.Sprintf("%s-%d-%d", tag, fx.rep, s), fx.fleet.items(s*fx.sz.Batch, fx.sz.Batch, fx.version))
}

// nextBody moves devices [first, first+n) to their next template and
// encodes them as one ingest:batch, so every write changes what the
// daemon holds and a lost write shows in the output checks.
func (fx *fixture) nextBody(reqID string, first, n int) []byte {
	fx.verMu.Lock()
	defer fx.verMu.Unlock()
	for i := 0; i < n; i++ {
		fx.version[(first+i)%len(fx.version)]++
	}
	return batchBody(reqID, fx.fleet.items(first, n, fx.version))
}

func (fx *fixture) close() {
	if fx.c != nil {
		fx.c.close()
	}
	if err := fx.d.stop(); err != nil {
		fx.o.log("netmaster-serve exit: %v", err)
	}
	fx.d = nil
	if fx.stateDir != "" {
		os.RemoveAll(fx.stateDir)
	}
}

// counters scrapes the daemon's own registry.
func (fx *fixture) counters() (map[string]int64, error) {
	var snap metrics.Snapshot
	if err := fx.c.getJSON("/metrics?format=json&scope=self", &snap); err != nil {
		return nil, err
	}
	return snap.Counters, nil
}

// phase is one stretch of traffic the metrics are computed from.
type phase struct {
	ops     []*op
	elapsed time.Duration
	cycles  int
}

// add runs f and appends its ops, time and cycles to the phase.
func (p *phase) add(f func() ([]*op, int)) {
	t0 := time.Now()
	ops, cycles := f()
	p.elapsed += time.Since(t0)
	p.ops = append(p.ops, ops...)
	p.cycles += cycles
}

// refPasses are the reference passes' phases; a workload's own path
// has none.
type refPasses struct{ ingest, reads, plan phase }

// referencePasses measures, with fixed op counts, the paths the
// workload's own traffic does not take, one chunk of each in turn.
func (fx *fixture) referencePasses(workload string) refPasses {
	var r refPasses
	sz := fx.sz
	for k := 0; k < sz.RefChunks; k++ {
		if workload != "ingest" {
			r.ingest.add(func() ([]*op, int) {
				return fx.ingestLoop(2, stopAt{count: sz.RefBatches / sz.RefChunks / 2}, "ref"), 0
			})
		}
		if workload != "fleet-read" {
			n := sz.RefReads / sz.RefChunks
			r.reads.add(func() ([]*op, int) {
				return fx.readLoop(stopAt{count: n + n/sz.RefReportsPer}, sz.RefReportsPer), 0
			})
		}
		if workload != "plan" {
			r.plan.add(func() ([]*op, int) { return fx.planLoop(1, stopAt{count: sz.RefCycles / sz.RefChunks}) })
		}
	}
	return r
}

// fleetState is the fleet as the daemon holds it after the given
// re-ingests per device, each template round-tripped through JSON as
// the daemon decoded it.
func (fx *fixture) fleetState(version []int) ([]server.IngestRequest, error) {
	tmpls := make([]server.IngestRequest, len(fx.fleet.tails))
	for t, tail := range fx.fleet.tails {
		if err := json.Unmarshal(append([]byte(`{"device_id":"x"`), tail...), &tmpls[t]); err != nil {
			return nil, err
		}
	}
	fleet := make([]server.IngestRequest, len(fx.fleet.ids))
	for i, id := range fx.fleet.ids {
		fleet[i] = tmpls[fx.fleet.tmplOf(i, version[i])]
		fleet[i].DeviceID = id
	}
	return fleet, nil
}

// fleetDoc is the offline fold of a fleet — what netmaster-analyze
// writes for the same device artifacts — encoded as the daemon
// encodes its report.
func fleetDoc(fleet []server.IngestRequest) ([]byte, error) {
	acfg := analyze.DefaultConfig()
	acfg.ActivePowerMW = power.Model3G().ActivePowerMW
	devs := make([]telemetry.Device, len(fleet))
	for i, d := range fleet {
		devs[i] = telemetry.Device{ID: d.DeviceID, Snapshot: *d.Metrics}
	}
	reports, err := parallel.MapN(2, len(fleet), func(i int) (analyze.DeviceReport, error) {
		d := fleet[i]
		return analyze.Device(analyze.DeviceInput{ID: d.DeviceID, Header: d.Header, Events: d.Events, Metrics: d.Metrics}, acfg), nil
	})
	if err != nil {
		return nil, err
	}
	agg, err := telemetry.AggregateParallel(2, devs)
	if err != nil {
		return nil, err
	}
	return encodeIndent(server.FleetReportResponse{Metrics: agg.Export(), Analysis: analyze.Fleet(reports)})
}

// encodeIndent encodes v as the daemon writes JSON bodies.
func encodeIndent(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return b.Bytes(), err
}

// checkFleet compares the live fleet report with the offline fold of
// what was sent; every write must have been acknowledged and applied.
func (fx *fixture) checkFleet() error {
	var o op
	fx.c.do(&o, http.MethodGet, "/v1/fleet/report", nil, true)
	if o.Failed {
		return fmt.Errorf("status %d", o.Status)
	}
	fleet, err := fx.fleetState(fx.version)
	if err != nil {
		return err
	}
	want, err := fleetDoc(fleet)
	if err != nil {
		return err
	}
	if !bytes.Equal(o.RespBody, want) {
		return fmt.Errorf("report (%d bytes) differs from the offline fold (%d bytes)", len(o.RespBody), len(want))
	}
	return nil
}

// checkRecovery restarts the durable daemon on its state directory; the
// recovered fleet must hold every device as last written in the window.
func (fx *fixture) checkRecovery(o options) error {
	fx.c.close()
	if err := fx.d.stop(); err != nil {
		return fmt.Errorf("stop: %w", err)
	}
	d, err := startDaemon(o.serve, "-state-dir", fx.stateDir)
	if err != nil {
		fx.d = nil
		return err
	}
	fx.d, fx.c = d, newClient(d.base)
	var h server.HealthResponse
	if err := fx.c.getJSON("/healthz", &h); err != nil {
		return err
	}
	if h.Devices != len(fx.fleet.ids) {
		return fmt.Errorf("recovered %d devices, acknowledged %d", h.Devices, len(fx.fleet.ids))
	}
	return fx.checkFleet()
}

// restartInMemory replaces the daemon with an in-memory one holding the
// same fleet and plan histories.
func (fx *fixture) restartInMemory() error {
	fx.c.close()
	if err := fx.d.stop(); err != nil {
		return fmt.Errorf("stop: %w", err)
	}
	fx.d = nil
	d, err := startDaemon(fx.o.serve)
	if err != nil {
		return err
	}
	fx.d, fx.c = d, newClient(d.base)
	users := make([]*planUser, len(fx.plan))
	for i, ps := range fx.plan {
		users[i] = ps.user
	}
	return fx.preload(users)
}

// checkPlan refolds every plan device's history and days with
// habit.Sketch and requires each returned profile ID to equal the
// benchmark's own hash, and each kept schedule response to equal
// core.Scheduler output for the same profile and activities.
func (fx *fixture) checkPlan() error {
	return parallel.ForEachN(2, len(fx.plan), func(d int) error {
		ps := fx.plan[d]
		sk, err := habit.NewSketch("", habit.DefaultConfig())
		if err != nil {
			return err
		}
		if err := sk.FoldTrace(ps.user.tr.PrefixDays(fx.sz.HistoryDays)); err != nil {
			return err
		}
		if sk.Hash() != ps.base {
			return fmt.Errorf("%s: history profile %s, benchmark folds %s", ps.user.id, ps.base, sk.Hash())
		}
		for n, id := range ps.ids {
			k := fx.sz.HistoryDays + n
			j := n % fx.sz.ContentDays
			if err := sk.FoldTraceDay(ps.user.tr.DayView(fx.sz.HistoryDays+j), 0); err != nil {
				return err
			}
			if got := sk.Hash(); got != id {
				return fmt.Errorf("%s day %d: daemon profile %s, benchmark folds %s", ps.user.id, k, id, got)
			}
			if body, ok := ps.sample[k+1]; ok {
				want, err := fx.directSchedule(sk.Profile(), ps, k+1)
				if err != nil {
					return err
				}
				if !bytes.Equal(body, want) {
					return fmt.Errorf("%s day %d: schedule response differs from core.Scheduler", ps.user.id, k+1)
				}
			}
		}
		return nil
	})
}

// directSchedule answers a plan schedule request with core directly,
// wired as the daemon wires it for a cellular request, and encodes the
// response the daemon would send.
func (fx *fixture) directSchedule(p *habit.Profile, ps *planState, day int) ([]byte, error) {
	req := ps.user.scheduleRequest(ps.ids[day-1-fx.sz.HistoryDays], day, (day-fx.sz.HistoryDays)%fx.sz.ContentDays)
	model := power.Model3G()
	u := p.PredictedActiveSlots(day)
	resp := server.ScheduleResponse{DeviceID: req.DeviceID, ProfileID: req.ProfileID, Day: day,
		ActiveSlots: []simtime.Interval{}, Assignments: []server.AssignmentJSON{}, SlotLoad: []int64{}}
	if len(u) == 0 {
		for _, a := range req.Activities {
			resp.Unscheduled = append(resp.Unscheduled, a.ID)
		}
		return encodeIndent(resp)
	}
	sched, err := newScheduler(p, model)
	if err != nil {
		return nil, err
	}
	res, err := sched.Schedule(u, coreActivities(req.Activities))
	if err != nil {
		return nil, err
	}
	resp.ActiveSlots, resp.Unscheduled, resp.SlotLoad = u, res.Unscheduled, res.SlotLoad
	resp.TotalSaved, resp.TotalPenalty, resp.Objective = res.TotalSaved, res.TotalPenalty, res.Objective
	for _, a := range res.Assignments {
		resp.Assignments = append(resp.Assignments, server.AssignmentJSON{
			ActivityID: a.ActivityID, SlotIndex: a.SlotIndex, Slot: u[a.SlotIndex],
			TargetSecs: int64(a.Target), Bytes: a.Bytes, Profit: a.Profit, Saved: a.Saved,
			Penalty: a.Penalty, Network: string(a.Network),
		})
	}
	if resp.Unscheduled == nil {
		resp.Unscheduled = []int{}
	}
	return encodeIndent(resp)
}

// newScheduler is core.Scheduler at the paper's defaults over profile p.
func newScheduler(p *habit.Profile, model *power.Model) (*core.Scheduler, error) {
	cfg := core.DefaultConfig()
	cfg.ProbSlotWidth = p.SlotWidth
	cfg.SavedEnergy = func(a core.Activity) float64 { return model.SavedEnergy(a.ActiveSecs) }
	cfg.UseProb = p.UseProbAt
	return core.New(cfg)
}

// energySaving is the mean energy saving, in percent, of one dual-radio
// netmaster simulate per plan device.
func (fx *fixture) energySaving() (float64, error) {
	savings := make([]float64, len(fx.plan))
	err := parallel.ForEachN(2, len(fx.plan), func(d int) error {
		var o op
		fx.c.do(&o, http.MethodPost, "/v1/simulate", fx.plan[d].user.simBody[0], true)
		var sr server.SimulateResponse
		if o.Failed || json.Unmarshal(o.RespBody, &sr) != nil {
			return fmt.Errorf("simulate %s: status %d", fx.plan[d].user.id, o.Status)
		}
		savings[d] = 100 * sr.EnergySaving
		return nil
	})
	return mean(savings), err
}
