package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"netmaster/internal/core"
	"netmaster/internal/metrics"
	"netmaster/internal/middleware"
	"netmaster/internal/parallel"
	"netmaster/internal/power"
	"netmaster/internal/server"
	"netmaster/internal/simtime"
	"netmaster/internal/synth"
	"netmaster/internal/trace"
	"netmaster/internal/tracing"
)

// sizes fixes every workload dimension. The full sizes were tuned on a
// 2-core host so that each headline percentile has at least ten samples
// beyond it in one run; smoke sizes keep the harness's own tests short.
type sizes struct {
	Devices   int // fleet size held by the daemon
	Templates int // distinct replayed device-days the fleet is cut from
	Batch     int // devices per ingest:batch on the ingest workload
	// WriterBatch devices go out every WriterPeriod on fleet-read.
	WriterBatch  int
	WriterPeriod int // milliseconds
	Users        int // plan devices
	HistoryDays  int // days folded into each plan device before the run
	ContentDays  int // distinct days each plan device cycles through
	SimDays      int // days of trace in one /v1/simulate
	SimEvery     int // every SimEvery-th plan cycle adds a simulate
	SetupReps    int // set-ups per run; setup_s is their median
	// Reference passes measure the end-to-end metrics a workload's own
	// traffic does not produce: single-client, fixed op counts, sized so
	// every percentile printed from them has at least minBeyond samples
	// beyond it. They run interleaved in RefChunks rounds, so a slow
	// stretch of the host lands on every pass a little rather than on
	// one pass entirely.
	RefBatches, RefReads, RefCycles int
	RefChunks                       int
	RefReportsPer                   int // report reads per fleet metrics read
	Replays                         int // recorded ops per endpoint the traced run replays
	CheckSchedules                  int // schedule responses compared with core directly
}

func fullSizes() sizes {
	return sizes{
		Devices: 500, Templates: 64, Batch: 5,
		WriterBatch: 20, WriterPeriod: 125,
		Users: 40, HistoryDays: 14, ContentDays: 28, SimDays: 7, SimEvery: 4,
		SetupReps:  3,
		RefBatches: 1000, RefReads: 100, RefCycles: 300, RefChunks: 10, RefReportsPer: 5,
		Replays: 30, CheckSchedules: 16,
	}
}

func smokeSizes() sizes {
	return sizes{
		Devices: 24, Templates: 4, Batch: 4,
		WriterBatch: 4, WriterPeriod: 50,
		Users: 4, HistoryDays: 7, ContentDays: 4, SimDays: 2, SimEvery: 4,
		SetupReps:  1,
		RefBatches: 4, RefReads: 2, RefCycles: 8, RefChunks: 2, RefReportsPer: 1,
		Replays: 3, CheckSchedules: 2,
	}
}

// mix derives a per-item synth seed from the run seed, so the same
// seed regenerates the same inputs and another seed other ones.
func mix(base, seed int64, i int) int64 {
	return base + seed*1_000_003 + int64(i)*7_919
}

// fleetInputs is the ingested fleet: Devices IDs, each carrying one of
// Templates replayed device-days (a metrics snapshot plus one day of
// the middleware's decision trace).
type fleetInputs struct {
	ids []string
	// tails[t] is template t's JSON after its empty device_id, so an
	// item for any device is one concatenation.
	tails [][]byte
}

func newFleetInputs(seed int64, sz sizes) (*fleetInputs, error) {
	cohort := synth.EvalCohort()
	model := power.Model3G()
	f := &fleetInputs{
		ids:   make([]string, sz.Devices),
		tails: make([][]byte, sz.Templates),
	}
	for i := range f.ids {
		f.ids[i] = fmt.Sprintf("dev-%05d", i)
	}
	err := parallel.ForEachN(2, sz.Templates, func(t int) error {
		spec := cohort[t%len(cohort)]
		spec.Seed = mix(spec.Seed, seed, t)
		tr, err := synth.Generate(spec, 1)
		if err != nil {
			return err
		}
		reg := metrics.NewRegistry()
		sink := tracing.NewSink(0)
		cfg := middleware.DefaultReplayConfig(model)
		cfg.Service.Metrics = reg
		cfg.Service.Tracing = sink
		if _, err := middleware.Replay(tr, cfg); err != nil {
			return err
		}
		snap := reg.Snapshot()
		b, err := json.Marshal(&server.IngestRequest{Metrics: &snap, Header: sink.Header(), Events: sink.Events()})
		if err != nil {
			return err
		}
		const head = `{"device_id":""`
		if !bytes.HasPrefix(b, []byte(head)) {
			return fmt.Errorf("unexpected ingest encoding %.40q", b)
		}
		f.tails[t] = b[len(head):]
		return nil
	})
	return f, err
}

// tmplOf is the template device i carries after v re-ingests.
func (f *fleetInputs) tmplOf(i, v int) int { return (i + v) % len(f.tails) }

// items encodes the JSON array of ingest items for devices
// [first, first+n) at the given versions (nil: all zero).
func (f *fleetInputs) items(first, n int, version []int) []byte {
	var b bytes.Buffer
	b.WriteByte('[')
	for k := 0; k < n; k++ {
		i := (first + k) % len(f.ids)
		v := 0
		if version != nil {
			v = version[i]
		}
		if k > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"device_id":"`)
		b.WriteString(f.ids[i])
		b.WriteByte('"')
		b.Write(f.tails[f.tmplOf(i, v)])
	}
	b.WriteByte(']')
	return b.Bytes()
}

// batchBody wraps an items array into an ingest:batch body.
func batchBody(reqID string, items []byte) []byte {
	b := make([]byte, 0, len(items)+64)
	b = append(b, `{"request_id":"`...)
	b = append(b, reqID...)
	b = append(b, `","items":`...)
	b = append(b, items...)
	return append(b, '}')
}

// planUser is one plan device: a seeded eval-cohort user with Wi-Fi
// coverage, HistoryDays of history then ContentDays it cycles through.
type planUser struct {
	id          string
	tr          *trace.Trace
	historyBody []byte   // profile/update folding the whole history
	days        [][]byte // content day j as a one-day trace, JSON
	acts        [][]server.ActivityJSON
	simBody     [2][]byte // dual-radio simulate: netmaster, online
}

var simPolicies = [2]string{"netmaster", "online"}

// wifiCoverage is the plan users' Wi-Fi coverage share.
const wifiCoverage = 0.4

func newPlanUsers(seed int64, sz sizes) ([]*planUser, error) {
	cohort := synth.EvalCohort()
	users := make([]*planUser, sz.Users)
	err := parallel.ForEachN(2, sz.Users, func(d int) error {
		spec := cohort[d%len(cohort)]
		spec.Seed = mix(spec.Seed, seed, 1_000+d)
		spec.WiFiCoverage = wifiCoverage
		tr, err := synth.Generate(spec, sz.HistoryDays+sz.ContentDays)
		if err != nil {
			return err
		}
		u := &planUser{id: fmt.Sprintf("plan-%03d", d), tr: tr}
		if u.historyBody, err = json.Marshal(server.ProfileUpdateRequest{Trace: tr.PrefixDays(sz.HistoryDays)}); err != nil {
			return err
		}
		for j := 0; j < sz.ContentDays; j++ {
			day := sz.HistoryDays + j
			b, err := json.Marshal(tr.DayView(day))
			if err != nil {
				return err
			}
			u.days = append(u.days, b)
			u.acts = append(u.acts, backgroundActs(tr, day))
		}
		for k, pol := range simPolicies {
			req := server.SimulateRequest{Trace: tr.PrefixDays(sz.SimDays), Policy: pol,
				Networks: &server.NetworksJSON{WiFi: &server.WiFiNetworkJSON{}}}
			if u.simBody[k], err = json.Marshal(req); err != nil {
				return err
			}
		}
		users[d] = u
		return nil
	})
	return users, err
}

// backgroundActs lists a day's screen-off background transfers — the
// items the planner may move — with times relative to the day's start.
func backgroundActs(tr *trace.Trace, day int) []server.ActivityJSON {
	start := simtime.At(day, 0, 0, 0)
	var out []server.ActivityJSON
	for i, a := range tr.ActivitiesOfDay(day) {
		if !a.Kind.IsBackground() || tr.ScreenOnAt(a.Start) {
			continue
		}
		out = append(out, server.ActivityJSON{
			ID:         i,
			TimeSecs:   int64(a.Start - start),
			Bytes:      a.Bytes(),
			ActiveSecs: a.Duration.Seconds(),
			DeferOnly:  a.Kind == trace.KindPush,
		})
	}
	return out
}

// updateBody folds content day j into profile id.
func (u *planUser) updateBody(id string, j int) []byte {
	b, _ := json.Marshal(struct {
		ProfileID string          `json:"profile_id"`
		Trace     json.RawMessage `json:"trace"`
		Day       int             `json:"day"`
	}{id, u.days[j], 0})
	return b
}

// scheduleRequest schedules content day j's background transfers on
// absolute day k.
func (u *planUser) scheduleRequest(id string, k, j int) server.ScheduleRequest {
	start := int64(simtime.At(k, 0, 0, 0))
	acts := make([]server.ActivityJSON, len(u.acts[j]))
	for i, a := range u.acts[j] {
		a.TimeSecs += start
		acts[i] = a
	}
	return server.ScheduleRequest{DeviceID: u.id, ProfileID: id, Day: k, Activities: acts}
}

// coreActivities converts wire activities the way the daemon does.
func coreActivities(acts []server.ActivityJSON) []core.Activity {
	out := make([]core.Activity, len(acts))
	for i, a := range acts {
		out[i] = core.Activity{ID: a.ID, Time: simtime.Instant(a.TimeSecs), Bytes: a.Bytes,
			ActiveSecs: a.ActiveSecs, DeferOnly: a.DeferOnly}
	}
	return out
}
