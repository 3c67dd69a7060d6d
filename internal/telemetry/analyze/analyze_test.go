package analyze

import (
	"reflect"
	"testing"

	"netmaster/internal/metrics"
	"netmaster/internal/middleware"
	"netmaster/internal/power"
	"netmaster/internal/simtime"
	"netmaster/internal/synth"
	"netmaster/internal/tracing"
)

func ev(seq uint64, t simtime.Instant, kind tracing.Kind, mut func(*tracing.Event)) tracing.Event {
	e := tracing.Event{Seq: seq, Time: t, Kind: kind}
	if mut != nil {
		mut(&e)
	}
	return e
}

func TestDeviceAttributionAndSlots(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ActivePowerMW = 800
	events := []tracing.Event{
		ev(0, simtime.At(0, 9, 0, 0), tracing.KindRadioSession, func(e *tracing.Event) { e.Dur = 10 }),
		ev(1, simtime.At(0, 9, 0, 0), tracing.KindDutyWake, func(e *tracing.Event) { e.Dur = 2 }),
		ev(2, simtime.At(0, 9, 0, 1), tracing.KindTransfer, func(e *tracing.Event) {
			e.App = "mail"
			e.Bytes = 1000
			e.Dur = 4
			e.Value = 30 // waited 30 s
			e.Outcome = "served"
		}),
		ev(3, simtime.At(0, 10, 0, 0), tracing.KindTransfer, func(e *tracing.Event) {
			e.App = "web"
			e.Bytes = 500
			e.Dur = 2
			e.Outcome = "foreground"
		}),
		ev(4, simtime.At(0, 11, 0, 0), tracing.KindDutyWake, func(e *tracing.Event) { e.Dur = 2 }),
		ev(5, simtime.At(0, 12, 0, 0), tracing.KindDeadlineFlush, func(e *tracing.Event) { e.Dur = 7200 }),
	}
	r := Device(DeviceInput{ID: "d1", Header: tracing.Header{Format: 1, Events: len(events)}, Events: events}, cfg)
	if len(r.Findings) != 0 {
		t.Fatalf("unexpected findings: %+v", r.Findings)
	}
	if len(r.Apps) != 2 || r.Apps[0].App != "mail" {
		t.Fatalf("apps = %+v", r.Apps)
	}
	if r.Apps[0].Bytes != 1000 || r.Apps[0].ActiveSecs != 4 || r.Apps[0].EnergyJ != 3.2 {
		t.Fatalf("mail attribution = %+v", r.Apps[0])
	}
	if r.Slots[9].Wakes != 1 || r.Slots[9].ProductiveWakes != 1 || r.Slots[9].Served != 1 {
		t.Fatalf("slot 9 = %+v", r.Slots[9])
	}
	if r.Slots[10].Foreground != 1 || r.Slots[12].DeadlineFlushes != 1 {
		t.Fatalf("slots 10/12 = %+v %+v", r.Slots[10], r.Slots[12])
	}
	if r.Thrash.UnproductiveWakes != 1 {
		t.Fatalf("thrash = %+v", r.Thrash)
	}
	if r.Deferrals.Count != 1 || r.Deferrals.MaxSecs != 30 || r.Deferrals.P50Secs != 30 {
		t.Fatalf("deferrals = %+v", r.Deferrals)
	}
	if got := r.Slots[9].Precision(); got != 1 {
		t.Fatalf("slot 9 precision = %v", got)
	}
}

func TestPairingViolationDetected(t *testing.T) {
	events := []tracing.Event{
		ev(0, 100, tracing.KindRadioSession, func(e *tracing.Event) { e.Dur = 10 }),
		// Served transfer 50 s after the only session closed.
		ev(1, 160, tracing.KindTransfer, func(e *tracing.Event) { e.Outcome = "served"; e.Dur = 1 }),
	}
	r := Device(DeviceInput{ID: "d", Events: events}, DefaultConfig())
	if len(r.Findings) != 1 || r.Findings[0].Check != "transfer-radio-pairing" || r.Findings[0].Severity != SeverityError {
		t.Fatalf("findings = %+v", r.Findings)
	}
	// The same transfer inside the session is clean.
	events[1].Time = 105
	r = Device(DeviceInput{ID: "d", Events: events}, DefaultConfig())
	if len(r.Findings) != 0 {
		t.Fatalf("findings = %+v", r.Findings)
	}
}

func TestCapacityAuditFromSchedEvents(t *testing.T) {
	events := []tracing.Event{
		ev(0, 100, tracing.KindSchedDecision, func(e *tracing.Event) { e.Slot = 0; e.Bytes = 600 }),
		ev(1, 120, tracing.KindSchedDecision, func(e *tracing.Event) { e.Slot = 0; e.Bytes = 500 }),
		ev(2, 90, tracing.KindSchedSlot, func(e *tracing.Event) { e.Slot = 0; e.Bytes = 1100; e.Cap = 1000 }),
		ev(3, 120, tracing.KindSchedRun, nil),
	}
	r := Device(DeviceInput{ID: "d", Events: events}, DefaultConfig())
	if len(r.Findings) != 1 || r.Findings[0].Check != "sched-capacity" {
		t.Fatalf("findings = %+v", r.Findings)
	}

	// Consistency: slot event disagreeing with the decision sum.
	events[2].Bytes = 900
	events[2].Cap = 2000
	r = Device(DeviceInput{ID: "d", Events: events}, DefaultConfig())
	if len(r.Findings) != 1 || r.Findings[0].Check != "sched-slot-consistency" {
		t.Fatalf("findings = %+v", r.Findings)
	}

	// Clean run: load equals the decision sum and fits the capacity.
	events[2].Bytes = 1100
	r = Device(DeviceInput{ID: "d", Events: events}, DefaultConfig())
	if len(r.Findings) != 0 {
		t.Fatalf("findings = %+v", r.Findings)
	}
}

func TestTruncatedTraceSkipsAuditsButWarns(t *testing.T) {
	events := []tracing.Event{
		// Would be a pairing violation on a complete trace.
		ev(7, 160, tracing.KindTransfer, func(e *tracing.Event) { e.Outcome = "served"; e.Dur = 1 }),
	}
	r := Device(DeviceInput{
		ID:     "d",
		Header: tracing.Header{Format: 1, Events: 1, Dropped: 7, Capacity: 8},
		Events: events,
	}, DefaultConfig())
	if !r.Truncated || r.Dropped != 7 {
		t.Fatalf("report = %+v", r)
	}
	if len(r.Findings) != 1 || r.Findings[0].Check != "trace-truncated" || r.Findings[0].Severity != SeverityWarn {
		t.Fatalf("findings = %+v", r.Findings)
	}
}

func TestSeqOrderViolation(t *testing.T) {
	events := []tracing.Event{
		ev(5, 10, tracing.KindDutyWake, nil),
		ev(3, 20, tracing.KindDutyWake, nil),
	}
	r := Device(DeviceInput{ID: "d", Events: events}, DefaultConfig())
	found := false
	for _, f := range r.Findings {
		if f.Check == "seq-order" && f.Severity == SeverityError {
			found = true
		}
	}
	if !found {
		t.Fatalf("seq-order not flagged: %+v", r.Findings)
	}
}

func TestMetricsCrossCheck(t *testing.T) {
	events := []tracing.Event{
		ev(0, 100, tracing.KindRadioSession, func(e *tracing.Event) { e.Dur = 20 }),
		ev(1, 105, tracing.KindTransfer, func(e *tracing.Event) {
			e.App = "a"
			e.Bytes = 100
			e.Dur = 3
			e.Outcome = "served"
		}),
	}
	good := &metrics.Snapshot{Counters: map[string]int64{
		"replay_transfers_total":      1,
		"replay_burst_seconds_total":  3,
		"replay_bytes_down_total":     60,
		"replay_bytes_up_total":       40,
		"replay_radio_sessions_total": 1,
	}}
	r := Device(DeviceInput{ID: "d", Events: events, Metrics: good}, DefaultConfig())
	if len(r.Findings) != 0 {
		t.Fatalf("clean cross-check produced findings: %+v", r.Findings)
	}
	bad := &metrics.Snapshot{Counters: map[string]int64{"replay_transfers_total": 2}}
	r = Device(DeviceInput{ID: "d", Events: events, Metrics: bad}, DefaultConfig())
	if len(r.Findings) != 1 || r.Findings[0].Check != "metrics-mismatch" {
		t.Fatalf("findings = %+v", r.Findings)
	}
}

func TestFleetRollupOrderInsensitive(t *testing.T) {
	cfg := DefaultConfig()
	mk := func(id string, t0 simtime.Instant) DeviceReport {
		return Device(DeviceInput{ID: id, Events: []tracing.Event{
			ev(0, t0, tracing.KindRadioSession, func(e *tracing.Event) { e.Dur = 10 }),
			ev(1, t0+1, tracing.KindTransfer, func(e *tracing.Event) {
				e.App = "mail"
				e.Bytes = 100
				e.Dur = 2
				e.Value = 5
				e.Outcome = "served"
			}),
		}}, cfg)
	}
	a, b, c := mk("a", 100), mk("b", 200), mk("c", 300)
	f1 := Fleet([]DeviceReport{a, b, c})
	f2 := Fleet([]DeviceReport{c, a, b})
	if !reflect.DeepEqual(f1, f2) {
		t.Fatal("fleet roll-up depends on input order")
	}
	if f1.Devices != 3 || f1.Apps[0].Transfers != 3 || f1.Apps[0].Bytes != 300 {
		t.Fatalf("fleet = %+v", f1)
	}
	if f1.Deferrals.Count != 3 || f1.Deferrals.P50Secs != 5 {
		t.Fatalf("fleet deferrals = %+v", f1.Deferrals)
	}
	if f1.Errors() != 0 {
		t.Fatalf("errors = %d", f1.Errors())
	}
}

// The acceptance invariant: analysing a real online replay's trace must
// attribute exactly the bytes and active seconds the replay's own
// counters recorded — per device, as integers, no tolerance.
func TestAttributionMatchesReplayCountersExactly(t *testing.T) {
	model := power.Model3G()
	for _, spec := range synth.EvalCohort()[:3] {
		tr, err := synth.Generate(spec, 4)
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
		acfg := DefaultConfig()
		acfg.ActivePowerMW = model.ActivePowerMW
		r := Device(DeviceInput{
			ID:      spec.ID,
			Header:  sink.Header(),
			Events:  sink.Events(),
			Metrics: &snap,
		}, acfg)
		if len(r.Findings) != 0 {
			t.Fatalf("%s: findings on a clean replay: %+v", spec.ID, r.Findings)
		}
		var bytes, secs, transfers int64
		for _, a := range r.Apps {
			bytes += a.Bytes
			secs += a.ActiveSecs
			transfers += a.Transfers
		}
		wantBytes := snap.Counters["replay_bytes_down_total"] + snap.Counters["replay_bytes_up_total"]
		if bytes != wantBytes {
			t.Fatalf("%s: attributed bytes %d != counters %d", spec.ID, bytes, wantBytes)
		}
		if secs != snap.Counters["replay_burst_seconds_total"] {
			t.Fatalf("%s: attributed secs %d != counter %d", spec.ID, secs, snap.Counters["replay_burst_seconds_total"])
		}
		if transfers != snap.Counters["replay_transfers_total"] {
			t.Fatalf("%s: attributed transfers %d != counter %d", spec.ID, transfers, snap.Counters["replay_transfers_total"])
		}
	}
}

// deepCopy clones a report, slices included, so later writes through
// the original's backing arrays cannot reach the copy.
func deepCopy(r DeviceReport) DeviceReport {
	c := r
	c.Apps = append([]AppEnergy(nil), r.Apps...)
	c.Slots = append([]SlotScore(nil), r.Slots...)
	c.Findings = append([]Finding(nil), r.Findings...)
	c.deferSecs = append([]float64(nil), r.deferSecs...)
	return c
}

// TestFleetLeavesInputsUntouched pins the read-only contract callers
// rely on to share one memoised report across concurrent fleet folds:
// after Fleet, every input report is deep-equal to a copy taken before.
func TestFleetLeavesInputsUntouched(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ActivePowerMW = power.Model3G().ActivePowerMW
	var reports []DeviceReport
	for _, spec := range synth.EvalCohort() {
		tr, err := synth.Generate(spec, 2)
		if err != nil {
			t.Fatal(err)
		}
		sink := tracing.NewSink(0)
		rcfg := middleware.DefaultReplayConfig(power.Model3G())
		rcfg.Service.Tracing = sink
		if _, err := middleware.Replay(tr, rcfg); err != nil {
			t.Fatal(err)
		}
		reports = append(reports, Device(DeviceInput{ID: spec.ID, Header: sink.Header(), Events: sink.Events()}, cfg))
	}
	// Out of ID order, with findings and without deferrals, so the sort,
	// the findings concatenation and the pooled waits all run.
	reports = append(reports, Device(DeviceInput{ID: "a-unordered", Events: []tracing.Event{
		ev(5, 10, tracing.KindDutyWake, nil),
		ev(3, 20, tracing.KindDutyWake, nil),
	}}, cfg))
	before := make([]DeviceReport, len(reports))
	for i, r := range reports {
		before[i] = deepCopy(r)
	}
	if len(before[0].deferSecs) == 0 || len(before[len(before)-1].Findings) == 0 {
		t.Fatal("fixture lacks deferrals or findings")
	}
	Fleet(reports)
	if !reflect.DeepEqual(reports, before) {
		t.Fatal("Fleet mutated its input reports")
	}
}
