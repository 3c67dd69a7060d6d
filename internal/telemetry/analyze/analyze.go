// Package analyze derives fleet-level reports from the decision traces
// the simulators export — the questions raw counters cannot answer:
// which app the radio energy went to, how well the mined habit profile
// predicted the slots that mattered, how long transfers actually waited,
// whether the duty cycle thrashed the radio, and whether the run obeyed
// the system's invariants (every served transfer inside a commanded
// radio session; no slot loaded past its Eq. 5 capacity).
//
// Invariant violations come back as typed Findings, never panics: the
// analyzer is an offline auditor over files of varying provenance, and a
// broken input is a result, not a crash. Everything here is
// deterministic — reports are pure functions of the input events, and
// fleet roll-ups fold devices in sorted-ID order — so the CLI's output
// is golden-testable byte for byte.
package analyze

import (
	"fmt"
	"slices"
	"sort"

	"netmaster/internal/metrics"
	"netmaster/internal/simtime"
	"netmaster/internal/tracing"
)

// Config parameterises the analysis.
type Config struct {
	// ActivePowerMW converts attributed active-transfer seconds into
	// joules (the radio model's DCH/CONNECTED draw). Zero leaves the
	// per-app EnergyJ column at zero without affecting the exact
	// byte/second attribution.
	ActivePowerMW float64
	// ThrashGap is the radio-session gap at or below which two
	// consecutive commanded sessions count as a thrash pair: the radio
	// was re-promoted before it could have left its tail states.
	ThrashGap simtime.Duration
	// ThrashMinPairs is the minimum number of thrash pairs before the
	// duty-thrash finding fires.
	ThrashMinPairs int
	// ThrashShare is the thrash-pairs-to-sessions ratio above which the
	// duty-thrash finding fires.
	ThrashShare float64
}

// DefaultConfig returns thresholds matched to the 3G model's ~17 s of
// tail states: re-promotions within 15 s are certainly thrash.
func DefaultConfig() Config {
	return Config{
		ThrashGap:      15 * simtime.Second,
		ThrashMinPairs: 8,
		ThrashShare:    0.25,
	}
}

// Severity grades a finding.
type Severity string

const (
	// SeverityError marks an invariant violation: the trace describes a
	// run that should be impossible.
	SeverityError Severity = "error"
	// SeverityWarn marks a quality problem worth an operator's look —
	// a truncated trace, a thrashing duty cycle.
	SeverityWarn Severity = "warn"
)

// Finding is one typed audit result.
type Finding struct {
	Device   string   `json:"device"`
	Check    string   `json:"check"`
	Severity Severity `json:"severity"`
	Count    int      `json:"count"`
	Detail   string   `json:"detail"`
}

// AppEnergy attributes executed transfers to one application. Bytes and
// ActiveSecs are exact integer totals from the trace — their fleet sums
// equal the devices' replay_* counters — and EnergyJ prices ActiveSecs
// at the configured active power.
type AppEnergy struct {
	App        string  `json:"app"`
	Transfers  int64   `json:"transfers"`
	Bytes      int64   `json:"bytes"`
	ActiveSecs int64   `json:"active_secs"`
	EnergyJ    float64 `json:"energy_j"`
}

// SlotScore is one hour-of-day row of the prediction scorecard: how
// often the duty cycle woke in this slot, how many wakes served at least
// one deferred transfer (productive — the profile predicted activity
// that materialised), and how many transfers had to be force-run at the
// deferral deadline (the profile missed).
type SlotScore struct {
	Hour            int   `json:"hour"`
	Wakes           int64 `json:"wakes"`
	ProductiveWakes int64 `json:"productive_wakes"`
	Served          int64 `json:"served"`
	DeadlineFlushes int64 `json:"deadline_flushes"`
	Foreground      int64 `json:"foreground"`
}

// Precision is the share of wakes in this slot that served a transfer.
func (s SlotScore) Precision() float64 {
	if s.Wakes == 0 {
		return 0
	}
	return float64(s.ProductiveWakes) / float64(s.Wakes)
}

// DeferStats summarises the deferral-latency distribution, computed
// from the exact per-transfer waits (not histogram buckets).
type DeferStats struct {
	Count    int64   `json:"count"`
	MeanSecs float64 `json:"mean_secs"`
	P50Secs  float64 `json:"p50_secs"`
	P90Secs  float64 `json:"p90_secs"`
	P99Secs  float64 `json:"p99_secs"`
	MaxSecs  float64 `json:"max_secs"`
}

// ThrashStats counts duty-cycle churn: commanded radio sessions, thrash
// pairs (sessions re-promoted within ThrashGap of the previous
// disable), and wake windows that served nothing.
type ThrashStats struct {
	RadioSessions     int64 `json:"radio_sessions"`
	ThrashPairs       int64 `json:"thrash_pairs"`
	UnproductiveWakes int64 `json:"unproductive_wakes"`
}

// DeviceReport is one device's analysis.
type DeviceReport struct {
	Device    string      `json:"device"`
	Events    int         `json:"events"`
	Truncated bool        `json:"truncated"`
	Dropped   uint64      `json:"dropped"`
	Apps      []AppEnergy `json:"apps"`
	Slots     []SlotScore `json:"slots"`
	Deferrals DeferStats  `json:"deferrals"`
	Thrash    ThrashStats `json:"thrash"`
	Findings  []Finding   `json:"findings"`
	deferSecs []float64   // exact waits, for the fleet distribution
}

// DeferSecs returns the raw per-deferral waits (seconds) backing the
// report's deferral distribution. Fleet pools these exact values to
// recompute the cohort quantiles, so a report that crosses a process
// boundary must carry them alongside its JSON (they are deliberately
// not serialised with the report — per_device entries would balloon).
func (r *DeviceReport) DeferSecs() []float64 { return r.deferSecs }

// SetDeferSecs restores the raw deferral waits on a report that was
// rebuilt from JSON, re-enabling the exact fleet-level pooling.
func (r *DeviceReport) SetDeferSecs(v []float64) { r.deferSecs = v }

// DeviceInput is one device's trace (and optionally its metrics
// snapshot, enabling the trace↔counters cross-check).
type DeviceInput struct {
	ID      string
	Header  tracing.Header
	Events  []tracing.Event
	Metrics *metrics.Snapshot
}

// Device analyses one device's trace.
func Device(in DeviceInput, cfg Config) DeviceReport {
	r := DeviceReport{
		Device:    in.ID,
		Events:    len(in.Events),
		Truncated: in.Header.Truncated(),
		Dropped:   in.Header.Dropped,
		Slots:     make([]SlotScore, simtime.HoursPerDay),
	}
	for h := range r.Slots {
		r.Slots[h].Hour = h
	}
	if r.Truncated {
		r.addFinding(cfg, Finding{
			Check:    "trace-truncated",
			Severity: SeverityWarn,
			Count:    int(in.Header.Dropped),
			Detail: fmt.Sprintf("ring dropped %d events (capacity %d); totals below cover only the surviving suffix and invariant audits are skipped",
				in.Header.Dropped, in.Header.Capacity),
		})
	}
	r.checkSeqOrder(in)

	apps := map[string]*AppEnergy{}
	var sessions []radioSession
	type wake struct {
		start, end simtime.Instant
		hour       int
	}
	var wakes []wake
	var servedStarts []simtime.Instant

	for _, e := range in.Events {
		switch e.Kind {
		case tracing.KindTransfer:
			app := e.App
			if app == "" {
				app = "(unattributed)"
			}
			a := apps[app]
			if a == nil {
				a = &AppEnergy{App: app}
				apps[app] = a
			}
			a.Transfers++
			a.Bytes += e.Bytes
			a.ActiveSecs += int64(e.Dur)
			if e.Value > 0 {
				r.deferSecs = append(r.deferSecs, e.Value)
			}
			hour := e.Time.SecondOfDay() / 3600
			switch e.Outcome {
			case "served":
				r.Slots[hour].Served++
				servedStarts = append(servedStarts, e.Time)
			case "foreground":
				r.Slots[hour].Foreground++
			}
		case tracing.KindRadioSession:
			sessions = append(sessions, radioSession{start: e.Time, end: e.Time.Add(e.Dur)})
		case tracing.KindDutyWake:
			hour := e.Time.SecondOfDay() / 3600
			r.Slots[hour].Wakes++
			wakes = append(wakes, wake{start: e.Time, end: e.Time.Add(e.Dur), hour: hour})
		case tracing.KindDeadlineFlush:
			hour := e.Time.SecondOfDay() / 3600
			r.Slots[hour].DeadlineFlushes++
		}
	}

	// Per-app attribution, largest energy first (ties by name).
	for _, a := range apps {
		a.EnergyJ = float64(a.ActiveSecs) * cfg.ActivePowerMW / 1000
		r.Apps = append(r.Apps, *a)
	}
	sort.Slice(r.Apps, func(i, j int) bool {
		if r.Apps[i].ActiveSecs != r.Apps[j].ActiveSecs {
			return r.Apps[i].ActiveSecs > r.Apps[j].ActiveSecs
		}
		if r.Apps[i].Bytes != r.Apps[j].Bytes {
			return r.Apps[i].Bytes > r.Apps[j].Bytes
		}
		return r.Apps[i].App < r.Apps[j].App
	})

	// Productive wakes: a wake window that saw at least one served
	// transfer start. Events arrive time-ordered per kind, so a binary
	// search over served starts suffices.
	sort.Slice(servedStarts, func(i, j int) bool { return servedStarts[i] < servedStarts[j] })
	r.Thrash.RadioSessions = int64(len(sessions))
	for _, w := range wakes {
		i := sort.Search(len(servedStarts), func(i int) bool { return servedStarts[i] >= w.start })
		if i < len(servedStarts) && servedStarts[i] <= w.end {
			r.Slots[w.hour].ProductiveWakes++
		} else {
			r.Thrash.UnproductiveWakes++
		}
	}
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].start < sessions[j].start })
	for i := 1; i < len(sessions); i++ {
		if gap := sessions[i].start.Sub(sessions[i-1].end); gap >= 0 && gap <= cfg.ThrashGap {
			r.Thrash.ThrashPairs++
		}
	}
	if r.Thrash.ThrashPairs >= int64(cfg.ThrashMinPairs) &&
		float64(r.Thrash.ThrashPairs) > cfg.ThrashShare*float64(r.Thrash.RadioSessions) {
		r.addFinding(cfg, Finding{
			Check:    "duty-thrash",
			Severity: SeverityWarn,
			Count:    int(r.Thrash.ThrashPairs),
			Detail: fmt.Sprintf("%d of %d radio sessions re-promoted within %ds of the previous disable",
				r.Thrash.ThrashPairs, r.Thrash.RadioSessions, int64(cfg.ThrashGap)),
		})
	}

	sorted := slices.Clone(r.deferSecs)
	sortWaits(sorted)
	r.Deferrals = deferStats(sorted)

	// Invariant audits need the full story; a wrapped ring would turn
	// missing context into false violations.
	if !r.Truncated {
		r.auditTransferPairing(cfg, in, sessions)
		r.auditSchedCapacity(cfg, in)
		r.crossCheckMetrics(cfg, in)
	}
	return r
}

func (r *DeviceReport) addFinding(_ Config, f Finding) {
	f.Device = r.Device
	r.Findings = append(r.Findings, f)
}

// checkSeqOrder verifies the export is a well-formed suffix: strictly
// increasing sequence numbers.
func (r *DeviceReport) checkSeqOrder(in DeviceInput) {
	bad := 0
	for i := 1; i < len(in.Events); i++ {
		if in.Events[i].Seq <= in.Events[i-1].Seq {
			bad++
		}
	}
	if bad > 0 {
		r.addFinding(Config{}, Finding{
			Check:    "seq-order",
			Severity: SeverityError,
			Count:    bad,
			Detail:   fmt.Sprintf("%d events out of sequence order: trace is corrupt or spliced", bad),
		})
	}
}

// radioSession is one commanded radio-on span, reconstructed from a
// radio-session trace event.
type radioSession struct{ start, end simtime.Instant }

// auditTransferPairing checks that every transfer served out of the
// deferral queue started inside the radio-active envelope: a commanded
// radio session, possibly extended by the back-to-back serve chain
// running from its start (the executor keeps the radio up until the
// batch drains, even when the commanded span itself is instantaneous).
// Foreground, deadline and drain executions legitimately run outside one
// (the user or the OS brought the radio up), so only outcome "served"
// is audited.
func (r *DeviceReport) auditTransferPairing(cfg Config, in DeviceInput, sessions []radioSession) {
	var served []tracing.Event
	for _, e := range in.Events {
		if e.Kind == tracing.KindTransfer && e.Outcome == "served" {
			served = append(served, e)
		}
	}
	if len(served) == 0 {
		return
	}
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].start < sessions[j].start })
	sort.SliceStable(served, func(i, j int) bool { return served[i].Time < served[j].Time })
	bad := 0
	var first string
	next := 0 // next session to fold into the envelope
	covered := false
	var cover simtime.Instant
	for _, e := range served {
		for next < len(sessions) && sessions[next].start <= e.Time {
			if !covered || sessions[next].end > cover {
				cover = sessions[next].end
			}
			covered = true
			next++
		}
		if covered && e.Time <= cover {
			if end := e.Time.Add(e.Dur); end > cover {
				cover = end
			}
			continue
		}
		if bad == 0 {
			first = fmt.Sprintf("first: activity %d at t=%d", e.Activity, int64(e.Time))
		}
		bad++
	}
	if bad > 0 {
		r.addFinding(cfg, Finding{
			Check:    "transfer-radio-pairing",
			Severity: SeverityError,
			Count:    bad,
			Detail:   fmt.Sprintf("%d served transfers outside any commanded radio session (%s)", bad, first),
		})
	}
}

// auditSchedCapacity checks Eq. 5 from the trace alone: no sched-slot
// may be loaded past its capacity, and the per-slot loads the scheduler
// reported must equal the sum of the decisions it emitted for that run.
func (r *DeviceReport) auditSchedCapacity(cfg Config, in DeviceInput) {
	overCap, inconsistent := 0, 0
	var firstOver, firstInc string
	decided := map[int]int64{} // slot -> bytes since the last sched-run
	recorded := map[int]int64{}
	for _, e := range in.Events {
		switch e.Kind {
		case tracing.KindSchedDecision:
			decided[e.Slot] += e.Bytes
		case tracing.KindSchedSlot:
			recorded[e.Slot] = e.Bytes
			if e.Bytes > e.Cap {
				if overCap == 0 {
					firstOver = fmt.Sprintf("first: slot %d at t=%d loaded %d of %d", e.Slot, int64(e.Time), e.Bytes, e.Cap)
				}
				overCap++
			}
		case tracing.KindSchedRun:
			slots := map[int]bool{}
			for s := range decided {
				slots[s] = true
			}
			for s := range recorded {
				slots[s] = true
			}
			ordered := make([]int, 0, len(slots))
			for s := range slots {
				ordered = append(ordered, s)
			}
			sort.Ints(ordered)
			for _, slot := range ordered {
				if decided[slot] != recorded[slot] {
					if inconsistent == 0 {
						firstInc = fmt.Sprintf("first: slot %d decisions sum %d, slot event says %d",
							slot, decided[slot], recorded[slot])
					}
					inconsistent++
				}
			}
			decided = map[int]int64{}
			recorded = map[int]int64{}
		}
	}
	if overCap > 0 {
		r.addFinding(cfg, Finding{
			Check:    "sched-capacity",
			Severity: SeverityError,
			Count:    overCap,
			Detail:   fmt.Sprintf("%d slots loaded past Eq. 5 capacity (%s)", overCap, firstOver),
		})
	}
	if inconsistent > 0 {
		r.addFinding(cfg, Finding{
			Check:    "sched-slot-consistency",
			Severity: SeverityError,
			Count:    inconsistent,
			Detail:   fmt.Sprintf("%d slots whose decision sums disagree with the recorded load (%s)", inconsistent, firstInc),
		})
	}
}

// crossCheckMetrics reconciles the trace-derived totals with the
// device's exported counters. A disagreement means the two telemetry
// paths diverged — an instrumentation bug, not a policy property.
func (r *DeviceReport) crossCheckMetrics(cfg Config, in DeviceInput) {
	if in.Metrics == nil {
		return
	}
	var transfers, bytes, activeSecs int64
	for _, a := range r.Apps {
		transfers += a.Transfers
		bytes += a.Bytes
		activeSecs += a.ActiveSecs
	}
	var wakes, sessions int64
	for _, e := range in.Events {
		switch e.Kind {
		case tracing.KindDutyWake:
			wakes++
		case tracing.KindRadioSession:
			sessions++
		}
	}
	check := func(name string, got int64) {
		want, ok := in.Metrics.Counters[name]
		if !ok {
			return
		}
		if got != want {
			r.addFinding(cfg, Finding{
				Check:    "metrics-mismatch",
				Severity: SeverityError,
				Count:    1,
				Detail:   fmt.Sprintf("trace-derived %s = %d but counter says %d", name, got, want),
			})
		}
	}
	check("replay_transfers_total", transfers)
	check("replay_burst_seconds_total", activeSecs)
	check("replay_deferrals_total", int64(len(r.deferSecs)))
	check("replay_wake_windows_total", wakes)
	check("replay_radio_sessions_total", sessions)
	if down, ok := in.Metrics.Counters["replay_bytes_down_total"]; ok {
		if up, ok := in.Metrics.Counters["replay_bytes_up_total"]; ok {
			if bytes != down+up {
				r.addFinding(cfg, Finding{
					Check:    "metrics-mismatch",
					Severity: SeverityError,
					Count:    1,
					Detail:   fmt.Sprintf("trace-derived bytes = %d but counters say %d down + %d up", bytes, down, up),
				})
			}
		}
	}
}

// FleetReport rolls device analyses up to the cohort: integer totals
// sum exactly, the deferral distribution is recomputed from the exact
// pooled waits, and findings concatenate in device order.
type FleetReport struct {
	Devices   int            `json:"devices"`
	DeviceIDs []string       `json:"device_ids"`
	Events    int            `json:"events"`
	Truncated int            `json:"truncated_traces"`
	Apps      []AppEnergy    `json:"apps"`
	Slots     []SlotScore    `json:"slots"`
	Deferrals DeferStats     `json:"deferrals"`
	Thrash    ThrashStats    `json:"thrash"`
	Findings  []Finding      `json:"findings"`
	PerDevice []DeviceReport `json:"per_device"`
}

// Errors counts error-severity findings across the fleet (the -check
// exit condition).
func (f FleetReport) Errors() int {
	n := 0
	for _, fd := range f.Findings {
		if fd.Severity == SeverityError {
			n++
		}
	}
	return n
}
