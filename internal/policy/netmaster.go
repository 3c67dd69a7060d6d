// NetMaster: the paper's middleware as a replayable policy. Each day it
// mines the history available so far (the mining component), predicts the
// user active slot set U and the screen-off network active slots Tn, runs
// the overlapped-knapsack scheduler (the scheduling component's decision
// making), and covers mispredictions with the exponential duty cycle and
// the Special-Apps allowlist (real-time adjustment).
package policy

import (
	"fmt"
	"math"
	"sort"

	"netmaster/internal/core"
	"netmaster/internal/device"
	"netmaster/internal/dutycycle"
	"netmaster/internal/habit"
	"netmaster/internal/metrics"
	"netmaster/internal/power"
	"netmaster/internal/simtime"
	"netmaster/internal/trace"
	"netmaster/internal/tracing"
)

// NetMasterConfig parameterises the middleware.
type NetMasterConfig struct {
	// Habit configures mining (slot width, weekday/weekend δ).
	Habit habit.Config
	// Eps is the scheduler's ε (paper: 0.1).
	Eps float64
	// BandwidthBps is the carrier bandwidth behind C(ti) = B·|ti|.
	BandwidthBps float64
	// PenaltyRateWattEq is the e_t scaling factor of Eq. 4.
	PenaltyRateWattEq float64
	// Model is the cellular radio model used for ΔE and tail decisions.
	Model *power.Model
	// WiFi optionally enables dual-radio operation: the knapsack gains a
	// per-slot network choice and every execution is offloaded to Wi-Fi
	// when coverage spans it. Nil (the default) keeps the middleware
	// cellular-only and its plans byte-identical to the historical ones;
	// the same holds with WiFi set over a trace without coverage.
	WiFi *power.WiFiModel
	// History is an optional pre-collected trace of the same user (the
	// paper gathered weeks of traces before enabling NetMaster); it
	// must cover whole weeks so weekday alignment is preserved. With a
	// history the middleware schedules from day one.
	History *trace.Trace
	// MinTrainDays is the warm-up: days with less history run
	// unmanaged (the monitor only records).
	MinTrainDays int

	// Duty cycle parameters: initial sleep T (paper: 30 s), the backoff
	// cap and the wake listen window.
	DutyInitialSleep simtime.Duration
	DutyMaxSleep     simtime.Duration
	DutyWakeWindow   simtime.Duration
	// TailCutSecs is the radio-off latency after a managed burst: the
	// scheduling component polls TELEPHONY_SERVICE and issues
	// "svc data disable" once no transmission is detected.
	TailCutSecs float64

	// Ablation switches (all false in the paper's configuration).
	DisableScheduler   bool // skip knapsack scheduling; duty cycle only
	DisableDutyCycle   bool // unpredicted activities run immediately
	DisableSpecialApps bool // empty allowlist: every blocked want is wrong

	// Metrics and Tracing flow through to the core scheduler so each
	// knapsack run records its decisions (KindSchedDecision events and
	// sched_* counters). Optional; nil disables the instrumentation.
	Metrics *metrics.Registry
	Tracing *tracing.Sink
}

// DefaultNetMasterConfig returns the paper's evaluation settings for the
// given radio model.
func DefaultNetMasterConfig(m *power.Model) NetMasterConfig {
	return NetMasterConfig{
		Habit:             habit.DefaultConfig(),
		Eps:               0.1,
		BandwidthBps:      256 * 1024,
		PenaltyRateWattEq: 0.0005,
		Model:             m,
		MinTrainDays:      1,
		DutyInitialSleep:  30 * simtime.Second,
		DutyMaxSleep:      7680 * simtime.Second,
		DutyWakeWindow:    2 * simtime.Second,
		TailCutSecs:       0.5,
	}
}

// NetMaster implements device.Policy.
type NetMaster struct {
	cfg NetMasterConfig
}

// NewNetMaster validates the configuration and builds the policy.
func NewNetMaster(cfg NetMasterConfig) (*NetMaster, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("policy: netmaster needs a power model")
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if cfg.WiFi != nil {
		if err := cfg.WiFi.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.Eps <= 0 || cfg.Eps >= 1 {
		return nil, fmt.Errorf("policy: netmaster eps %v outside (0,1)", cfg.Eps)
	}
	if cfg.BandwidthBps <= 0 {
		return nil, fmt.Errorf("policy: netmaster non-positive bandwidth")
	}
	if cfg.MinTrainDays < 1 {
		return nil, fmt.Errorf("policy: netmaster needs at least 1 warm-up day")
	}
	if cfg.DutyInitialSleep <= 0 || cfg.DutyWakeWindow <= 0 {
		return nil, fmt.Errorf("policy: netmaster invalid duty-cycle timings")
	}
	if cfg.TailCutSecs < 0 {
		return nil, fmt.Errorf("policy: netmaster negative tail cut")
	}
	if cfg.History != nil && cfg.History.Days%7 != 0 {
		return nil, fmt.Errorf("policy: netmaster history must cover whole weeks, got %d days", cfg.History.Days)
	}
	return &NetMaster{cfg: cfg}, nil
}

// Name implements device.Policy.
func (n *NetMaster) Name() string { return "netmaster" }

// Plan implements device.Policy.
func (n *NetMaster) Plan(t *trace.Trace) (*device.Plan, error) {
	p := &device.Plan{
		PolicyName:          n.Name(),
		Trace:               t,
		SpecialAppWhitelist: map[trace.AppID]bool{},
	}
	if !n.cfg.DisableSpecialApps {
		for _, app := range habit.DetectSpecialApps(t) {
			p.SpecialAppWhitelist[app] = true
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}

	// One profile sketch for the whole replay: the pre-collected history
	// folds once up front, and each replayed day folds in right after it
	// is planned. Day d's plan therefore sees exactly the history a
	// per-day re-mine of Append(History, PrefixDays(d)) would see — the
	// sketch's day counter equals the merged-trace day index, keeping
	// weekday alignment — but total mining work is O(trace) instead of
	// O(days²).
	sk, err := habit.NewSketch(t.UserID, n.cfg.Habit)
	if err != nil {
		return nil, err
	}
	var shift simtime.Instant
	if n.cfg.History != nil {
		hist := n.cfg.History
		if hist.UserID != t.UserID {
			// trace.Append adopts the replayed trace's user; match it.
			hist = hist.Clone()
			hist.UserID = t.UserID
		}
		if err := sk.FoldTrace(hist); err != nil {
			return nil, err
		}
		shift = simtime.Instant(n.cfg.History.Horizon())
	}

	for day := 0; day < t.Days; day++ {
		if err := n.planDay(p, t, day, sk, shift); err != nil {
			return nil, fmt.Errorf("policy: netmaster day %d: %w", day, err)
		}
		if err := sk.FoldTraceDay(t, day); err != nil {
			return nil, fmt.Errorf("policy: netmaster day %d: %w", day, err)
		}
	}
	return p, nil
}

// dayActivities returns the indices of the trace's activities starting on
// the given day.
func dayActivities(t *trace.Trace, day int) []int {
	iv := simtime.Interval{Start: simtime.At(day, 0, 0, 0), End: simtime.At(day+1, 0, 0, 0)}
	var out []int
	for i, a := range t.Activities {
		if iv.Contains(a.Start) {
			out = append(out, i)
		}
	}
	return out
}

func (n *NetMaster) planDay(p *device.Plan, t *trace.Trace, day int, sk *habit.Sketch, shift simtime.Instant) error {
	indices := dayActivities(t, day)

	// Warm-up: not enough history, run unmanaged while the monitor
	// records.
	histDays := day
	if n.cfg.History != nil {
		histDays += n.cfg.History.Days
	}
	if histDays < n.cfg.MinTrainDays {
		for _, i := range indices {
			p.Executions = append(p.Executions, device.Execution{
				Index: i, ExecStart: t.Activities[i].Start, TailCutSecs: power.FullTail,
			})
		}
		return nil
	}

	// Mining component: hour-level prediction from history only — the
	// sketch holds the pre-collected trace (if any) plus the days already
	// replayed, so materialising the profile is O(sketch state).
	profile := sk.Profile()
	// Prediction happens at the merged-trace day index (the sketch's own
	// day counter); slot intervals come back in merged time and are
	// shifted to replay time.
	predDay := sk.Days()
	u := shiftIntervals(profile.PredictedActiveSlots(predDay), -shift)
	dayIv := simtime.Interval{Start: simtime.At(day, 0, 0, 0), End: simtime.At(day+1, 0, 0, 0)}
	for _, b := range complementWithin(dayIv, u) {
		p.BlockedWindows = append(p.BlockedWindows, b)
	}

	// Classify the day's activities. The real-time adjustment owns the
	// radio whenever the screen is off — inside or outside U — so any
	// screen-off transfer the scheduler does not claim rides a duty
	// wake-up.
	var schedulable []core.Activity // knapsack candidates
	var dutyIdx []int               // real-time adjustment path
	byID := make(map[int]trace.NetworkActivity)
	for _, i := range indices {
		a := t.Activities[i]
		switch {
		case !a.Kind.IsBackground() || t.ScreenOnAt(a.Start):
			// Foreground / user-driven / streaming: untouched in time,
			// but the scheduling component reclaims the tail and
			// offloads the transfer when Wi-Fi covers it.
			p.Executions = append(p.Executions, device.Execution{
				Index: i, ExecStart: a.Start, TailCutSecs: n.cfg.TailCutSecs,
				Network: n.offloadNetwork(t, a.Start, a.Duration, a.Duration),
			})
		case a.Kind == trace.KindPush && p.SpecialAppWhitelist[a.App]:
			// Pushes for Special Apps are delivered at duty-cycle
			// cadence, never deferred into a far-away slot: the
			// real-time layer wakes the radio "to let Special Apps
			// use the network", which bounds notification latency —
			// the §VII hidden impact.
			dutyIdx = append(dutyIdx, i)
		case !containsIn(u, a.Start) && !n.cfg.DisableScheduler && n.predicted(profile, predDay, shift, a):
			schedulable = append(schedulable, core.Activity{
				ID:         i,
				Time:       a.Start,
				Bytes:      a.Bytes(),
				ActiveSecs: a.Duration.Seconds(),
				DeferOnly:  a.Kind == trace.KindPush,
			})
			byID[i] = a
		default:
			dutyIdx = append(dutyIdx, i)
		}
	}

	// Scheduling component: overlapped multiple knapsack over U.
	if len(schedulable) > 0 {
		sched, err := n.schedule(t, profile, shift, u, schedulable)
		if err != nil {
			return err
		}
		horizon := simtime.Instant(t.Horizon())
		if n.dualRadio(t) {
			n.emitScheduledDual(p, t, u, sched, byID, horizon)
		} else {
			cursors := make(map[int]simtime.Instant)
			for _, asg := range sched.Assignments {
				a := byID[asg.ActivityID]
				slot := u[asg.SlotIndex]
				// Scheduled transfers are compacted: the middleware
				// triggers the sync as one burst inside the active slot.
				dur := n.cfg.Model.CompactDuration(a.Bytes())
				cur, ok := cursors[asg.SlotIndex]
				if !ok {
					cur = slot.Start
				}
				if a.Kind == trace.KindPush && cur < a.Start {
					cur = a.Start
				}
				if cur.Add(dur) > horizon {
					cur = horizon.Add(-dur)
				}
				if a.Kind == trace.KindPush && cur < a.Start {
					// No room after arrival; run as recorded.
					p.Executions = append(p.Executions, device.Execution{
						Index: asg.ActivityID, ExecStart: a.Start, TailCutSecs: n.cfg.TailCutSecs,
					})
					continue
				}
				p.Executions = append(p.Executions, device.Execution{
					Index: asg.ActivityID, ExecStart: cur, Duration: dur, TailCutSecs: n.cfg.TailCutSecs,
				})
				cursors[asg.SlotIndex] = cur.Add(dur)
			}
		}
		p.PlannedSavingJ += sched.TotalSaved
		p.PlannedPenaltyJ += sched.TotalPenalty
		dutyIdx = append(dutyIdx, sched.Unscheduled...)
		sort.Ints(dutyIdx)
	}

	// Real-time adjustment: exponential duty cycle over every
	// screen-off period of the day.
	n.runDutyCycle(p, t, day, dutyIdx)
	return nil
}

// shiftIntervals translates a slot set by the given offset.
func shiftIntervals(ivs []simtime.Interval, by simtime.Instant) []simtime.Interval {
	out := make([]simtime.Interval, len(ivs))
	for i, iv := range ivs {
		out[i] = simtime.Interval{Start: iv.Start + by, End: iv.End + by}
	}
	return out
}

// predicted reports whether the activity's (slot, app) pair was network-
// active in history — i.e. the activity belongs to the predicted Tn.
// predDay and shift translate between replay time and merged-history time.
func (n *NetMaster) predicted(profile *habit.Profile, predDay int, shift simtime.Instant, a trace.NetworkActivity) bool {
	for _, pn := range profile.PredictedNetSlots(predDay) {
		if pn.App == a.App && pn.Slot.Contains(a.Start+shift) {
			return true
		}
	}
	return false
}

// schedule wires the core scheduler to the mined profile and radio
// models; shift translates replay-time instants into merged-history time
// for the probability lookups.
func (n *NetMaster) schedule(t *trace.Trace, profile *habit.Profile, shift simtime.Instant, u []simtime.Interval, acts []core.Activity) (*core.Schedule, error) {
	cfg := core.Config{
		Eps:               n.cfg.Eps,
		BandwidthBps:      n.cfg.BandwidthBps,
		PenaltyRateWattEq: n.cfg.PenaltyRateWattEq,
		ProbSlotWidth:     n.cfg.Habit.SlotWidth,
		Metrics:           n.cfg.Metrics,
		Tracing:           n.cfg.Tracing,
		SavedEnergy: func(a core.Activity) float64 {
			return n.cfg.Model.SavedEnergy(a.ActiveSecs)
		},
		UseProb: func(t simtime.Instant) float64 {
			return profile.UseProbAt(t + shift)
		},
	}
	if n.dualRadio(t) {
		cfg.WiFiSavedEnergy = PooledWiFiSaving(n.cfg.Model, n.cfg.WiFi)
		cfg.WiFiAvailable = t.WiFiCovers
	}
	s, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Schedule(u, acts)
}

// PooledWiFiSaving is the pooled-optimistic Wi-Fi profit the scheduler
// prices a Wi-Fi-covered placement with (core.Config.WiFiSavedEnergy).
// Such a placement still eliminates the isolated cellular burst (the
// same g(tj)), and on top moves the compacted transfer from the
// cellular batch to the pooled Wi-Fi sync of its slot. The extra term
// is the per-transfer marginal gap at the radios' batch rates — the
// association is amortized across the slot pool, so it is priced (and
// the whole pool re-checked) at execution assembly, not per candidate.
func PooledWiFiSaving(cell *power.Model, wifi *power.WiFiModel) func(core.Activity) float64 {
	return func(a core.Activity) float64 {
		cellSecs := cell.CompactDuration(a.Bytes).Seconds()
		pooledSecs := float64(a.Bytes) / wifi.BatchBps
		return cell.SavedEnergy(a.ActiveSecs) +
			cell.MarginalBurstEnergy(cellSecs) -
			wifi.MarginalBurstEnergy(pooledSecs)
	}
}

// dualRadio reports whether this replay runs the dual-radio machinery:
// a Wi-Fi model is configured and the trace actually has coverage.
// Everywhere it is false the planner takes the cellular-only code paths
// unchanged, which is what keeps those plans byte-identical.
func (n *NetMaster) dualRadio(t *trace.Trace) bool {
	return n.cfg.WiFi != nil && len(t.WiFi) > 0
}

// wifiDelta returns a conservative lower bound on the energy saved by
// moving one transfer from cellular to Wi-Fi. The Wi-Fi side is charged
// a full standalone burst — association and untrimmed high-power tail,
// as if it merged with nothing — while the cellular side is credited
// only its active transfer energy (as if it rode an existing batch with
// no promotion or tail of its own), minus the duty-cycle listen
// discount cellular bursts can absorb by overlapping wake windows.
// A positive delta therefore survives any batching context; gating
// per-transfer offloads on it keeps the dual-radio plan at least as
// cheap as the cellular-only plan it deviates from, instead of
// shredding batches across two radios and paying both sets of
// per-burst overheads.
func (n *NetMaster) wifiDelta(cellSecs, wifiSecs float64) float64 {
	return n.cfg.Model.MarginalBurstEnergy(cellSecs) -
		n.listenLossBound(cellSecs) -
		n.cfg.WiFi.StandaloneBurstEnergy(wifiSecs)
}

// listenLossBound bounds the duty-cycle listen energy a cellular burst
// span of the given length could have absorbed by overlapping wake
// windows — energy the device pays again when the span moves to the
// other NIC. A span of S seconds can touch at most 1 + S/sleep windows
// of the initial cadence, each for at most the window length.
func (n *NetMaster) listenLossBound(cellSecs float64) float64 {
	tails := n.cfg.Model.Tails
	if len(tails) == 0 {
		return 0
	}
	w := n.cfg.DutyWakeWindow.Seconds()
	windows := 1 + cellSecs/n.cfg.DutyInitialSleep.Seconds()
	return tails[len(tails)-1].PowerMW / 1000 * math.Min(cellSecs, w*windows)
}

// offloadNetwork picks the radio for a lone transfer occupying
// [at, at+cellDur) on cellular or [at, at+wifiDur) on Wi-Fi. It returns
// Wi-Fi only when dual-radio is enabled, coverage spans the longer
// cellular variant, and the conservative wifiDelta gate says the move is
// strictly profitable — which for typical small background transfers it
// is not: lone transfers stay cellular, and offloads happen at batch
// granularity (slotPool, wakePool) where the association amortizes.
// The zero-value return keeps cellular-only plans byte-identical.
func (n *NetMaster) offloadNetwork(t *trace.Trace, at simtime.Instant, cellDur, wifiDur simtime.Duration) power.Network {
	if n.cfg.WiFi == nil {
		return ""
	}
	if !t.WiFiCovers(simtime.Interval{Start: at, End: at.Add(cellDur)}) {
		return ""
	}
	if n.wifiDelta(cellDur.Seconds(), wifiDur.Seconds()) <= 0 {
		return ""
	}
	return power.NetworkWiFi
}

// emitScheduledDual realises knapsack assignments under dual-radio
// operation. Assignments are grouped per slot; a Wi-Fi-attributed slot
// batch becomes one pooled sync — every member rides a single shared
// window at the Wi-Fi batch rate, paying one association — when the
// batch-level gate holds, and is demoted to the cellular cursor walk
// (identical to the single-radio path) otherwise.
func (n *NetMaster) emitScheduledDual(p *device.Plan, t *trace.Trace, u []simtime.Interval, sched *core.Schedule, byID map[int]trace.NetworkActivity, horizon simtime.Instant) {
	var order []int
	groups := make(map[int][]core.Assignment)
	for _, asg := range sched.Assignments {
		if _, ok := groups[asg.SlotIndex]; !ok {
			order = append(order, asg.SlotIndex)
		}
		groups[asg.SlotIndex] = append(groups[asg.SlotIndex], asg)
	}
	for _, si := range order {
		members := groups[si]
		slot := u[si]
		if start, dur, ok := n.slotPool(t, slot, members, byID, horizon); ok {
			for _, asg := range members {
				p.Executions = append(p.Executions, device.Execution{
					Index: asg.ActivityID, ExecStart: start, Duration: dur,
					TailCutSecs: n.cfg.TailCutSecs, Network: power.NetworkWiFi,
				})
			}
			continue
		}
		cur := slot.Start
		for _, asg := range members {
			a := byID[asg.ActivityID]
			dur := n.cfg.Model.CompactDuration(a.Bytes())
			if a.Kind == trace.KindPush && cur < a.Start {
				cur = a.Start
			}
			if cur.Add(dur) > horizon {
				cur = horizon.Add(-dur)
			}
			if a.Kind == trace.KindPush && cur < a.Start {
				// No room after arrival; run as recorded.
				p.Executions = append(p.Executions, device.Execution{
					Index: asg.ActivityID, ExecStart: a.Start, TailCutSecs: n.cfg.TailCutSecs,
					Network: n.offloadNetwork(t, a.Start, a.Duration, a.Duration),
				})
				continue
			}
			p.Executions = append(p.Executions, device.Execution{
				Index: asg.ActivityID, ExecStart: cur, Duration: dur, TailCutSecs: n.cfg.TailCutSecs,
			})
			cur = cur.Add(dur)
		}
	}
}

// slotPool decides whether a slot's batch runs as one pooled Wi-Fi sync
// and, if so, where. The pool starts at the slot start (after the last
// push arrival in the batch — pushes cannot be prefetched) and moves the
// whole batch's bytes in one window at the Wi-Fi batch rate. The gate is
// conservative: Wi-Fi is charged a full standalone pool — association
// and untrimmed tail — plus the forfeited wake-listen discount, while
// cellular is credited only the batch's marginal transfer energy, as if
// it merged with surrounding traffic for free. A pool that clears this
// bar is cheaper in any batching context, so demotion can never make the
// dual-radio plan worse than the cellular-only one.
func (n *NetMaster) slotPool(t *trace.Trace, slot simtime.Interval, members []core.Assignment, byID map[int]trace.NetworkActivity, horizon simtime.Instant) (simtime.Instant, simtime.Duration, bool) {
	if !members[0].Network.IsWiFi() {
		return 0, 0, false
	}
	var totalBytes int64
	var cellSecs float64
	start := slot.Start
	for _, asg := range members {
		a := byID[asg.ActivityID]
		totalBytes += a.Bytes()
		cellSecs += n.cfg.Model.CompactDuration(a.Bytes()).Seconds()
		if a.Kind == trace.KindPush && a.Start > start {
			start = a.Start
		}
	}
	dur := n.cfg.WiFi.CompactDuration(totalBytes)
	if start.Add(dur) > horizon {
		start = horizon.Add(-dur)
	}
	if start < 0 {
		return 0, 0, false
	}
	for _, asg := range members {
		a := byID[asg.ActivityID]
		if a.Kind == trace.KindPush && start < a.Start {
			return 0, 0, false
		}
	}
	if !t.WiFiCovers(simtime.Interval{Start: start, End: start.Add(dur)}) {
		return 0, 0, false
	}
	gain := n.cfg.Model.MarginalBurstEnergy(cellSecs) -
		n.listenLossBound(cellSecs) -
		n.cfg.WiFi.StandaloneBurstEnergy(dur.Seconds())
	if gain <= 0 {
		return 0, 0, false
	}
	return start, dur, true
}

// runDutyCycle executes the remaining screen-off activities at duty-cycle
// wake-ups and records the wake windows' radio cost. The duty cycle owns
// the radio for the whole screen-off time of the day.
func (n *NetMaster) runDutyCycle(p *device.Plan, t *trace.Trace, day int, dutyIdx []int) {
	horizon := simtime.Instant(t.Horizon())
	if n.cfg.DisableDutyCycle {
		for _, i := range dutyIdx {
			a := t.Activities[i]
			p.Executions = append(p.Executions, device.Execution{
				Index: i, ExecStart: a.Start, TailCutSecs: n.cfg.TailCutSecs,
				Network: n.offloadNetwork(t, a.Start, a.Duration, a.Duration),
			})
		}
		return
	}
	dayIv := simtime.Interval{Start: simtime.At(day, 0, 0, 0), End: simtime.At(day+1, 0, 0, 0)}

	// Gaps: day ∩ screen-off.
	var covered []simtime.Interval
	for _, s := range t.Sessions {
		iv := s.Interval.Intersect(dayIv)
		if !iv.IsEmpty() {
			covered = append(covered, iv)
		}
	}
	gaps := complementWithin(dayIv, simtime.MergeIntervals(covered))

	// Pending activities per gap, in time order.
	pendingIn := func(g simtime.Interval) []int {
		var out []int
		for _, i := range dutyIdx {
			if g.Contains(t.Activities[i].Start) {
				out = append(out, i)
			}
		}
		sort.Slice(out, func(x, y int) bool { return t.Activities[out[x]].Start < t.Activities[out[y]].Start })
		return out
	}

	handled := make(map[int]bool)
	for _, g := range gaps {
		pending := pendingIn(g)
		scheme, _ := dutycycle.NewExponential(n.cfg.DutyInitialSleep, n.cfg.DutyMaxSleep)
		cursor := 0
		wakeAt := g.Start
		for {
			sleep := scheme.NextSleep()
			wakeAt = wakeAt.Add(sleep)
			if wakeAt >= g.End {
				break
			}
			window := simtime.Interval{Start: wakeAt, End: wakeAt.Add(n.cfg.DutyWakeWindow)}
			if window.End > g.End {
				window.End = g.End
			}
			p.WakeWindows = append(p.WakeWindows, window)
			// Collect everything this wake serves first: the duty batch
			// is the offload unit, so its radio is decided as a whole.
			var batch []dutyServe
			var batchBytes int64
			exec := wakeAt
			for cursor < len(pending) && t.Activities[pending[cursor]].Start <= wakeAt {
				i := pending[cursor]
				a := t.Activities[i]
				dur := n.cfg.Model.CompactDuration(a.Bytes())
				if exec.Add(dur) > horizon {
					exec = horizon.Add(-dur)
				}
				if exec < a.Start {
					exec = a.Start
				}
				batch = append(batch, dutyServe{idx: i, exec: exec, dur: dur})
				batchBytes += a.Bytes()
				handled[i] = true
				exec = exec.Add(dur)
				cursor++
			}
			n.emitWakeBatch(p, t, window, batch, batchBytes, horizon)
			if len(batch) > 0 {
				scheme.Reset()
			}
			wakeAt = window.End
		}
	}
	// Activities arriving after the last wake of their gap (or outside
	// every gap) run when the radio is next enabled: the gap end.
	for _, i := range dutyIdx {
		if handled[i] {
			continue
		}
		a := t.Activities[i]
		exec := a.Start
		dur := n.cfg.Model.CompactDuration(a.Bytes())
		for _, g := range gaps {
			if g.Contains(a.Start) {
				exec = g.End
				break
			}
		}
		if exec.Add(dur) > horizon {
			exec = horizon.Add(-dur)
		}
		if exec < a.Start {
			// No room to compact after arrival; run as recorded.
			p.Executions = append(p.Executions, device.Execution{
				Index: i, ExecStart: a.Start, TailCutSecs: n.cfg.TailCutSecs,
				Network: n.offloadNetwork(t, a.Start, a.Duration, a.Duration),
			})
			continue
		}
		wdur := dur
		if n.cfg.WiFi != nil {
			wdur = n.cfg.WiFi.CompactDuration(a.Bytes())
		}
		net := n.offloadNetwork(t, exec, dur, wdur)
		if net.IsWiFi() {
			dur = wdur
		}
		p.Executions = append(p.Executions, device.Execution{
			Index: i, ExecStart: exec, Duration: dur, TailCutSecs: n.cfg.TailCutSecs,
			Network: net,
		})
	}
}

// dutyServe is one transfer a duty wake serves: its activity index and
// the position it takes in the wake's cellular burst train.
type dutyServe struct {
	idx  int
	exec simtime.Instant
	dur  simtime.Duration
}

// emitWakeBatch realises one duty wake's served batch: pooled onto Wi-Fi
// as a single shared window when the exact batch-level comparison says
// the pool is cheaper, on the cellular burst train otherwise (bit
// positions identical to the single-radio planner's).
func (n *NetMaster) emitWakeBatch(p *device.Plan, t *trace.Trace, window simtime.Interval, batch []dutyServe, batchBytes int64, horizon simtime.Instant) {
	if len(batch) == 0 {
		return
	}
	if n.dualRadio(t) {
		if start, dur, ok := n.wakePool(t, window, batch, batchBytes, horizon); ok {
			for _, s := range batch {
				p.Executions = append(p.Executions, device.Execution{
					Index: s.idx, ExecStart: start, Duration: dur,
					TailCutSecs: n.cfg.TailCutSecs, Network: power.NetworkWiFi,
				})
			}
			return
		}
	}
	for _, s := range batch {
		p.Executions = append(p.Executions, device.Execution{
			Index: s.idx, ExecStart: s.exec, Duration: s.dur, TailCutSecs: n.cfg.TailCutSecs,
		})
	}
}

// wakePool decides whether a duty wake's batch runs as one pooled Wi-Fi
// sync. Unlike slot pools, the cellular side here is exact, not a bound:
// duty batches sit alone on the cellular timeline (consecutive wakes are
// at least the initial sleep apart, longer than the full tail train, and
// the gap-end leftovers next to session traffic take the per-transfer
// path), so the batch's standalone timeline energy minus the wake-listen
// overlap it discounts is precisely what offloading relieves. The Wi-Fi
// side pays the pooled window plus a margin for the neighbouring burst
// that may lose its cheap from-tail promotion when the batch vanishes
// from the cellular timeline.
func (n *NetMaster) wakePool(t *trace.Trace, window simtime.Interval, batch []dutyServe, batchBytes int64, horizon simtime.Instant) (simtime.Instant, simtime.Duration, bool) {
	start := batch[0].exec
	dur := n.cfg.WiFi.CompactDuration(batchBytes)
	if start.Add(dur) > horizon {
		start = horizon.Add(-dur)
	}
	if start < 0 {
		return 0, 0, false
	}
	for _, s := range batch {
		if start < t.Activities[s.idx].Start {
			return 0, 0, false
		}
	}
	if !t.WiFiCovers(simtime.Interval{Start: start, End: start.Add(dur)}) {
		return 0, 0, false
	}

	bursts := make([]power.Burst, len(batch))
	ivs := make([]simtime.Interval, len(batch))
	for i, s := range batch {
		iv := simtime.Interval{Start: s.exec, End: s.exec.Add(s.dur)}
		bursts[i] = power.Burst{Interval: iv, TailCutSecs: n.cfg.TailCutSecs}
		ivs[i] = iv
	}
	cellCost := n.cfg.Model.EnergyOfTimeline(bursts).EnergyJ
	if tails := n.cfg.Model.Tails; len(tails) > 0 {
		var overlap float64
		for _, iv := range simtime.MergeIntervals(ivs) {
			overlap += window.Intersect(iv).Len().Seconds()
		}
		cellCost -= tails[len(tails)-1].PowerMW / 1000 * overlap
	}

	wifiCost := n.cfg.WiFi.EnergyOfTimeline([]power.Burst{{
		Interval:    simtime.Interval{Start: start, End: start.Add(dur)},
		TailCutSecs: n.cfg.TailCutSecs,
	}}).EnergyJ
	if len(n.cfg.Model.PromoFromTail) > 0 {
		margin := n.cfg.Model.PromoFromIdle.Energy() - n.cfg.Model.PromoFromTail[0].Energy()
		if margin > 0 {
			wifiCost += margin
		}
	}
	if cellCost <= wifiCost {
		return 0, 0, false
	}
	return start, dur, true
}

// containsIn reports whether t lies in any interval of the sorted set.
func containsIn(ivs []simtime.Interval, t simtime.Instant) bool {
	for _, iv := range ivs {
		if iv.Contains(t) {
			return true
		}
	}
	return false
}

// complementWithin returns the parts of outer not covered by the sorted
// disjoint intervals inner.
func complementWithin(outer simtime.Interval, inner []simtime.Interval) []simtime.Interval {
	var out []simtime.Interval
	cur := outer.Start
	for _, iv := range inner {
		clipped := iv.Intersect(outer)
		if clipped.IsEmpty() {
			continue
		}
		if clipped.Start > cur {
			out = append(out, simtime.Interval{Start: cur, End: clipped.Start})
		}
		if clipped.End > cur {
			cur = clipped.End
		}
	}
	if cur < outer.End {
		out = append(out, simtime.Interval{Start: cur, End: outer.End})
	}
	return out
}
