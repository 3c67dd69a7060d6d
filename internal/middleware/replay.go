// Online replay: drive the middleware Service over a trace's event stream
// exactly as it would run on the device — broadcast receivers for events,
// timer ticks for duty-cycle wake-ups and nightly mining — and derive the
// execution plan its commands imply. This is the deployment-mode
// counterpart of the offline policy in internal/policy: the offline
// NetMaster plans each day with hindsight-free history, while the online
// service reacts event by event. The integration tests compare the two.
//
// Two entry points share one engine. Replay is the happy path: every
// command takes effect instantly. ReplayChaos threads a seeded fault
// injector (internal/faults) through every effect boundary — event
// delivery, radio commands, triggered syncs, deferred transfers, record
// writes, mining — and layers the recovery machinery on top: bounded
// retries with exponential backoff and deterministic jitter, a hard
// deferral deadline so no screen-off transfer waits past a configurable
// bound, and the service's degraded modes. Because both paths run the
// same engine and every fault hook is a no-op under a zero schedule, a
// chaos replay with no faults is bit-identical to Replay — which the
// chaos tests assert.
package middleware

import (
	"fmt"
	"slices"
	"sort"

	"netmaster/internal/cfgerr"
	"netmaster/internal/core"
	"netmaster/internal/device"
	"netmaster/internal/faults"
	"netmaster/internal/power"
	"netmaster/internal/simtime"
	"netmaster/internal/trace"
)

// ReplayConfig extends the service configuration with the replay-level
// parameters the execution derivation needs.
type ReplayConfig struct {
	Service Config
	// Model converts volumes to compact burst durations.
	Model *power.Model
	// WiFi optionally enables dual-radio serving. Network selection
	// happens at execution time, not deferral time: when a radio window
	// opens, the pending batch is pooled onto the Wi-Fi NIC only if
	// coverage spans the pooled burst right then — and, under chaos, the
	// NIC is not inside an injected Wi-Fi outage — falling back to the
	// cellular burst train otherwise. Nil keeps the replay cellular-only
	// and its plans byte-identical.
	WiFi *power.WiFiModel
	// DutyWakeWindow is the radio-on listening window at each wake.
	DutyWakeWindow simtime.Duration
	// TailCutSecs is the radio-off latency after a managed burst.
	TailCutSecs float64
	// RollingPlan maintains a rolling per-day schedule of the background
	// arrivals via delta rescheduling (core.ScheduleDelta) once the
	// service has mined a profile. Purely observational: the executed
	// plan is unchanged; the result's Rolling field reports how much
	// knapsack work the delta path skipped. Default off.
	RollingPlan bool
}

// DefaultReplayConfig returns deployment defaults matching the offline
// policy's.
func DefaultReplayConfig(model *power.Model) ReplayConfig {
	return ReplayConfig{
		Service:        DefaultConfig(),
		Model:          model,
		DutyWakeWindow: 2 * simtime.Second,
		TailCutSecs:    0.5,
	}
}

// Validate checks the replay configuration — including the embedded
// service config — returning typed field errors.
func (c ReplayConfig) Validate() error {
	var es cfgerr.Errors
	if c.Model == nil {
		es = append(es, cfgerr.New("middleware.ReplayConfig", "Model", nil, "power model required"))
	} else if err := c.Model.Validate(); err != nil {
		es = append(es, cfgerr.New("middleware.ReplayConfig", "Model", c.Model.Name, err.Error()))
	}
	if c.WiFi != nil {
		if err := c.WiFi.Validate(); err != nil {
			es = append(es, cfgerr.New("middleware.ReplayConfig", "WiFi", c.WiFi.Name, err.Error()))
		}
	}
	if c.DutyWakeWindow <= 0 {
		es = append(es, cfgerr.New("middleware.ReplayConfig", "DutyWakeWindow",
			c.DutyWakeWindow, "must be positive"))
	}
	if c.TailCutSecs < 0 {
		es = append(es, cfgerr.New("middleware.ReplayConfig", "TailCutSecs",
			c.TailCutSecs, "must be non-negative"))
	}
	if err := c.Service.Validate(); err != nil {
		if sub, ok := err.(cfgerr.Errors); ok {
			es = append(es, sub...)
		} else if fe, ok := cfgerr.Field(err); ok {
			es = append(es, fe)
		} else {
			es = append(es, cfgerr.New("middleware.ReplayConfig", "Service", nil, err.Error()))
		}
	}
	return es.Err()
}

// ReplayResult is the online run's outcome.
type ReplayResult struct {
	Plan *device.Plan
	// Commands is the full command log the service issued.
	Commands []Command
	// Service is the final service state (profile, special apps, DB).
	Service *Service
	// Rolling is the rolling planner's cumulative delta statistics
	// (zero unless ReplayConfig.RollingPlan was set).
	Rolling core.DeltaStats
}

// RetryPolicy bounds the executor's re-attempts at a failed radio
// command or triggered sync: exponential backoff from InitialBackoff to
// MaxBackoff with deterministic jitter (faults.Backoff), giving up
// after MaxAttempts.
type RetryPolicy struct {
	MaxAttempts    int
	InitialBackoff simtime.Duration
	MaxBackoff     simtime.Duration
}

// DefaultRetryPolicy matches a handset's svc-command retry loop: four
// attempts backing off 1 s → 30 s.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, InitialBackoff: simtime.Second, MaxBackoff: 30 * simtime.Second}
}

// Validate checks the retry policy, returning typed field errors.
func (r RetryPolicy) Validate() error {
	var es cfgerr.Errors
	if r.MaxAttempts <= 0 {
		es = append(es, cfgerr.New("middleware.RetryPolicy", "MaxAttempts",
			r.MaxAttempts, "must be positive"))
	}
	if r.InitialBackoff <= 0 {
		es = append(es, cfgerr.New("middleware.RetryPolicy", "InitialBackoff",
			r.InitialBackoff, "must be positive"))
	} else if r.MaxBackoff < r.InitialBackoff {
		es = append(es, cfgerr.New("middleware.RetryPolicy", "MaxBackoff",
			r.MaxBackoff, fmt.Sprintf("must be at least InitialBackoff (%v)", r.InitialBackoff)))
	}
	return es.Err()
}

// ChaosConfig parameterises a fault-injected online replay.
type ChaosConfig struct {
	Replay ReplayConfig
	// Faults is the seeded fault schedule.
	Faults faults.Config
	// Retry bounds command re-attempts.
	Retry RetryPolicy
	// MaxDeferral is the hard deadline: a screen-off transfer that has
	// waited this long past its arrival is force-executed instead of
	// waiting for the next radio window, bounding deferral latency even
	// when every wake-up fails.
	MaxDeferral simtime.Duration
}

// DefaultChaosConfig returns a chaos configuration whose deadline sits
// well above the duty cycle's longest sleep, so it never fires in a
// fault-free run (keeping the no-fault chaos replay bit-identical to
// Replay) but bounds deferral as soon as wake-ups start failing.
func DefaultChaosConfig(model *power.Model) ChaosConfig {
	rc := DefaultReplayConfig(model)
	return ChaosConfig{
		Replay:      rc,
		Retry:       DefaultRetryPolicy(),
		MaxDeferral: 4 * rc.Service.DutyMaxSleep,
	}
}

// Validate checks the chaos configuration — the replay config, the
// retry policy and the deferral deadline — returning typed field errors.
func (c ChaosConfig) Validate() error {
	var es cfgerr.Errors
	collect := func(err error) {
		if err == nil {
			return
		}
		if sub, ok := err.(cfgerr.Errors); ok {
			es = append(es, sub...)
		} else if fe, ok := cfgerr.Field(err); ok {
			es = append(es, fe)
		} else {
			es = append(es, cfgerr.New("middleware.ChaosConfig", "Replay", nil, err.Error()))
		}
	}
	collect(c.Replay.Validate())
	collect(c.Retry.Validate())
	if c.MaxDeferral <= 0 {
		es = append(es, cfgerr.New("middleware.ChaosConfig", "MaxDeferral",
			c.MaxDeferral, "must be positive"))
	}
	return es.Err()
}

// CommandRecord is one issued command with its execution outcome under
// the fault schedule.
type CommandRecord struct {
	Command
	// Attempts is how many executions were tried (1 = first try took).
	Attempts int
	// Applied reports whether the command finally took effect.
	Applied bool
	// AppliedAt is when it took effect; retries shift it past
	// Command.Time by the accumulated backoff.
	AppliedAt simtime.Instant
}

// ChaosResult is the fault-injected run's outcome: the plain replay
// result plus the health counters, the injector's statistics, and the
// annotated command log.
type ChaosResult struct {
	*ReplayResult
	// Health aggregates the service- and executor-side fault counters.
	Health Health
	// Faults is the injector's per-boundary decision statistics.
	Faults faults.Stats
	// Log annotates every issued command with its execution outcome.
	Log []CommandRecord
	// FinalRadioOn is the executor's ground-truth radio state at the
	// end of the run; folding the Applied commands of Log must yield
	// exactly this value (the radio-state consistency invariant).
	FinalRadioOn bool
}

// Replay runs the service over the trace and derives the executed plan:
// foreground transfers run as recorded; screen-off background transfers
// wait for the next radio-enable command (a duty wake-up or the user
// turning the screen on) and then run as compact bursts.
func Replay(t *trace.Trace, cfg ReplayConfig) (*ReplayResult, error) {
	return replay(t, cfg, nil)
}

// ReplayChaos runs the service over the trace under the fault schedule,
// with the recovery machinery engaged. The same seed always reproduces
// the same run bit for bit.
func ReplayChaos(t *trace.Trace, cfg ChaosConfig) (*ChaosResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inj, err := faults.New(cfg.Faults)
	if err != nil {
		return nil, err
	}
	cs := &chaosState{cfg: cfg, inj: inj}
	rcfg := cfg.Replay
	// The service's own boundaries (record writes, mining) draw from
	// the same injector as the command executor: one seed, one schedule.
	rcfg.Service.Faults = inj
	res, err := replay(t, rcfg, cs)
	if err != nil {
		return nil, err
	}
	health := res.Service.Health()
	health.RadioRetries = cs.radioRetries
	health.SyncRetries = cs.syncRetries
	health.TransferRetries = cs.transferRetries
	health.RadioGiveUps = cs.radioGiveUps
	health.SyncGiveUps = cs.syncGiveUps
	health.DeadlineFlushes = cs.deadlineFlushes
	health.DroppedEvents = cs.droppedEvents
	health.DupEvents = cs.dupEvents
	health.ReorderedEvents = cs.reorderedEvents
	return &ChaosResult{
		ReplayResult: res,
		Health:       health,
		Faults:       inj.Stats(),
		Log:          cs.log,
		FinalRadioOn: cs.radioOn,
	}, nil
}

// chaosState is the executor side of a fault-injected replay: the
// modelled radio, the retry loop, the deferral deadline, and the
// counters that end up in Health.
type chaosState struct {
	cfg     ChaosConfig
	inj     *faults.Injector
	obs     *repObs
	horizon simtime.Instant

	log     []CommandRecord
	radioOn bool
	cmdSeq  uint64 // per-command jitter key

	radioRetries, syncRetries, transferRetries int
	radioGiveUps, syncGiveUps                  int
	deadlineFlushes                            int
	droppedEvents, dupEvents, reorderedEvents  int
}

// perturb applies the injector's event schedule to the delivery stream:
// dropped events vanish, duplicated events are delivered twice, and
// reordered events slip a bounded number of positions later (the
// service clamps their timestamps on delivery). Under a zero schedule
// the stream is returned in its original order.
func (cs *chaosState) perturb(events []Event) []Event {
	plan := cs.inj.EventSchedule(len(events))
	if plan == nil {
		return events
	}
	maxShift := 0
	for _, p := range plan {
		if p.Delay > maxShift {
			maxShift = p.Delay
		}
	}
	slots := make([][]Event, len(events)+maxShift)
	for i, e := range events {
		p := plan[i]
		if p.Drop {
			cs.droppedEvents++
			cs.obs.droppedEvents.Inc()
			continue
		}
		pos := i
		if p.Delay > 0 {
			cs.reorderedEvents++
			cs.obs.reorderedEvs.Inc()
			pos += p.Delay
		}
		slots[pos] = append(slots[pos], e)
		if p.Dup {
			cs.dupEvents++
			cs.obs.dupEvents.Inc()
			slots[pos] = append(slots[pos], e)
		}
	}
	out := make([]Event, 0, len(events))
	for _, s := range slots {
		out = append(out, s...)
	}
	return out
}

// execute carries out one command against the modelled radio: each
// attempt draws the fault schedule, a read-back after the attempt
// catches silent no-ops, and failed attempts retry after an
// exponential, deterministically jittered backoff until the budget or
// the horizon runs out.
func (cs *chaosState) execute(c Command) CommandRecord {
	rec := CommandRecord{Command: c, AppliedAt: c.Time}
	seq := cs.cmdSeq
	cs.cmdSeq++
	at := c.Time
	for attempt := 0; attempt < cs.cfg.Retry.MaxAttempts; attempt++ {
		rec.Attempts++
		ok := false
		switch c.Kind {
		case CmdRadioEnable:
			if cs.inj.Decide(faults.OpRadioEnable, at) == faults.OK {
				cs.radioOn = true
			}
			ok = cs.radioOn // read-back: a silent no-op left it down
		case CmdRadioDisable:
			if cs.inj.Decide(faults.OpRadioDisable, at) == faults.OK {
				cs.radioOn = false
			}
			ok = !cs.radioOn
		case CmdTriggerSync:
			// A sync can only be triggered over a radio that is
			// actually up.
			ok = cs.inj.Decide(faults.OpTriggerSync, at) == faults.OK && cs.radioOn
		}
		if ok {
			rec.Applied = true
			rec.AppliedAt = at
			break
		}
		switch c.Kind {
		case CmdTriggerSync:
			cs.syncRetries++
		default:
			cs.radioRetries++
		}
		cs.obs.retry(c.Kind, at, rec.Attempts)
		at = at.Add(faults.Backoff(cs.cfg.Retry.InitialBackoff, cs.cfg.Retry.MaxBackoff, attempt, seq))
		if at >= cs.horizon {
			break // no simulated time left to retry in
		}
	}
	if !rec.Applied {
		if c.Kind == CmdTriggerSync {
			cs.syncGiveUps++
		} else {
			cs.radioGiveUps++
		}
		cs.obs.giveUp(c, rec.Attempts)
	}
	cs.log = append(cs.log, rec)
	return rec
}

// replay is the shared engine behind Replay (cs == nil: every command
// takes effect instantly) and ReplayChaos (cs != nil: commands execute
// through the fault schedule with retries, the event stream is
// perturbed, and overdue transfers are force-flushed at the deferral
// deadline).
func replay(t *trace.Trace, cfg ReplayConfig, cs *chaosState) (*ReplayResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	svc, err := New(cfg.Service)
	if err != nil {
		return nil, err
	}
	events, err := EventsFromTrace(t, cfg.Service)
	if err != nil {
		return nil, err
	}

	res := &ReplayResult{Service: svc}
	plan := &device.Plan{PolicyName: "netmaster-online", Trace: t}
	res.Plan = plan

	// One observability bundle per replay; record is the single funnel
	// that both extends the plan and updates the replay_* totals, so the
	// metrics cannot disagree with the returned plan.
	obs := newRepObs(cfg.Service.Metrics, cfg.Service.Tracing)
	record := func(e device.Execution, reason string) {
		plan.Executions = append(plan.Executions, e)
		obs.execution(t.Activities[e.Index], e, reason)
	}

	horizon := simtime.Instant(t.Horizon())
	if cs != nil {
		cs.horizon = horizon
		cs.obs = obs
		plan.PolicyName = "netmaster-online-chaos"
		events = cs.perturb(events)
	}

	// Pending screen-off background transfers, by activity index.
	var pending []int
	nextBg := 0 // next background activity to watch for
	var roller *rollingState
	if cfg.RollingPlan {
		roller = &rollingState{model: cfg.Model}
	}
	// arrive registers one background transfer as pending and, with the
	// rolling planner on, folds it into the day's delta-maintained plan.
	arrive := func(idx int) error {
		pending = append(pending, idx)
		if roller == nil {
			return nil
		}
		return roller.observe(t, svc, idx)
	}
	type bgRef struct {
		index int
		at    simtime.Instant
	}
	var bgQueue []bgRef
	for i, a := range t.Activities {
		if a.Kind.IsBackground() && !t.ScreenOnAt(a.Start) {
			bgQueue = append(bgQueue, bgRef{index: i, at: a.Start})
		} else {
			record(device.Execution{
				Index: i, ExecStart: a.Start, TailCutSecs: cfg.TailCutSecs,
			}, "foreground")
		}
	}

	// offloadBatch decides whether a served batch runs as one pooled
	// Wi-Fi sync. Availability is checked at execution time: the trace
	// must record coverage over the pooled window right now, and under
	// chaos the NIC must not sit inside an injected Wi-Fi outage —
	// otherwise the batch falls back to the cellular burst train instead
	// of being scheduled onto an unreachable network. The energy gate
	// compares full timelines: the cellular side pays its promotion and
	// tail train (minus the wake-listen discount it would overlap), the
	// Wi-Fi side pays association, pool and tail plus the promotion
	// margin a neighbouring cellular burst loses when this batch stops
	// keeping the RRC machine warm.
	type servedRef struct {
		idx  int
		exec simtime.Instant
		dur  simtime.Duration
	}
	offloadBatch := func(at simtime.Instant, batch []servedRef, totalBytes int64) (simtime.Instant, simtime.Duration, bool) {
		if cfg.WiFi == nil || len(t.WiFi) == 0 || len(batch) == 0 {
			return 0, 0, false
		}
		if cs != nil && cs.inj.WiFiDown(at) {
			return 0, 0, false
		}
		start := batch[0].exec
		dur := cfg.WiFi.CompactDuration(totalBytes)
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
		pool := simtime.Interval{Start: start, End: start.Add(dur)}
		if !t.WiFiCovers(pool) {
			return 0, 0, false
		}

		bursts := make([]power.Burst, len(batch))
		ivs := make([]simtime.Interval, len(batch))
		for i, s := range batch {
			iv := simtime.Interval{Start: s.exec, End: s.exec.Add(s.dur)}
			bursts[i] = power.Burst{Interval: iv, TailCutSecs: cfg.TailCutSecs}
			ivs[i] = iv
		}
		cellCost := cfg.Model.EnergyOfTimeline(bursts).EnergyJ
		if tails := cfg.Model.Tails; len(tails) > 0 {
			window := simtime.Interval{Start: at, End: at.Add(cfg.DutyWakeWindow)}
			var overlap float64
			for _, iv := range simtime.MergeIntervals(ivs) {
				overlap += window.Intersect(iv).Len().Seconds()
			}
			cellCost -= tails[len(tails)-1].PowerMW / 1000 * overlap
		}

		wifiCost := cfg.WiFi.EnergyOfTimeline([]power.Burst{{
			Interval: pool, TailCutSecs: cfg.TailCutSecs,
		}}).EnergyJ
		if len(cfg.Model.PromoFromTail) > 0 {
			margin := cfg.Model.PromoFromIdle.Energy() - cfg.Model.PromoFromTail[0].Energy()
			if margin > 0 {
				wifiCost += margin
			}
		}
		if cellCost <= wifiCost {
			return 0, 0, false
		}
		return start, dur, true
	}

	// serve executes every pending transfer at the given instant. Under
	// chaos a transfer may fail transiently and stay pending for the
	// next radio window or the deadline; serving with the radio
	// actually down is a radio-state inconsistency and aborts the run.
	var serveErr error
	serve := func(at simtime.Instant) {
		if cs != nil && !cs.radioOn {
			serveErr = fmt.Errorf("middleware: serving transfers at %v with the radio down", at)
			return
		}
		var retained []int
		var batch []servedRef
		var batchBytes int64
		cur := at
		for _, idx := range pending {
			a := t.Activities[idx]
			if cs != nil && cs.inj.Decide(faults.OpTransfer, cur) != faults.OK {
				// Transient transfer failure: keep it pending.
				cs.transferRetries++
				obs.transferRetry(cur, idx)
				retained = append(retained, idx)
				continue
			}
			dur := cfg.Model.CompactDuration(a.Bytes())
			exec := cur
			if exec.Add(dur) > horizon {
				exec = horizon.Add(-dur)
			}
			if exec < a.Start {
				exec = a.Start
			}
			if exec.Add(dur) > horizon {
				record(device.Execution{
					Index: idx, ExecStart: a.Start, TailCutSecs: cfg.TailCutSecs,
				}, "horizon")
				continue
			}
			batch = append(batch, servedRef{idx: idx, exec: exec, dur: dur})
			batchBytes += a.Bytes()
			cur = exec.Add(dur)
		}
		if start, dur, ok := offloadBatch(at, batch, batchBytes); ok {
			for _, s := range batch {
				record(device.Execution{
					Index: s.idx, ExecStart: start, Duration: dur,
					TailCutSecs: cfg.TailCutSecs, Network: power.NetworkWiFi,
				}, "offloaded")
			}
		} else {
			for _, s := range batch {
				record(device.Execution{
					Index: s.idx, ExecStart: s.exec, Duration: s.dur, TailCutSecs: cfg.TailCutSecs,
				}, "served")
			}
		}
		pending = pending[:0]
		pending = append(pending, retained...)
	}

	// flushOverdue enforces the hard deferral deadline: any pending
	// transfer whose wait would exceed MaxDeferral by `now` is executed
	// at its deadline instant — the OS giving up on batching and
	// letting the transfer run on its own — regardless of radio faults.
	flushOverdue := func(now simtime.Instant) {
		if cs == nil || len(pending) == 0 {
			return
		}
		var retained []int
		for _, idx := range pending {
			a := t.Activities[idx]
			due := a.Start.Add(cs.cfg.MaxDeferral)
			if due > now {
				retained = append(retained, idx)
				continue
			}
			cs.deadlineFlushes++
			obs.deadlineFlush(due, idx, cs.cfg.MaxDeferral)
			dur := cfg.Model.CompactDuration(a.Bytes())
			if due.Add(dur) > horizon {
				// No room for a compact burst before the horizon: run
				// as recorded, like the end-of-trace drain.
				record(device.Execution{
					Index: idx, ExecStart: a.Start, TailCutSecs: cfg.TailCutSecs,
				}, "deadline")
				continue
			}
			record(device.Execution{
				Index: idx, ExecStart: due, Duration: dur, TailCutSecs: cfg.TailCutSecs,
			}, "deadline")
		}
		pending = pending[:0]
		pending = append(pending, retained...)
	}

	// handleCommands executes the commands one service call appended to
	// the log.
	handleCommands := func(cmds []Command, fromTick bool) {
		for _, c := range cmds {
			obs.commands.Inc()
			if cs == nil {
				// Plain path: every command takes effect instantly.
				switch c.Kind {
				case CmdRadioDisable:
					obs.radioOff(c.Time)
					continue
				case CmdTriggerSync:
					continue
				}
				obs.radioOn(c.Time)
				if c.App == "" { // duty wake or screen-on
					window := simtime.Interval{Start: c.Time, End: c.Time.Add(cfg.DutyWakeWindow)}
					if window.End > horizon {
						window.End = horizon
					}
					if !window.IsEmpty() {
						plan.WakeWindows = append(plan.WakeWindows, window)
						obs.wakeWindow(window)
					}
				}
				serve(c.Time)
				continue
			}
			rec := cs.execute(c)
			switch c.Kind {
			case CmdRadioEnable:
				if !rec.Applied {
					// The radio never came up: make sure the service
					// knows, so its next opportunity re-issues the
					// enable — and restart the duty backoff when this
					// was a wake, so the next probe comes soon instead
					// of doubling away.
					svc.forceRadioState(false)
					if fromTick {
						svc.dutyWakeFailed(c.Time)
					}
					continue
				}
				obs.radioOn(rec.AppliedAt)
				if c.App == "" {
					window := simtime.Interval{Start: rec.AppliedAt, End: rec.AppliedAt.Add(cfg.DutyWakeWindow)}
					if window.End > horizon {
						window.End = horizon
					}
					if !window.IsEmpty() {
						plan.WakeWindows = append(plan.WakeWindows, window)
						obs.wakeWindow(window)
					}
				}
				serve(rec.AppliedAt)
			case CmdRadioDisable:
				if !rec.Applied {
					// The radio is stuck on: the service will issue
					// the disable again at its next opportunity.
					svc.forceRadioState(true)
				} else {
					obs.radioOff(rec.AppliedAt)
				}
			}
			if serveErr != nil {
				return
			}
		}
	}

	// The service appends its commands straight to res.Commands, and
	// handleCommands walks the tail each call added. Before each call
	// the log gets room for a full duty wake; when it runs short, its
	// capacity at least doubles.
	reserve := func() int {
		n := len(res.Commands)
		if need := len(svc.special) + 2; cap(res.Commands)-n < need {
			res.Commands = slices.Grow(res.Commands, max(n, need))
		}
		return n
	}
	tick := func(at simtime.Instant) error {
		n := reserve()
		var err error
		if res.Commands, err = svc.tick(res.Commands, at); err != nil {
			return err
		}
		handleCommands(res.Commands[n:], true)
		return serveErr
	}
	deliver := func(e Event) error {
		n := reserve()
		var err error
		if cs != nil {
			res.Commands, err = svc.handleLate(res.Commands, e)
		} else {
			res.Commands, err = svc.handleEvent(res.Commands, e)
		}
		if err != nil {
			return err
		}
		handleCommands(res.Commands[n:], false)
		return serveErr
	}

	// Interleave events with duty ticks at the service's wake times.
	for _, e := range events {
		for svc.nextWake >= 0 && !svc.screenOn && svc.nextWake < e.Time {
			at := svc.nextWake
			flushOverdue(at)
			if err := tick(at); err != nil {
				return nil, err
			}
		}
		// Background arrivals up to this event become pending.
		for nextBg < len(bgQueue) && bgQueue[nextBg].at <= e.Time {
			if err := arrive(bgQueue[nextBg].index); err != nil {
				return nil, err
			}
			nextBg++
		}
		flushOverdue(e.Time)
		if err := deliver(e); err != nil {
			return nil, err
		}
	}
	// Drain remaining wakes and pending transfers to the horizon.
	for svc.nextWake >= 0 && !svc.screenOn && svc.nextWake < horizon {
		at := svc.nextWake
		for nextBg < len(bgQueue) && bgQueue[nextBg].at <= at {
			if err := arrive(bgQueue[nextBg].index); err != nil {
				return nil, err
			}
			nextBg++
		}
		flushOverdue(at)
		if err := tick(at); err != nil {
			return nil, err
		}
	}
	for nextBg < len(bgQueue) {
		if err := arrive(bgQueue[nextBg].index); err != nil {
			return nil, err
		}
		nextBg++
	}
	if len(pending) > 0 {
		// Transfers still pending at the end of the trace run as
		// recorded.
		for _, idx := range pending {
			record(device.Execution{
				Index: idx, ExecStart: t.Activities[idx].Start, TailCutSecs: cfg.TailCutSecs,
			}, "drain")
		}
		pending = pending[:0]
	}
	obs.finish(horizon)
	if roller != nil {
		res.Rolling = roller.stats()
	}

	// User-experience bookkeeping: the radio is unavailable during
	// screen-off stretches outside wake windows.
	plan.BlockedWindows = screenOffWindows(t)
	plan.SpecialAppWhitelist = map[trace.AppID]bool{}
	for _, app := range svc.specialApps() {
		plan.SpecialAppWhitelist[app] = true
	}

	sort.Slice(plan.Executions, func(i, j int) bool {
		return plan.Executions[i].Index < plan.Executions[j].Index
	})
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("middleware: online plan invalid: %w", err)
	}
	return res, nil
}

// screenOffWindows returns the complement of the trace's screen sessions
// within the horizon.
func screenOffWindows(t *trace.Trace) []simtime.Interval {
	var out []simtime.Interval
	var cur simtime.Instant
	for _, s := range t.Sessions {
		if s.Interval.Start > cur {
			out = append(out, simtime.Interval{Start: cur, End: s.Interval.Start})
		}
		if s.Interval.End > cur {
			cur = s.Interval.End
		}
	}
	horizon := simtime.Instant(t.Horizon())
	if cur < horizon {
		out = append(out, simtime.Interval{Start: cur, End: horizon})
	}
	return out
}
