// Package middleware is NetMaster's on-device service architecture
// (Fig. 6 of the paper): a monitoring component that records the four
// monitored features through a hybrid event/timer trigger model into the
// on-device database, a mining component that rebuilds usage history from
// those records and produces hourly predictions, and a scheduling
// component that turns predictions into radio commands (enable/disable,
// triggered syncs) with the duty-cycle real-time adjustment.
//
// The offline evaluation replays policies over whole traces
// (internal/policy); this package is the online mirror — the shape the
// code would take as a long-running service between the apps and the
// radio. Feeding it the event stream of a trace and mining from its own
// database must reproduce the same per-slot statistics the offline miner
// computes, which the integration tests assert.
package middleware

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"netmaster/internal/cfgerr"
	"netmaster/internal/dutycycle"
	"netmaster/internal/faults"
	"netmaster/internal/habit"
	"netmaster/internal/metrics"
	"netmaster/internal/recorddb"
	"netmaster/internal/simtime"
	"netmaster/internal/trace"
	"netmaster/internal/tracing"
)

// EventKind classifies device events delivered to the monitoring
// component's broadcast receivers.
type EventKind int

const (
	// EventScreenOn and EventScreenOff are the screen state broadcasts.
	EventScreenOn EventKind = iota
	EventScreenOff
	// EventInteraction is a user usage event on an app.
	EventInteraction
	// EventNetSample is a timer-triggered byte-counter sample: bytes
	// moved by an app since the previous sample.
	EventNetSample
	// EventAppInstalled announces a newly installed app; the paper
	// treats unknown apps as Special until history accumulates.
	EventAppInstalled
)

var eventNames = [...]string{"screen-on", "screen-off", "interaction", "net-sample", "app-installed"}

// String names the event kind.
func (k EventKind) String() string {
	if k < 0 || int(k) >= len(eventNames) {
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
	return eventNames[k]
}

// Event is one device event.
type Event struct {
	Time         simtime.Instant
	Kind         EventKind
	App          trace.AppID
	BytesDown    int64
	BytesUp      int64
	WantsNetwork bool
}

// CommandKind classifies the scheduling component's outputs.
type CommandKind int

const (
	// CmdRadioEnable and CmdRadioDisable drive the data switch ("svc
	// data enable/disable" in the Android implementation).
	CmdRadioEnable CommandKind = iota
	CmdRadioDisable
	// CmdTriggerSync instructs an app's scheduled background sync to
	// run now.
	CmdTriggerSync
)

var commandNames = [...]string{"radio-enable", "radio-disable", "trigger-sync"}

// String names the command kind.
func (k CommandKind) String() string {
	if k < 0 || int(k) >= len(commandNames) {
		return fmt.Sprintf("CommandKind(%d)", int(k))
	}
	return commandNames[k]
}

// Command is one radio/sync instruction issued by the service.
type Command struct {
	Time simtime.Instant
	Kind CommandKind
	App  trace.AppID
}

// Config parameterises the service.
type Config struct {
	// Habit configures the mining component.
	Habit habit.Config
	// DB sizes the monitoring database's write cache.
	DB recorddb.Config
	// ScreenOnSamplePeriod and ScreenOffSamplePeriod are the two
	// timer-trigger periods of the monitoring component (1 s and 30 s
	// in the paper).
	ScreenOnSamplePeriod  simtime.Duration
	ScreenOffSamplePeriod simtime.Duration
	// DutyInitialSleep seeds the exponential duty cycle used while the
	// screen is off; DutyMaxSleep caps the backoff.
	DutyInitialSleep simtime.Duration
	DutyMaxSleep     simtime.Duration
	// Faults optionally injects failures at the service's effect
	// boundaries (record-DB writes, mining runs). Nil means every
	// operation succeeds — the plain replay path. The chaos replay
	// shares one injector between the service and the command executor
	// so a single seed identifies the whole fault schedule.
	Faults *faults.Injector
	// Metrics and Tracing wire the observability layer (see
	// docs/observability.md): every effect boundary the fault injector
	// can touch emits a counter and, where useful, a trace event. Both
	// are optional; nil means the instrumentation compiles down to nil
	// checks.
	Metrics *metrics.Registry
	Tracing *tracing.Sink
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		Habit:                 habit.DefaultConfig(),
		DB:                    recorddb.DefaultConfig(),
		ScreenOnSamplePeriod:  1 * simtime.Second,
		ScreenOffSamplePeriod: 30 * simtime.Second,
		DutyInitialSleep:      30 * simtime.Second,
		DutyMaxSleep:          7680 * simtime.Second,
	}
}

// Validate checks the configuration, returning typed field errors
// (cfgerr.FieldError) for every rejected field. It is the uniform
// validation entry point the facade, the CLIs and the HTTP server share.
func (c Config) Validate() error {
	var es cfgerr.Errors
	if c.ScreenOnSamplePeriod <= 0 {
		es = append(es, cfgerr.New("middleware.Config", "ScreenOnSamplePeriod",
			c.ScreenOnSamplePeriod, "must be positive"))
	}
	if c.ScreenOffSamplePeriod <= 0 {
		es = append(es, cfgerr.New("middleware.Config", "ScreenOffSamplePeriod",
			c.ScreenOffSamplePeriod, "must be positive"))
	}
	if c.DutyInitialSleep <= 0 {
		es = append(es, cfgerr.New("middleware.Config", "DutyInitialSleep",
			c.DutyInitialSleep, "must be positive"))
	}
	if c.DutyMaxSleep <= 0 {
		es = append(es, cfgerr.New("middleware.Config", "DutyMaxSleep",
			c.DutyMaxSleep, "must be positive"))
	} else if c.DutyInitialSleep > 0 && c.DutyMaxSleep < c.DutyInitialSleep {
		es = append(es, cfgerr.New("middleware.Config", "DutyMaxSleep",
			c.DutyMaxSleep, fmt.Sprintf("must be at least DutyInitialSleep (%v)", c.DutyInitialSleep)))
	}
	return es.Err()
}

// Mode is the service's degradation state. The service reports its mode
// through Health so operators can see which fallback is in force.
type Mode int

const (
	// ModeNormal is full operation: monitoring, mining and scheduling
	// all healthy.
	ModeNormal Mode = iota
	// ModeDutyOnly means mining has failed and no usable profile
	// exists: the service runs on the duty-cycle real-time adjustment
	// alone, exactly the paper's fallback for unpredictable users.
	ModeDutyOnly
	// ModePassThrough means the record DB is unavailable: with no
	// monitoring there is nothing to mine and no basis for blocking, so
	// the radio is left permanently on — the unmanaged baseline — until
	// writes succeed again.
	ModePassThrough
)

var modeNames = [...]string{"normal", "duty-only", "pass-through"}

// String names the mode.
func (m Mode) String() string {
	if m < 0 || int(m) >= len(modeNames) {
		return fmt.Sprintf("Mode(%d)", int(m))
	}
	return modeNames[m]
}

// Health is the service's fault-handling counters: how many faults were
// seen and absorbed at each boundary, how often operations were
// retried, and which degraded mode is in force. The facade exports it
// so a deployment can alarm on these.
type Health struct {
	// Mode is the degradation state currently in force.
	Mode Mode
	// ModeTransitions counts entries into and exits from degraded
	// modes.
	ModeTransitions int

	// DBFaults counts monitoring-record writes that failed (the record
	// is lost); MineFaults counts mining runs that errored or produced
	// a corrupt/empty profile the validator rejected.
	DBFaults   int
	MineFaults int

	// StaleEvents counts events delivered out of order and clamped to
	// the service clock; DroppedEvents, DupEvents and ReorderedEvents
	// count the stream perturbations the chaos harness injected.
	StaleEvents     int
	DroppedEvents   int
	DupEvents       int
	ReorderedEvents int

	// RadioRetries, SyncRetries and TransferRetries count re-attempts
	// at the executor boundaries; RadioGiveUps and SyncGiveUps count
	// commands abandoned after the retry budget.
	RadioRetries    int
	SyncRetries     int
	TransferRetries int
	RadioGiveUps    int
	SyncGiveUps     int

	// DeadlineFlushes counts screen-off transfers force-executed at the
	// hard deferral deadline instead of waiting for a radio window.
	DeadlineFlushes int
}

// FaultsAbsorbed sums the faults the service survived.
func (h Health) FaultsAbsorbed() int {
	return h.DBFaults + h.MineFaults + h.StaleEvents + h.DroppedEvents +
		h.DupEvents + h.ReorderedEvents + h.RadioRetries + h.SyncRetries +
		h.TransferRetries + h.RadioGiveUps + h.SyncGiveUps + h.DeadlineFlushes
}

// Service is the running middleware: monitoring + mining + scheduling.
type Service struct {
	cfg Config
	db  *recorddb.DB
	inj *faults.Injector
	obs svcObs

	health       Health
	dbFailStreak int  // consecutive failed record writes
	mineFailed   bool // the last mining run produced nothing usable

	screenOn     bool
	radioEnabled bool
	lastMined    int // day index of the last mining run, -1 before any
	profile      *habit.Profile
	special      map[trace.AppID]bool

	// specialList caches special's keys, sorted: every duty wake walks
	// it. Whatever changes special sets it to nil, and specialApps
	// rebuilds it on the next read.
	specialList []trace.AppID

	duty      *dutycycle.Exponential
	nextWake  simtime.Instant
	days      int // days of history recorded so far
	lastEvent simtime.Instant

	// hist rebuilds the usage history from the records the service
	// appends, as they are appended; sketch holds every day the
	// nightly mining has sealed (nil before the first successful
	// fold), so each night folds only the days since.
	hist   *historyBuilder
	sketch *habit.Sketch

	// installDay records when each app appeared; fresh installs stay
	// Special until enough history accumulates to judge them.
	installDay map[trace.AppID]int

	// Special-App detection state: an app seen with both a user
	// interaction and network traffic joins the allowlist.
	interactedApps map[trace.AppID]bool
	networkedApps  map[trace.AppID]bool
}

// New builds a Service with an empty monitoring database.
func New(cfg Config) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	db, err := recorddb.Open(cfg.DB)
	if err != nil {
		return nil, err
	}
	duty, err := dutycycle.NewExponential(cfg.DutyInitialSleep, cfg.DutyMaxSleep)
	if err != nil {
		return nil, err
	}
	return &Service{
		cfg:        cfg,
		db:         db,
		inj:        cfg.Faults,
		obs:        newSvcObs(cfg.Metrics, cfg.Tracing),
		lastMined:  -1,
		special:    make(map[trace.AppID]bool),
		installDay: make(map[trace.AppID]int),
		duty:       duty,
		nextWake:   -1,
		hist:       newHistoryBuilder(),
	}, nil
}

// Health returns the service's fault-handling counters and current
// degradation mode.
func (s *Service) Health() Health { return s.health }

// dbFailThreshold is how many consecutive record-write failures the
// service tolerates before declaring the DB unavailable and entering
// pass-through mode.
const dbFailThreshold = 3

// setMode switches the degradation mode, counting the transition. When
// the service leaves pass-through with the screen off, the radio is
// handed back to the duty cycle from a fresh backoff.
func (s *Service) setMode(now simtime.Instant, m Mode) {
	if s.health.Mode == m {
		return
	}
	prev := s.health.Mode
	s.health.Mode = m
	s.health.ModeTransitions++
	s.obs.modeChange(now, prev, m)
	if prev == ModePassThrough && !s.screenOn {
		s.duty.Reset()
		s.nextWake = now.Add(s.duty.NextSleep())
	}
}

// normalMode is the mode the service returns to when the DB recovers:
// plain normal, or duty-only while mining still has nothing usable.
func (s *Service) normalMode() Mode {
	if s.mineFailed && s.profile == nil {
		return ModeDutyOnly
	}
	return ModeNormal
}

// appendRecord writes one monitoring record, absorbing injected DB
// faults: a failed write is counted and the record lost, and a streak
// of failures beyond dbFailThreshold puts the service into pass-through
// mode (radio always on) until a write succeeds again. A written record
// also feeds the history builder, so mining sees exactly the records
// the DB holds.
func (s *Service) appendRecord(r recorddb.Record) bool {
	if s.inj.Decide(faults.OpDBWrite, r.Time) != faults.OK {
		s.health.DBFaults++
		s.obs.dbFaults.Inc()
		s.obs.sink.Emit(tracing.Event{Time: r.Time, Kind: tracing.KindFault, Op: "db-write"})
		s.dbFailStreak++
		if s.dbFailStreak >= dbFailThreshold {
			s.setMode(r.Time, ModePassThrough)
		}
		return false
	}
	s.dbFailStreak = 0
	if s.health.Mode == ModePassThrough {
		s.setMode(r.Time, s.normalMode())
	}
	s.db.Append(r)
	s.hist.add(r)
	s.obs.records.Inc()
	return true
}

// enforceMode applies the degraded-mode policy to the commands the
// normal path appended to cmds from index from on. In pass-through
// (record DB unavailable) the radio is left permanently on: disables
// are swallowed, an enable is issued if the radio is down, and the duty
// cycle is parked.
func (s *Service) enforceMode(now simtime.Instant, cmds []Command, from int) []Command {
	if s.health.Mode != ModePassThrough {
		return cmds
	}
	out := cmds[:from]
	for _, c := range cmds[from:] {
		if c.Kind == CmdRadioDisable {
			s.radioEnabled = true
			continue
		}
		out = append(out, c)
	}
	if !s.radioEnabled {
		s.radioEnabled = true
		out = append(out, Command{Time: now, Kind: CmdRadioEnable})
	}
	s.nextWake = -1
	return out
}

// forceRadioState overrides the service's view of the data switch. The
// chaos executor calls it when a command never took effect despite
// retries, so the service re-issues the command at its next
// opportunity instead of trusting a state it does not have.
func (s *Service) forceRadioState(on bool) { s.radioEnabled = on }

// dutyWakeFailed re-arms the duty cycle after a wake whose radio enable
// never took effect: the backoff restarts so the next probe comes at
// the initial sleep rather than doubling away while transfers wait
// behind a radio that never came up.
func (s *Service) dutyWakeFailed(at simtime.Instant) {
	if s.screenOn {
		return
	}
	s.duty.Reset()
	s.nextWake = at.Add(s.duty.NextSleep())
}

// DB exposes the monitoring database. It is read-only to callers:
// mining reads the records the service itself appended, through its
// history builder, so a record written here would sit in the DB without
// ever reaching a profile.
func (s *Service) DB() *recorddb.DB { return s.db }

// Profile returns the latest mined profile, or nil before the first
// mining run.
func (s *Service) Profile() *habit.Profile { return s.profile }

// RadioEnabled reports the service's current data-switch state.
func (s *Service) RadioEnabled() bool { return s.radioEnabled }

// SpecialApps returns the current allowlist, sorted.
func (s *Service) SpecialApps() []trace.AppID {
	return slices.Clone(s.specialApps())
}

// specialApps returns the cached sorted allowlist, rebuilding it after
// a change to special. Callers must not modify it.
func (s *Service) specialApps() []trace.AppID {
	if s.specialList == nil {
		out := make([]trace.AppID, 0, len(s.special))
		for app, ok := range s.special {
			if ok {
				out = append(out, app)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		s.specialList = out
	}
	return s.specialList
}

// markSpecial adds app to the allowlist, dropping the cached list only
// when the app is new to it.
func (s *Service) markSpecial(app trace.AppID) {
	if !s.special[app] {
		s.special[app] = true
		s.specialList = nil
	}
}

// HandleEvent is the event-trigger path of the monitoring component plus
// the real-time reactions of the scheduling component. Events must be
// delivered in non-decreasing time order. It returns a fresh slice.
func (s *Service) HandleEvent(e Event) ([]Command, error) {
	return s.handleEvent(nil, e)
}

// handleEvent is HandleEvent appending its commands to cmds. On error
// cmds comes back unchanged.
func (s *Service) handleEvent(cmds []Command, e Event) ([]Command, error) {
	if e.Time < s.lastEvent {
		return cmds, fmt.Errorf("middleware: event at %v before %v", e.Time, s.lastEvent)
	}
	s.lastEvent = e.Time
	s.obs.events.Inc()
	s.obs.reg.Advance(e.Time)
	s.mineIfDue(e.Time)
	from := len(cmds)

	switch e.Kind {
	case EventScreenOn:
		s.screenOn = true
		s.appendRecord(recorddb.Record{Time: e.Time, Feature: recorddb.FeatureScreen, Value: 1})
		// The user is active: power the radio for foreground use and
		// suspend the duty cycle.
		if !s.radioEnabled {
			s.radioEnabled = true
			cmds = append(cmds, Command{Time: e.Time, Kind: CmdRadioEnable})
		}
		s.nextWake = -1
		s.duty.Reset()

	case EventScreenOff:
		s.screenOn = false
		s.appendRecord(recorddb.Record{Time: e.Time, Feature: recorddb.FeatureScreen, Value: 0})
		// Hand the radio to the duty cycle, restarting the backoff: a
		// fresh screen-off period begins at the initial sleep T.
		if s.radioEnabled {
			s.radioEnabled = false
			cmds = append(cmds, Command{Time: e.Time, Kind: CmdRadioDisable})
		}
		s.duty.Reset()
		s.nextWake = e.Time.Add(s.duty.NextSleep())

	case EventInteraction:
		s.appendRecord(recorddb.Record{Time: e.Time, Feature: recorddb.FeatureInteraction, App: e.App, Value: 1})
		s.noteSpecialCandidate(e.App, true)
		// Usage outside the predicted slots: power the radio on for a
		// Special App that needs the network.
		if e.WantsNetwork && !s.radioEnabled && s.isSpecial(e.App) {
			s.radioEnabled = true
			cmds = append(cmds, Command{Time: e.Time, Kind: CmdRadioEnable, App: e.App})
		}

	case EventNetSample:
		if e.BytesDown > 0 {
			s.appendRecord(recorddb.Record{Time: e.Time, Feature: recorddb.FeatureNetwork, App: e.App, Value: e.BytesDown})
		}
		if e.BytesUp > 0 {
			s.appendRecord(recorddb.Record{Time: e.Time, Feature: recorddb.FeatureNetwork, App: e.App, Value: e.BytesUp, Up: true})
		}
		s.noteSpecialCandidate(e.App, false)
		// Activity detected during a wake: the duty cycle resets.
		if !s.screenOn {
			s.duty.Reset()
			s.nextWake = e.Time.Add(s.duty.NextSleep())
		}

	case EventAppInstalled:
		if _, ok := s.installDay[e.App]; !ok {
			s.installDay[e.App] = e.Time.Day()
		}
		s.appendRecord(recorddb.Record{Time: e.Time, Feature: recorddb.FeatureApp, App: e.App, Value: 1})
		// A new app is treated as Special until history shows
		// otherwise, avoiding false blocking.
		s.markSpecial(e.App)

	default:
		return cmds, fmt.Errorf("middleware: unknown event kind %v", e.Kind)
	}
	return s.enforceMode(e.Time, cmds, from), nil
}

// HandleLate delivers an event that may have arrived out of order (a
// reordered broadcast). Instead of rejecting it like HandleEvent, the
// service counts it as stale and processes it at its own clock — the
// actual delivery time — so a late broadcast degrades bookkeeping
// precision without stalling the event loop. It returns a fresh slice.
func (s *Service) HandleLate(e Event) ([]Command, error) {
	return s.handleLate(nil, e)
}

// handleLate is HandleLate appending its commands to cmds.
func (s *Service) handleLate(cmds []Command, e Event) ([]Command, error) {
	if e.Time < s.lastEvent {
		s.health.StaleEvents++
		s.obs.stale.Inc()
		e.Time = s.lastEvent
	}
	return s.handleEvent(cmds, e)
}

// Tick is the timer-trigger path: duty-cycle wake-ups while the screen is
// off and the nightly mining run. Call it at least once per duty sleep
// interval; now must be non-decreasing. It returns a fresh slice.
func (s *Service) Tick(now simtime.Instant) ([]Command, error) {
	return s.tick(nil, now)
}

// tick is Tick appending its commands to cmds. On error cmds comes back
// unchanged.
func (s *Service) tick(cmds []Command, now simtime.Instant) ([]Command, error) {
	if now < s.lastEvent {
		return cmds, fmt.Errorf("middleware: tick at %v before %v", now, s.lastEvent)
	}
	s.lastEvent = now
	s.obs.ticks.Inc()
	s.obs.reg.Advance(now)
	s.mineIfDue(now)
	from := len(cmds)
	if !s.screenOn && s.nextWake >= 0 && now >= s.nextWake {
		// Wake the radio so Special Apps can use the network.
		s.obs.dutyWakes.Inc()
		apps := s.specialApps()
		cmds = slices.Grow(cmds, len(apps)+2)
		cmds = append(cmds, Command{Time: now, Kind: CmdRadioEnable})
		for _, app := range apps {
			cmds = append(cmds, Command{Time: now, Kind: CmdTriggerSync, App: app})
		}
		cmds = append(cmds, Command{Time: now, Kind: CmdRadioDisable})
		s.nextWake = now.Add(s.duty.NextSleep())
	}
	return s.enforceMode(now, cmds, from), nil
}

// noteSpecialCandidate updates the Special-App detection state: an app
// observed with both a user interaction and network traffic joins the
// allowlist.
func (s *Service) noteSpecialCandidate(app trace.AppID, interacted bool) {
	if app == "" {
		return
	}
	if s.interactedApps == nil {
		s.interactedApps = make(map[trace.AppID]bool)
	}
	if s.networkedApps == nil {
		s.networkedApps = make(map[trace.AppID]bool)
	}
	if interacted {
		s.interactedApps[app] = true
	} else {
		s.networkedApps[app] = true
	}
	if s.interactedApps[app] && s.networkedApps[app] {
		s.markSpecial(app)
	}
}

func (s *Service) isSpecial(app trace.AppID) bool { return s.special[app] }

// mineIfDue runs the mining component at the first opportunity of each
// new day (midnight boundary crossed since the last mining run), over
// the history of every day before it. Mining is best-effort: a failed
// run — injected miner error, corrupt or empty profile caught by
// validation, history the rebuild rejects — leaves the previous profile
// in place, and the service degrades to duty-only operation when it has
// no profile at all.
func (s *Service) mineIfDue(now simtime.Instant) {
	day := now.Day()
	if day <= s.lastMined || day == 0 {
		return
	}
	s.lastMined = day
	profile, err := s.mineOnce(now, day)
	s.obs.mineResult(now, err)
	if err != nil {
		s.health.MineFaults++
		s.mineFailed = true
		if s.profile == nil && s.health.Mode == ModeNormal {
			s.setMode(now, ModeDutyOnly)
		}
		return
	}
	s.mineFailed = false
	s.profile = profile
	s.days = day
	if s.health.Mode == ModeDutyOnly {
		s.setMode(now, ModeNormal)
	}

	// Re-derive the Special-App allowlist from the accumulated history:
	// apps observed with both usage and network traffic stay (the
	// profile's SpecialApps, which is DetectSpecialApps of the mined
	// history), and a fresh install keeps its benefit-of-the-doubt
	// status for newInstallGraceDays before the history verdict applies.
	fresh := make(map[trace.AppID]bool, len(s.special))
	for _, app := range profile.SpecialApps {
		fresh[app] = true
	}
	for app, d0 := range s.installDay {
		if day-d0 < newInstallGraceDays {
			fresh[app] = true
		}
	}
	s.special = fresh
	s.specialList = nil
	s.obs.specialApps.Set(float64(len(fresh)))
}

// mineOnce performs one mining pass under the fault injector and
// returns habit.Mine of RecordsToTrace(DB, day) without rebuilding the
// whole history. The history builder seals every day no later record
// can change, and those days fold once into the persistent sketch; the
// days from the sealed frontier on fold into a clone, from a tail trace
// that holds only them. Whatever the miner produces — including an
// injected corrupt or empty profile — must pass profileUsable before
// the service adopts it.
func (s *Service) mineOnce(now simtime.Instant, day int) (*habit.Profile, error) {
	var outcome = s.inj.Decide(faults.OpMine, now)
	if outcome == faults.Fail {
		return nil, fmt.Errorf("middleware: mining run at %v failed", now)
	}
	if outcome == faults.Empty {
		// The miner "succeeded" with a vacuous profile; validation must
		// refuse it like any other garbage.
		empty := &habit.Profile{}
		if err := profileUsable(empty); err != nil {
			return nil, err
		}
		return empty, nil
	}
	if err := checkHistoryDays(day); err != nil {
		return nil, err
	}
	frontier := s.hist.seal(day)
	tail := s.hist.trace(day, nil)
	if err := tail.Validate(); err != nil {
		// Only an overflowed volume gets here. The whole history is
		// invalid too; the batch rebuild words the error as it always
		// has, naming the activity by its index in the whole history.
		if _, err := RecordsToTrace(s.db, day, nil); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("middleware: rebuilt trace invalid: %w", err)
	}
	if s.sketch == nil {
		sk, err := habit.NewSketch("", s.cfg.Habit)
		if err != nil {
			return nil, err
		}
		s.sketch = sk
	}
	for s.sketch.Days() < frontier {
		if err := s.sketch.FoldTraceDay(tail, s.sketch.Days()); err != nil {
			return nil, err
		}
	}
	s.hist.prune(frontier)
	open := s.sketch.Clone()
	for open.Days() < day {
		if err := open.FoldTraceDay(tail, open.Days()); err != nil {
			return nil, err
		}
	}
	profile := open.Profile()
	if outcome == faults.Corrupt {
		corruptProfile(profile)
	}
	if err := profileUsable(profile); err != nil {
		return nil, err
	}
	return profile, nil
}

// profileUsable is the service's defence against corrupt or vacuous
// mining output: before the scheduler may trust a profile it must carry
// real history, a slot grid that tiles the day, and finite
// probabilities. Anything else is treated as a failed mining run.
func profileUsable(p *habit.Profile) error {
	if p == nil {
		return fmt.Errorf("middleware: nil profile")
	}
	if p.SlotWidth <= 0 || simtime.Day%p.SlotWidth != 0 {
		return fmt.Errorf("middleware: profile slot width %v does not tile a day", p.SlotWidth)
	}
	if p.Weekday.Days+p.Weekend.Days <= 0 {
		return fmt.Errorf("middleware: profile carries no history days")
	}
	slots := int(simtime.Day / p.SlotWidth)
	for _, dt := range []*habit.DayTypeProfile{&p.Weekday, &p.Weekend} {
		if dt.Days < 0 {
			return fmt.Errorf("middleware: profile has negative day count %d", dt.Days)
		}
		if dt.Days > 0 && len(dt.Slots) != slots {
			return fmt.Errorf("middleware: profile has %d slots, want %d", len(dt.Slots), slots)
		}
		for i, st := range dt.Slots {
			for _, v := range []float64{st.UseProb, st.NetProb} {
				if math.IsNaN(v) || v < 0 || v > 1 {
					return fmt.Errorf("middleware: profile slot %d probability %v outside [0,1]", i, v)
				}
			}
			for _, v := range []float64{st.OffBytesDown, st.OffBytesUp, st.OffBursts} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					return fmt.Errorf("middleware: profile slot %d volume %v invalid", i, v)
				}
			}
		}
	}
	return nil
}

// corruptProfile scrambles a mined profile the way the fault schedule's
// Corrupt outcome models a miner writing garbage: poisoned
// probabilities that profileUsable is expected to catch.
func corruptProfile(p *habit.Profile) {
	for _, dt := range []*habit.DayTypeProfile{&p.Weekday, &p.Weekend} {
		for i := range dt.Slots {
			dt.Slots[i].UseProb = math.NaN()
			dt.Slots[i].NetProb = -1
		}
	}
}

// newInstallGraceDays is how long a newly installed app is presumed
// Special before its own history decides.
const newInstallGraceDays = 2
