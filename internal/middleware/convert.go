// Conversions between the trace model and the middleware's event/record
// streams: EventsFromTrace turns a recorded trace into the device event
// stream the monitoring component would have seen (including the
// timer-triggered byte-counter samples at 1 s / 30 s periods), and
// RecordsToTrace rebuilds a usage trace from the monitoring database —
// the mining component's actual input on the device.
package middleware

import (
	"cmp"
	"fmt"
	"slices"

	"netmaster/internal/recorddb"
	"netmaster/internal/simtime"
	"netmaster/internal/trace"
)

// maxConvertDays bounds the day count either conversion accepts. Beyond
// ten years the horizon arithmetic risks int64 overflow and the sample
// expansion allocates absurdly; no real monitoring window comes close.
const maxConvertDays = 3650

// EventsFromTrace converts a trace into the chronologically ordered event
// stream the device would deliver: app-install announcements at time 0,
// screen broadcasts, interactions, and per-activity network samples at
// the state-appropriate timer period.
func EventsFromTrace(t *trace.Trace, cfg Config) ([]Event, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if t.Days > maxConvertDays {
		return nil, fmt.Errorf("middleware: trace spans %d days, limit %d", t.Days, maxConvertDays)
	}
	n := len(t.InstalledApps) + 2*len(t.Sessions) + len(t.Interactions)
	for _, a := range t.Activities {
		period, total := samplePeriod(t, a, cfg)
		n += int((total + period - 1) / period)
	}
	events := make([]Event, 0, n)
	for _, app := range t.InstalledApps {
		events = append(events, Event{Time: 0, Kind: EventAppInstalled, App: app})
	}
	for _, s := range t.Sessions {
		events = append(events, Event{Time: s.Interval.Start, Kind: EventScreenOn})
		events = append(events, Event{Time: s.Interval.End, Kind: EventScreenOff})
	}
	for _, ia := range t.Interactions {
		events = append(events, Event{
			Time: ia.Time, Kind: EventInteraction, App: ia.App, WantsNetwork: ia.WantsNetwork,
		})
	}
	for _, a := range t.Activities {
		events = sampleActivity(events, t, a, cfg)
	}
	slices.SortStableFunc(events, func(a, b Event) int {
		if a.Time != b.Time {
			return cmp.Compare(a.Time, b.Time)
		}
		// Screen events precede samples at the same instant so state
		// transitions apply before readings.
		return cmp.Compare(eventOrder(a.Kind), eventOrder(b.Kind))
	})
	return events, nil
}

func eventOrder(k EventKind) int {
	switch k {
	case EventAppInstalled:
		return 0
	case EventScreenOn, EventScreenOff:
		return 1
	case EventInteraction:
		return 2
	default:
		return 3
	}
}

// samplePeriod returns the timer period the monitor samples activity a
// at, and the span it samples: ceil(total/period) samples in all.
func samplePeriod(t *trace.Trace, a trace.NetworkActivity, cfg Config) (period, total simtime.Duration) {
	period = cfg.ScreenOffSamplePeriod
	if t.ScreenOnAt(a.Start) {
		period = cfg.ScreenOnSamplePeriod
	}
	if period <= 0 {
		period = simtime.Second
	}
	total = a.Duration
	if total <= 0 {
		total = 1
	}
	return period, total
}

// sampleActivity appends one transfer's timer-period byte samples to
// events, mirroring how the monitor's counters would observe it.
func sampleActivity(events []Event, t *trace.Trace, a trace.NetworkActivity, cfg Config) []Event {
	period, total := samplePeriod(t, a, cfg)
	remainingDown, remainingUp := a.BytesDown, a.BytesUp
	for off := simtime.Duration(0); off < total; off += period {
		chunk := period
		if off+chunk > total {
			chunk = total - off
		}
		frac := chunk.Seconds() / total.Seconds()
		down := int64(float64(a.BytesDown) * frac)
		up := int64(float64(a.BytesUp) * frac)
		// The final sample carries any rounding remainder.
		if off+chunk >= total {
			down, up = remainingDown, remainingUp
		}
		remainingDown -= down
		remainingUp -= up
		events = append(events, Event{
			Time:      a.Start.Add(off + chunk - 1),
			Kind:      EventNetSample,
			App:       a.App,
			BytesDown: down,
			BytesUp:   up,
		})
	}
	return events
}

// RecordsToTrace rebuilds the first `days` days of usage history from the
// monitoring database. Screen sessions come from the screen records,
// interactions from the interaction records, and network activities from
// runs of consecutive samples per app (samples closer than one screen-off
// period merge into one activity — the monitor cannot see finer bursts).
// It is the batch face of the service's nightly history builder: the
// records below the horizon are fed through the same historyBuilder.
func RecordsToTrace(db *recorddb.DB, days int, installed []trace.AppID) (*trace.Trace, error) {
	if err := checkHistoryDays(days); err != nil {
		return nil, err
	}
	horizon := simtime.At(days, 0, 0, 0)
	b := newHistoryBuilder()
	for _, r := range db.All() {
		if r.Time >= 0 && r.Time < horizon {
			b.add(r)
		}
	}
	out := b.trace(days, installed)
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("middleware: rebuilt trace invalid: %w", err)
	}
	return out, nil
}

// checkHistoryDays bounds the day count of a history rebuild.
func checkHistoryDays(days int) error {
	if days <= 0 {
		return fmt.Errorf("middleware: non-positive day count %d", days)
	}
	if days > maxConvertDays {
		return fmt.Errorf("middleware: day count %d above limit %d", days, maxConvertDays)
	}
	return nil
}

// mergeGap is the widest gap, in seconds, between two network samples of
// one app that still merge into one activity: one screen-off sample
// period.
const mergeGap = 30

// sampleRun is one app's run of merged network samples.
type sampleRun struct {
	start, last simtime.Instant
	down, up    int64
}

func (r *sampleRun) activity(app trace.AppID) trace.NetworkActivity {
	return trace.NetworkActivity{
		App:       app,
		Start:     r.start,
		Duration:  r.last.Sub(r.start) + 1, // records arrive in time order: last ≥ start
		BytesDown: r.down,
		BytesUp:   r.up,
		Kind:      trace.KindSync, // the monitor cannot observe intent
	}
}

// historyBuilder does RecordsToTrace's work one record at a time: it
// pairs screen on/off records into sessions, lists interactions, and
// merges each app's network samples into runs while consecutive samples
// are at most mergeGap apart. Records must arrive in time order, which
// is the order the service appends them in and the order the record DB
// returns them in.
type historyBuilder struct {
	onAt         simtime.Instant // start of the open screen session, -1 when off
	sessions     []trace.ScreenSession
	interactions []trace.Interaction
	activities   []trace.NetworkActivity // closed runs, in closing order
	open         map[trace.AppID]*sampleRun
}

func newHistoryBuilder() *historyBuilder {
	return &historyBuilder{onAt: -1, open: make(map[trace.AppID]*sampleRun)}
}

// add folds one record into the history. App records carry nothing the
// miner reads and are skipped.
func (b *historyBuilder) add(r recorddb.Record) {
	switch r.Feature {
	case recorddb.FeatureScreen:
		if r.Value == 1 {
			if b.onAt < 0 {
				b.onAt = r.Time
			}
		} else if b.onAt >= 0 {
			if r.Time > b.onAt {
				b.sessions = append(b.sessions, trace.ScreenSession{
					Interval: simtime.Interval{Start: b.onAt, End: r.Time},
				})
			}
			b.onAt = -1
		}
	case recorddb.FeatureInteraction:
		b.interactions = append(b.interactions, trace.Interaction{Time: r.Time, App: r.App})
	case recorddb.FeatureNetwork:
		run, ok := b.open[r.App]
		if !ok {
			run = &sampleRun{start: r.Time}
			b.open[r.App] = run
		} else if r.Time.Sub(run.last) > mergeGap {
			b.activities = append(b.activities, run.activity(r.App))
			*run = sampleRun{start: r.Time}
		}
		run.last = r.Time
		if r.Up {
			run.up += r.Value
		} else {
			run.down += r.Value
		}
	}
}

// trace returns the history fed so far as a normalized trace of `days`
// days, sharing no slice with the builder: every open run is flushed and
// an open screen session ends at the horizon. Every record fed must lie
// below the horizon, so no activity ends past it. A run's (Start, App)
// is unique — an app's next run starts more than mergeGap after its
// previous one ends — so the order runs were closed in cannot show.
func (b *historyBuilder) trace(days int, installed []trace.AppID) *trace.Trace {
	out := &trace.Trace{
		Days:          days,
		InstalledApps: append([]trace.AppID(nil), installed...),
		Sessions:      slices.Clone(b.sessions),
		Interactions:  slices.Clone(b.interactions),
		Activities:    slices.Grow(slices.Clone(b.activities), len(b.open)),
	}
	if b.onAt >= 0 {
		out.Sessions = append(out.Sessions, trace.ScreenSession{
			Interval: simtime.Interval{Start: b.onAt, End: simtime.At(days, 0, 0, 0)},
		})
	}
	for app, run := range b.open {
		out.Activities = append(out.Activities, run.activity(app))
	}
	out.Normalize()
	return out
}

// seal closes every run no record at or after the horizon of `day` can
// extend, and returns the sealed frontier: the first day on which a run
// that can still grow starts, or day itself when none can. Records
// arriving later lie at or after the horizon, so the activities of every
// day before the frontier are final.
func (b *historyBuilder) seal(day int) int {
	horizon := simtime.At(day, 0, 0, 0)
	frontier := day
	for app, run := range b.open {
		if horizon.Sub(run.last) > mergeGap {
			b.activities = append(b.activities, run.activity(app))
			delete(b.open, app)
		} else if d := run.start.Day(); d < frontier {
			frontier = d
		}
	}
	return frontier
}

// prune drops what no day from `day` on can read: sessions ended by its
// midnight, and interactions and closed runs before it.
func (b *historyBuilder) prune(day int) {
	from := simtime.At(day, 0, 0, 0)
	b.sessions = slices.DeleteFunc(b.sessions, func(s trace.ScreenSession) bool { return s.Interval.End <= from })
	b.interactions = slices.DeleteFunc(b.interactions, func(ia trace.Interaction) bool { return ia.Time < from })
	b.activities = slices.DeleteFunc(b.activities, func(a trace.NetworkActivity) bool { return a.Start < from })
}
