// Conversions between the trace model and the middleware's event/record
// streams: EventsFromTrace turns a recorded trace into the device event
// stream the monitoring component would have seen (including the
// timer-triggered byte-counter samples at 1 s / 30 s periods), and
// RecordsToTrace rebuilds a usage trace from the monitoring database —
// the mining component's actual input on the device.
package middleware

import (
	"fmt"
	"sort"

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
	var events []Event
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
		events = append(events, sampleActivity(t, a, cfg)...)
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Time != events[j].Time {
			return events[i].Time < events[j].Time
		}
		// Screen events precede samples at the same instant so state
		// transitions apply before readings.
		return eventOrder(events[i].Kind) < eventOrder(events[j].Kind)
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

// sampleActivity splits one transfer into timer-period byte samples,
// mirroring how the monitor's counters would observe it.
func sampleActivity(t *trace.Trace, a trace.NetworkActivity, cfg Config) []Event {
	period := cfg.ScreenOffSamplePeriod
	if t.ScreenOnAt(a.Start) {
		period = cfg.ScreenOnSamplePeriod
	}
	if period <= 0 {
		period = simtime.Second
	}
	var events []Event
	total := a.Duration
	if total <= 0 {
		total = 1
	}
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
func RecordsToTrace(db *recorddb.DB, days int, installed []trace.AppID) (*trace.Trace, error) {
	if days <= 0 {
		return nil, fmt.Errorf("middleware: non-positive day count %d", days)
	}
	if days > maxConvertDays {
		return nil, fmt.Errorf("middleware: day count %d above limit %d", days, maxConvertDays)
	}
	horizon := simtime.Instant(simtime.Duration(days) * simtime.Day)
	out := &trace.Trace{Days: days, InstalledApps: append([]trace.AppID(nil), installed...)}

	// Screen sessions: pair on/off records.
	var onAt simtime.Instant = -1
	for _, r := range db.Query(0, horizon, recorddb.FeatureScreen) {
		if r.Value == 1 {
			if onAt < 0 {
				onAt = r.Time
			}
		} else if onAt >= 0 {
			if r.Time > onAt {
				out.Sessions = append(out.Sessions, trace.ScreenSession{
					Interval: simtime.Interval{Start: onAt, End: r.Time},
				})
			}
			onAt = -1
		}
	}
	if onAt >= 0 && onAt < horizon {
		out.Sessions = append(out.Sessions, trace.ScreenSession{
			Interval: simtime.Interval{Start: onAt, End: horizon},
		})
	}

	for _, r := range db.Query(0, horizon, recorddb.FeatureInteraction) {
		out.Interactions = append(out.Interactions, trace.Interaction{Time: r.Time, App: r.App})
	}

	// Network activities: merge per-app sample runs.
	type agg struct {
		start, last simtime.Instant
		down, up    int64
	}
	const mergeGap = 30 // one screen-off sample period, in seconds
	open := make(map[trace.AppID]*agg)
	flush := func(app trace.AppID, a *agg) {
		dur := a.last.Sub(a.start) + 1
		if dur <= 0 {
			dur = 1
		}
		out.Activities = append(out.Activities, trace.NetworkActivity{
			App:       app,
			Start:     a.start,
			Duration:  dur,
			BytesDown: a.down,
			BytesUp:   a.up,
			Kind:      trace.KindSync, // the monitor cannot observe intent
		})
	}
	for _, r := range db.Query(0, horizon, recorddb.FeatureNetwork) {
		a, ok := open[r.App]
		if ok && r.Time.Sub(a.last) > mergeGap {
			flush(r.App, a)
			ok = false
		}
		if !ok {
			a = &agg{start: r.Time, last: r.Time}
			open[r.App] = a
		}
		a.last = r.Time
		if r.Up {
			a.up += r.Value
		} else {
			a.down += r.Value
		}
	}
	apps := make([]trace.AppID, 0, len(open))
	for app := range open {
		apps = append(apps, app)
	}
	sort.Slice(apps, func(i, j int) bool { return apps[i] < apps[j] })
	for _, app := range apps {
		flush(app, open[app])
	}

	out.Normalize()
	// Clamp any activity spilling past the horizon (a run still open at
	// the boundary).
	for i := range out.Activities {
		if out.Activities[i].End() > horizon {
			out.Activities[i].Duration = horizon.Sub(out.Activities[i].Start)
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("middleware: rebuilt trace invalid: %w", err)
	}
	return out, nil
}
