package middleware

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"netmaster/internal/faults"
	"netmaster/internal/habit"
	"netmaster/internal/power"
	"netmaster/internal/recorddb"
	"netmaster/internal/simtime"
	"netmaster/internal/synth"
	"netmaster/internal/trace"
	"netmaster/internal/tracing"
)

// recordsToTraceRef is the batch history rebuild as it stood before
// RecordsToTrace moved onto the history builder, kept verbatim as the
// oracle: three feature queries, run merging over the whole record set,
// Normalize, clamp, Validate.
func recordsToTraceRef(db *recorddb.DB, days int, installed []trace.AppID) (*trace.Trace, error) {
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

// minedReference is what a night's mining must adopt: habit.Mine over the
// batch rebuild of every record below day's midnight, read back from the
// service's own DB, and the allowlist derived from that history plus the
// install grace.
func minedReference(t *testing.T, svc *Service, day int) (*habit.Profile, []trace.AppID) {
	t.Helper()
	installed := make([]trace.AppID, 0, len(svc.installDay))
	for app := range svc.installDay {
		installed = append(installed, app)
	}
	sort.Slice(installed, func(i, j int) bool { return installed[i] < installed[j] })
	hist, err := recordsToTraceRef(svc.DB(), day, installed)
	if err != nil {
		t.Fatalf("night %d: reference rebuild: %v", day, err)
	}
	p, err := habit.Mine(hist, svc.cfg.Habit)
	if err != nil {
		t.Fatalf("night %d: reference mine: %v", day, err)
	}
	special := habit.DetectSpecialApps(hist)
	for app, d0 := range svc.installDay {
		if day-d0 < newInstallGraceDays && !slices.Contains(special, app) {
			special = append(special, app)
		}
	}
	sort.Slice(special, func(i, j int) bool { return special[i] < special[j] })
	return p, special
}

// driveNights drives events through svc with driveWeek. Ahead of the
// call that crosses a midnight it runs that night's mining itself — the
// call would run it first thing anyway — and hands the night to check,
// so the profile and allowlist are seen exactly as mining left them.
// The last night mined is the horizon's.
func driveNights(t *testing.T, svc *Service, events []Event, horizon simtime.Instant, late bool, check func(day int)) {
	t.Helper()
	night := func(at simtime.Instant) {
		at = max(at, svc.lastEvent) // HandleLate's clamp
		if d := at.Day(); d > svc.lastMined && d != 0 {
			svc.mineIfDue(at)
			check(d)
		}
	}
	driveWeek(t, svc, events, horizon, late, night, nil)
	night(horizon)
}

// checkNight compares the service's mining state right after night day
// with the batch reference. A failed night leaves the profile of the
// last good one, which must still match the reference at that night;
// a good night also replaced the allowlist.
func checkNight(t *testing.T, svc *Service, day int) (mined bool) {
	t.Helper()
	if svc.Profile() == nil {
		return false
	}
	want, special := minedReference(t, svc, svc.days)
	if !reflect.DeepEqual(svc.Profile(), want) {
		t.Fatalf("night %d: profile of night %d differs from habit.Mine of the rebuilt history", day, svc.days)
	}
	if svc.days != day {
		return false
	}
	if got := sortedSpecial(svc); !reflect.DeepEqual(got, append([]trace.AppID{}, special...)) {
		t.Fatalf("night %d: allowlist %v, reference %v", day, got, special)
	}
	return true
}

// TestNightlyMiningMatchesBatch replays cohort traces through the service
// and checks every night's profile and allowlist against habit.Mine of the
// batch rebuild — plainly, and under fault schedules that fail, empty
// and corrupt mining runs, drop DB writes, and perturb the event stream.
// The fault runs end with a real ReplayChaos checked the same way.
func TestNightlyMiningMatchesBatch(t *testing.T) {
	const days = 10
	model := power.Model3G()
	for _, tc := range []struct {
		name string
		user int
		seed int64 // 0: no fault schedule
	}{{"plain/u0", 0, 0}, {"plain/u1", 1, 0}, {"plain/u2", 2, 0}, {"faulty/u1", 1, 5}, {"faulty/u2", 2, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := synth.Generate(synth.EvalCohort()[tc.user], days)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultReplayConfig(model).Service
			events, err := EventsFromTrace(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fc := faults.Config{
				Seed:            tc.seed,
				DBWriteFailProb: 0.02,
				MineFailProb:    0.2, MineCorruptProb: 0.2, MineEmptyProb: 0.2,
				DropEventProb: 0.02, DupEventProb: 0.02, ReorderEventProb: 0.02,
			}
			sink := tracing.NewSink(1 << 16)
			if tc.seed != 0 {
				inj, err := faults.New(fc)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Faults, cfg.Tracing = inj, sink
				cs := &chaosState{inj: inj, obs: newRepObs(nil, nil)}
				events = cs.perturb(events)
			}
			svc, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			nights, mined := 0, 0
			driveNights(t, svc, events, simtime.Instant(tr.Horizon()), tc.seed != 0, func(day int) {
				nights++
				if checkNight(t, svc, day) {
					mined++
				}
			})
			if nights != days {
				t.Fatalf("%d nights mined, want %d", nights, days)
			}
			if tc.seed == 0 {
				if mined != days {
					t.Fatalf("%d of %d nights adopted a profile", mined, days)
				}
				return
			}
			// The schedule must reach every mining fault and the DB.
			seen := map[string]bool{}
			for _, ev := range sink.Events() {
				if ev.Kind != tracing.KindMineRun || ev.Outcome != "fail" {
					continue
				}
				switch {
				case strings.Contains(ev.Detail, "mining run at"):
					seen["fail"] = true
				case strings.Contains(ev.Detail, "does not tile a day"):
					seen["empty"] = true
				case strings.Contains(ev.Detail, "probability"):
					seen["corrupt"] = true
				}
			}
			if sink.Dropped() != 0 || len(seen) != 3 || mined == 0 || svc.Health().DBFaults == 0 {
				t.Fatalf("schedule hit %v, %d good nights, %d DB faults: not every path exercised",
					seen, mined, svc.Health().DBFaults)
			}

			ccfg := DefaultChaosConfig(model)
			ccfg.Faults = fc
			res, err := ReplayChaos(tr, ccfg)
			if err != nil {
				t.Fatal(err)
			}
			// Installs and new candidates may have joined the allowlist
			// since the last good night, so only the profile is compared.
			svc = res.Service
			if svc.Profile() == nil || res.Health.MineFaults == 0 {
				t.Fatalf("chaos replay: %d mining faults, no profile adopted", res.Health.MineFaults)
			}
			if want, _ := minedReference(t, svc, svc.days); !reflect.DeepEqual(svc.Profile(), want) {
				t.Fatalf("chaos replay: profile of night %d differs from habit.Mine of the rebuilt history", svc.days)
			}
		})
	}
}

// TestNightlyMiningRunsAcrossMidnight drives sample runs that stay open
// across several midnights — the case the cohort traces never produce —
// and checks every night against the batch reference. A gap of at most
// 30 s keeps a run open; 22:00 and midnight are multiples of 10, 30 and
// 45 s, so the 30 s run has a sample exactly 30 s before each midnight
// and the next exactly at it. A second app runs on alternate days, a
// screen session spans one midnight, and interactions make both apps
// Special.
func TestNightlyMiningRunsAcrossMidnight(t *testing.T) {
	const days = 5
	for _, gap := range []simtime.Duration{10, 29, 30, 31, 45} {
		t.Run(fmt.Sprintf("gap=%ds", gap), func(t *testing.T) {
			events := []Event{
				{Time: 0, Kind: EventAppInstalled, App: "a"},
				{Time: 0, Kind: EventAppInstalled, App: "b"},
				{Time: simtime.At(1, 23, 0, 0), Kind: EventScreenOn},
				{Time: simtime.At(1, 23, 5, 0), Kind: EventInteraction, App: "a"},
				{Time: simtime.At(2, 1, 0, 0), Kind: EventScreenOff},
				{Time: simtime.At(3, 9, 0, 0), Kind: EventInteraction, App: "b"},
			}
			sample := func(app trace.AppID, from, to simtime.Instant) {
				for at := from; at < to; at = at.Add(gap) {
					events = append(events, Event{Time: at, Kind: EventNetSample, App: app, BytesDown: 1000 + int64(at%7), BytesUp: 10})
				}
			}
			// App a: one run from day 0 22:00 to day 3 02:00.
			sample("a", simtime.At(0, 22, 0, 0), simtime.At(3, 2, 0, 0))
			// App b: 20 minutes either side of midnight, alternate days.
			for d := 0; d < days-1; d += 2 {
				sample("b", simtime.At(d, 23, 40, 0), simtime.At(d+1, 0, 20, 0))
			}
			slices.SortStableFunc(events, func(x, y Event) int {
				if x.Time != y.Time {
					return int(x.Time - y.Time)
				}
				return eventOrder(x.Kind) - eventOrder(y.Kind)
			})
			svc, err := New(DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			nights := 0
			driveNights(t, svc, events, simtime.At(days, 0, 0, 0), false, func(day int) {
				nights++
				if !checkNight(t, svc, day) {
					t.Fatalf("night %d adopted no profile", day)
				}
			})
			if nights != days {
				t.Fatalf("%d nights mined, want %d", nights, days)
			}
		})
	}
}

// TestNightlyMiningOverflowedVolumeFails feeds a sample run whose byte
// count overflows int64 after an earlier day has been sealed: every
// later night must fail with the batch rebuild's own error text — which
// numbers the bad activity within the whole history, not within the
// nightly tail — and keep the last good profile.
func TestNightlyMiningOverflowedVolumeFails(t *testing.T) {
	cfg := DefaultConfig()
	sink := tracing.NewSink(64)
	cfg.Tracing = sink
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	half := int64(math.MaxInt64/2 + 1)
	events := []Event{
		{Time: 100, Kind: EventNetSample, App: "b", BytesDown: 500},
		{Time: simtime.At(1, 0, 1, 40), Kind: EventNetSample, App: "a", BytesDown: half},
		{Time: simtime.At(1, 0, 1, 50), Kind: EventNetSample, App: "a", BytesDown: half},
	}
	const days = 3
	driveNights(t, svc, events, simtime.At(days, 0, 0, 0), false, func(day int) {
		checkNight(t, svc, day)
	})
	_, wantErr := recordsToTraceRef(svc.DB(), days, nil)
	if wantErr == nil {
		t.Fatal("reference rebuild accepted an overflowed volume")
	}
	var details []string
	for _, ev := range sink.Events() {
		if ev.Kind == tracing.KindMineRun {
			details = append(details, ev.Outcome+" "+ev.Detail)
		}
	}
	want := []string{"ok ", "fail " + wantErr.Error(), "fail " + wantErr.Error()}
	if !reflect.DeepEqual(details, want) {
		t.Fatalf("mining runs %q, want %q", details, want)
	}
	if svc.days != 1 || svc.Health().MineFaults != 2 {
		t.Fatalf("last good night %d, %d mining faults; want night 1, 2 faults", svc.days, svc.Health().MineFaults)
	}
}
