package middleware

import (
	"reflect"
	"sort"
	"testing"

	"netmaster/internal/faults"
	"netmaster/internal/power"
	"netmaster/internal/simtime"
	"netmaster/internal/synth"
	"netmaster/internal/trace"
)

// sortedSpecial is the allowlist rebuilt from scratch: special's keys,
// sorted.
func sortedSpecial(s *Service) []trace.AppID {
	out := []trace.AppID{}
	for app, ok := range s.special {
		if ok {
			out = append(out, app)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// driveWeek delivers events to svc in replay's order, ticking at every
// duty wake before the next event and to the horizon. It calls before,
// if set, with the time of every HandleEvent/HandleLate and Tick ahead
// of the call, and check, if set, after it. It returns every command
// issued.
func driveWeek(t *testing.T, svc *Service, events []Event, horizon simtime.Instant, late bool, before func(at simtime.Instant), check func(cmds []Command, tick bool)) []Command {
	t.Helper()
	var log []Command
	call := func(at simtime.Instant, tick bool, deliver func() ([]Command, error)) {
		if before != nil {
			before(at)
		}
		cmds, err := deliver()
		if err != nil {
			t.Fatal(err)
		}
		if check != nil {
			check(cmds, tick)
		}
		log = append(log, cmds...)
	}
	tick := func(until simtime.Instant) {
		for svc.nextWake >= 0 && !svc.screenOn && svc.nextWake < until {
			at := svc.nextWake
			call(at, true, func() ([]Command, error) { return svc.Tick(at) })
		}
	}
	for _, e := range events {
		tick(e.Time)
		deliver := svc.HandleEvent
		if late {
			deliver = svc.HandleLate
		}
		call(e.Time, false, func() ([]Command, error) { return deliver(e) })
	}
	tick(horizon)
	return log
}

// TestSpecialListCacheTracksAllowlist replays a cohort week, plain and
// under a faulty schedule: after every call the cached allowlist is
// either dropped or equal to special's sorted keys, every wake triggers
// exactly that list, and scribbling over a slice SpecialApps returned
// never reaches a later wake.
func TestSpecialListCacheTracksAllowlist(t *testing.T) {
	tr, err := synth.Generate(synth.EvalCohort()[1], 7)
	if err != nil {
		t.Fatal(err)
	}
	model := power.Model3G()
	for _, tc := range []struct {
		name string
		seed int64 // 0: no fault schedule
	}{{"plain", 0}, {"faulty", 14}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultReplayConfig(model).Service
			events, err := EventsFromTrace(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.seed != 0 {
				inj, err := faults.New(faults.Uniform(tc.seed, 0.08))
				if err != nil {
					t.Fatal(err)
				}
				cfg.Faults = inj
				cs := &chaosState{inj: inj, obs: newRepObs(nil, nil)}
				events = cs.perturb(events)
			}
			svc, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const scribble = trace.AppID("scribbled")
			wakes, rebuilt := 0, 0
			check := func(cmds []Command, tick bool) {
				want := sortedSpecial(svc)
				if svc.specialList == nil {
					rebuilt++
				} else if !reflect.DeepEqual(svc.specialList, want) {
					t.Fatalf("stale allowlist cache %v, special holds %v", svc.specialList, want)
				}
				synced := []trace.AppID{}
				for _, c := range cmds {
					if c.App == scribble {
						t.Fatalf("command %+v names an app written into a SpecialApps copy", c)
					}
					if c.Kind == CmdTriggerSync {
						synced = append(synced, c.App)
					}
				}
				// driveWeek ticks only at a due wake, so every tick wakes.
				if tick {
					wakes++
					if !reflect.DeepEqual(synced, want) {
						t.Fatalf("wake synced %v, allowlist %v", synced, want)
					}
				} else if len(synced) > 0 {
					t.Fatalf("event triggered syncs %v", synced)
				}
				if got := svc.SpecialApps(); !reflect.DeepEqual(got, want) {
					t.Fatalf("SpecialApps() = %v, want %v", got, want)
				} else if len(got) > 0 {
					got[0] = scribble
				}
			}
			log := driveWeek(t, svc, events, simtime.Instant(tr.Horizon()), tc.seed != 0, nil, check)
			if wakes < 1000 || rebuilt == 0 {
				t.Fatalf("%d wakes, %d cache drops: the week did not exercise the cache", wakes, rebuilt)
			}
			if tc.seed != 0 {
				if h := svc.Health(); h.DBFaults == 0 || h.MineFaults == 0 {
					t.Fatalf("faulty schedule injected no service faults: %+v", h)
				}
				return
			}
			// The plain drive is Replay's: the same command stream.
			res, err := Replay(tr, DefaultReplayConfig(model))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(log, res.Commands) {
				t.Fatalf("driven week issued %d commands, Replay %d", len(log), len(res.Commands))
			}
		})
	}
}
