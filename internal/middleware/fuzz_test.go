package middleware

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"netmaster/internal/recorddb"
	"netmaster/internal/simtime"
	"netmaster/internal/trace"
)

// fuzzWords decodes the fuzz payload into a stream of int64 values —
// the cheap way to let the fuzzer steer structured inputs.
type fuzzWords struct {
	data []byte
	off  int
}

func (w *fuzzWords) next() int64 {
	if w.off+8 > len(w.data) {
		w.off = len(w.data)
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(w.data[w.off:]))
	w.off += 8
	return v
}

func (w *fuzzWords) bounded(n int64) int64 {
	v := w.next() % n
	if v < 0 {
		v += n
	}
	return v
}

// FuzzEventsFromTrace builds arbitrary (frequently malformed) traces and
// requires EventsFromTrace to either reject them or return a stream that
// is chronologically ordered, covers every session and interaction, and
// conserves every activity's bytes across its samples. It must never
// panic regardless of input.
func FuzzEventsFromTrace(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	seed := make([]byte, 0, 256)
	for _, v := range []int64{2, 1, 100, 2000, 2, 30, 500, 7, 1000, 3000} {
		seed = binary.LittleEndian.AppendUint64(seed, uint64(v))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		w := &fuzzWords{data: data}
		tr := &trace.Trace{
			UserID:        "fuzz",
			Days:          int(w.next()), // arbitrary, often invalid
			InstalledApps: []trace.AppID{"app0", "app1"},
		}
		nSessions := int(w.bounded(5))
		for i := 0; i < nSessions; i++ {
			start := simtime.Instant(w.bounded(int64(4 * simtime.Day)))
			tr.Sessions = append(tr.Sessions, trace.ScreenSession{
				Interval: simtime.Interval{Start: start, End: start + simtime.Instant(w.bounded(7200))},
			})
		}
		nActs := int(w.bounded(6))
		for i := 0; i < nActs; i++ {
			tr.Activities = append(tr.Activities, trace.NetworkActivity{
				App:       trace.AppID([]string{"app0", "app1"}[w.bounded(2)]),
				Start:     simtime.Instant(w.next() % int64(4*simtime.Day)),
				Duration:  simtime.Duration(w.next() % 7200),
				BytesDown: w.next() % (1 << 32),
				BytesUp:   w.next() % (1 << 32),
				Kind:      trace.KindSync,
			})
		}
		nIas := int(w.bounded(4))
		for i := 0; i < nIas; i++ {
			tr.Interactions = append(tr.Interactions, trace.Interaction{
				Time: simtime.Instant(w.next() % int64(4*simtime.Day)),
				App:  "app0",
			})
		}

		events, err := EventsFromTrace(tr, DefaultConfig())
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Ordering: nondecreasing time, state transitions before
		// readings at the same instant.
		for i := 1; i < len(events); i++ {
			if events[i].Time < events[i-1].Time {
				t.Fatalf("events unsorted at %d: %v after %v", i, events[i].Time, events[i-1].Time)
			}
			if events[i].Time == events[i-1].Time &&
				eventOrder(events[i].Kind) < eventOrder(events[i-1].Kind) {
				t.Fatalf("event kinds misordered at %d within instant %v", i, events[i].Time)
			}
		}
		// Coverage: every session contributes a pair of screen events,
		// every interaction one event, every activity at least one
		// sample — and samples conserve the activity's bytes.
		screen, ias, installed := 0, 0, 0
		var down, up int64
		for _, e := range events {
			switch e.Kind {
			case EventScreenOn, EventScreenOff:
				screen++
			case EventInteraction:
				ias++
			case EventAppInstalled:
				installed++
			case EventNetSample:
				down += e.BytesDown
				up += e.BytesUp
			}
		}
		if screen != 2*len(tr.Sessions) {
			t.Fatalf("%d screen events for %d sessions", screen, len(tr.Sessions))
		}
		if ias != len(tr.Interactions) {
			t.Fatalf("%d interaction events for %d interactions", ias, len(tr.Interactions))
		}
		if installed != len(tr.InstalledApps) {
			t.Fatalf("%d install events for %d apps", installed, len(tr.InstalledApps))
		}
		var wantDown, wantUp int64
		for _, a := range tr.Activities {
			wantDown += a.BytesDown
			wantUp += a.BytesUp
		}
		if down != wantDown || up != wantUp {
			t.Fatalf("samples carry %d/%d bytes, activities %d/%d", down, up, wantDown, wantUp)
		}
	})
}

// FuzzRecordsToTrace feeds the miner's trace rebuild arbitrary record
// sets — duplicate timestamps, out-of-order appends, unmatched screen
// transitions, negative values — and requires it to either return an
// error or a trace that passes Validate, with the same outcome, error
// text and trace as recordsToTraceRef, the batch rebuild it replaced.
// It must never panic.
func FuzzRecordsToTrace(f *testing.F) {
	f.Add([]byte{}, 1)
	f.Add(make([]byte, 96), 2)
	seed := make([]byte, 0, 128)
	for _, v := range []int64{0, 1, 100, 0, 3, 200, 512, 3, 210, 256} {
		seed = binary.LittleEndian.AppendUint64(seed, uint64(v))
	}
	f.Add(seed, 3)
	f.Fuzz(checkRecordsToTrace)
}

// checkRecordsToTrace is FuzzRecordsToTrace's property on one input.
func checkRecordsToTrace(t *testing.T, data []byte, days int) {
	w := &fuzzWords{data: data}
	db, err := recorddb.Open(recorddb.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := int(w.bounded(40))
	for i := 0; i < n; i++ {
		kind := w.bounded(3)
		tm := simtime.Instant(w.next() % int64(10*simtime.Day)) // negative and duplicate times included
		switch kind {
		case 0:
			db.Append(recorddb.Record{
				Time: tm, Feature: recorddb.FeatureScreen, Value: w.bounded(2),
			})
		case 1:
			db.Append(recorddb.Record{
				Time: tm, Feature: recorddb.FeatureNetwork,
				App: trace.AppID([]string{"app0", "app1"}[w.bounded(2)]), Value: w.next() % (1 << 40), Up: w.bounded(2) == 1,
			})
		default:
			db.Append(recorddb.Record{
				Time: tm, Feature: recorddb.FeatureInteraction, App: "app1",
			})
		}
	}
	installed := []trace.AppID{"app0", "app1"}
	rebuilt, err := RecordsToTrace(db, days, installed)
	want, wantErr := recordsToTraceRef(db, days, installed)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("RecordsToTrace error %v, reference %v", err, wantErr)
	}
	if err != nil {
		return // rejection is fine; panics are not
	}
	if err := rebuilt.Validate(); err != nil {
		t.Fatalf("RecordsToTrace returned an invalid trace: %v", err)
	}
	if rebuilt.Days != days {
		t.Fatalf("rebuilt trace spans %d days, want %d", rebuilt.Days, days)
	}
	if !reflect.DeepEqual(rebuilt, want) {
		t.Fatalf("rebuilt trace differs from the reference:\n got %+v\nwant %+v", rebuilt, want)
	}
}

// TestRecordsToTraceMatchesReference runs the fuzz property over seeded
// pseudo-random record sets whose times cluster within a few minutes of
// each other and of midnights, so sample runs merge, split at the 30 s
// gap, collide on duplicate times and straddle the horizon — cases the
// uniform times of the fuzz seeds rarely reach.
func TestRecordsToTraceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		var data []byte
		word := func(v int64) { data = binary.LittleEndian.AppendUint64(data, uint64(v)) }
		n := 1 + rng.Int63n(39)
		word(n)
		base := simtime.At(rng.Intn(3), 0, 0, 0) + simtime.Instant(rng.Int63n(120)) - 60
		for j := int64(0); j < n; j++ {
			kind := rng.Int63n(3)
			word(kind)
			word(int64(base) + rng.Int63n(20)*rng.Int63n(3)) // equal, close and out-of-order times
			base += simtime.Instant(rng.Int63n(40))
			switch kind {
			case 0:
				word(rng.Int63n(2)) // screen on or off
			case 1:
				word(rng.Int63n(2))         // app
				word(rng.Int63n(1000) - 10) // volume, now and then negative
				word(rng.Int63n(2))         // uplink
			}
		}
		checkRecordsToTrace(t, data, 1+rng.Intn(3))
	}
}
