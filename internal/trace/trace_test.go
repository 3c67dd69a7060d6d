package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"netmaster/internal/simtime"
)

// tinyTrace builds a small, valid two-day trace used across the tests:
// two sessions on day 0, one on day 1, mixed activities and interactions.
func tinyTrace() *Trace {
	t := &Trace{
		UserID:        "tiny",
		Days:          2,
		InstalledApps: []AppID{"chat", "mail", "game"},
		Sessions: []ScreenSession{
			{Interval: simtime.Interval{Start: simtime.At(0, 8, 0, 0), End: simtime.At(0, 8, 0, 30)}},
			{Interval: simtime.Interval{Start: simtime.At(0, 20, 0, 0), End: simtime.At(0, 20, 1, 0)}},
			{Interval: simtime.Interval{Start: simtime.At(1, 9, 0, 0), End: simtime.At(1, 9, 0, 20)}},
		},
		Activities: []NetworkActivity{
			{App: "chat", Start: simtime.At(0, 3, 0, 0), Duration: 10, BytesDown: 2048, BytesUp: 512, Kind: KindSync},
			{App: "chat", Start: simtime.At(0, 8, 0, 5), Duration: 8, BytesDown: 20480, BytesUp: 4096, Kind: KindUserDriven},
			{App: "mail", Start: simtime.At(0, 14, 0, 0), Duration: 5, BytesDown: 1024, BytesUp: 256, Kind: KindPush},
			{App: "chat", Start: simtime.At(1, 2, 0, 0), Duration: 12, BytesDown: 3000, BytesUp: 700, Kind: KindSync},
		},
		Interactions: []Interaction{
			{Time: simtime.At(0, 8, 0, 10), App: "chat", WantsNetwork: true},
			{Time: simtime.At(0, 20, 0, 30), App: "mail", WantsNetwork: false},
			{Time: simtime.At(1, 9, 0, 5), App: "chat", WantsNetwork: true},
		},
	}
	t.Normalize()
	return t
}

func TestTinyTraceValid(t *testing.T) {
	if err := tinyTrace().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestActivityKindStringRoundtrip(t *testing.T) {
	for _, k := range []ActivityKind{KindSync, KindPush, KindUserDriven, KindStream} {
		parsed, err := ParseActivityKind(k.String())
		if err != nil {
			t.Fatal(err)
		}
		if parsed != k {
			t.Errorf("roundtrip of %v gave %v", k, parsed)
		}
	}
	if _, err := ParseActivityKind("bogus"); err == nil {
		t.Error("parsing bogus kind should fail")
	}
	if ActivityKind(99).String() == "" {
		t.Error("invalid kind should still render")
	}
}

func TestIsBackground(t *testing.T) {
	if !KindSync.IsBackground() || !KindPush.IsBackground() {
		t.Error("sync/push must be background")
	}
	if KindUserDriven.IsBackground() || KindStream.IsBackground() {
		t.Error("user/stream must not be background")
	}
}

func TestNetworkActivityAccessors(t *testing.T) {
	a := NetworkActivity{Start: 100, Duration: 10, BytesDown: 3000, BytesUp: 1000}
	if a.End() != 110 {
		t.Errorf("End = %v", a.End())
	}
	if a.Bytes() != 4000 {
		t.Errorf("Bytes = %v", a.Bytes())
	}
	if a.RateBps() != 400 {
		t.Errorf("RateBps = %v", a.RateBps())
	}
	zero := NetworkActivity{BytesDown: 500}
	if zero.RateBps() != 500 {
		t.Errorf("zero-duration rate = %v", zero.RateBps())
	}
}

func TestValidateRejections(t *testing.T) {
	mutations := map[string]func(*Trace){
		"zero days":           func(tr *Trace) { tr.Days = 0 },
		"empty session":       func(tr *Trace) { tr.Sessions[0].Interval.End = tr.Sessions[0].Interval.Start },
		"session past end":    func(tr *Trace) { tr.Sessions[2].Interval.End = simtime.At(2, 0, 0, 1) },
		"overlapping session": func(tr *Trace) { tr.Sessions[1].Interval.Start = tr.Sessions[0].Interval.End - 10 },
		"negative volume":     func(tr *Trace) { tr.Activities[0].BytesDown = -1 },
		"negative duration":   func(tr *Trace) { tr.Activities[0].Duration = -1 },
		"activity past end":   func(tr *Trace) { tr.Activities[3].Duration = 2 * simtime.Day },
		"unsorted activities": func(tr *Trace) { tr.Activities[0], tr.Activities[3] = tr.Activities[3], tr.Activities[0] },
		"interaction outside": func(tr *Trace) { tr.Interactions[0].Time = -5 },
		"unsorted interactions": func(tr *Trace) {
			tr.Interactions[0], tr.Interactions[2] = tr.Interactions[2], tr.Interactions[0]
		},
	}
	for name, mutate := range mutations {
		tr := tinyTrace()
		mutate(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid trace", name)
		}
	}
}

func TestScreenOnAt(t *testing.T) {
	tr := tinyTrace()
	cases := []struct {
		at   simtime.Instant
		want bool
	}{
		{simtime.At(0, 8, 0, 0), true},   // session start inclusive
		{simtime.At(0, 8, 0, 29), true},  // inside
		{simtime.At(0, 8, 0, 30), false}, // session end exclusive
		{simtime.At(0, 3, 0, 0), false},  // night
		{simtime.At(1, 9, 0, 10), true},  // day-1 session
	}
	for _, c := range cases {
		if got := tr.ScreenOnAt(c.at); got != c.want {
			t.Errorf("ScreenOnAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestSessionNavigation(t *testing.T) {
	tr := tinyTrace()
	if _, ok := tr.SessionAt(simtime.At(0, 8, 0, 10)); !ok {
		t.Error("SessionAt inside a session failed")
	}
	if _, ok := tr.SessionAt(simtime.At(0, 10, 0, 0)); ok {
		t.Error("SessionAt outside reported a session")
	}
	next, ok := tr.NextSessionAfter(simtime.At(0, 8, 0, 30))
	if !ok || next.Interval.Start != simtime.At(0, 20, 0, 0) {
		t.Errorf("NextSessionAfter = %v, %v", next, ok)
	}
	if _, ok := tr.NextSessionAfter(simtime.At(1, 23, 0, 0)); ok {
		t.Error("NextSessionAfter past the last session should fail")
	}
	prev, ok := tr.PrevSessionBefore(simtime.At(0, 12, 0, 0))
	if !ok || prev.Interval.Start != simtime.At(0, 8, 0, 0) {
		t.Errorf("PrevSessionBefore = %v, %v", prev, ok)
	}
	if _, ok := tr.PrevSessionBefore(simtime.At(0, 1, 0, 0)); ok {
		t.Error("PrevSessionBefore before everything should fail")
	}
}

func TestSplitByScreen(t *testing.T) {
	tr := tinyTrace()
	on, off := tr.SplitByScreen()
	if len(on) != 1 || len(off) != 3 {
		t.Fatalf("split = %d on, %d off", len(on), len(off))
	}
	if on[0].Kind != KindUserDriven {
		t.Errorf("screen-on activity = %+v", on[0])
	}
}

func TestScreenOnTotal(t *testing.T) {
	if got := tinyTrace().ScreenOnTotal(); got != 30+60+20 {
		t.Errorf("ScreenOnTotal = %v", got)
	}
}

func TestHourlyIntensity(t *testing.T) {
	tr := tinyTrace()
	v := tr.HourlyIntensity(0)
	if v[8] != 1 || v[20] != 1 {
		t.Errorf("day 0 intensity = %v", v)
	}
	total := tr.TotalIntensity()
	if total[8] != 1 || total[9] != 1 || total[20] != 1 {
		t.Errorf("total intensity = %v", total)
	}
	app := tr.AppHourlyIntensity("chat")
	if app[8] != 1 || app[9] != 1 || app[20] != 0 {
		t.Errorf("chat intensity = %v", app)
	}
}

func TestAppUsageCountsAndNetworkApps(t *testing.T) {
	tr := tinyTrace()
	counts := tr.AppUsageCounts()
	if counts[0].App != "chat" || counts[0].Count != 2 {
		t.Errorf("top app = %+v", counts[0])
	}
	apps := tr.NetworkApps()
	if len(apps) != 2 || apps[0] != "chat" || apps[1] != "mail" {
		t.Errorf("NetworkApps = %v", apps)
	}
}

func TestTotalBytes(t *testing.T) {
	down, up := tinyTrace().TotalBytes()
	if down != 2048+20480+1024+3000 || up != 512+4096+256+700 {
		t.Errorf("TotalBytes = %d, %d", down, up)
	}
}

func TestActivitiesAndInteractionsOfDay(t *testing.T) {
	tr := tinyTrace()
	if got := len(tr.ActivitiesOfDay(0)); got != 3 {
		t.Errorf("day 0 activities = %d", got)
	}
	if got := len(tr.ActivitiesOfDay(1)); got != 1 {
		t.Errorf("day 1 activities = %d", got)
	}
	if got := len(tr.InteractionsOfDay(1)); got != 1 {
		t.Errorf("day 1 interactions = %d", got)
	}
}

func TestClone(t *testing.T) {
	tr := tinyTrace()
	c := tr.Clone()
	c.Activities[0].BytesDown = 999999
	c.Sessions[0].Interval.End += 5
	if tr.Activities[0].BytesDown == 999999 || tr.Sessions[0].Interval.End == c.Sessions[0].Interval.End {
		t.Error("Clone shares memory with the original")
	}
}

func TestPrefixDays(t *testing.T) {
	tr := tinyTrace()
	p := tr.PrefixDays(1)
	if p.Days != 1 {
		t.Fatalf("Days = %d", p.Days)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Sessions) != 2 || len(p.Activities) != 3 || len(p.Interactions) != 2 {
		t.Errorf("prefix counts = %d/%d/%d", len(p.Sessions), len(p.Activities), len(p.Interactions))
	}
	// Prefix of more days than exist clones the whole trace.
	full := tr.PrefixDays(10)
	if full.Days != 2 || len(full.Activities) != 4 {
		t.Error("over-long prefix should clone")
	}
}

func TestPrefixDaysClipsSpanningEvents(t *testing.T) {
	tr := &Trace{
		UserID: "clip", Days: 2,
		Sessions: []ScreenSession{
			{Interval: simtime.Interval{Start: simtime.At(0, 23, 59, 0), End: simtime.At(1, 0, 1, 0)}},
		},
		Activities: []NetworkActivity{
			{App: "a", Start: simtime.At(0, 23, 59, 30), Duration: 120, Kind: KindSync},
		},
	}
	p := tr.PrefixDays(1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Sessions[0].Interval.End != simtime.At(1, 0, 0, 0) {
		t.Errorf("session not clipped: %v", p.Sessions[0].Interval)
	}
	if p.Activities[0].End() != simtime.At(1, 0, 0, 0) {
		t.Errorf("activity not clipped: ends %v", p.Activities[0].End())
	}
}

func TestDayView(t *testing.T) {
	tr := tinyTrace()
	d1 := tr.DayView(1)
	if d1.Days != 1 {
		t.Fatalf("Days = %d", d1.Days)
	}
	if err := d1.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d1.Sessions) != 1 || d1.Sessions[0].Interval.Start != simtime.At(0, 9, 0, 0) {
		t.Errorf("shifted session = %+v", d1.Sessions)
	}
	if len(d1.Activities) != 1 || d1.Activities[0].Start != simtime.At(0, 2, 0, 0) {
		t.Errorf("shifted activity = %+v", d1.Activities)
	}
}

func TestAppend(t *testing.T) {
	tr := tinyTrace()
	hist := tinyTrace()
	hist.Days = 7 // pad to a whole week
	merged, err := Append(hist, tr)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Days != 9 {
		t.Fatalf("merged days = %d", merged.Days)
	}
	if err := merged.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(merged.Activities) != 8 || len(merged.Sessions) != 6 {
		t.Errorf("merged counts = %d acts, %d sessions", len(merged.Activities), len(merged.Sessions))
	}
	// Current trace's first activity lands shifted by 7 days.
	found := false
	for _, a := range merged.Activities {
		if a.Start == simtime.At(7, 3, 0, 0) {
			found = true
		}
	}
	if !found {
		t.Error("shifted activity not found at day 7")
	}
	// Weekday alignment enforcement.
	badHist := tinyTrace() // 2 days, not a whole week
	if _, err := Append(badHist, tr); err == nil {
		t.Error("Append accepted a non-week-aligned history")
	}
}

func TestNormalizeIsIdempotentAndStable(t *testing.T) {
	tr := tinyTrace()
	// Shuffle by reversing, normalize, and compare against a second
	// normalization round.
	for i, j := 0, len(tr.Activities)-1; i < j; i, j = i+1, j-1 {
		tr.Activities[i], tr.Activities[j] = tr.Activities[j], tr.Activities[i]
	}
	tr.Normalize()
	once := tr.Clone()
	tr.Normalize()
	if len(once.Activities) != len(tr.Activities) {
		t.Fatal("length changed")
	}
	for i := range once.Activities {
		if once.Activities[i] != tr.Activities[i] {
			t.Fatalf("activity %d moved on re-normalize", i)
		}
	}
}

func TestHorizonAndDayViewBounds(t *testing.T) {
	tr := tinyTrace()
	if tr.Horizon() != 2*simtime.Day {
		t.Errorf("Horizon = %v", tr.Horizon())
	}
	// DayView of a day with no events is valid and empty.
	tr2 := tinyTrace()
	tr2.Days = 3
	d2 := tr2.DayView(2)
	if err := d2.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d2.Sessions)+len(d2.Activities)+len(d2.Interactions) != 0 {
		t.Error("empty day view has events")
	}
}

// linearOfDay is the whole-trace scan the day views replaced: the
// reference their binary searches must agree with.
func linearOfDay(t *Trace, day int) ([]NetworkActivity, []Interaction) {
	iv := simtime.Interval{Start: simtime.At(day, 0, 0, 0), End: simtime.At(day+1, 0, 0, 0)}
	var acts []NetworkActivity
	for _, a := range t.Activities {
		if iv.Contains(a.Start) {
			acts = append(acts, a)
		}
	}
	var ias []Interaction
	for _, ia := range t.Interactions {
		if iv.Contains(ia.Time) {
			ias = append(ias, ia)
		}
	}
	return acts, ias
}

// TestOfDayMatchesLinearScan: ActivitiesOfDay and InteractionsOfDay
// return exactly what a scan of the whole trace returns, for every day
// (and the days just outside the trace) of random valid traces whose
// events sit exactly on midnights, in the last second of a day, and on
// the first and last day. Each result is a fresh slice: appending to it
// leaves the trace alone.
func TestOfDayMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 200; n++ {
		days := 1 + rng.Intn(5)
		tr := &Trace{UserID: "u", Days: days}
		var times []simtime.Instant
		for k := rng.Intn(40); k > 0; k-- {
			switch rng.Intn(5) {
			case 0:
				times = append(times, simtime.At(rng.Intn(days), 0, 0, 0))
			case 1:
				times = append(times, simtime.At(rng.Intn(days)+1, 0, 0, 0)-1)
			case 2:
				times = append(times, 0, simtime.At(days, 0, 0, 0)-1)
			default:
				times = append(times, simtime.Instant(rng.Int63n(int64(simtime.At(days, 0, 0, 0)))))
			}
		}
		slices.Sort(times)
		for i, ti := range times {
			tr.Activities = append(tr.Activities, NetworkActivity{App: AppID(fmt.Sprint(i)), Start: ti, BytesDown: int64(i)})
			tr.Interactions = append(tr.Interactions, Interaction{Time: ti, App: AppID(fmt.Sprint(i))})
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		for day := -1; day <= days; day++ {
			wantActs, wantIas := linearOfDay(tr, day)
			acts, ias := tr.ActivitiesOfDay(day), tr.InteractionsOfDay(day)
			if !reflect.DeepEqual(acts, wantActs) || !reflect.DeepEqual(ias, wantIas) {
				t.Fatalf("trace %d, day %d of %d: got %v / %v, want %v / %v", n, day, days, acts, ias, wantActs, wantIas)
			}
			beforeActs, beforeIas := slices.Clone(tr.Activities), slices.Clone(tr.Interactions)
			_ = append(acts, NetworkActivity{App: "appended"})
			_ = append(ias, Interaction{App: "appended"})
			for i := range acts {
				acts[i].App = "overwritten"
			}
			for i := range ias {
				ias[i].App = "overwritten"
			}
			if !reflect.DeepEqual(tr.Activities, beforeActs) || !reflect.DeepEqual(tr.Interactions, beforeIas) {
				t.Fatalf("trace %d, day %d: writing to a day view changed the trace", n, day)
			}
		}
	}
}
