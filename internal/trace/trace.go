// Package trace defines the smartphone usage-trace data model that stands
// in for the paper's on-device monitoring records: screen sessions,
// per-app network activities, and user interactions. The monitoring
// component of NetMaster records exactly these four features (time, app,
// cellular network, screen); every other module — the habit miner, the
// scheduler, the evaluator — consumes this model.
package trace

import (
	"fmt"
	"sort"

	"netmaster/internal/simtime"
)

// AppID identifies an application by its package name, e.g.
// "com.tencent.mm".
type AppID string

// ActivityKind classifies why a network activity happened. The scheduler
// treats the kinds differently: background kinds are deferrable while
// user-driven and streaming transfers must not be touched.
type ActivityKind int

const (
	// KindSync is an app-initiated periodic background transfer
	// (polling, keep-alives, feed refresh).
	KindSync ActivityKind = iota
	// KindPush is a server-initiated background transfer (incoming
	// message or notification). Pushes are deferrable but carry a user
	// experience cost when delayed.
	KindPush
	// KindUserDriven is a transfer triggered directly by a user
	// interaction with the screen on. Never rescheduled.
	KindUserDriven
	// KindStream is a long-lasting user-visible transfer (video,
	// VoIP). The paper explicitly exempts these from elimination.
	KindStream
)

var kindNames = [...]string{"sync", "push", "user", "stream"}

// String returns the kind's wire name.
func (k ActivityKind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("ActivityKind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseActivityKind is the inverse of String.
func ParseActivityKind(s string) (ActivityKind, error) {
	for i, n := range kindNames {
		if n == s {
			return ActivityKind(i), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown activity kind %q", s)
}

// IsBackground reports whether the kind is deferrable by a scheduler.
func (k ActivityKind) IsBackground() bool { return k == KindSync || k == KindPush }

// NetworkActivity is one network transfer burst as the monitor records it:
// which app, when it started, how long the radio was actively transferring
// and how many bytes moved each way.
type NetworkActivity struct {
	App       AppID            `json:"app"`
	Start     simtime.Instant  `json:"start"`
	Duration  simtime.Duration `json:"duration"`
	BytesDown int64            `json:"down"`
	BytesUp   int64            `json:"up"`
	Kind      ActivityKind     `json:"kind"`
}

// End returns the instant the transfer finishes.
func (n NetworkActivity) End() simtime.Instant { return n.Start.Add(n.Duration) }

// Interval returns the transfer's active interval.
func (n NetworkActivity) Interval() simtime.Interval {
	return simtime.Interval{Start: n.Start, End: n.End()}
}

// Bytes returns the total volume moved, the V(n) of the paper's knapsack
// weights.
func (n NetworkActivity) Bytes() int64 { return n.BytesDown + n.BytesUp }

// RateBps returns the average transfer rate in bytes per second; a
// zero-duration burst reports its volume as a 1-second rate.
func (n NetworkActivity) RateBps() float64 {
	d := n.Duration.Seconds()
	if d <= 0 {
		d = 1
	}
	return float64(n.Bytes()) / d
}

// ScreenSession is one screen-on period: from power-button wake to screen
// off.
type ScreenSession struct {
	Interval simtime.Interval `json:"interval"`
}

// Interaction is a single user-usage event: the user actively operating an
// app. The habit miner counts these per hour to build intensity vectors;
// the evaluator uses them to detect interrupted usage.
type Interaction struct {
	Time simtime.Instant `json:"time"`
	App  AppID           `json:"app"`
	// WantsNetwork marks interactions that need the network right away
	// (opening a chat, loading a page); blocking the radio during one
	// counts as a wrong decision in the user-experience metric.
	WantsNetwork bool `json:"wants_network"`
}

// Trace is the complete monitored record of one user over a number of
// days. All slices are kept sorted by time; use Normalize after bulk
// edits.
type Trace struct {
	UserID        string            `json:"user_id"`
	Days          int               `json:"days"`
	InstalledApps []AppID           `json:"installed_apps"`
	Sessions      []ScreenSession   `json:"sessions"`
	Activities    []NetworkActivity `json:"activities"`
	Interactions  []Interaction     `json:"interactions"`
	// WiFi lists the intervals during which the device sat inside Wi-Fi
	// coverage, sorted and non-overlapping. An empty list means the
	// device was cellular-only for the whole trace — the pre-dual-radio
	// format, which therefore round-trips byte-identically.
	WiFi []simtime.Interval `json:"wifi,omitempty"`
}

// Horizon returns the trace length as a duration.
func (t *Trace) Horizon() simtime.Duration {
	return simtime.Duration(t.Days) * simtime.Day
}

// Normalize sorts all event slices chronologically. Call it after
// constructing or mutating a trace by hand; the generator and readers
// return already-normalized traces.
func (t *Trace) Normalize() {
	sort.Slice(t.Sessions, func(i, j int) bool {
		return t.Sessions[i].Interval.Start < t.Sessions[j].Interval.Start
	})
	sort.Slice(t.Activities, func(i, j int) bool {
		if t.Activities[i].Start != t.Activities[j].Start {
			return t.Activities[i].Start < t.Activities[j].Start
		}
		return t.Activities[i].App < t.Activities[j].App
	})
	sort.Slice(t.Interactions, func(i, j int) bool {
		return t.Interactions[i].Time < t.Interactions[j].Time
	})
	if len(t.WiFi) > 0 {
		t.WiFi = simtime.MergeIntervals(t.WiFi)
	}
}

// Validate checks the structural invariants the rest of the system relies
// on: positive day count, in-horizon sorted events, non-overlapping screen
// sessions, non-negative volumes.
func (t *Trace) Validate() error {
	if t.Days <= 0 {
		return fmt.Errorf("trace %q: non-positive day count %d", t.UserID, t.Days)
	}
	horizon := simtime.Instant(t.Horizon())
	var prevEnd simtime.Instant
	for i, s := range t.Sessions {
		iv := s.Interval
		if iv.IsEmpty() {
			return fmt.Errorf("trace %q: empty screen session %d %v", t.UserID, i, iv)
		}
		if iv.Start < 0 || iv.End > horizon {
			return fmt.Errorf("trace %q: screen session %d %v outside horizon", t.UserID, i, iv)
		}
		if i > 0 && iv.Start < prevEnd {
			return fmt.Errorf("trace %q: screen sessions %d and %d overlap or are unsorted", t.UserID, i-1, i)
		}
		prevEnd = iv.End
	}
	var prevStart simtime.Instant
	for i, a := range t.Activities {
		if a.Start < 0 || a.End() > horizon {
			return fmt.Errorf("trace %q: activity %d [%v,%v) outside horizon", t.UserID, i, a.Start, a.End())
		}
		if a.Duration < 0 {
			return fmt.Errorf("trace %q: activity %d has negative duration", t.UserID, i)
		}
		if a.BytesDown < 0 || a.BytesUp < 0 {
			return fmt.Errorf("trace %q: activity %d has negative volume", t.UserID, i)
		}
		if i > 0 && a.Start < prevStart {
			return fmt.Errorf("trace %q: activities unsorted at %d", t.UserID, i)
		}
		prevStart = a.Start
	}
	var prevTime simtime.Instant
	for i, ia := range t.Interactions {
		if ia.Time < 0 || ia.Time >= horizon {
			return fmt.Errorf("trace %q: interaction %d at %v outside horizon", t.UserID, i, ia.Time)
		}
		if i > 0 && ia.Time < prevTime {
			return fmt.Errorf("trace %q: interactions unsorted at %d", t.UserID, i)
		}
		prevTime = ia.Time
	}
	var prevWiFiEnd simtime.Instant
	for i, iv := range t.WiFi {
		if iv.IsEmpty() {
			return fmt.Errorf("trace %q: empty wifi interval %d %v", t.UserID, i, iv)
		}
		if iv.Start < 0 || iv.End > horizon {
			return fmt.Errorf("trace %q: wifi interval %d %v outside horizon", t.UserID, i, iv)
		}
		if i > 0 && iv.Start < prevWiFiEnd {
			return fmt.Errorf("trace %q: wifi intervals %d and %d overlap or are unsorted", t.UserID, i-1, i)
		}
		prevWiFiEnd = iv.End
	}
	return nil
}

// WiFiAt reports whether the device has Wi-Fi coverage at instant ti.
func (t *Trace) WiFiAt(ti simtime.Instant) bool {
	idx := sort.Search(len(t.WiFi), func(i int) bool {
		return t.WiFi[i].Start > ti
	}) - 1
	if idx < 0 {
		return false
	}
	return t.WiFi[idx].Contains(ti)
}

// WiFiCovers reports whether the whole interval lies inside one Wi-Fi
// coverage window — the availability test a scheduler must pass before
// placing a transfer on Wi-Fi.
func (t *Trace) WiFiCovers(iv simtime.Interval) bool {
	if iv.IsEmpty() {
		return t.WiFiAt(iv.Start)
	}
	idx := sort.Search(len(t.WiFi), func(i int) bool {
		return t.WiFi[i].Start > iv.Start
	}) - 1
	if idx < 0 {
		return false
	}
	w := t.WiFi[idx]
	return w.Start <= iv.Start && iv.End <= w.End
}

// WiFiCoverageFraction returns the fraction of the trace horizon spent
// inside Wi-Fi coverage.
func (t *Trace) WiFiCoverageFraction() float64 {
	h := t.Horizon().Seconds()
	if h <= 0 {
		return 0
	}
	var covered simtime.Duration
	for _, iv := range t.WiFi {
		covered += iv.Len()
	}
	return covered.Seconds() / h
}

// ScreenOnAt reports whether the screen is on at instant ti.
func (t *Trace) ScreenOnAt(ti simtime.Instant) bool {
	// Binary search for the last session starting at or before ti.
	idx := sort.Search(len(t.Sessions), func(i int) bool {
		return t.Sessions[i].Interval.Start > ti
	}) - 1
	if idx < 0 {
		return false
	}
	return t.Sessions[idx].Interval.Contains(ti)
}

// SessionAt returns the screen session containing ti and true, or a zero
// session and false when the screen is off at ti.
func (t *Trace) SessionAt(ti simtime.Instant) (ScreenSession, bool) {
	idx := sort.Search(len(t.Sessions), func(i int) bool {
		return t.Sessions[i].Interval.Start > ti
	}) - 1
	if idx < 0 || !t.Sessions[idx].Interval.Contains(ti) {
		return ScreenSession{}, false
	}
	return t.Sessions[idx], true
}

// NextSessionAfter returns the first screen session starting strictly
// after ti, and false when there is none.
func (t *Trace) NextSessionAfter(ti simtime.Instant) (ScreenSession, bool) {
	idx := sort.Search(len(t.Sessions), func(i int) bool {
		return t.Sessions[i].Interval.Start > ti
	})
	if idx >= len(t.Sessions) {
		return ScreenSession{}, false
	}
	return t.Sessions[idx], true
}

// PrevSessionBefore returns the last screen session ending at or before
// ti, and false when there is none.
func (t *Trace) PrevSessionBefore(ti simtime.Instant) (ScreenSession, bool) {
	idx := sort.Search(len(t.Sessions), func(i int) bool {
		return t.Sessions[i].Interval.End > ti
	}) - 1
	if idx < 0 {
		return ScreenSession{}, false
	}
	return t.Sessions[idx], true
}

// ScreenOnTotal returns the total screen-on time over the whole trace.
func (t *Trace) ScreenOnTotal() simtime.Duration {
	var total simtime.Duration
	for _, s := range t.Sessions {
		total += s.Interval.Len()
	}
	return total
}

// SplitByScreen partitions the activities into those overlapping a
// screen-on period and those entirely screen-off. An activity that starts
// screen-off is classified screen-off even if a session begins before it
// ends: the monitor attributes a burst to the state at its start, matching
// how the paper's traces label screen-off traffic.
func (t *Trace) SplitByScreen() (on, off []NetworkActivity) {
	for _, a := range t.Activities {
		if t.ScreenOnAt(a.Start) {
			on = append(on, a)
		} else {
			off = append(off, a)
		}
	}
	return on, off
}

// ActivitiesOfDay returns the activities starting on the given day, in
// a fresh slice the caller may append to. It binary-searches the
// start-sorted Activities that Validate requires, so it costs
// O(day + log trace), not O(trace).
func (t *Trace) ActivitiesOfDay(day int) []NetworkActivity {
	start, end := dayBounds(day)
	lo := sort.Search(len(t.Activities), func(i int) bool { return t.Activities[i].Start >= start })
	hi := lo + sort.Search(len(t.Activities)-lo, func(i int) bool { return t.Activities[lo+i].Start >= end })
	return append([]NetworkActivity(nil), t.Activities[lo:hi]...)
}

// InteractionsOfDay returns the interactions on the given day, in a
// fresh slice the caller may append to. It binary-searches the
// time-sorted Interactions that Validate requires, so it costs
// O(day + log trace), not O(trace).
func (t *Trace) InteractionsOfDay(day int) []Interaction {
	start, end := dayBounds(day)
	lo := sort.Search(len(t.Interactions), func(i int) bool { return t.Interactions[i].Time >= start })
	hi := lo + sort.Search(len(t.Interactions)-lo, func(i int) bool { return t.Interactions[lo+i].Time >= end })
	return append([]Interaction(nil), t.Interactions[lo:hi]...)
}

// dayBounds is the half-open span [start, end) of a trace-local day.
func dayBounds(day int) (start, end simtime.Instant) {
	return simtime.At(day, 0, 0, 0), simtime.At(day+1, 0, 0, 0)
}

// HourlyIntensity returns the 24-dimensional usage-intensity vector of a
// single day: the number of interactions in each hour. This is the "usage
// vector" of Eq. 1.
func (t *Trace) HourlyIntensity(day int) []float64 {
	v := make([]float64, simtime.HoursPerDay)
	for _, ia := range t.InteractionsOfDay(day) {
		v[ia.Time.HourOfDay()]++
	}
	return v
}

// TotalIntensity returns the 24-dimensional intensity vector summed over
// all days of the trace.
func (t *Trace) TotalIntensity() []float64 {
	v := make([]float64, simtime.HoursPerDay)
	for _, ia := range t.Interactions {
		v[ia.Time.HourOfDay()]++
	}
	return v
}

// AppHourlyIntensity returns, for one app, the total interactions per hour
// of day over the whole trace — the series plotted in Fig. 5.
func (t *Trace) AppHourlyIntensity(app AppID) []float64 {
	v := make([]float64, simtime.HoursPerDay)
	for _, ia := range t.Interactions {
		if ia.App == app {
			v[ia.Time.HourOfDay()]++
		}
	}
	return v
}

// AppUsageCounts returns the interaction count per app, descending by
// count then ascending by app id for determinism.
func (t *Trace) AppUsageCounts() []AppCount {
	m := make(map[AppID]int)
	for _, ia := range t.Interactions {
		m[ia.App]++
	}
	out := make([]AppCount, 0, len(m))
	for app, c := range m {
		out = append(out, AppCount{App: app, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].App < out[j].App
	})
	return out
}

// AppCount pairs an app with a usage count.
type AppCount struct {
	App   AppID
	Count int
}

// NetworkApps returns the set of apps that produced at least one network
// activity, sorted.
func (t *Trace) NetworkApps() []AppID {
	seen := make(map[AppID]bool)
	for _, a := range t.Activities {
		seen[a.App] = true
	}
	out := make([]AppID, 0, len(seen))
	for app := range seen {
		out = append(out, app)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TotalBytes returns total downlink and uplink volume.
func (t *Trace) TotalBytes() (down, up int64) {
	for _, a := range t.Activities {
		down += a.BytesDown
		up += a.BytesUp
	}
	return down, up
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	out := &Trace{
		UserID: t.UserID,
		Days:   t.Days,
	}
	out.InstalledApps = append([]AppID(nil), t.InstalledApps...)
	out.Sessions = append([]ScreenSession(nil), t.Sessions...)
	out.Activities = append([]NetworkActivity(nil), t.Activities...)
	out.Interactions = append([]Interaction(nil), t.Interactions...)
	if len(t.WiFi) > 0 {
		out.WiFi = append([]simtime.Interval(nil), t.WiFi...)
	}
	return out
}

// Append concatenates two traces of the same user: history followed by
// current, with current's events shifted by history's horizon. To keep
// weekday/weekend alignment, history must cover a whole number of weeks.
func Append(history, current *Trace) (*Trace, error) {
	if history.Days%7 != 0 {
		return nil, fmt.Errorf("trace: history of %d days does not align to whole weeks", history.Days)
	}
	shift := simtime.Instant(history.Horizon())
	out := history.Clone()
	out.UserID = current.UserID
	out.Days = history.Days + current.Days
	seen := make(map[AppID]bool)
	for _, app := range out.InstalledApps {
		seen[app] = true
	}
	for _, app := range current.InstalledApps {
		if !seen[app] {
			out.InstalledApps = append(out.InstalledApps, app)
			seen[app] = true
		}
	}
	for _, s := range current.Sessions {
		out.Sessions = append(out.Sessions, ScreenSession{Interval: simtime.Interval{
			Start: s.Interval.Start + shift,
			End:   s.Interval.End + shift,
		}})
	}
	for _, a := range current.Activities {
		a.Start += shift
		out.Activities = append(out.Activities, a)
	}
	for _, ia := range current.Interactions {
		ia.Time += shift
		out.Interactions = append(out.Interactions, ia)
	}
	for _, iv := range current.WiFi {
		out.WiFi = append(out.WiFi, simtime.Interval{Start: iv.Start + shift, End: iv.End + shift})
	}
	out.Normalize()
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// PrefixDays restricts a trace to its first k days without shifting
// times; events at or beyond day k are dropped and spanning sessions are
// clipped. It is how the online miner sees only the history available at
// the start of day k.
func (t *Trace) PrefixDays(k int) *Trace {
	if k >= t.Days {
		return t.Clone()
	}
	if k < 0 {
		k = 0
	}
	cut := simtime.At(k, 0, 0, 0)
	out := &Trace{UserID: t.UserID, Days: k, InstalledApps: append([]AppID(nil), t.InstalledApps...)}
	for _, s := range t.Sessions {
		if s.Interval.Start >= cut {
			break
		}
		iv := s.Interval
		if iv.End > cut {
			iv.End = cut
		}
		if !iv.IsEmpty() {
			out.Sessions = append(out.Sessions, ScreenSession{Interval: iv})
		}
	}
	for _, a := range t.Activities {
		if a.Start >= cut {
			break
		}
		if a.End() > cut {
			a.Duration = cut.Sub(a.Start)
		}
		out.Activities = append(out.Activities, a)
	}
	for _, ia := range t.Interactions {
		if ia.Time >= cut {
			break
		}
		out.Interactions = append(out.Interactions, ia)
	}
	for _, iv := range t.WiFi {
		if iv.Start >= cut {
			break
		}
		if iv.End > cut {
			iv.End = cut
		}
		if !iv.IsEmpty() {
			out.WiFi = append(out.WiFi, iv)
		}
	}
	return out
}

// DayView restricts a trace to a single day, shifting times so the day
// starts at instant 0. The returned trace has Days == 1.
func (t *Trace) DayView(day int) *Trace {
	shift := simtime.At(day, 0, 0, 0)
	iv := simtime.Interval{Start: shift, End: shift.Add(simtime.Day)}
	out := &Trace{UserID: t.UserID, Days: 1, InstalledApps: append([]AppID(nil), t.InstalledApps...)}
	for _, s := range t.Sessions {
		clipped := s.Interval.Intersect(iv)
		if clipped.IsEmpty() {
			continue
		}
		out.Sessions = append(out.Sessions, ScreenSession{Interval: simtime.Interval{
			Start: clipped.Start - shift,
			End:   clipped.End - shift,
		}})
	}
	for _, a := range t.Activities {
		if !iv.Contains(a.Start) {
			continue
		}
		a.Start -= shift
		if a.End() > simtime.Instant(simtime.Day) {
			a.Duration = simtime.Instant(simtime.Day).Sub(a.Start)
		}
		out.Activities = append(out.Activities, a)
	}
	for _, ia := range t.Interactions {
		if !iv.Contains(ia.Time) {
			continue
		}
		ia.Time -= shift
		out.Interactions = append(out.Interactions, ia)
	}
	for _, w := range t.WiFi {
		clipped := w.Intersect(iv)
		if clipped.IsEmpty() {
			continue
		}
		out.WiFi = append(out.WiFi, simtime.Interval{
			Start: clipped.Start - shift,
			End:   clipped.End - shift,
		})
	}
	return out
}
