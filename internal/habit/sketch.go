// The profile sketch: per-slot, per-day-type sufficient statistics that
// fold one day — or one event — at a time. Mine is implemented on top of
// it, so the exported invariant
//
//	habit.Mine(t, cfg) == sketch.FoldTrace(t); sketch.Profile()
//
// holds byte-for-byte by construction, for uniform and recency-decayed
// weighting alike. The sketch is what makes the serve-path incremental:
// absorbing one new day costs O(events of that day), not O(whole trace).
package habit

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"

	"netmaster/internal/simtime"
	"netmaster/internal/trace"
)

// burst is one buffered screen-off network burst of the day being
// folded: everything mining needs from a NetworkActivity.
type burst struct {
	tod  simtime.Duration // start, relative to the day's midnight
	app  trace.AppID
	down int64
	up   int64
}

// dayBuf accumulates the open day of the event-level fold API.
type dayBuf struct {
	used   []bool
	bursts []burst
}

func (b *dayBuf) dirty() bool {
	if b == nil {
		return false
	}
	if len(b.bursts) > 0 {
		return true
	}
	for _, u := range b.used {
		if u {
			return true
		}
	}
	return false
}

// Sketch holds the raw (pre-normalisation) mining accumulators for one
// user. Days fold in calendar order: the sketch tracks the absolute day
// index, which decides each folded day's weekday/weekend type. All
// accumulators are bounded sums of per-day weights ≤ 1 (recency decay
// only ever shrinks them), so folding arbitrarily many days can neither
// overflow nor produce NaN.
type Sketch struct {
	cfg    Config
	userID string
	days   int // absolute index of the next day to fold

	weekday DayTypeProfile // raw accumulators, not yet normalised
	weekend DayTypeProfile

	// networkApps is the m of Eq. 3 (every app with any network
	// activity, screen-on or -off); interacted feeds SpecialApps.
	networkApps map[trace.AppID]bool
	interacted  map[trace.AppID]bool

	open *dayBuf // event-level buffer for the day under construction
}

// NewSketch returns an empty sketch. The user ID may be left empty and
// adopted from the first folded trace.
func NewSketch(userID string, cfg Config) (*Sketch, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	slots := int(simtime.Day / cfg.SlotWidth)
	return &Sketch{
		cfg:         cfg,
		userID:      userID,
		weekday:     newDayTypeProfile(slots),
		weekend:     newDayTypeProfile(slots),
		networkApps: make(map[trace.AppID]bool),
		interacted:  make(map[trace.AppID]bool),
	}, nil
}

// Config returns the mining configuration the sketch was built with.
func (s *Sketch) Config() Config { return s.cfg }

// UserID returns the sketch's user, "" until one is adopted.
func (s *Sketch) UserID() string { return s.userID }

// Days returns the number of days folded so far — also the absolute
// calendar index of the next day to fold, which decides its day type.
func (s *Sketch) Days() int { return s.days }

func (s *Sketch) slots() int { return int(simtime.Day / s.cfg.SlotWidth) }

func (s *Sketch) adoptUser(id string) error {
	if s.userID == "" {
		s.userID = id
		return nil
	}
	if id != s.userID {
		return fmt.Errorf("habit: sketch of user %q cannot fold trace of user %q", s.userID, id)
	}
	return nil
}

// FoldTrace validates t and folds every one of its days, in order. The
// trace's local day d lands on the sketch's absolute day index at the
// time of the fold; on a fresh sketch the two coincide and the result
// equals Mine(t, cfg) exactly.
func (s *Sketch) FoldTrace(t *trace.Trace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if err := s.adoptUser(t.UserID); err != nil {
		return err
	}
	if s.open.dirty() {
		return fmt.Errorf("habit: close the open event-level day before folding a trace")
	}
	for day := 0; day < t.Days; day++ {
		s.foldDay(t, day)
	}
	return nil
}

// FoldTraceDay folds a single trace-local day. The caller guarantees t
// is valid (FoldTrace validates). It reads only that day's events,
// found by binary search in the time-sorted trace, so it costs O(day)
// plus a logarithm of the trace, and a day-by-day loop over one trace
// is O(trace), not O(trace²).
func (s *Sketch) FoldTraceDay(t *trace.Trace, day int) error {
	if day < 0 || day >= t.Days {
		return fmt.Errorf("habit: day %d outside trace of %d days", day, t.Days)
	}
	if err := s.adoptUser(t.UserID); err != nil {
		return err
	}
	if s.open.dirty() {
		return fmt.Errorf("habit: close the open event-level day before folding a trace day")
	}
	s.foldDay(t, day)
	return nil
}

// foldDay replicates exactly one iteration of the historical Mine loop:
// interactions mark slot usage, screen-off activities accumulate in
// trace order (never re-sorted, so float additions happen in the same
// order Mine always used).
func (s *Sketch) foldDay(t *trace.Trace, day int) {
	dayStart := simtime.At(day, 0, 0, 0)
	used := make([]bool, s.slots())
	for _, ia := range t.InteractionsOfDay(day) {
		used[slotOf(ia.Time, dayStart, s.cfg.SlotWidth)] = true
		s.interacted[ia.App] = true
	}
	var bursts []burst
	for _, a := range t.ActivitiesOfDay(day) {
		s.networkApps[a.App] = true
		if t.ScreenOnAt(a.Start) {
			continue
		}
		bursts = append(bursts, burst{
			tod:  a.Start.Sub(dayStart),
			app:  a.App,
			down: a.BytesDown,
			up:   a.BytesUp,
		})
	}
	s.commit(used, bursts)
}

// AddInteraction records one user interaction of the open day at the
// given time of day.
func (s *Sketch) AddInteraction(app trace.AppID, tod simtime.Duration) error {
	if tod < 0 || tod >= simtime.Day {
		return fmt.Errorf("habit: interaction time of day %v outside [0, 24h)", tod)
	}
	s.openBuf().used[int(tod/s.cfg.SlotWidth)] = true
	s.interacted[app] = true
	return nil
}

// AddActivity records one network activity of the open day. Screen-on
// activities count only toward the network-app set (the m of Eq. 3);
// screen-off ones are buffered as minable bursts until CloseDay.
func (s *Sketch) AddActivity(app trace.AppID, tod simtime.Duration, bytesDown, bytesUp int64, screenOn bool) error {
	if tod < 0 || tod >= simtime.Day {
		return fmt.Errorf("habit: activity time of day %v outside [0, 24h)", tod)
	}
	if bytesDown < 0 || bytesUp < 0 {
		return fmt.Errorf("habit: negative activity volume")
	}
	s.networkApps[app] = true
	if screenOn {
		return nil
	}
	b := s.openBuf()
	b.bursts = append(b.bursts, burst{tod: tod, app: app, down: bytesDown, up: bytesUp})
	return nil
}

// CloseDay commits the open day to the sketch and advances the day
// counter. Buffered bursts are sorted by (time, app, volume) first, so
// the committed statistics are independent of the order events were
// added in — any interleaving of AddInteraction/AddActivity calls for
// the same day folds to bit-identical accumulators. A CloseDay with no
// events commits an (observed, eventless) day, exactly as Mine counts
// every day of a trace.
func (s *Sketch) CloseDay() {
	b := s.openBuf()
	sort.Slice(b.bursts, func(i, j int) bool {
		if b.bursts[i].tod != b.bursts[j].tod {
			return b.bursts[i].tod < b.bursts[j].tod
		}
		if b.bursts[i].app != b.bursts[j].app {
			return b.bursts[i].app < b.bursts[j].app
		}
		if b.bursts[i].down != b.bursts[j].down {
			return b.bursts[i].down < b.bursts[j].down
		}
		return b.bursts[i].up < b.bursts[j].up
	})
	s.commit(b.used, b.bursts)
	s.open = nil
}

func (s *Sketch) openBuf() *dayBuf {
	if s.open == nil {
		s.open = &dayBuf{used: make([]bool, s.slots())}
	}
	return s.open
}

// commit folds one finished day into the accumulators. Recency decay is
// applied Horner-style: every already-folded day is rescaled by
// r = 2^(−1/halflife) before the new day lands with weight 1, so after
// D days day d carries weight r^(D−1−d) — the same exponential-by-age
// scheme as before, built incrementally.
func (s *Sketch) commit(used []bool, bursts []burst) {
	s.decay()
	dt := &s.weekday
	if simtime.At(s.days, 0, 0, 0).IsWeekend() {
		dt = &s.weekend
	}
	dt.Days++
	const w = 1.0
	dt.weightSum += w

	for sl, u := range used {
		if u {
			dt.Slots[sl].UseProb += w // converted to a fraction in finalize
		}
	}

	type appSlot struct {
		app  trace.AppID
		slot int
	}
	offApps := make(map[appSlot]struct{})
	offBursts := make([]float64, len(dt.Slots))
	for _, b := range bursts {
		sl := int(b.tod / s.cfg.SlotWidth)
		dt.Slots[sl].OffBytesDown += w * float64(b.down)
		dt.Slots[sl].OffBytesUp += w * float64(b.up)
		offBursts[sl] += w
		offApps[appSlot{b.app, sl}] = struct{}{}
		dt.addOffDemand(sl, b.app, b.down, b.up, w)
	}
	for sl, n := range offBursts {
		dt.Slots[sl].OffBursts += n
	}
	for as := range offApps {
		// Repeated additions of the same w per slot: order-independent,
		// so the map's iteration order cannot leak into the result.
		dt.Slots[as.slot].NetProb += w
	}
	s.days++
}

// decay rescales every accumulator of both day types by one day's worth
// of recency decay. The integer day counts stay exact; only weights
// shrink. r ≤ 1 keeps all sums bounded by the slot count, so no amount
// of folding can overflow or denormalise into NaN.
func (s *Sketch) decay() {
	hl := s.cfg.RecencyHalfLifeDays
	if hl <= 0 {
		return
	}
	r := math.Exp2(-1 / hl)
	for _, dt := range []*DayTypeProfile{&s.weekday, &s.weekend} {
		dt.weightSum *= r
		for i := range dt.Slots {
			dt.Slots[i].UseProb *= r
			dt.Slots[i].NetProb *= r
			dt.Slots[i].OffBytesDown *= r
			dt.Slots[i].OffBytesUp *= r
			dt.Slots[i].OffBursts *= r
		}
		for sl := range dt.OffDemand {
			for i := range dt.OffDemand[sl] {
				dt.OffDemand[sl][i].BytesDown *= r
				dt.OffDemand[sl][i].BytesUp *= r
				dt.OffDemand[sl][i].Bursts *= r
			}
		}
	}
}

// Profile materialises the mined profile from the current accumulators.
// The sketch itself is untouched (normalisation happens on a deep
// copy), so folding can continue afterwards.
func (s *Sketch) Profile() *Profile {
	p := &Profile{
		UserID:    s.userID,
		SlotWidth: s.cfg.SlotWidth,
		Config:    s.cfg,
		Weekday:   cloneDayType(&s.weekday),
		Weekend:   cloneDayType(&s.weekend),
	}
	m := len(s.networkApps)
	finalize(&p.Weekday, m)
	finalize(&p.Weekend, m)
	p.SpecialApps = s.specialApps()
	return p
}

// specialApps mirrors DetectSpecialApps: sorted network apps the user
// also interacted with, nil when there are none.
func (s *Sketch) specialApps() []trace.AppID {
	var out []trace.AppID
	for app := range s.networkApps {
		if s.interacted[app] {
			out = append(out, app)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func cloneDayType(dt *DayTypeProfile) DayTypeProfile {
	out := DayTypeProfile{
		Days:      dt.Days,
		Slots:     append([]SlotStats(nil), dt.Slots...),
		OffDemand: make([][]AppOffDemand, len(dt.OffDemand)),
		weightSum: dt.weightSum,
	}
	for i, d := range dt.OffDemand {
		if d != nil {
			out.OffDemand[i] = append([]AppOffDemand(nil), d...)
		}
	}
	return out
}

// Clone returns an independent deep copy, including any open day.
func (s *Sketch) Clone() *Sketch {
	out := &Sketch{
		cfg:         s.cfg,
		userID:      s.userID,
		days:        s.days,
		weekday:     cloneDayType(&s.weekday),
		weekend:     cloneDayType(&s.weekend),
		networkApps: make(map[trace.AppID]bool, len(s.networkApps)),
		interacted:  make(map[trace.AppID]bool, len(s.interacted)),
	}
	for app := range s.networkApps {
		out.networkApps[app] = true
	}
	for app := range s.interacted {
		out.interacted[app] = true
	}
	if s.open != nil {
		out.open = &dayBuf{
			used:   append([]bool(nil), s.open.used...),
			bursts: append([]burst(nil), s.open.bursts...),
		}
	}
	return out
}

// Hash returns a deterministic content hash of the full sketch state:
// config, day counter, every accumulator bit and both app sets. Two
// sketches with the same fold history hash identically on any run at
// any parallelism; it is the cache identity of an incrementally
// maintained profile (hashing it is O(state), independent of how much
// trace has been folded in).
func (s *Sketch) Hash() string {
	h := sha256.New()
	io.WriteString(h, s.userID)
	h.Write([]byte{0})
	binary.Write(h, binary.LittleEndian, int64(s.days))
	binary.Write(h, binary.LittleEndian, int64(s.cfg.SlotWidth))
	binary.Write(h, binary.LittleEndian, s.cfg.WeekdayThreshold)
	binary.Write(h, binary.LittleEndian, s.cfg.WeekendThreshold)
	binary.Write(h, binary.LittleEndian, s.cfg.RecencyHalfLifeDays)
	hashDayType(h, &s.weekday)
	hashDayType(h, &s.weekend)
	hashAppSet(h, s.networkApps)
	hashAppSet(h, s.interacted)
	return "sketch:" + hex.EncodeToString(h.Sum(nil))
}

func hashDayType(h io.Writer, dt *DayTypeProfile) {
	binary.Write(h, binary.LittleEndian, int64(dt.Days))
	binary.Write(h, binary.LittleEndian, dt.weightSum)
	for _, sl := range dt.Slots {
		binary.Write(h, binary.LittleEndian, sl.UseProb)
		binary.Write(h, binary.LittleEndian, sl.NetProb)
		binary.Write(h, binary.LittleEndian, sl.OffBytesDown)
		binary.Write(h, binary.LittleEndian, sl.OffBytesUp)
		binary.Write(h, binary.LittleEndian, sl.OffBursts)
	}
	for _, d := range dt.OffDemand {
		binary.Write(h, binary.LittleEndian, int64(len(d)))
		for _, e := range d {
			io.WriteString(h, string(e.App))
			h.Write([]byte{0})
			binary.Write(h, binary.LittleEndian, e.BytesDown)
			binary.Write(h, binary.LittleEndian, e.BytesUp)
			binary.Write(h, binary.LittleEndian, e.Bursts)
		}
	}
}

func hashAppSet(h io.Writer, set map[trace.AppID]bool) {
	apps := make([]string, 0, len(set))
	for app := range set {
		apps = append(apps, string(app))
	}
	sort.Strings(apps)
	binary.Write(h, binary.LittleEndian, int64(len(apps)))
	for _, app := range apps {
		io.WriteString(h, app)
		h.Write([]byte{0})
	}
}
