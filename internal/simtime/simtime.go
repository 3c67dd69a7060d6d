// Package simtime provides the time arithmetic used throughout the
// NetMaster simulation: simulation instants, durations, day/hour
// decomposition, half-open intervals and uniform slot grids.
//
// Simulation time is a monotonically increasing count of seconds from the
// start of the trace (day 0, 00:00). Using an integer second count instead
// of time.Time keeps the discrete-event simulator free of wall-clock and
// timezone concerns and makes traces reproducible byte-for-byte.
package simtime

import "fmt"

// Instant is a point in simulation time, in whole seconds since the start
// of the trace (day 0, 00:00:00).
type Instant int64

// Duration is a span of simulation time in whole seconds.
type Duration int64

// Common durations.
const (
	Second Duration = 1
	Minute Duration = 60
	Hour   Duration = 3600
	Day    Duration = 86400
	Week   Duration = 7 * 86400
)

// HoursPerDay is the number of hour buckets in an intensity vector.
const HoursPerDay = 24

// At builds an Instant from a day index and a time of day.
func At(day int, hour, min, sec int) Instant {
	return Instant(int64(day)*int64(Day) + int64(hour)*3600 + int64(min)*60 + int64(sec))
}

// Add returns the instant d later than t.
func (t Instant) Add(d Duration) Instant { return t + Instant(d) }

// Sub returns the duration from u to t (t − u).
func (t Instant) Sub(u Instant) Duration { return Duration(t - u) }

// Day returns the zero-based day index containing t. Negative instants
// round toward negative infinity so that Instant(-1).Day() == -1.
func (t Instant) Day() int {
	if t < 0 {
		return int((int64(t) - int64(Day) + 1) / int64(Day))
	}
	return int(int64(t) / int64(Day))
}

// SecondOfDay returns the number of seconds elapsed since midnight of the
// day containing t, in [0, 86400).
func (t Instant) SecondOfDay() int {
	s := int64(t) % int64(Day)
	if s < 0 {
		s += int64(Day)
	}
	return int(s)
}

// HourOfDay returns the hour bucket of t, in [0, 24).
func (t Instant) HourOfDay() int { return t.SecondOfDay() / 3600 }

// Weekday returns the day-of-week index of t in [0, 7), with day 0 of the
// simulation defined to be a Monday (index 0). Saturday is 5, Sunday 6.
func (t Instant) Weekday() int {
	d := t.Day() % 7
	if d < 0 {
		d += 7
	}
	return d
}

// IsWeekend reports whether t falls on a Saturday or Sunday under the
// simulation's day-0-is-Monday convention.
func (t Instant) IsWeekend() bool { w := t.Weekday(); return w >= 5 }

// String formats t as "d<day> hh:mm:ss".
func (t Instant) String() string {
	s := t.SecondOfDay()
	return fmt.Sprintf("d%d %02d:%02d:%02d", t.Day(), s/3600, (s/60)%60, s%60)
}

// Seconds returns d as a float64 number of seconds.
func (d Duration) Seconds() float64 { return float64(d) }

// String formats the duration as, e.g., "1h23m45s", "45s" or "2d3h".
func (d Duration) String() string {
	if d < 0 {
		return "-" + (-d).String()
	}
	days := int64(d) / int64(Day)
	rem := int64(d) % int64(Day)
	h := rem / 3600
	m := (rem / 60) % 60
	s := rem % 60
	out := ""
	if days > 0 {
		out += fmt.Sprintf("%dd", days)
	}
	if h > 0 {
		out += fmt.Sprintf("%dh", h)
	}
	if m > 0 {
		out += fmt.Sprintf("%dm", m)
	}
	if s > 0 || out == "" {
		out += fmt.Sprintf("%ds", s)
	}
	return out
}

// Interval is the half-open time range [Start, End). An interval with
// End <= Start is empty.
type Interval struct {
	Start Instant
	End   Instant
}

// Len returns the interval's length; empty intervals have length 0.
func (iv Interval) Len() Duration {
	if iv.End <= iv.Start {
		return 0
	}
	return iv.End.Sub(iv.Start)
}

// IsEmpty reports whether the interval contains no instants.
func (iv Interval) IsEmpty() bool { return iv.End <= iv.Start }

// Contains reports whether t lies inside [Start, End).
func (iv Interval) Contains(t Instant) bool { return t >= iv.Start && t < iv.End }

// Overlaps reports whether the two half-open intervals share any instant.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Start < other.End && other.Start < iv.End
}

// Intersect returns the overlap of the two intervals; the result is empty
// if they do not overlap.
func (iv Interval) Intersect(other Interval) Interval {
	start := iv.Start
	if other.Start > start {
		start = other.Start
	}
	end := iv.End
	if other.End < end {
		end = other.End
	}
	if end < start {
		end = start
	}
	return Interval{Start: start, End: end}
}

// Union merges overlapping or touching intervals; it panics if the two are
// disjoint with a gap, since that union is not an interval.
func (iv Interval) Union(other Interval) Interval {
	if !iv.Overlaps(other) && iv.End != other.Start && other.End != iv.Start {
		panic("simtime: union of disjoint intervals")
	}
	start := iv.Start
	if other.Start < start {
		start = other.Start
	}
	end := iv.End
	if other.End > end {
		end = other.End
	}
	return Interval{Start: start, End: end}
}

// String formats the interval.
func (iv Interval) String() string { return fmt.Sprintf("[%v, %v)", iv.Start, iv.End) }

// MergeIntervals coalesces a slice of intervals into the minimal sorted
// set of disjoint non-empty intervals covering the same instants. The
// input is not modified.
func MergeIntervals(ivs []Interval) []Interval {
	nonEmpty := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if !iv.IsEmpty() {
			nonEmpty = append(nonEmpty, iv)
		}
	}
	if len(nonEmpty) == 0 {
		return nil
	}
	sortIntervals(nonEmpty)
	out := []Interval{nonEmpty[0]}
	for _, iv := range nonEmpty[1:] {
		last := &out[len(out)-1]
		if iv.Start <= last.End {
			if iv.End > last.End {
				last.End = iv.End
			}
		} else {
			out = append(out, iv)
		}
	}
	return out
}

func sortIntervals(ivs []Interval) {
	// Insertion sort is fine: interval lists in the simulator are either
	// short or already nearly sorted (trace order).
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && less(ivs[j], ivs[j-1]); j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
}

func less(a, b Interval) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.End < b.End
}
