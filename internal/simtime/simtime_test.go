package simtime

import (
	"testing"
	"testing/quick"
)

func TestAtAndDecomposition(t *testing.T) {
	cases := []struct {
		day               int
		hour, min, sec    int
		wantDay, wantHour int
		wantSecOfDay      int
	}{
		{0, 0, 0, 0, 0, 0, 0},
		{0, 23, 59, 59, 0, 23, 86399},
		{1, 0, 0, 0, 1, 0, 0},
		{5, 12, 30, 15, 5, 12, 45015},
		{20, 6, 0, 1, 20, 6, 21601},
	}
	for _, c := range cases {
		got := At(c.day, c.hour, c.min, c.sec)
		if got.Day() != c.wantDay {
			t.Errorf("At(%d,%d,%d,%d).Day() = %d, want %d", c.day, c.hour, c.min, c.sec, got.Day(), c.wantDay)
		}
		if got.HourOfDay() != c.wantHour {
			t.Errorf("At(%d,%d,%d,%d).HourOfDay() = %d, want %d", c.day, c.hour, c.min, c.sec, got.HourOfDay(), c.wantHour)
		}
		if got.SecondOfDay() != c.wantSecOfDay {
			t.Errorf("At(%d,%d,%d,%d).SecondOfDay() = %d, want %d", c.day, c.hour, c.min, c.sec, got.SecondOfDay(), c.wantSecOfDay)
		}
	}
}

func TestNegativeInstantDay(t *testing.T) {
	if got := Instant(-1).Day(); got != -1 {
		t.Errorf("Instant(-1).Day() = %d, want -1", got)
	}
	if got := Instant(-86400).Day(); got != -1 {
		t.Errorf("Instant(-86400).Day() = %d, want -1", got)
	}
	if got := Instant(-86401).Day(); got != -2 {
		t.Errorf("Instant(-86401).Day() = %d, want -2", got)
	}
	if got := Instant(-1).SecondOfDay(); got != 86399 {
		t.Errorf("Instant(-1).SecondOfDay() = %d, want 86399", got)
	}
}

func TestWeekdayConvention(t *testing.T) {
	// Day 0 is Monday; days 5 and 6 are the weekend.
	for day := 0; day < 14; day++ {
		ti := At(day, 12, 0, 0)
		wantWeekend := day%7 == 5 || day%7 == 6
		if ti.IsWeekend() != wantWeekend {
			t.Errorf("day %d: IsWeekend() = %v, want %v", day, ti.IsWeekend(), wantWeekend)
		}
		if ti.Weekday() != day%7 {
			t.Errorf("day %d: Weekday() = %d, want %d", day, ti.Weekday(), day%7)
		}
	}
}

func TestInstantString(t *testing.T) {
	if got := At(3, 4, 5, 6).String(); got != "d3 04:05:06" {
		t.Errorf("String() = %q", got)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0s"},
		{45, "45s"},
		{Minute, "1m"},
		{Hour + 23*Minute + 45, "1h23m45s"},
		{2*Day + 3*Hour, "2d3h"},
		{-30, "-30s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("Duration(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestIntervalBasics(t *testing.T) {
	iv := Interval{Start: 10, End: 20}
	if iv.Len() != 10 {
		t.Errorf("Len = %v", iv.Len())
	}
	if iv.IsEmpty() {
		t.Error("non-empty interval reported empty")
	}
	if !iv.Contains(10) || iv.Contains(20) || iv.Contains(9) {
		t.Error("Contains is not half-open [10,20)")
	}
	empty := Interval{Start: 5, End: 5}
	if !empty.IsEmpty() || empty.Len() != 0 {
		t.Error("empty interval misreported")
	}
}

func TestIntervalOverlapAndIntersect(t *testing.T) {
	a := Interval{Start: 0, End: 10}
	b := Interval{Start: 5, End: 15}
	c := Interval{Start: 10, End: 20}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("a and b should overlap")
	}
	if a.Overlaps(c) {
		t.Error("touching half-open intervals must not overlap")
	}
	got := a.Intersect(b)
	if got.Start != 5 || got.End != 10 {
		t.Errorf("Intersect = %v", got)
	}
	if !a.Intersect(c).IsEmpty() {
		t.Error("disjoint intersect should be empty")
	}
}

func TestIntervalUnion(t *testing.T) {
	a := Interval{Start: 0, End: 10}
	b := Interval{Start: 10, End: 20} // touching is allowed
	got := a.Union(b)
	if got.Start != 0 || got.End != 20 {
		t.Errorf("Union = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("union of gapped intervals did not panic")
		}
	}()
	a.Union(Interval{Start: 15, End: 20})
}

func TestMergeIntervals(t *testing.T) {
	ivs := []Interval{
		{Start: 10, End: 20},
		{Start: 0, End: 5},
		{Start: 4, End: 12},  // bridges the first two
		{Start: 30, End: 30}, // empty, dropped
		{Start: 25, End: 28},
	}
	got := MergeIntervals(ivs)
	want := []Interval{{Start: 0, End: 20}, {Start: 25, End: 28}}
	if len(got) != len(want) {
		t.Fatalf("MergeIntervals = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("merged[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if MergeIntervals(nil) != nil {
		t.Error("merging nothing should yield nil")
	}
}

// totalLen sums interval lengths without merging, so overlaps count
// twice; over MergeIntervals' output it is the covered length.
func totalLen(ivs []Interval) Duration {
	var total Duration
	for _, iv := range ivs {
		total += iv.Len()
	}
	return total
}

func TestCoveredLenVsTotalLen(t *testing.T) {
	ivs := []Interval{{Start: 0, End: 10}, {Start: 5, End: 15}}
	if got := totalLen(MergeIntervals(ivs)); got != 15 {
		t.Errorf("totalLen(MergeIntervals) = %v", got)
	}
}

// quickIntervals builds a bounded random interval list from fuzz input.
func quickIntervals(raw []int8) []Interval {
	out := make([]Interval, 0, len(raw)/2)
	for i := 0; i+1 < len(raw); i += 2 {
		start := Instant(raw[i])
		length := Duration(raw[i+1])
		if length < 0 {
			length = -length
		}
		out = append(out, Interval{Start: start, End: start.Add(length)})
	}
	return out
}

func TestMergePropertyIdempotentAndDisjoint(t *testing.T) {
	prop := func(raw []int8) bool {
		ivs := quickIntervals(raw)
		merged := MergeIntervals(ivs)
		// Disjoint and sorted with gaps.
		for i := 1; i < len(merged); i++ {
			if merged[i].Start <= merged[i-1].End {
				return false
			}
		}
		// Idempotent.
		again := MergeIntervals(merged)
		if len(again) != len(merged) {
			return false
		}
		for i := range merged {
			if merged[i] != again[i] {
				return false
			}
		}
		// Coverage preserved: every original instant is covered.
		for _, iv := range ivs {
			if iv.IsEmpty() {
				continue
			}
			covered := false
			for _, m := range merged {
				if m.Start <= iv.Start && iv.End <= m.End {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCoveredLenProperty(t *testing.T) {
	prop := func(raw []int8) bool {
		ivs := quickIntervals(raw)
		return totalLen(MergeIntervals(ivs)) <= totalLen(ivs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
