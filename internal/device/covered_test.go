package device

import (
	"math"
	"math/rand"
	"testing"

	"netmaster/internal/simtime"
)

// subtractCoveredRef is the full scan subtractCovered replaced: it
// intersects w with every interval.
func subtractCoveredRef(w simtime.Interval, ivs []simtime.Interval) float64 {
	free := w.Len().Seconds()
	for _, iv := range ivs {
		free -= w.Intersect(iv).Len().Seconds()
	}
	if free < 0 {
		free = 0
	}
	return free
}

// randomDisjoint returns n sorted, disjoint, non-empty intervals; some
// neighbours touch (End == next Start).
func randomDisjoint(rng *rand.Rand, n int) []simtime.Interval {
	var out []simtime.Interval
	at := simtime.Instant(rng.Intn(50))
	for i := 0; i < n; i++ {
		start := at + simtime.Instant(rng.Intn(3)*rng.Intn(40))
		end := start + simtime.Instant(1+rng.Intn(30))
		out = append(out, simtime.Interval{Start: start, End: end})
		at = end
	}
	return out
}

// edgeWindows lists the windows that sit on the boundaries of ivs:
// touching each interval's end or start, empty and inverted windows,
// and windows before the first and after the last interval.
func edgeWindows(ivs []simtime.Interval) []simtime.Interval {
	ws := []simtime.Interval{{Start: 0, End: 0}, {Start: 5, End: 3}, {Start: -10, End: -1}}
	for _, iv := range ivs {
		ws = append(ws,
			simtime.Interval{Start: iv.End, End: iv.End + 7},       // starts at an end
			simtime.Interval{Start: iv.Start - 7, End: iv.Start},   // ends at a start
			simtime.Interval{Start: iv.Start, End: iv.Start},       // empty, at a start
			simtime.Interval{Start: iv.End, End: iv.End},           // empty, at an end
			simtime.Interval{Start: iv.Start, End: iv.End},         // exactly the interval
			simtime.Interval{Start: iv.Start - 1, End: iv.End + 1}, // just around it
		)
	}
	if n := len(ivs); n > 0 {
		ws = append(ws,
			simtime.Interval{Start: ivs[0].Start - 20, End: ivs[0].Start - 5},
			simtime.Interval{Start: ivs[n-1].End + 5, End: ivs[n-1].End + 20},
			simtime.Interval{Start: ivs[0].Start - 1, End: ivs[n-1].End + 1},
		)
	}
	return ws
}

// TestSubtractCoveredMatchesFullScan: the windowed walk returns the
// full scan's float bits for every window, on random sorted disjoint
// interval sets and on no intervals at all.
func TestSubtractCoveredMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		var ivs []simtime.Interval
		if trial > 0 {
			ivs = randomDisjoint(rng, rng.Intn(12))
		}
		ws := edgeWindows(ivs)
		for k := 0; k < 20; k++ {
			start := simtime.Instant(rng.Intn(800) - 50)
			ws = append(ws, simtime.Interval{Start: start, End: start + simtime.Instant(rng.Intn(120))})
		}
		for _, w := range ws {
			got, want := subtractCovered(w, ivs), subtractCoveredRef(w, ivs)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("window %v over %v: windowed %v, full scan %v", w, ivs, got, want)
			}
		}
	}
}
