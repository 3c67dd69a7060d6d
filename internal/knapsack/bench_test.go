package knapsack

import (
	"math/rand"
	"testing"
)

// Solver micro-benchmarks: the scheduler calls SinKnap once per slot per
// day, so its constant factors matter.

func benchItems(n int, maxWeight int64) []Item {
	rng := rand.New(rand.NewSource(42))
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: i, Profit: rng.Float64() * 100, Weight: rng.Int63n(maxWeight) + 1}
	}
	return items
}

func BenchmarkSinKnap100(b *testing.B) {
	items := benchItems(100, 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SinKnap(items, 1000, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSinKnapFits is the served-traffic shape: a slot's ~47
// screen-off transfers all fit its Eq. 5 capacity, so SinKnap takes the
// slack shortcut instead of the DP that BenchmarkSinKnap100 exercises.
func BenchmarkSinKnapFits(b *testing.B) {
	items := benchItems(47, 50)
	var total int64
	for _, it := range items {
		total += it.Weight
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sol, err := SinKnap(items, total, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		if len(sol.IDs) == 0 {
			b.Fatal("empty packing")
		}
	}
}

func BenchmarkExactDP100(b *testing.B) {
	items := benchItems(100, 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Exact(items, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBranchBound100(b *testing.B) {
	items := benchItems(100, 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BranchBound(items, 1000, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBranchBoundHugeCapacity(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	items := make([]Item, 60)
	var total int64
	for i := range items {
		w := rng.Int63n(1<<28) + 1
		items[i] = Item{ID: i, Profit: float64(w) * (0.5 + rng.Float64()), Weight: w}
		total += w
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BranchBound(items, total/2, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedy100(b *testing.B) {
	items := benchItems(100, 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Greedy(items, 1000); err != nil {
			b.Fatal(err)
		}
	}
}
