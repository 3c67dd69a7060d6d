package knapsack

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// sinKnapPointerChain is the pre-optimization SinKnap, kept verbatim as a
// reference: it allocates a fresh dp table per call and a heap selNode
// per DP improvement. The arena version must match it solution-for-
// solution; the benchmarks below measure what the allocation diet buys.
func sinKnapPointerChain(items []Item, capacity int64, eps float64) (Solution, error) {
	if eps <= 0 || eps >= 1 {
		return Solution{}, fmt.Errorf("knapsack: SinKnap eps %v outside (0,1)", eps)
	}
	if capacity < 0 {
		return Solution{}, fmt.Errorf("knapsack: negative capacity %d", capacity)
	}
	feas, err := filterFeasible(items, capacity)
	if err != nil {
		return Solution{}, err
	}
	if len(feas) == 0 {
		return Solution{}, nil
	}
	pmax := 0.0
	for _, it := range feas {
		if it.Profit > pmax {
			pmax = it.Profit
		}
	}
	k := eps * pmax / float64(len(feas))
	scaled := make([]int, len(feas))
	var totalScaled int
	for i, it := range feas {
		scaled[i] = int(math.Floor(it.Profit / k))
		totalScaled += scaled[i]
	}
	type selNode struct {
		item int32
		prev *selNode
	}
	type cell struct {
		weight int64
		sel    *selNode
	}
	const unreachable = math.MaxInt64
	dp := make([]cell, totalScaled+1)
	for i := range dp {
		dp[i].weight = unreachable
	}
	dp[0].weight = 0
	for i, it := range feas {
		sp := scaled[i]
		if sp == 0 {
			continue
		}
		for p := totalScaled - sp; p >= 0; p-- {
			if dp[p].weight == unreachable {
				continue
			}
			cand := dp[p].weight + it.Weight
			if cand <= capacity && cand < dp[p+sp].weight {
				dp[p+sp] = cell{weight: cand, sel: &selNode{item: int32(i), prev: dp[p].sel}}
			}
		}
	}
	bestP := 0
	for p := totalScaled; p > 0; p-- {
		if dp[p].weight != unreachable {
			bestP = p
			break
		}
	}
	var sol Solution
	for n := dp[bestP].sel; n != nil; n = n.prev {
		it := feas[n.item]
		sol.IDs = append(sol.IDs, it.ID)
		sol.Profit += it.Profit
		sol.Weight += it.Weight
	}
	sol.normalize()
	return sol, nil
}

// TestSinKnapMatchesPointerChainReference cross-checks the arena-based
// SinKnap against the original pointer-chained implementation on random
// instances: the selection logic is unchanged, so the solutions must be
// identical item for item. The capacities around the instance's total
// weight straddle the slack shortcut (every item fits, so the DP is
// skipped), and the tiny profits scale to zero, which both paths must
// leave out.
func TestSinKnapMatchesPointerChainReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		items := make([]Item, n)
		var total int64
		for i := range items {
			items[i] = Item{ID: i, Profit: rng.Float64() * 100, Weight: rng.Int63n(80) + 1}
			if trial%2 == 1 && rng.Intn(4) == 0 {
				items[i].Profit = rng.Float64() * 1e-6
			}
			total += items[i].Weight
		}
		eps := 0.02 + rng.Float64()*0.5
		for _, capacity := range []int64{rng.Int63n(1500) + 1, total - 1, total, total + 1, total + 1_000_000} {
			label := fmt.Sprintf("trial %d capacity %d/%d", trial, capacity, total)
			got, err := SinKnap(items, capacity, eps)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sinKnapPointerChain(items, capacity, eps)
			if err != nil {
				t.Fatal(err)
			}
			sameSolution(t, label, got, want)
		}
	}
}

// sameSolution fails unless got and want are bit-identical: the same
// IDs, the same weight and the same float64 profit bits.
func sameSolution(t *testing.T, label string, got, want Solution) {
	t.Helper()
	if math.Float64bits(got.Profit) != math.Float64bits(want.Profit) || got.Weight != want.Weight || len(got.IDs) != len(want.IDs) {
		t.Fatalf("%s: arena %+v != reference %+v", label, got, want)
	}
	for i := range got.IDs {
		if got.IDs[i] != want.IDs[i] {
			t.Fatalf("%s: IDs differ: %v vs %v", label, got.IDs, want.IDs)
		}
	}
}

// TestSolveGreedyWinsOnZeroScaledItems: when everything fits, SinKnap
// drops items whose profit scales to zero, while Greedy packs them all,
// so Solve must return Greedy's strictly better packing.
func TestSolveGreedyWinsOnZeroScaledItems(t *testing.T) {
	items := []Item{
		{ID: 0, Profit: 100, Weight: 10},
		{ID: 1, Profit: 0.001, Weight: 1},
		{ID: 2, Profit: 0.002, Weight: 1},
	}
	const capacity, eps = 1000, 0.5
	fp, err := SinKnap(items, capacity, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.IDs) != 1 || fp.IDs[0] != 0 {
		t.Fatalf("SinKnap = %+v, want only item 0 (the others scale to zero)", fp)
	}
	gr, err := Greedy(items, capacity)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Solve(items, capacity, eps)
	if err != nil {
		t.Fatal(err)
	}
	if s.Profit <= fp.Profit || len(s.IDs) != 3 || s.Weight != 12 {
		t.Fatalf("Solve = %+v, want Greedy's packing of all three items", s)
	}
	sameSolution(t, "Solve vs Greedy", s, gr)
}

// BenchmarkSinKnapOldVsNew measures the allocation diet: the old
// pointer-chain implementation against the pooled arena one on the same
// instance, reporting the speedup factor.
func BenchmarkSinKnapOldVsNew(b *testing.B) {
	items := benchItems(150, 60)
	const capacity, eps = 1500, 0.1
	b.Run("old-pointer-chain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sinKnapPointerChain(items, capacity, eps); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("new-arena-pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := SinKnap(items, capacity, eps); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("speedup", func(b *testing.B) {
		// One benchmark that times both and reports the ratio, so the
		// win is visible in a single metric.
		iters := 50
		oldT := timeSolver(b, iters, func() {
			if _, err := sinKnapPointerChain(items, capacity, eps); err != nil {
				b.Fatal(err)
			}
		})
		newT := timeSolver(b, iters, func() {
			if _, err := SinKnap(items, capacity, eps); err != nil {
				b.Fatal(err)
			}
		})
		if newT > 0 {
			b.ReportMetric(float64(oldT)/float64(newT), "speedup-x")
		}
	})
}

func timeSolver(b *testing.B, iters int, fn func()) time.Duration {
	b.Helper()
	fn() // warm the pool
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return time.Since(start)
}
