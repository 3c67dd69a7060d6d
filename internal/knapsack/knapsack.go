// Package knapsack implements the 0/1 knapsack solvers NetMaster's
// scheduler builds on: an exact dynamic program (used as ground truth in
// tests and for the offline oracle on small instances), a profit-density
// greedy, and the Ibarra–Kim fully polynomial approximation scheme
// (JACM 1975) the paper calls SinKnap, which guarantees a (1−ε)-optimal
// packing in time polynomial in n and 1/ε.
package knapsack

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Item is one knapsack item. In the scheduler an item is a screen-off
// network activity: Profit is its net energy gain ΔE−ΔP in joules and
// Weight its volume V(n) in bytes.
type Item struct {
	// ID identifies the item to the caller; solvers report selected
	// items by ID. IDs need not be dense or sorted but must be unique
	// within one solve.
	ID     int
	Profit float64
	Weight int64
}

// Solution is a selected subset of items.
type Solution struct {
	IDs    []int // selected item IDs, ascending
	Profit float64
	Weight int64
}

// normalize sorts IDs so solutions compare deterministically.
func (s *Solution) normalize() { sort.Ints(s.IDs) }

// filterFeasible drops items that can never be selected: non-positive
// profit (selecting them cannot improve the objective) or weight exceeding
// capacity. It returns the survivors and verifies ID uniqueness.
func filterFeasible(items []Item, capacity int64) ([]Item, error) {
	seen := make(map[int]bool, len(items))
	out := make([]Item, 0, len(items))
	for _, it := range items {
		if seen[it.ID] {
			return nil, fmt.Errorf("knapsack: duplicate item ID %d", it.ID)
		}
		seen[it.ID] = true
		if it.Weight < 0 {
			return nil, fmt.Errorf("knapsack: item %d has negative weight", it.ID)
		}
		if it.Profit <= 0 || it.Weight > capacity {
			continue
		}
		out = append(out, it)
	}
	return out, nil
}

// Exact solves the 0/1 knapsack exactly with dynamic programming over
// weight. Runtime is O(n·capacity), so it is only suitable for modest
// capacities (the oracle quantises volumes before calling it). capacity
// must be non-negative.
func Exact(items []Item, capacity int64) (Solution, error) {
	if capacity < 0 {
		return Solution{}, fmt.Errorf("knapsack: negative capacity %d", capacity)
	}
	feas, err := filterFeasible(items, capacity)
	if err != nil {
		return Solution{}, err
	}
	if len(feas) == 0 || capacity == 0 {
		return pickZeroWeight(feas), nil
	}
	c := int(capacity)
	// best[w] = max profit using weight ≤ w. The backtracking record is a
	// bitset row per item (bit j set ⇔ item i taken at weight j): 1 bit
	// per (item, weight) cell instead of the previous 1-byte bool, so
	// large quantised capacities stay well clear of gigabyte allocations.
	best := make([]float64, c+1)
	words := (c + 1 + 63) / 64
	take := make([]uint64, len(feas)*words)
	for i, it := range feas {
		row := take[i*words : (i+1)*words]
		w := int(it.Weight)
		for j := c; j >= w; j-- {
			if cand := best[j-w] + it.Profit; cand > best[j] {
				best[j] = cand
				row[j>>6] |= 1 << (uint(j) & 63)
			}
		}
	}
	// Reconstruct.
	sol := Solution{}
	j := c
	for i := len(feas) - 1; i >= 0; i-- {
		if take[i*words+(j>>6)]&(1<<(uint(j)&63)) != 0 {
			sol.IDs = append(sol.IDs, feas[i].ID)
			sol.Profit += feas[i].Profit
			sol.Weight += feas[i].Weight
			j -= int(feas[i].Weight)
		}
	}
	sol.normalize()
	return sol, nil
}

// pickZeroWeight selects every zero-weight item (all have positive profit
// after filtering); used when no capacity remains.
func pickZeroWeight(feas []Item) Solution {
	var sol Solution
	for _, it := range feas {
		if it.Weight == 0 {
			sol.IDs = append(sol.IDs, it.ID)
			sol.Profit += it.Profit
		}
	}
	sol.normalize()
	return sol
}

// Greedy packs items in non-increasing profit/weight order and then, as
// the classic 1/2-approximation requires, returns the better of the packed
// set and the single most profitable item.
func Greedy(items []Item, capacity int64) (Solution, error) {
	if capacity < 0 {
		return Solution{}, fmt.Errorf("knapsack: negative capacity %d", capacity)
	}
	feas, err := filterFeasible(items, capacity)
	if err != nil {
		return Solution{}, err
	}
	order := append([]Item(nil), feas...)
	sort.Slice(order, func(i, j int) bool {
		di := density(order[i])
		dj := density(order[j])
		if di != dj {
			return di > dj
		}
		return order[i].ID < order[j].ID
	})
	var packed Solution
	remaining := capacity
	for _, it := range order {
		if it.Weight <= remaining {
			packed.IDs = append(packed.IDs, it.ID)
			packed.Profit += it.Profit
			packed.Weight += it.Weight
			remaining -= it.Weight
		}
	}
	// Best single item fallback.
	var bestSingle Solution
	for _, it := range feas {
		if it.Profit > bestSingle.Profit {
			bestSingle = Solution{IDs: []int{it.ID}, Profit: it.Profit, Weight: it.Weight}
		}
	}
	if bestSingle.Profit > packed.Profit {
		bestSingle.normalize()
		return bestSingle, nil
	}
	packed.normalize()
	return packed, nil
}

func density(it Item) float64 {
	if it.Weight == 0 {
		return math.Inf(1)
	}
	return it.Profit / float64(it.Weight)
}

// SinKnap is the Ibarra–Kim FPTAS: it returns a packing with profit at
// least (1−ε)·OPT in O(n²/ε) time and space, independent of capacity.
// eps must lie in (0, 1).
//
// The scheme scales every profit down by K = ε·Pmax/n, runs an exact
// dynamic program over scaled integer profits (minimising weight for each
// achievable profit level), and reads off the most profitable feasible
// level. The truncation loses at most K per item, i.e. ε·Pmax ≤ ε·OPT in
// total.
func SinKnap(items []Item, capacity int64, eps float64) (Solution, error) {
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
	// Scaled profits: floor(p/K). Truncation (or omission of an item
	// whose profit rounds to zero) loses < K per item, so the total loss
	// is < nK = ε·Pmax ≤ ε·OPT.
	buf := dpPool.Get().(*dpBuffers)
	defer dpPool.Put(buf)
	scaled := buf.scaled(len(feas))
	var totalScaled int
	for i, it := range feas {
		scaled[i] = int(math.Floor(it.Profit / k))
		totalScaled += scaled[i]
	}

	// Slack shortcut: when the items the DP can take (scaled profit > 0)
	// fit together, level totalScaled is reachable, and only by taking
	// all of them, so the DP's answer is exactly that set. Collect it in
	// the chain walk's order (reverse item order) so Profit sums the
	// same way and the result is bit-identical. remaining is ≥ 0 before
	// each subtraction, so it cannot overflow.
	remaining := capacity
	for i := 0; i < len(feas) && remaining >= 0; i++ {
		if scaled[i] > 0 {
			remaining -= feas[i].Weight
		}
	}
	if remaining >= 0 {
		var all Solution
		for i := len(feas) - 1; i >= 0; i-- {
			if scaled[i] > 0 {
				all.IDs = append(all.IDs, feas[i].ID)
				all.Profit += feas[i].Profit
				all.Weight += feas[i].Weight
			}
		}
		all.normalize()
		return all, nil
	}

	// DP over exact scaled profit: dp[p] holds the minimum weight
	// achieving scaled profit p, plus an immutable selection list.
	// Selection nodes live in an append-only index arena (sel is an
	// index into it, -1 = none) rather than a pointer-chained list:
	// chains stay persistent — nodes are never mutated once linked, so
	// later overwrites of a level cannot corrupt earlier chains — while
	// the arena and the dp table themselves recycle through a sync.Pool
	// across solves instead of being reallocated per improvement.
	const unreachable = math.MaxInt64
	dp := buf.cells(totalScaled + 1)
	for i := range dp {
		dp[i] = dpCell{weight: unreachable, sel: -1}
	}
	dp[0] = dpCell{weight: 0, sel: -1}
	arena := buf.arena[:0]
	for i, it := range feas {
		sp := scaled[i]
		if sp == 0 {
			continue // rounds to zero value; covered by the ε loss bound
		}
		// Descending p keeps 0/1 semantics: dp[p] has not yet been
		// updated by item i when it serves as a predecessor.
		for p := totalScaled - sp; p >= 0; p-- {
			if dp[p].weight == unreachable {
				continue
			}
			cand := dp[p].weight + it.Weight
			if cand <= capacity && cand < dp[p+sp].weight {
				arena = append(arena, selNode{item: int32(i), prev: dp[p].sel})
				dp[p+sp] = dpCell{weight: cand, sel: int32(len(arena) - 1)}
			}
		}
	}
	buf.arena = arena // keep any growth for the next solve

	bestP := 0
	for p := totalScaled; p > 0; p-- {
		if dp[p].weight != unreachable {
			bestP = p
			break
		}
	}
	var sol Solution
	for n := dp[bestP].sel; n >= 0; n = arena[n].prev {
		it := feas[arena[n].item]
		sol.IDs = append(sol.IDs, it.ID)
		sol.Profit += it.Profit
		sol.Weight += it.Weight
	}
	sol.normalize()
	return sol, nil
}

// selNode is one link of a persistent selection chain: the item taken at
// a DP improvement and the arena index of the predecessor link (-1 for
// the chain head).
type selNode struct {
	item int32
	prev int32
}

// dpCell is one DP level: the minimum weight achieving its scaled profit
// and the arena index of its selection chain.
type dpCell struct {
	weight int64
	sel    int32
}

// dpBuffers bundles SinKnap's working storage so repeated solves (the
// scheduler runs one per active slot, per user, per day) reuse memory
// instead of allocating a fresh table and a node per DP improvement.
type dpBuffers struct {
	dp       []dpCell
	arena    []selNode
	scaledBf []int
}

func (b *dpBuffers) cells(n int) []dpCell {
	if cap(b.dp) < n {
		b.dp = make([]dpCell, n)
	}
	b.dp = b.dp[:n]
	return b.dp
}

func (b *dpBuffers) scaled(n int) []int {
	if cap(b.scaledBf) < n {
		b.scaledBf = make([]int, n)
	}
	b.scaledBf = b.scaledBf[:n]
	return b.scaledBf
}

// dpPool recycles dpBuffers across SinKnap calls; sync.Pool keeps the
// concurrent per-slot solves race-free without a lock on the hot path.
var dpPool = sync.Pool{New: func() any { return new(dpBuffers) }}

// Solve returns the better of SinKnap and Greedy; combining the two never
// weakens the (1−ε) guarantee and the greedy occasionally wins on scaled
// ties.
func Solve(items []Item, capacity int64, eps float64) (Solution, error) {
	fp, err := SinKnap(items, capacity, eps)
	if err != nil {
		return Solution{}, err
	}
	gr, err := Greedy(items, capacity)
	if err != nil {
		return Solution{}, err
	}
	if gr.Profit > fp.Profit {
		return gr, nil
	}
	return fp, nil
}
