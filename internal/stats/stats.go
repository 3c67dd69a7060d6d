// Package stats implements the small statistical toolkit NetMaster's
// analysis needs: Pearson correlation (the paper's habit-similarity
// measure, Eq. 1), empirical CDFs and quantiles for the bandwidth
// profiling figures, histograms, and basic summary statistics.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by n), or 0
// for slices with fewer than one element.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest element of xs; it panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Pearson computes the Pearson correlation coefficient of two equal-length
// vectors (Eq. 1 of the paper). It returns 0 when either vector is
// constant, matching the paper's treatment of all-idle hours, and panics
// if the lengths differ or the vectors are empty.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: Pearson length mismatch %d vs %d", len(x), len(y)))
	}
	if len(x) == 0 {
		panic("stats: Pearson of empty vectors")
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// PearsonMatrix computes the symmetric matrix of pairwise Pearson
// coefficients over the rows of vs. Diagonal entries are 1 when the row is
// non-constant and 0 otherwise (consistent with Pearson's convention).
func PearsonMatrix(vs [][]float64) [][]float64 {
	n := len(vs)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			p := Pearson(vs[i], vs[j])
			m[i][j] = p
			m[j][i] = p
		}
	}
	return m
}

// OffDiagonalMean returns the mean of the strictly off-diagonal entries of
// a square matrix; this is the "average Pearson parameter" the paper
// reports for Figs. 3 and 4. It returns 0 for matrices smaller than 2×2.
func OffDiagonalMean(m [][]float64) float64 {
	n := len(m)
	if n < 2 {
		return 0
	}
	var sum float64
	var count int
	for i := 0; i < n; i++ {
		if len(m[i]) != n {
			panic("stats: OffDiagonalMean on non-square matrix")
		}
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			sum += m[i][j]
			count++
		}
	}
	return sum / float64(count)
}

// ECDF is an empirical cumulative distribution function over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from a sample; the input is copied.
func NewECDF(sample []float64) *ECDF {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// Len returns the sample size.
func (e *ECDF) Len() int { return len(e.sorted) }

// At returns P[X <= x], or 0 for an empty sample.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// First index with value > x.
	idx := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(idx) / float64(len(e.sorted))
}

// Quantile returns the q-th quantile (q in [0,1]) using the nearest-rank
// method; it panics for an empty sample or q outside [0,1].
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		panic("stats: Quantile of empty ECDF")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	return QuantileSorted(e.sorted, q)
}

// QuantileSorted returns the ceil-rank (nearest-rank) order statistic
// of ascending data: sorted[⌈q·n⌉−1], clamped into the sample, so q=0
// gives the minimum and q=1 the maximum. It returns 0 for empty data.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Points samples the ECDF at n evenly spaced x positions across the data
// range, returning (x, y) pairs suitable for plotting a figure series.
func (e *ECDF) Points(n int) (xs, ys []float64) {
	if len(e.sorted) == 0 || n <= 0 {
		return nil, nil
	}
	lo, hi := e.sorted[0], e.sorted[len(e.sorted)-1]
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := 0; i < n; i++ {
		var x float64
		if n == 1 {
			x = hi
		} else {
			x = lo + (hi-lo)*float64(i)/float64(n-1)
		}
		xs[i] = x
		ys[i] = e.At(x)
	}
	return xs, ys
}

// Histogram bins a sample into nbins equal-width bins over [lo, hi).
// Values outside the range are clamped into the first/last bin. It returns
// the bin counts and the bin edges (nbins+1 values).
func Histogram(sample []float64, lo, hi float64, nbins int) (counts []int, edges []float64) {
	if nbins <= 0 {
		panic("stats: Histogram with non-positive bin count")
	}
	if hi <= lo {
		panic(fmt.Sprintf("stats: Histogram with empty range [%v, %v)", lo, hi))
	}
	counts = make([]int, nbins)
	edges = make([]float64, nbins+1)
	w := (hi - lo) / float64(nbins)
	for i := range edges {
		edges[i] = lo + w*float64(i)
	}
	for _, x := range sample {
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		counts[b]++
	}
	return counts, edges
}

// Normalize scales xs so it sums to 1; a zero-sum vector is returned
// unchanged. The input is not modified.
func Normalize(xs []float64) []float64 {
	s := Sum(xs)
	out := make([]float64, len(xs))
	if s == 0 {
		copy(out, xs)
		return out
	}
	for i, x := range xs {
		out[i] = x / s
	}
	return out
}

// Summary holds the basic descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	P50    float64
	P90    float64
	P99    float64
	Max    float64
}

// Summarize computes a Summary; for an empty sample all fields are zero.
func Summarize(sample []float64) Summary {
	if len(sample) == 0 {
		return Summary{}
	}
	e := NewECDF(sample)
	return Summary{
		N:      len(sample),
		Mean:   Mean(sample),
		StdDev: StdDev(sample),
		Min:    e.sorted[0],
		P50:    e.Quantile(0.50),
		P90:    e.Quantile(0.90),
		P99:    e.Quantile(0.99),
		Max:    e.sorted[len(e.sorted)-1],
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g",
		s.N, s.Mean, s.StdDev, s.Min, s.P50, s.P90, s.P99, s.Max)
}
