package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almost(Mean(xs), 5) {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if !almost(Variance(xs), 4) {
		t.Errorf("Variance = %v", Variance(xs))
	}
	if !almost(StdDev(xs), 2) {
		t.Errorf("StdDev = %v", StdDev(xs))
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty-slice mean/variance should be 0")
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Min(xs) != -1 || Max(xs) != 5 || Sum(xs) != 12 {
		t.Errorf("Min/Max/Sum = %v/%v/%v", Min(xs), Max(xs), Sum(xs))
	}
	defer func() {
		if recover() == nil {
			t.Error("Min(empty) did not panic")
		}
	}()
	Min(nil)
}

func TestPearsonKnownValues(t *testing.T) {
	// Perfectly correlated, anti-correlated and independent-ish cases.
	x := []float64{1, 2, 3, 4, 5}
	if !almost(Pearson(x, x), 1) {
		t.Errorf("self Pearson = %v", Pearson(x, x))
	}
	y := []float64{5, 4, 3, 2, 1}
	if !almost(Pearson(x, y), -1) {
		t.Errorf("anti Pearson = %v", Pearson(x, y))
	}
	// Affine transforms preserve correlation.
	z := []float64{12, 14, 16, 18, 20}
	if !almost(Pearson(x, z), 1) {
		t.Errorf("affine Pearson = %v", Pearson(x, z))
	}
	// Constant vector: defined as 0 (the paper's all-idle hours).
	c := []float64{7, 7, 7, 7, 7}
	if Pearson(x, c) != 0 {
		t.Errorf("constant Pearson = %v", Pearson(x, c))
	}
}

func TestPearsonHandComputed(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{2, 2, 4}
	// cov = (1-2)(2-8/3)+(2-2)(2-8/3)+(3-2)(4-8/3) = 2/3+0+4/3 = 2
	// sd_x² = 2, sd_y² = 8/3 → r = 2 / sqrt(16/3) = sqrt(3)/2
	want := math.Sqrt(3) / 2
	if !almost(Pearson(x, y), want) {
		t.Errorf("Pearson = %v, want %v", Pearson(x, y), want)
	}
}

func TestPearsonPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"length mismatch": func() { Pearson([]float64{1}, []float64{1, 2}) },
		"empty":           func() { Pearson(nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPearsonBoundedProperty(t *testing.T) {
	prop := func(a, b [8]float64) bool {
		x, y := a[:], b[:]
		for i := range x {
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) || math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
				return true // skip pathological float inputs
			}
			// Bound magnitudes to avoid overflow in sums of squares.
			x[i] = math.Mod(x[i], 1e6)
			y[i] = math.Mod(y[i], 1e6)
		}
		r := Pearson(x, y)
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPearsonMatrixSymmetry(t *testing.T) {
	vs := [][]float64{
		{1, 2, 3, 4},
		{4, 3, 2, 1},
		{1, 1, 2, 2},
	}
	m := PearsonMatrix(vs)
	for i := range m {
		if !almost(m[i][i], 1) {
			t.Errorf("diag[%d] = %v", i, m[i][i])
		}
		for j := range m {
			if m[i][j] != m[j][i] {
				t.Errorf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestOffDiagonalMean(t *testing.T) {
	m := [][]float64{
		{1, 0.5, 0.1},
		{0.5, 1, 0.3},
		{0.1, 0.3, 1},
	}
	want := (0.5 + 0.1 + 0.3) * 2 / 6
	if !almost(OffDiagonalMean(m), want) {
		t.Errorf("OffDiagonalMean = %v, want %v", OffDiagonalMean(m), want)
	}
	if OffDiagonalMean([][]float64{{1}}) != 0 {
		t.Error("1x1 matrix should give 0")
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3, 10})
	if e.Len() != 5 {
		t.Fatalf("Len = %d", e.Len())
	}
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.2}, {2, 0.6}, {2.5, 0.6}, {10, 1}, {11, 1},
	}
	for _, c := range cases {
		if !almost(e.At(c.x), c.want) {
			t.Errorf("At(%v) = %v, want %v", c.x, e.At(c.x), c.want)
		}
	}
	if e.Quantile(0.5) != 2 {
		t.Errorf("median = %v", e.Quantile(0.5))
	}
	if e.Quantile(1) != 10 || e.Quantile(0) != 1 {
		t.Errorf("extremes = %v, %v", e.Quantile(0), e.Quantile(1))
	}
}

// TestQuantileExactRanks pins the ceil-rank order statistic, including
// the latency percentiles netmaster-bench reports, and checks that
// ECDF.Quantile answers the same on a non-empty sample.
func TestQuantileExactRanks(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		sorted  []float64
		q, want float64
	}{
		{ten, 0, 1}, {ten, 0.5, 5}, {ten, 0.9, 9}, {ten, 0.99, 10}, {ten, 1.0, 10},
		{[]float64{1, 2, 2, 3, 10}, 0.5, 2},
		{[]float64{7}, 0.01, 7},
		{nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := QuantileSorted(c.sorted, c.q); got != c.want {
			t.Errorf("QuantileSorted(%v, %.2f) = %v, want %v", c.sorted, c.q, got, c.want)
		}
		if len(c.sorted) > 0 {
			if got := NewECDF(c.sorted).Quantile(c.q); got != c.want {
				t.Errorf("ECDF(%v).Quantile(%.2f) = %v, want %v", c.sorted, c.q, got, c.want)
			}
		}
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	prop := func(sample [12]float64, a, b float64) bool {
		for _, v := range sample {
			if math.IsNaN(v) {
				return true
			}
		}
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		e := NewECDF(sample[:])
		return e.At(a) <= e.At(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestECDFPoints(t *testing.T) {
	e := NewECDF([]float64{0, 10})
	xs, ys := e.Points(3)
	if len(xs) != 3 || xs[0] != 0 || xs[2] != 10 {
		t.Errorf("xs = %v", xs)
	}
	if ys[2] != 1 {
		t.Errorf("ys = %v", ys)
	}
	if xs, ys := NewECDF(nil).Points(5); xs != nil || ys != nil {
		t.Error("empty ECDF points should be nil")
	}
}

func TestHistogram(t *testing.T) {
	counts, edges := Histogram([]float64{0.5, 1.5, 1.6, 2.5, -1, 99}, 0, 3, 3)
	// -1 clamps into bin 0; 99 clamps into bin 2.
	want := []int{2, 2, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("counts = %v, want %v", counts, want)
			break
		}
	}
	if len(edges) != 4 || edges[0] != 0 || edges[3] != 3 {
		t.Errorf("edges = %v", edges)
	}
}

func TestNormalize(t *testing.T) {
	got := Normalize([]float64{1, 3})
	if !almost(got[0], 0.25) || !almost(got[1], 0.75) {
		t.Errorf("Normalize = %v", got)
	}
	zero := Normalize([]float64{0, 0})
	if zero[0] != 0 || zero[1] != 0 {
		t.Errorf("zero Normalize = %v", zero)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.N != 10 || s.Min != 1 || s.Max != 10 {
		t.Errorf("Summary = %+v", s)
	}
	if s.P50 != 5 || s.P90 != 9 {
		t.Errorf("quantiles = p50=%v p90=%v", s.P50, s.P90)
	}
	if Summarize(nil).N != 0 {
		t.Error("empty summary should be zero")
	}
	if s.String() == "" {
		t.Error("String should render")
	}
}
