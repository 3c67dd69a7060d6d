package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"netmaster/internal/metrics"
	"netmaster/internal/simtime"
)

// randomDevice builds a plausible per-device snapshot: a subset of a
// shared name pool so devices overlap but don't coincide, plus one
// histogram with the shared bounds.
func randomDevice(rng *rand.Rand, id string) Device {
	s := metrics.Snapshot{
		SimTime:    simtime.Instant(rng.Int63n(1 << 20)),
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]metrics.HistogramSnapshot{},
	}
	counterPool := []string{"replay_transfers_total", "replay_bytes_down_total", "mw_events_total", "sched_runs_total"}
	gaugePool := []string{"mw_mode", "sched_last_objective", "mw_special_apps"}
	for _, n := range counterPool {
		if rng.Intn(4) > 0 {
			s.Counters[n] = rng.Int63n(1 << 30)
		}
	}
	for _, n := range gaugePool {
		if rng.Intn(4) > 0 {
			// Awkward floats on purpose: sums of these are where
			// order-dependence would show.
			s.Gauges[n] = rng.NormFloat64() * math.Pi * 1e3
		}
	}
	bounds := []float64{1, 10, 60, 300, 1800}
	hs := metrics.HistogramSnapshot{Bounds: bounds, Buckets: make([]int64, len(bounds))}
	var cum int64
	for i := range bounds {
		cum += rng.Int63n(100)
		hs.Buckets[i] = cum
	}
	hs.Overflow = rng.Int63n(10)
	hs.Count = cum + hs.Overflow
	hs.Sum = rng.Float64() * 1e6
	s.Histograms["replay_defer_seconds"] = hs
	return Device{ID: id, Snapshot: s}
}

func randomFleet(rng *rand.Rand, n int) []Device {
	devs := make([]Device, n)
	for i := range devs {
		devs[i] = randomDevice(rng, fmt.Sprintf("volunteer%02d", i))
	}
	return devs
}

func exportBytes(t *testing.T, a *Agg) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Export().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Aggregation must be permutation-invariant: any input order exports the
// same bytes.
func TestAggregatePermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	devs := randomFleet(rng, 9)
	ref, err := Aggregate(devs...)
	if err != nil {
		t.Fatal(err)
	}
	want := exportBytes(t, ref)
	for trial := 0; trial < 20; trial++ {
		perm := append([]Device(nil), devs...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		a, err := Aggregate(perm...)
		if err != nil {
			t.Fatal(err)
		}
		if got := exportBytes(t, a); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: permuted aggregation changed the exported bytes", trial)
		}
	}
}

// Merge must be associative: any binary association tree over any
// sharding exports the same bytes as the flat aggregation.
func TestMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	devs := randomFleet(rng, 8)
	flat, err := Aggregate(devs...)
	if err != nil {
		t.Fatal(err)
	}
	want := exportBytes(t, flat)

	// Random association tree: start from singleton aggregates and
	// repeatedly merge two random adjacent parts.
	for trial := 0; trial < 20; trial++ {
		parts := make([]*Agg, len(devs))
		for i, d := range devs {
			a, err := Aggregate(d)
			if err != nil {
				t.Fatal(err)
			}
			parts[i] = a
		}
		for len(parts) > 1 {
			i := rng.Intn(len(parts) - 1)
			merged, err := Merge(parts[i], parts[i+1])
			if err != nil {
				t.Fatal(err)
			}
			parts[i] = merged
			parts = append(parts[:i+1], parts[i+2:]...)
		}
		if got := exportBytes(t, parts[0]); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: association tree changed the exported bytes", trial)
		}
	}
}

// The parallel sharded roll-up must match the sequential one bit for bit
// at every worker count.
func TestAggregateParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	devs := randomFleet(rng, 17)
	seq, err := Aggregate(devs...)
	if err != nil {
		t.Fatal(err)
	}
	want := exportBytes(t, seq)
	for _, workers := range []int{1, 2, 3, 8, 32} {
		par, err := AggregateParallel(workers, devs)
		if err != nil {
			t.Fatal(err)
		}
		if got := exportBytes(t, par); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: parallel aggregation changed the exported bytes", workers)
		}
	}
}

func TestAggregateRejectsDuplicatesAndMismatchedBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	d := randomDevice(rng, "dup")
	if _, err := Aggregate(d, d); err == nil {
		t.Fatal("duplicate device accepted")
	}
	if _, err := Aggregate(Device{ID: ""}); err == nil {
		t.Fatal("empty device ID accepted")
	}
	a := randomDevice(rng, "a")
	b := randomDevice(rng, "b")
	hs := b.Snapshot.Histograms["replay_defer_seconds"]
	hs.Bounds = []float64{2, 20}
	hs.Buckets = []int64{1, 2}
	b.Snapshot.Histograms["replay_defer_seconds"] = hs
	if _, err := Aggregate(a, b); err == nil {
		t.Fatal("mismatched histogram bounds accepted")
	}
	aa, _ := Aggregate(a)
	bb, _ := Aggregate(randomDevice(rng, "a"))
	if _, err := Merge(aa, bb); err == nil {
		t.Fatal("merge with duplicate device accepted")
	}
}

// A failed Add or MergeFrom must leave the aggregate exactly as it was:
// a device refused for mismatched bounds or a malformed histogram is
// not counted, and a corrected retry of it succeeds.
func TestFailedAddLeavesAggregateUntouched(t *testing.T) {
	mk := func(id string, n int64, bounds []float64, buckets []int64) Device {
		return Device{ID: id, Snapshot: metrics.Snapshot{
			Counters:   map[string]int64{"n_total": n},
			Histograms: map[string]metrics.HistogramSnapshot{"h": {Bounds: bounds, Buckets: buckets}},
		}}
	}
	good := mk("a", 1, []float64{1, 10}, []int64{1, 2})
	a, err := Aggregate(good)
	if err != nil {
		t.Fatal(err)
	}
	want := exportBytes(t, a)
	for _, bad := range []Device{
		mk("b", 5, []float64{2, 20}, []int64{1, 2}), // bounds differ from the fleet's
		mk("b", 5, []float64{1, 10}, []int64{1}),    // one bucket short
		mk("a", 5, []float64{1, 10}, []int64{1, 2}), // duplicate ID
		mk("", 5, []float64{1, 10}, []int64{1, 2}),  // empty ID
	} {
		if err := a.Add(bad); err == nil {
			t.Fatalf("Add(%+v) accepted", bad)
		}
		if got := exportBytes(t, a); !bytes.Equal(got, want) {
			t.Fatalf("failed Add(%q) changed the aggregate:\n%s", bad.ID, got)
		}
	}
	if err := a.Add(mk("b", 5, []float64{1, 10}, []int64{3, 4})); err != nil {
		t.Fatalf("corrected retry refused: %v", err)
	}
	if st := a.Export().Counters["n_total"]; st.Total != 6 || st.Devices != 2 {
		t.Fatalf("after retry: counter stat = %+v, want total 6 over 2 devices", st)
	}

	want = exportBytes(t, a)
	for _, part := range []Device{
		mk("c", 7, []float64{3}, []int64{1}),        // bounds differ between shards
		mk("b", 7, []float64{1, 10}, []int64{1, 2}), // device already present
	} {
		z := Device{ID: "z", Snapshot: metrics.Snapshot{Counters: map[string]int64{"n_total": 9}}}
		other, err := Aggregate(z, part)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.MergeFrom(other); err == nil {
			t.Fatalf("MergeFrom with %q accepted", part.ID)
		}
		if got := exportBytes(t, a); !bytes.Equal(got, want) {
			t.Fatalf("failed MergeFrom with %q changed the aggregate:\n%s", part.ID, got)
		}
	}
}

// Counters sum exactly; gauges reduce to min/mean/max; histograms merge
// bucket-wise.
func TestExportSemantics(t *testing.T) {
	mk := func(id string, c int64, g float64, bucket1 int64) Device {
		return Device{ID: id, Snapshot: metrics.Snapshot{
			SimTime:  simtime.Instant(c),
			Counters: map[string]int64{"n_total": c},
			Gauges:   map[string]float64{"g": g},
			Histograms: map[string]metrics.HistogramSnapshot{
				"h": {Bounds: []float64{1, 10}, Buckets: []int64{bucket1, bucket1 + 2}, Overflow: 1, Count: bucket1 + 3, Sum: float64(bucket1)},
			},
		}}
	}
	a, err := Aggregate(mk("a", 5, 1.5, 1), mk("b", 7, -2.5, 3))
	if err != nil {
		t.Fatal(err)
	}
	fs := a.Export()
	if fs.Devices != 2 || fs.SimTime != 7 {
		t.Fatalf("fleet header wrong: %+v", fs)
	}
	if got := fs.Counters["n_total"]; got.Total != 12 || got.Min != 5 || got.Max != 7 || got.Devices != 2 {
		t.Fatalf("counter stat = %+v", got)
	}
	if got := fs.Gauges["g"]; got.Min != -2.5 || got.Max != 1.5 || got.Mean != -0.5 {
		t.Fatalf("gauge stat = %+v", got)
	}
	h := fs.Histograms["h"]
	if h.Count != 10 || h.Overflow != 2 || h.Sum != 4 {
		t.Fatalf("histogram stat = %+v", h)
	}
	if h.Buckets[0] != 4 || h.Buckets[1] != 8 {
		t.Fatalf("merged buckets = %v", h.Buckets)
	}
}

// BenchmarkAggregate is the fleet fold a fleet read pays: Aggregate
// plus Export over 500 devices, each with 27 counters, 2 gauges and one
// 11-bucket histogram.
func BenchmarkAggregate(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	bounds := []float64{0.5, 1, 2, 5, 10, 30, 60, 300, 900, 1800, 3600}
	devs := make([]Device, 500)
	for i := range devs {
		s := metrics.Snapshot{
			SimTime:  simtime.Instant(rng.Int63n(1 << 20)),
			Counters: map[string]int64{},
			Gauges: map[string]float64{
				"mw_mode":              float64(rng.Intn(3)),
				"sched_last_objective": rng.NormFloat64() * 1e3,
			},
		}
		for c := 0; c < 27; c++ {
			s.Counters[fmt.Sprintf("counter_%02d_total", c)] = rng.Int63n(1 << 30)
		}
		hs := metrics.HistogramSnapshot{Bounds: bounds, Buckets: make([]int64, len(bounds))}
		var cum int64
		for j := range bounds {
			cum += rng.Int63n(100)
			hs.Buckets[j] = cum
		}
		hs.Overflow = rng.Int63n(10)
		hs.Count = cum + hs.Overflow
		hs.Sum = rng.Float64() * 1e6
		s.Histograms = map[string]metrics.HistogramSnapshot{"replay_defer_seconds": hs}
		devs[i] = Device{ID: fmt.Sprintf("device-%04d", i), Snapshot: s}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := Aggregate(devs...)
		if err != nil {
			b.Fatal(err)
		}
		if fs := a.Export(); fs.Devices != len(devs) {
			b.Fatalf("exported %d devices, want %d", fs.Devices, len(devs))
		}
	}
}

// The quantile estimate must land in the same bucket as the exact
// quantile of the underlying data, i.e. its error is bounded by the
// width of that bucket.
func TestQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	bounds := []float64{1, 5, 10, 50, 100, 500, 1000}
	for trial := 0; trial < 50; trial++ {
		n := 50 + rng.Intn(500)
		values := make([]float64, n)
		for i := range values {
			values[i] = rng.Float64() * 1000
		}
		sort.Float64s(values)
		// Bucket the values the same way metrics.Histogram.Observe does.
		hs := metrics.HistogramSnapshot{Bounds: bounds, Buckets: make([]int64, len(bounds))}
		perBucket := make([]int64, len(bounds)+1)
		for _, v := range values {
			i := 0
			for i < len(bounds) && v > bounds[i] {
				i++
			}
			perBucket[i]++
		}
		var cum int64
		for i := range bounds {
			cum += perBucket[i]
			hs.Buckets[i] = cum
		}
		hs.Overflow = perBucket[len(bounds)]
		hs.Count = int64(n)
		a, err := Aggregate(Device{ID: "d", Snapshot: metrics.Snapshot{
			Histograms: map[string]metrics.HistogramSnapshot{"h": hs},
		}})
		if err != nil {
			t.Fatal(err)
		}
		st := a.Export().Histograms["h"]
		for _, q := range []float64{0.5, 0.9, 0.99} {
			est := Quantile(st, q)
			rank := int(math.Ceil(q*float64(n))) - 1
			if rank < 0 {
				rank = 0
			}
			exact := values[rank]
			lo, hi := 0.0, bounds[len(bounds)-1]
			for i, b := range bounds {
				if exact <= b {
					hi = b
					if i > 0 {
						lo = bounds[i-1]
					}
					break
				}
			}
			if est < lo || est > hi {
				t.Fatalf("trial %d q=%v: estimate %v outside exact quantile's bucket [%v,%v] (exact %v)",
					trial, q, est, lo, hi, exact)
			}
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if got := Quantile(HistogramStat{}, 0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v", got)
	}
	st := HistogramStat{Bounds: []float64{1, 10}, Buckets: []int64{0, 0}, Count: 5, Overflow: 5}
	if got := Quantile(st, 0.5); got != 10 {
		t.Fatalf("all-overflow quantile = %v, want clamp to last bound", got)
	}
	st = HistogramStat{Bounds: []float64{10}, Buckets: []int64{4}, Count: 4}
	if got := Quantile(st, 1); got != 10 {
		t.Fatalf("q=1 = %v, want 10", got)
	}
	if got := Quantile(st, -1); got != Quantile(st, 0) {
		t.Fatal("q clamping broken")
	}
}

func TestWriteProm(t *testing.T) {
	a, err := Aggregate(Device{ID: "d1", Snapshot: metrics.Snapshot{
		SimTime:  42,
		Counters: map[string]int64{"replay_transfers_total": 9},
		Gauges:   map[string]float64{"mw_mode": 1},
		Histograms: map[string]metrics.HistogramSnapshot{
			"replay_defer_seconds": {Bounds: []float64{1, 60}, Buckets: []int64{2, 5}, Overflow: 1, Count: 6, Sum: 123.5},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteProm(&buf, "netmaster_", a.Export()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE netmaster_replay_transfers_total counter\nnetmaster_replay_transfers_total 9\n",
		"netmaster_mw_mode{stat=\"mean\"} 1\n",
		"netmaster_replay_defer_seconds_bucket{le=\"60\"} 5\n",
		"netmaster_replay_defer_seconds_bucket{le=\"+Inf\"} 6\n",
		"netmaster_replay_defer_seconds_sum 123.5\n",
		"netmaster_replay_defer_seconds_count 6\n",
		"netmaster_fleet_devices 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPromNameSanitised(t *testing.T) {
	if got := promName("", "9bad-name.x"); got != "_bad_name_x" {
		t.Fatalf("promName = %q", got)
	}
	if got := promName("p_", "ok_total"); got != "p_ok_total" {
		t.Fatalf("promName = %q", got)
	}
}
