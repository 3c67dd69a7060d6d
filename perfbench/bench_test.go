package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

func TestPercentileCeilRank(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.1, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.99, 10}, {1, 10}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	// A failed op is +Inf and lands in the tail.
	if got := percentile([]float64{1, 2, math.Inf(1)}, 0.99); !math.IsInf(got, 1) {
		t.Errorf("failed op not in the tail: %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// benchmarkSpec reads the metric lists from the repository's
// BENCHMARK.json.
func benchmarkSpec(t *testing.T) (workloads, endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return workloads, endToEnd, perLayer
}

func TestMetricNames(t *testing.T) {
	_, e2e, layers := benchmarkSpec(t)
	seen := map[string]bool{}
	for _, n := range append(e2e, layers...) {
		if !metricName.MatchString(n) {
			t.Errorf("invalid metric name %q", n)
		}
		if seen[n] {
			t.Errorf("metric %q declared twice", n)
		}
		seen[n] = true
	}
	for _, bad := range []string{"", "a b", "-x", "p99%", "ms/op", "x\n"} {
		if metricName.MatchString(bad) {
			t.Errorf("metric name %q accepted", bad)
		}
	}
}

// bodies renders every request body a seed's inputs produce.
func bodies(t *testing.T, seed int64) [][]byte {
	t.Helper()
	sz := smokeSizes()
	f, err := newFleetInputs(seed, sz)
	if err != nil {
		t.Fatal(err)
	}
	users, err := newPlanUsers(seed, sz)
	if err != nil {
		t.Fatal(err)
	}
	out := [][]byte{batchBody("r", f.items(0, sz.Devices, nil))}
	for _, u := range users {
		sch, err := json.Marshal(u.scheduleRequest("p", sz.HistoryDays+1, 1))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, u.historyBody, u.updateBody("p", 0), sch, u.simBody[0], u.simBody[1])
	}
	return out
}

func TestInputsDeterministic(t *testing.T) {
	a, b, c := bodies(t, 7), bodies(t, 7), bodies(t, 8)
	if len(a) != len(b) || len(a) != len(c) {
		t.Fatalf("body counts differ: %d %d %d", len(a), len(b), len(c))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("body %d differs between two runs of seed 7", i)
		}
		if bytes.Equal(a[i], c[i]) {
			t.Errorf("body %d is the same for seeds 7 and 8", i)
		}
	}
}

// TestSmoke runs every workload at smoke sizes, untraced and traced,
// against a netmaster-serve built from this tree: each run must pass
// its output checks and print exactly the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the daemon")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "netmaster-serve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/netmaster-serve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build netmaster-serve: %v\n%s", err, out)
	}
	workloads, e2e, layers := benchmarkSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: w, seed: 3, seconds: 1, trace: traced, smoke: true,
				serve: bin, work: dir, log: t.Logf}
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct %v, %d of %d failed", w, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := e2e
			if traced {
				want = layers
			}
			var got []string
			for n := range res.Metrics {
				got = append(got, n)
			}
			sort.Strings(got)
			want = append([]string(nil), want...)
			sort.Strings(want)
			if g, wt := fmtList(got), fmtList(want); g != wt {
				t.Errorf("%s traced=%v metrics\n got %s\nwant %s", w, traced, g, wt)
			}
		}
	}
}

func fmtList(xs []string) string {
	b, _ := json.Marshal(xs)
	return string(b)
}
