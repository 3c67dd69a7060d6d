package analyze

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"netmaster/internal/middleware"
	"netmaster/internal/power"
	"netmaster/internal/synth"
	"netmaster/internal/tracing"
)

// waitPalette is where generated waits come from: duplicates, both
// zeros, a subnormal and a multi-hour wait.
var waitPalette = []float64{math.Copysign(0, -1), 0, 1, 1, 2.5, 30, 5e-324, 7200}

// randReport is a report with every field the roll-up reads set at
// random: ints, apps with float energy, slots, findings, and 0–5 waits
// (sometimes none) drawn from waitPalette or, when raw is set, from
// arbitrary bit patterns.
func randReport(rng *rand.Rand, id string, raw bool) *DeviceReport {
	r := &DeviceReport{
		Device:    id,
		Events:    rng.Intn(1000),
		Truncated: rng.Intn(4) == 0,
		Slots:     make([]SlotScore, 24),
		Thrash:    ThrashStats{RadioSessions: rng.Int63n(50), ThrashPairs: rng.Int63n(9), UnproductiveWakes: rng.Int63n(9)},
	}
	for h := range r.Slots {
		r.Slots[h] = SlotScore{Hour: h, Wakes: rng.Int63n(4), ProductiveWakes: rng.Int63n(3),
			Served: rng.Int63n(5), DeadlineFlushes: rng.Int63n(2), Foreground: rng.Int63n(3)}
	}
	for _, app := range []string{"mail", "maps", "news"} {
		if rng.Intn(2) == 0 {
			r.Apps = append(r.Apps, AppEnergy{App: app, Transfers: rng.Int63n(20), Bytes: rng.Int63n(1 << 20),
				ActiveSecs: rng.Int63n(600), EnergyJ: rng.Float64() * 300})
		}
	}
	if rng.Intn(3) == 0 {
		r.Findings = []Finding{{Device: id, Check: "duty-thrash", Severity: SeverityWarn, Count: rng.Intn(9) + 1}}
	}
	for n := rng.Intn(6); n > 0; n-- {
		v := waitPalette[rng.Intn(len(waitPalette))]
		if raw && rng.Intn(3) == 0 {
			v = math.Float64frombits(rng.Uint64())
		}
		r.deferSecs = append(r.deferSecs, v)
	}
	sorted := slices.Clone(r.deferSecs)
	sortWaits(sorted)
	r.Deferrals = deferStats(sorted)
	return r
}

// floatBits lists the bit pattern of every float a fleet report holds.
func floatBits(f FleetReport) []uint64 {
	d := f.Deferrals
	out := []uint64{math.Float64bits(d.MeanSecs), math.Float64bits(d.P50Secs),
		math.Float64bits(d.P90Secs), math.Float64bits(d.P99Secs), math.Float64bits(d.MaxSecs)}
	for _, a := range f.Apps {
		out = append(out, math.Float64bits(a.EnergyJ))
	}
	return out
}

// checkFold compares the fold's report with the bulk Fleet of cur, the
// reports it should hold: every float bit for bit, the encoded JSON
// byte for byte, and the pooled waits against a fresh sort of the pool.
// Only the bulk Fleet fills PerDevice, so the roll-ups compare without it.
func checkFold(t testing.TB, step string, f *Fold, cur map[string]*DeviceReport) {
	t.Helper()
	reports := make([]DeviceReport, 0, len(cur))
	var pool []float64
	for _, r := range cur { // map order: Fleet must not care
		reports = append(reports, *r)
		pool = append(pool, r.deferSecs...)
	}
	want, got := Fleet(reports), f.Report()
	want.PerDevice = nil
	if w, g := floatBits(want), floatBits(got); !slices.Equal(w, g) {
		t.Fatalf("%s: float bits differ\nbulk:        %x\nincremental: %x", step, w, g)
	}
	wj, werr := json.Marshal(want)
	gj, gerr := json.Marshal(got)
	if (werr == nil) != (gerr == nil) || string(wj) != string(gj) {
		t.Fatalf("%s: encoded reports differ\nbulk (%v):\n%s\nincremental (%v):\n%s", step, werr, wj, gerr, gj)
	}
	sortWaits(pool)
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	if !slices.Equal(bits(pool), bits(f.waits)) {
		t.Fatalf("%s: pooled waits\n%v\nwant\n%v", step, f.waits, pool)
	}
}

// runFoldOps drives a Fold through the operations ops encodes — set a
// fresh report, re-set an earlier one, set the held one again, remove,
// change every device in one batch, read — checking every read (and a
// final one) against the bulk Fleet of what the fold should hold.
func runFoldOps(t testing.TB, ops []byte, raw bool) {
	t.Helper()
	const ids = 6
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	var seed [8]byte
	for i := range seed {
		seed[i] = next()
	}
	rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(seed[:]))))
	var f Fold
	cur := map[string]*DeviceReport{}
	var history []*DeviceReport
	set := func(r *DeviceReport) {
		f.Set(r)
		cur[r.Device] = r
		history = append(history, r)
	}
	for step := 0; len(ops) > 0; step++ {
		op, id := next()%8, fmt.Sprintf("dev-%d", next()%ids)
		switch op {
		case 0, 1, 2:
			set(randReport(rng, id, raw))
		case 3:
			if len(history) > 0 {
				set(history[int(next())%len(history)])
			}
		case 4:
			if r := cur[id]; r != nil {
				f.Set(r)
			}
		case 5:
			f.Remove(id)
			delete(cur, id)
		case 6:
			for k := 0; k < ids; k++ {
				set(randReport(rng, fmt.Sprintf("dev-%d", k), raw))
			}
		case 7:
			checkFold(t, fmt.Sprintf("step %d", step), &f, cur)
		}
	}
	checkFold(t, "final", &f, cur)
}

// TestFleetFoldMatchesBulk: random set/remove/re-set sequences,
// including batches that change every device, read back equal to the
// bulk Fleet of the current reports — bit for bit and byte for byte —
// across duplicate waits, devices without waits, removals, and waits of
// both -0 and +0.
func TestFleetFoldMatchesBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for seq := 0; seq < 300; seq++ {
		ops := make([]byte, 8+rng.Intn(120))
		rng.Read(ops)
		runFoldOps(t, ops, false)
	}
}

// TestWaitOrderPutsNegativeZeroFirst pins the one order both the bulk
// and the incremental fold give equal waits with different bits: -0
// before +0, whatever the input order and however large the pool.
func TestWaitOrderPutsNegativeZeroFirst(t *testing.T) {
	neg := math.Copysign(0, -1)
	for _, n := range []int{2, 13, 200} {
		rng := rand.New(rand.NewSource(int64(n)))
		negs := rng.Intn(n + 1)
		want := []float64{-1}
		for i := 0; i < n; i++ {
			if i < negs {
				want = append(want, neg)
			} else {
				want = append(want, 0)
			}
		}
		want = append(want, 1)
		v := slices.Clone(want)
		rng.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
		sortWaits(v)
		for i := range v {
			if math.Float64bits(v[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: sorted waits %v, want %d -0 before %d +0", n, v, negs, n-negs)
			}
		}
	}
	r := Fleet([]DeviceReport{{Device: "a", deferSecs: []float64{0}}, {Device: "b", deferSecs: []float64{neg}}})
	if !math.Signbit(r.Deferrals.P50Secs) || math.Signbit(r.Deferrals.MaxSecs) {
		t.Fatalf("deferrals of {+0, -0} = %+v, want p50 -0 and max +0", r.Deferrals)
	}
}

// FuzzFleetFold: any sequence of fold operations, with waits of any bit
// pattern, reads back equal to the bulk Fleet of the current reports.
func FuzzFleetFold(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x00\x01\x07\x00\x06\x00\x07\x00"))
	f.Add([]byte("seed0000\x00\x00\x00\x00\x05\x00\x03\x00\x00\x07\x00\x06\x01\x04\x01\x07\x00"))
	f.Add([]byte("zerozero\x06\x00\x07\x00\x06\x00\x06\x00\x07\x00\x05\x02\x05\x03\x07\x00"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		runFoldOps(t, ops, true)
	})
}

// cohortReports analyses 500 cohort-clone devices (the fleet-read
// size): the cohort's one-day online replays re-labelled under 500 IDs.
func cohortReports(b *testing.B) []DeviceReport {
	b.Helper()
	cfg := DefaultConfig()
	cfg.ActivePowerMW = power.Model3G().ActivePowerMW
	var base []DeviceReport
	for _, spec := range synth.EvalCohort() {
		tr, err := synth.Generate(spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		sink := tracing.NewSink(0)
		rcfg := middleware.DefaultReplayConfig(power.Model3G())
		rcfg.Service.Tracing = sink
		if _, err := middleware.Replay(tr, rcfg); err != nil {
			b.Fatal(err)
		}
		base = append(base, Device(DeviceInput{ID: spec.ID, Header: sink.Header(), Events: sink.Events()}, cfg))
	}
	reports := make([]DeviceReport, 500)
	for i := range reports {
		reports[i] = base[i%len(base)]
		reports[i].Device = fmt.Sprintf("dev-%03d", i)
	}
	return reports
}

// BenchmarkFleet is the analysis rung of a fleet report read, as a
// pair over 500 devices: the bulk Fleet (pool and sort every wait) and
// an incremental Fold that 4 re-analysed devices changed since its last
// read (the steady state of a fleet read under a trickle of writes).
// Both must agree byte for byte before anything is timed.
func BenchmarkFleet(b *testing.B) {
	reports := cohortReports(b)
	// Each changed device alternates between two report pointers, as a
	// re-ingest replaces a memoised analysis with a fresh one.
	alt := slices.Clone(reports)
	var f Fold
	for i := range reports {
		f.Set(&reports[i])
	}
	bulk := Fleet(reports)
	bulk.PerDevice = nil // only the bulk Fleet fills it
	want, _ := json.Marshal(bulk)
	if got, _ := json.Marshal(f.Report()); string(got) != string(want) {
		b.Fatal("incremental fold differs from the bulk Fleet")
	}
	b.Run("bulk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Fleet(reports)
		}
	})
	b.Run("incremental-changed=4", func(b *testing.B) {
		b.ReportAllocs()
		next := 0
		for i := 0; i < b.N; i++ {
			for k := 0; k < 4; k++ {
				dev := next % len(reports)
				if (next/len(reports))%2 == 0 {
					f.Set(&alt[dev])
				} else {
					f.Set(&reports[dev])
				}
				next++
			}
			f.Report()
		}
	})
}
