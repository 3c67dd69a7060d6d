// Package telemetry rolls per-device metrics snapshots up into fleet
// aggregates. A single simulated device exports a metrics.Snapshot; a
// cohort run produces one per device; this package folds them into one
// FleetSnapshot — counters summed, gauges reduced to min/mean/max,
// histograms merged bucket-wise with deterministic quantile estimates —
// the population-level view the paper's headline numbers are stated in.
//
// An Agg holds the validated snapshots themselves, keyed by device ID,
// and folds them once, at Export, in sorted device-ID order. Adding and
// merging are therefore map union, and every float addition (gauge
// means, histogram sums) happens in one canonical order no matter how
// the aggregate was built. Two aggregates over the same device set
// export byte-identical JSON regardless of aggregation order or
// sharding, a property the package's tests pin with random
// permutations and association trees.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"netmaster/internal/metrics"
	"netmaster/internal/simtime"
)

// Device is one device's contribution to the fleet: a stable identifier
// (the cohort user ID in the simulators) and its exported snapshot.
type Device struct {
	ID       string
	Snapshot metrics.Snapshot
}

// Validate checks what can be checked of one device on its own: a
// non-empty ID, and one cumulative bucket per bound in every
// histogram. Agg.Add runs it first; a serve tier runs it at ingest so
// a malformed snapshot is refused before it is stored.
func (d Device) Validate() error {
	if d.ID == "" {
		return fmt.Errorf("telemetry: device with empty ID")
	}
	for name, hs := range d.Snapshot.Histograms {
		if len(hs.Buckets) != len(hs.Bounds) {
			return fmt.Errorf("telemetry: histogram %q malformed on device %q: %d buckets for %d bounds",
				name, d.ID, len(hs.Buckets), len(hs.Bounds))
		}
	}
	return nil
}

// Agg is a mergeable fleet aggregate. The zero value is not usable;
// build one with NewAgg or Aggregate (possibly over zero devices) and
// combine with Merge. It keeps each device's snapshot plus the fleet's
// shared bounds per histogram name, so combining two aggregates is map
// union — exactly associative and commutative.
type Agg struct {
	devices map[string]metrics.Snapshot
	bounds  map[string][]float64
}

// NewAgg returns an empty aggregate.
func NewAgg() *Agg {
	return &Agg{
		devices: map[string]metrics.Snapshot{},
		bounds:  map[string][]float64{},
	}
}

// Aggregate folds the given device snapshots into a fresh aggregate.
// Device IDs must be non-empty and unique; histograms sharing a name
// must share bounds across devices.
func Aggregate(devs ...Device) (*Agg, error) {
	a := NewAgg()
	for _, d := range devs {
		if err := a.Add(d); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// Add adds one device snapshot to the aggregate, or leaves the
// aggregate untouched and returns an error. The aggregate keeps the
// snapshot's maps and slices rather than copying them, so the caller
// must not mutate a snapshot after adding it.
func (a *Agg) Add(d Device) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if _, dup := a.devices[d.ID]; dup {
		return fmt.Errorf("telemetry: device %q aggregated twice", d.ID)
	}
	for name, hs := range d.Snapshot.Histograms {
		if b, ok := a.bounds[name]; ok && !slices.Equal(b, hs.Bounds) {
			return fmt.Errorf("telemetry: histogram %q bounds differ on device %q", name, d.ID)
		}
	}
	a.devices[d.ID] = d.Snapshot
	for name, hs := range d.Snapshot.Histograms {
		if _, ok := a.bounds[name]; !ok {
			a.bounds[name] = hs.Bounds
		}
	}
	return nil
}

// Merge combines aggregates into a new one. Each device may appear in at
// most one part. Merge(Merge(a,b),c) and Merge(a,Merge(b,c)) export
// byte-identical snapshots, as do any permutations of the parts.
func Merge(parts ...*Agg) (*Agg, error) {
	out := NewAgg()
	for _, p := range parts {
		if p == nil {
			continue
		}
		if err := out.MergeFrom(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MergeFrom folds another aggregate into this one (map union), or
// leaves this one untouched and returns an error.
func (a *Agg) MergeFrom(b *Agg) error {
	for id := range b.devices {
		if _, dup := a.devices[id]; dup {
			return fmt.Errorf("telemetry: device %q aggregated twice", id)
		}
	}
	for name, bb := range b.bounds {
		if ab, ok := a.bounds[name]; ok && !slices.Equal(ab, bb) {
			return fmt.Errorf("telemetry: histogram %q bounds differ between shards", name)
		}
	}
	for id, s := range b.devices {
		a.devices[id] = s
	}
	for name, bb := range b.bounds {
		if _, ok := a.bounds[name]; !ok {
			a.bounds[name] = bb
		}
	}
	return nil
}

// AggregateParallel returns Aggregate(devs...); workers is ignored.
// Adding a device only stores its snapshot, so there is nothing left
// to shard.
//
// Deprecated: use Aggregate.
func AggregateParallel(workers int, devs []Device) (*Agg, error) {
	return Aggregate(devs...)
}

// CounterStat is a counter's fleet rollup: the sum across devices plus
// the per-device spread.
type CounterStat struct {
	Total   int64 `json:"total"`
	Min     int64 `json:"min"`
	Max     int64 `json:"max"`
	Devices int   `json:"devices"`
}

// GaugeStat is a gauge's fleet rollup across the devices reporting it.
type GaugeStat struct {
	Min     float64 `json:"min"`
	Mean    float64 `json:"mean"`
	Max     float64 `json:"max"`
	Devices int     `json:"devices"`
}

// HistogramStat is a merged histogram: bucket-wise integer sums
// (cumulative, like metrics.HistogramSnapshot) plus deterministic
// quantile estimates.
type HistogramStat struct {
	Bounds   []float64 `json:"bounds"`
	Buckets  []int64   `json:"buckets"`
	Overflow int64     `json:"overflow"`
	Count    int64     `json:"count"`
	Sum      float64   `json:"sum"`
	P50      float64   `json:"p50"`
	P90      float64   `json:"p90"`
	P99      float64   `json:"p99"`
	Devices  int       `json:"devices"`
}

// FleetSnapshot is the exported fleet aggregate. Maps marshal with
// sorted keys, so equal fleets export equal bytes.
type FleetSnapshot struct {
	Devices    int                      `json:"devices"`
	DeviceIDs  []string                 `json:"device_ids"`
	SimTime    simtime.Instant          `json:"sim_time"`
	Counters   map[string]CounterStat   `json:"counters"`
	Gauges     map[string]GaugeStat     `json:"gauges"`
	Histograms map[string]HistogramStat `json:"histograms"`
}

// Export freezes the aggregate into its canonical fleet snapshot. It
// walks the devices once in sorted ID order, so every float sum adds
// the same values in the same order for a given device set, and the
// output is a pure function of that set.
func (a *Agg) Export() FleetSnapshot {
	fs := FleetSnapshot{
		Devices:    len(a.devices),
		DeviceIDs:  sortedKeys(a.devices),
		Counters:   map[string]CounterStat{},
		Gauges:     map[string]GaugeStat{},
		Histograms: map[string]HistogramStat{},
	}
	gaugeSums := map[string]float64{}
	for _, id := range fs.DeviceIDs {
		s := a.devices[id]
		if s.SimTime > fs.SimTime {
			fs.SimTime = s.SimTime
		}
		for name, v := range s.Counters {
			st, ok := fs.Counters[name]
			if !ok {
				st = CounterStat{Min: v, Max: v}
			}
			st.Total += v
			if v < st.Min {
				st.Min = v
			}
			if v > st.Max {
				st.Max = v
			}
			st.Devices++
			fs.Counters[name] = st
		}
		for name, v := range s.Gauges {
			st, ok := fs.Gauges[name]
			if !ok {
				st = GaugeStat{Min: v, Max: v}
			}
			if v < st.Min {
				st.Min = v
			}
			if v > st.Max {
				st.Max = v
			}
			st.Devices++
			fs.Gauges[name] = st
			gaugeSums[name] += v
		}
		for name, hs := range s.Histograms {
			st, ok := fs.Histograms[name]
			if !ok {
				st = HistogramStat{
					Bounds:  append([]float64(nil), a.bounds[name]...),
					Buckets: make([]int64, len(hs.Buckets)),
				}
			}
			// Cumulative counts add up to the fleet's cumulative
			// counts: integer addition, exact in any order.
			for i, c := range hs.Buckets {
				st.Buckets[i] += c
			}
			st.Overflow += hs.Overflow
			st.Count += hs.Count
			st.Sum += hs.Sum
			st.Devices++
			fs.Histograms[name] = st
		}
	}
	for name, st := range fs.Gauges {
		st.Mean = gaugeSums[name] / float64(st.Devices)
		fs.Gauges[name] = st
	}
	for name, st := range fs.Histograms {
		st.P50 = Quantile(st, 0.50)
		st.P90 = Quantile(st, 0.90)
		st.P99 = Quantile(st, 0.99)
		fs.Histograms[name] = st
	}
	return fs
}

// Quantile estimates the q-quantile of a merged histogram by linear
// interpolation within the bucket holding the target rank —
// prometheus-style, hence deterministic: the estimate depends only on
// the integer bucket counts and the bounds. The estimate lies within the
// true quantile's bucket, so its error is bounded by that bucket's
// width; ranks landing in the overflow bucket clamp to the last bound.
// It returns 0 for an empty histogram and clamps q into [0, 1].
func Quantile(h HistogramStat, q float64) float64 {
	if h.Count <= 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	last := len(h.Bounds) - 1
	if float64(h.Buckets[last]) < rank {
		return h.Bounds[last] // in the overflow bucket: clamp
	}
	for i, cum := range h.Buckets {
		if float64(cum) < rank {
			continue
		}
		var prev int64
		lower := 0.0
		if i > 0 {
			prev = h.Buckets[i-1]
			lower = h.Bounds[i-1]
		} else if h.Bounds[0] <= 0 {
			// No finite lower edge for the first bucket of a
			// non-positive bound: the bound itself is the estimate.
			return h.Bounds[0]
		}
		width := h.Bounds[i] - lower
		inBucket := cum - prev
		if inBucket <= 0 {
			return h.Bounds[i]
		}
		return lower + width*(rank-float64(prev))/float64(inBucket)
	}
	return h.Bounds[last]
}

// WriteJSON writes the snapshot as indented JSON, byte-stable for a
// given device set.
func (fs FleetSnapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(fs)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
