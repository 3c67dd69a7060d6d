package analyze

import (
	"math"
	"slices"
	"sort"
	"strings"

	"netmaster/internal/simtime"
	"netmaster/internal/stats"
)

// Fold is a fleet roll-up kept across reads: the device reports it rolls
// up, in device-ID order, and every held report's deferral waits pooled
// in one array kept in waitOrder. Set and Remove only stage a change;
// Report merges all staged changes into the pooled waits in one linear
// pass, then runs the roll-up. So a read after k devices changed sorts
// only their waits instead of the whole fleet's.
//
// A Fold holds reports by pointer and never mutates them. The caller
// must not mutate a report while the fold holds it: a changed report is
// a new pointer passed to Set. A Fold is not safe for concurrent use.
type Fold struct {
	devs    []foldDevice // sorted by device ID
	dropped [][]float64  // waits of removed devices still in waits
	waits   []float64    // the held reports' waits, in waitOrder
	spare   []float64    // the previous waits array, the next merge's buffer
}

// foldDevice is one device's place in a Fold: the report the next
// Report rolls up, and the report whose waits the pooled array holds
// (nil before the device's first merge).
type foldDevice struct {
	cur, held *DeviceReport
}

// Fleet combines device reports. Input order does not matter: devices
// are folded in sorted-ID order. Fleet never mutates its inputs, so one
// report may be shared by any number of concurrent folds. It is a Fold
// built in bulk: every device is staged at once, so the pooled waits
// are sorted once. Unlike Fold.Report, it fills PerDevice, in ID order.
func Fleet(reports []DeviceReport) FleetReport {
	f := Fold{devs: make([]foldDevice, len(reports))}
	for i := range reports {
		f.devs[i].cur = &reports[i]
	}
	sort.SliceStable(f.devs, func(i, j int) bool { return f.devs[i].cur.Device < f.devs[j].cur.Device })
	out := f.Report()
	if len(f.devs) > 0 {
		out.PerDevice = make([]DeviceReport, len(f.devs))
		for i, d := range f.devs {
			out.PerDevice[i] = *d.cur
		}
	}
	return out
}

// Set stages r as the report of device r.Device, replacing the one held
// for it. Setting the report already held is a no-op.
func (f *Fold) Set(r *DeviceReport) {
	i, ok := f.find(r.Device)
	if ok {
		f.devs[i].cur = r
		return
	}
	f.devs = slices.Insert(f.devs, i, foldDevice{cur: r})
}

// Remove stages dropping device id from the fold, if it holds it.
func (f *Fold) Remove(id string) {
	i, ok := f.find(id)
	if !ok {
		return
	}
	if h := f.devs[i].held; h != nil && len(h.deferSecs) > 0 {
		f.dropped = append(f.dropped, h.deferSecs)
	}
	f.devs = slices.Delete(f.devs, i, i+1)
}

// Len is the number of devices the fold holds.
func (f *Fold) Len() int { return len(f.devs) }

// IDs returns the held device IDs in sorted order.
func (f *Fold) IDs() []string {
	ids := make([]string, len(f.devs))
	for i, d := range f.devs {
		ids[i] = d.cur.Device
	}
	return ids
}

func (f *Fold) find(id string) (int, bool) {
	return slices.BinarySearchFunc(f.devs, id, func(d foldDevice, id string) int {
		return strings.Compare(d.cur.Device, id)
	})
}

// Report rolls the held reports up to the cohort: integer totals sum
// exactly, float sums add in sorted-ID order, the deferral distribution
// comes from the exact pooled waits, and findings concatenate in device
// order. It leaves PerDevice nil: a fold's caller already holds the
// device reports, so a copy of them on every read would go unread.
func (f *Fold) Report() FleetReport {
	f.mergeStaged()
	out := FleetReport{
		Devices: len(f.devs),
		Slots:   make([]SlotScore, simtime.HoursPerDay),
	}
	for h := range out.Slots {
		out.Slots[h].Hour = h
	}
	apps := map[string]*AppEnergy{}
	for _, d := range f.devs {
		r := d.cur
		out.DeviceIDs = append(out.DeviceIDs, r.Device)
		out.Events += r.Events
		if r.Truncated {
			out.Truncated++
		}
		for _, a := range r.Apps {
			dst := apps[a.App]
			if dst == nil {
				dst = &AppEnergy{App: a.App}
				apps[a.App] = dst
			}
			dst.Transfers += a.Transfers
			dst.Bytes += a.Bytes
			dst.ActiveSecs += a.ActiveSecs
			dst.EnergyJ += a.EnergyJ
		}
		for h, s := range r.Slots {
			out.Slots[h].Wakes += s.Wakes
			out.Slots[h].ProductiveWakes += s.ProductiveWakes
			out.Slots[h].Served += s.Served
			out.Slots[h].DeadlineFlushes += s.DeadlineFlushes
			out.Slots[h].Foreground += s.Foreground
		}
		out.Thrash.RadioSessions += r.Thrash.RadioSessions
		out.Thrash.ThrashPairs += r.Thrash.ThrashPairs
		out.Thrash.UnproductiveWakes += r.Thrash.UnproductiveWakes
		out.Findings = append(out.Findings, r.Findings...)
	}
	for _, a := range apps {
		out.Apps = append(out.Apps, *a)
	}
	sort.Slice(out.Apps, func(i, j int) bool {
		if out.Apps[i].ActiveSecs != out.Apps[j].ActiveSecs {
			return out.Apps[i].ActiveSecs > out.Apps[j].ActiveSecs
		}
		if out.Apps[i].Bytes != out.Apps[j].Bytes {
			return out.Apps[i].Bytes > out.Apps[j].Bytes
		}
		return out.Apps[i].App < out.Apps[j].App
	})
	out.Deferrals = deferStats(f.waits)
	return out
}

// mergeStaged brings the pooled waits up to date with the staged
// changes. The waits leaving (removed devices, replaced reports) are
// pooled and sorted together, as are the waits arriving, and one merge
// applies both: a merge per device would copy the whole array once per
// changed device.
func (f *Fold) mergeStaged() {
	var nOut, nIn int
	for _, w := range f.dropped {
		nOut += len(w)
	}
	for _, d := range f.devs {
		if d.cur != d.held {
			if d.held != nil {
				nOut += len(d.held.deferSecs)
			}
			nIn += len(d.cur.deferSecs)
		}
	}
	out := make([]float64, 0, nOut)
	in := make([]float64, 0, nIn)
	for _, w := range f.dropped {
		out = append(out, w...)
	}
	f.dropped = nil
	for i := range f.devs {
		d := &f.devs[i]
		if d.cur == d.held {
			continue
		}
		if d.held != nil {
			out = append(out, d.held.deferSecs...)
		}
		in = append(in, d.cur.deferSecs...)
		d.held = d.cur
	}
	if len(out) == 0 && len(in) == 0 {
		return
	}
	sortWaits(in)
	if len(out) == len(f.waits) {
		// Every held wait leaves (out is a sub-multiset of the pool), so
		// the sorted arrivals are the new pool: the bulk build's one
		// sort, and a batch that changed every device.
		f.waits, f.spare = in, f.waits[:0]
		return
	}
	sortWaits(out)
	dst := slices.Grow(f.spare[:0], len(f.waits)-len(out)+len(in))
	f.waits, f.spare = mergeWaits(dst, f.waits, out, in), f.waits
}

// mergeWaits appends held − out + in to dst in waitOrder, given all
// three in waitOrder and out a sub-multiset of held. The runs of held
// between two changes are copied whole.
func mergeWaits(dst, held, out, in []float64) []float64 {
	for len(out) > 0 || len(in) > 0 {
		if len(out) > 0 && (len(in) == 0 || waitKey(out[0]) <= waitKey(in[0])) {
			j := searchWaits(held, out[0])
			if j == len(held) || waitKey(held[j]) != waitKey(out[0]) {
				panic("analyze: fold removes a wait it does not hold (a held report was mutated)")
			}
			dst = append(dst, held[:j]...)
			held, out = held[j+1:], out[1:]
			continue
		}
		j := searchWaits(held, in[0])
		dst = append(append(dst, held[:j]...), in[0])
		held, in = held[j:], in[1:]
	}
	return append(dst, held...)
}

// searchWaits returns the first index of sorted (in waitOrder) whose
// wait does not sort before v.
func searchWaits(sorted []float64, v float64) int {
	k := waitKey(v)
	lo, hi := 0, len(sorted)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if waitKey(sorted[h]) < k {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// waitKey defines waitOrder, the one order of pooled waits, as the
// order of its keys: ascending as sort.Float64s orders floats, NaNs
// first, with the ties that order leaves to the sort algorithm broken
// by bit pattern, so -0 sorts before +0. It is IEEE 754's totalOrder key (negative floats'
// bits inverted, positive floats' sign bit set), rotated so that the
// positive NaNs at its top wrap around below the negative NaNs at its
// bottom. Two waits share a key only when their bits are equal, which
// makes the order total: every sort of the same multiset gives the
// same array.
func waitKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b>>63 != 0 {
		b = ^b
	} else {
		b |= 1 << 63
	}
	return b + (1<<52 - 1)
}

// waitOf inverts waitKey.
func waitOf(k uint64) float64 {
	b := k - (1<<52 - 1)
	if b>>63 != 0 {
		b &^= 1 << 63
	} else {
		b = ^b
	}
	return math.Float64frombits(b)
}

// sortWaits sorts v in waitOrder, as keys: an integer sort, with no
// NaN or signed-zero cases left to the comparison.
func sortWaits(v []float64) {
	keys := make([]uint64, len(v))
	for i, x := range v {
		keys[i] = waitKey(x)
	}
	slices.Sort(keys)
	for i, k := range keys {
		v[i] = waitOf(k)
	}
}

// deferStats summarises waits already in waitOrder: the mean of their
// ascending sum and the ceil-rank quantiles of stats.QuantileSorted.
func deferStats(sorted []float64) DeferStats {
	st := DeferStats{Count: int64(len(sorted))}
	if len(sorted) == 0 {
		return st
	}
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	st.MeanSecs = sum / float64(len(sorted))
	st.P50Secs = stats.QuantileSorted(sorted, 0.50)
	st.P90Secs = stats.QuantileSorted(sorted, 0.90)
	st.P99Secs = stats.QuantileSorted(sorted, 0.99)
	st.MaxSecs = sorted[len(sorted)-1]
	return st
}
