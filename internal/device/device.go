// Package device is the smartphone substrate of the evaluation: it
// defines the execution plan a network-scheduling policy produces when
// replayed over a usage trace, validates the plan against the physics of
// the device (causality, stream exemptions), and computes every metric
// the paper reports — radio energy, radio-on time, bandwidth utilization,
// and user-experience impact.
//
// The real NetMaster sits between apps and the radio on Android; here a
// Policy plays that role over a recorded trace. The trace supplies the
// demand (screen sessions, app network requests, user interactions) and
// the plan says when each request actually hit the air and when the
// policy forced the radio off.
package device

import (
	"fmt"
	"math"
	"sort"

	"netmaster/internal/power"
	"netmaster/internal/simtime"
	"netmaster/internal/trace"
)

// Execution records when one traced network activity actually ran.
type Execution struct {
	// Index is the activity's position in the trace's Activities.
	Index int
	// ExecStart is when the transfer went on the air. Deferral
	// (ExecStart > original start) is allowed for background kinds;
	// prefetch (ExecStart < original) only for app-initiated syncs,
	// since a push cannot be fetched before it exists.
	ExecStart simtime.Instant
	// Duration is the on-air time of the transfer. Zero means the
	// trace's recorded duration (the app's own pacing, e.g. a trickling
	// keep-alive). A policy that batches a background transfer sets the
	// compacted duration (power.Model.CompactDuration): the same bytes
	// move as one burst instead of a trickle.
	Duration simtime.Duration
	// TailCutSecs bounds the radio tail after this burst (see
	// power.Burst); power.FullTail means the OS default.
	TailCutSecs float64
	// Network is the radio the transfer ran on. The zero value means
	// cellular, so single-radio plans are unchanged byte-for-byte; a
	// plan with Wi-Fi executions must be metered with
	// ComputeMetricsRadios.
	Network power.Network
}

// durationFor resolves the execution's on-air time against the original
// activity.
func (e Execution) durationFor(a trace.NetworkActivity) simtime.Duration {
	if e.Duration > 0 {
		return e.Duration
	}
	return a.Duration
}

// Plan is a policy's complete decision record for one trace.
type Plan struct {
	PolicyName string
	Trace      *trace.Trace
	Executions []Execution
	// WakeWindows are duty-cycle wake periods: radio on, listening, no
	// app payload.
	WakeWindows []simtime.Interval
	// BlockedWindows are periods the policy kept the data switch off
	// while demand could arrive; user interactions wanting the network
	// inside one count against user experience.
	BlockedWindows []simtime.Interval
	// SpecialAppWhitelist lists apps the real-time layer always serves;
	// an interaction with one of these is never a wrong decision even
	// inside a blocked window (the policy powers the radio on for it).
	SpecialAppWhitelist map[trace.AppID]bool
	// PlannedSavingJ and PlannedPenaltyJ are optional policy
	// annotations: the scheduling component's model-estimated ΣΔE and
	// ΣΔP over its accepted assignments (Eq. 6's objective terms).
	PlannedSavingJ  float64
	PlannedPenaltyJ float64
}

// Policy maps a trace to an execution plan. Implementations must be
// deterministic for a given trace and configuration.
type Policy interface {
	Name() string
	Plan(t *trace.Trace) (*Plan, error)
}

// Validate checks a plan's physical consistency: every activity executed
// exactly once, causality for pushes and user-driven transfers, and
// executions within the horizon.
func (p *Plan) Validate() error {
	if p.Trace == nil {
		return fmt.Errorf("device: plan %q has no trace", p.PolicyName)
	}
	if len(p.Executions) != len(p.Trace.Activities) {
		return fmt.Errorf("device: plan %q has %d executions for %d activities",
			p.PolicyName, len(p.Executions), len(p.Trace.Activities))
	}
	horizon := simtime.Instant(p.Trace.Horizon())
	seen := make([]bool, len(p.Trace.Activities))
	for _, e := range p.Executions {
		if e.Index < 0 || e.Index >= len(p.Trace.Activities) {
			return fmt.Errorf("device: plan %q: execution index %d out of range", p.PolicyName, e.Index)
		}
		if seen[e.Index] {
			return fmt.Errorf("device: plan %q: activity %d executed twice", p.PolicyName, e.Index)
		}
		seen[e.Index] = true
		a := p.Trace.Activities[e.Index]
		if e.Duration < 0 {
			return fmt.Errorf("device: plan %q: activity %d negative duration", p.PolicyName, e.Index)
		}
		if e.ExecStart < 0 || e.ExecStart.Add(e.durationFor(a)) > horizon {
			return fmt.Errorf("device: plan %q: activity %d executed outside horizon", p.PolicyName, e.Index)
		}
		if e.ExecStart < a.Start && a.Kind != trace.KindSync {
			return fmt.Errorf("device: plan %q: activity %d (%v) prefetched, only syncs may be",
				p.PolicyName, e.Index, a.Kind)
		}
		if a.Kind == trace.KindUserDriven || a.Kind == trace.KindStream {
			if e.ExecStart != a.Start {
				return fmt.Errorf("device: plan %q: %v activity %d moved", p.PolicyName, a.Kind, e.Index)
			}
		}
		if e.TailCutSecs < 0 {
			return fmt.Errorf("device: plan %q: activity %d negative tail cut", p.PolicyName, e.Index)
		}
		switch e.Network {
		case "", power.NetworkCellular, power.NetworkWiFi:
		default:
			return fmt.Errorf("device: plan %q: activity %d on unknown network %q", p.PolicyName, e.Index, e.Network)
		}
	}
	return nil
}

// Metrics are the per-trace evaluation results for one policy.
type Metrics struct {
	PolicyName string
	Horizon    simtime.Duration

	// Radio accounting across every radio, including duty-cycle wake
	// windows. Radio is the all-network total the savings comparisons
	// use; Cellular and WiFi break it down per network (WiFi is zero
	// for single-radio plans, Cellular excludes the wake share).
	Radio    power.Result
	Cellular power.Result
	WiFi     power.Result
	// WakeEnergyJ and WakeOnSecs are the duty-cycle share inside Radio.
	WakeEnergyJ float64
	WakeOnSecs  float64
	WakeUps     int

	// Traffic.
	BytesDown int64
	BytesUp   int64
	// Avg rates are bytes per radio-on second — the paper's bandwidth
	// utilization. Peak rates are the fastest single burst.
	AvgDownRateBps  float64
	AvgUpRateBps    float64
	PeakDownRateBps float64
	PeakUpRateBps   float64

	// User experience.
	Interactions       int
	NetInteractions    int // interactions that wanted the network
	AffectedActivities int // interactions inside blocked windows
	WrongDecisions     int // net-wanting interactions actually denied
	// Deferral profile.
	Deferred      int
	MeanDeferSecs float64
	MaxDeferSecs  float64
}

// WrongDecisionRate returns wrong decisions per net-wanting interaction.
func (m Metrics) WrongDecisionRate() float64 {
	if m.NetInteractions == 0 {
		return 0
	}
	return float64(m.WrongDecisions) / float64(m.NetInteractions)
}

// AffectedRate returns affected interactions per interaction.
func (m Metrics) AffectedRate() float64 {
	if m.Interactions == 0 {
		return 0
	}
	return float64(m.AffectedActivities) / float64(m.Interactions)
}

// EnergySavingVs returns 1 − this/baseline radio energy.
func (m Metrics) EnergySavingVs(baseline Metrics) float64 {
	if baseline.Radio.EnergyJ == 0 {
		return 0
	}
	return 1 - m.Radio.EnergyJ/baseline.Radio.EnergyJ
}

// RadioOnSavingVs returns 1 − this/baseline radio-on time.
func (m Metrics) RadioOnSavingVs(baseline Metrics) float64 {
	if baseline.Radio.RadioOnSecs == 0 {
		return 0
	}
	return 1 - m.Radio.RadioOnSecs/baseline.Radio.RadioOnSecs
}

// monitorPowerMW returns the listening power of a duty-cycle wake window:
// the radio camps in the low connected state (FACH for 3G), approximated
// by the last tail phase's draw.
func monitorPowerMW(m *power.Model) float64 {
	if len(m.Tails) == 0 {
		return m.ActivePowerMW / 2
	}
	return m.Tails[len(m.Tails)-1].PowerMW
}

// ComputeMetrics evaluates a validated plan under a cellular radio
// model. A plan carrying Wi-Fi executions needs the Wi-Fi model too —
// use ComputeMetricsRadios.
func ComputeMetrics(p *Plan, model *power.Model) (Metrics, error) {
	return ComputeMetricsRadios(p, model, nil)
}

// ComputeMetricsRadios evaluates a validated plan with each execution
// metered on the radio it ran on: cellular bursts under the RRC state
// machine, Wi-Fi bursts under the NIC model. Metrics.Radio is the
// all-network sum. wifi may be nil for single-radio plans.
func ComputeMetricsRadios(p *Plan, cell *power.Model, wifi *power.WiFiModel) (Metrics, error) {
	if err := p.Validate(); err != nil {
		return Metrics{}, err
	}
	m := Metrics{
		PolicyName: p.PolicyName,
		Horizon:    p.Trace.Horizon(),
		WakeUps:    len(p.WakeWindows),
	}

	// Build one radio timeline per network: every execution is a burst
	// on its own radio; wake windows are separate low-power listen
	// periods accounted after.
	cellBursts := make([]power.Burst, 0, len(p.Executions))
	var wifiBursts []power.Burst
	var deferSum, deferMax float64
	for _, e := range p.Executions {
		a := p.Trace.Activities[e.Index]
		dur := e.durationFor(a)
		end := e.ExecStart.Add(dur)
		b := power.Burst{
			Interval:    simtime.Interval{Start: e.ExecStart, End: end},
			TailCutSecs: e.TailCutSecs,
		}
		if e.Network.IsWiFi() {
			if wifi == nil {
				return Metrics{}, fmt.Errorf("device: plan %q: activity %d ran on wifi but no Wi-Fi model given", p.PolicyName, e.Index)
			}
			wifiBursts = append(wifiBursts, b)
		} else {
			cellBursts = append(cellBursts, b)
		}
		m.BytesDown += a.BytesDown
		m.BytesUp += a.BytesUp
		if rate := burstRate(float64(a.BytesDown), dur); rate > m.PeakDownRateBps {
			m.PeakDownRateBps = rate
		}
		if rate := burstRate(float64(a.BytesUp), dur); rate > m.PeakUpRateBps {
			m.PeakUpRateBps = rate
		}
		if d := e.ExecStart.Sub(a.Start).Seconds(); d > 0 {
			m.Deferred++
			deferSum += d
			if d > deferMax {
				deferMax = d
			}
		}
	}
	m.Cellular = cell.EnergyOfTimeline(cellBursts)
	if len(wifiBursts) > 0 {
		m.WiFi = wifi.EnergyOfTimeline(wifiBursts)
	}
	m.Radio = m.Cellular
	m.Radio.Add(m.WiFi)
	if m.Deferred > 0 {
		m.MeanDeferSecs = deferSum / float64(m.Deferred)
	}
	m.MaxDeferSecs = deferMax

	// Duty-cycle wake windows: the cellular radio camps in the low
	// connected state (FACH for 3G) to let Special Apps poll — no full
	// promotion is paid unless a transfer actually starts, and
	// transfers pay their own promotions in the burst timeline.
	// Windows overlapping a cellular transfer burst are already paid
	// for; count only the non-overlapping listen time. Wi-Fi transfers
	// do not discount listening — they run on the other NIC while the
	// cellular radio keeps camping.
	transferIvs := make([]simtime.Interval, len(cellBursts))
	for i, b := range cellBursts {
		transferIvs[i] = b.Interval
	}
	transferIvs = simtime.MergeIntervals(transferIvs)
	listenPower := monitorPowerMW(cell)
	for _, w := range p.WakeWindows {
		free := subtractCovered(w, transferIvs)
		if free <= 0 {
			continue
		}
		m.WakeEnergyJ += free * listenPower / 1000
		m.WakeOnSecs += free
	}
	m.Radio.EnergyJ += m.WakeEnergyJ
	m.Radio.RadioOnSecs += m.WakeOnSecs

	if m.Radio.RadioOnSecs > 0 {
		m.AvgDownRateBps = float64(m.BytesDown) / m.Radio.RadioOnSecs
		m.AvgUpRateBps = float64(m.BytesUp) / m.Radio.RadioOnSecs
	}

	// User experience: interactions inside blocked windows.
	blocked := simtime.MergeIntervals(p.BlockedWindows)
	m.Interactions = len(p.Trace.Interactions)
	for _, ia := range p.Trace.Interactions {
		if ia.WantsNetwork {
			m.NetInteractions++
		}
		if !containsInstant(blocked, ia.Time) {
			continue
		}
		m.AffectedActivities++
		if ia.WantsNetwork && !p.SpecialAppWhitelist[ia.App] {
			m.WrongDecisions++
		}
	}
	return m, nil
}

func burstRate(bytes float64, d simtime.Duration) float64 {
	secs := d.Seconds()
	if secs <= 0 {
		secs = 1
	}
	return bytes / secs
}

// subtractCovered returns the seconds of w not covered by the sorted
// disjoint intervals ivs. It walks only the intervals that can overlap
// w: every one it skips would subtract an exact 0.0, so the result is
// bit-identical to intersecting w with all of them.
func subtractCovered(w simtime.Interval, ivs []simtime.Interval) float64 {
	free := w.Len().Seconds()
	i := sort.Search(len(ivs), func(i int) bool { return ivs[i].End > w.Start })
	for ; i < len(ivs) && ivs[i].Start < w.End; i++ {
		free -= w.Intersect(ivs[i]).Len().Seconds()
	}
	if free < 0 {
		free = 0
	}
	return free
}

// containsInstant reports whether t lies in any of the sorted disjoint
// intervals.
func containsInstant(ivs []simtime.Interval, t simtime.Instant) bool {
	idx := sort.Search(len(ivs), func(i int) bool { return ivs[i].End > t })
	return idx < len(ivs) && ivs[idx].Contains(t)
}

// Run replays a policy over a trace and returns its metrics.
func Run(p Policy, t *trace.Trace, model *power.Model) (Metrics, error) {
	return RunRadios(p, t, model, nil)
}

// RunRadios is Run with a Wi-Fi model for dual-radio policies.
func RunRadios(p Policy, t *trace.Trace, cell *power.Model, wifi *power.WiFiModel) (Metrics, error) {
	plan, err := p.Plan(t)
	if err != nil {
		return Metrics{}, fmt.Errorf("device: policy %q: %w", p.Name(), err)
	}
	return ComputeMetricsRadios(plan, cell, wifi)
}

// RateIncreaseVs returns the multiplier of this plan's average rates over
// a baseline's, the series of Fig. 7(c). Zero-baseline rates yield NaN-free
// 1× (no change observable).
func (m Metrics) RateIncreaseVs(baseline Metrics) (down, up, peakDown, peakUp float64) {
	down = ratio(m.AvgDownRateBps, baseline.AvgDownRateBps)
	up = ratio(m.AvgUpRateBps, baseline.AvgUpRateBps)
	peakDown = ratio(m.PeakDownRateBps, baseline.PeakDownRateBps)
	peakUp = ratio(m.PeakUpRateBps, baseline.PeakUpRateBps)
	return down, up, peakDown, peakUp
}

func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 1
	}
	return a / b
}
