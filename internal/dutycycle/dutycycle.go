// Package dutycycle implements the radio duty-cycle schemes of NetMaster's
// real-time adjustment strategy (Section IV-C.2), which borrows the
// low-power-listening idea of Polastre et al.'s B-MAC [14]: while the
// screen is off the radio sleeps, waking periodically so "Special Apps"
// can use the network. The paper's scheme doubles the sleep interval
// (T, 2T, 4T, …) after every wake-up that detects neither user
// interaction nor network activity, and resets to T when activity is
// seen. Fixed- and random-interval schemes are provided as the paper's
// Fig. 10(b) comparators.
package dutycycle

import (
	"fmt"
	"math/rand"

	"netmaster/internal/simtime"
)

// Scheme generates the sequence of sleep intervals between radio wake-ups.
// Implementations are stateful: NextSleep advances the sequence and Reset
// reacts to detected activity.
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string
	// NextSleep returns the next sleep interval and advances the
	// scheme's internal state.
	NextSleep() simtime.Duration
	// Reset informs the scheme that activity was detected during the
	// last wake window, returning the backoff to its initial state.
	Reset()
}

// Exponential is the paper's scheme: sleep T, then 2T, 4T, … capped at
// Max, resetting to T on activity.
type Exponential struct {
	Initial simtime.Duration
	Max     simtime.Duration
	cur     simtime.Duration
}

// NewExponential builds the exponential scheme; the paper sets
// initial = 30 s. max caps the backoff (0 means 64× the initial).
func NewExponential(initial, max simtime.Duration) (*Exponential, error) {
	if initial <= 0 {
		return nil, fmt.Errorf("dutycycle: non-positive initial sleep %v", initial)
	}
	if max == 0 {
		max = initial * 64
	}
	if max < initial {
		return nil, fmt.Errorf("dutycycle: max sleep %v below initial %v", max, initial)
	}
	return &Exponential{Initial: initial, Max: max}, nil
}

// Name implements Scheme.
func (e *Exponential) Name() string { return "exponential" }

// NextSleep implements Scheme, doubling up to Max.
func (e *Exponential) NextSleep() simtime.Duration {
	if e.cur == 0 {
		e.cur = e.Initial
	} else if e.cur >= e.Max/2 {
		// Clamp before doubling so a Max near the integer ceiling
		// cannot overflow the multiplication.
		e.cur = e.Max
	} else {
		e.cur *= 2
	}
	return e.cur
}

// Reset implements Scheme.
func (e *Exponential) Reset() { e.cur = 0 }

// Fixed sleeps a constant interval.
type Fixed struct {
	Interval simtime.Duration
}

// NewFixed builds the fixed scheme.
func NewFixed(interval simtime.Duration) (*Fixed, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("dutycycle: non-positive fixed sleep %v", interval)
	}
	return &Fixed{Interval: interval}, nil
}

// Name implements Scheme.
func (f *Fixed) Name() string { return "fixed" }

// NextSleep implements Scheme.
func (f *Fixed) NextSleep() simtime.Duration { return f.Interval }

// Reset implements Scheme (no state).
func (f *Fixed) Reset() {}

// Random sleeps uniformly in [Min, Max]; deterministic given its seed.
type Random struct {
	Min simtime.Duration
	Max simtime.Duration
	rng *rand.Rand
}

// NewRandom builds the random scheme.
func NewRandom(min, max simtime.Duration, seed int64) (*Random, error) {
	if min <= 0 || max < min {
		return nil, fmt.Errorf("dutycycle: invalid random sleep range [%v, %v]", min, max)
	}
	return &Random{Min: min, Max: max, rng: rand.New(rand.NewSource(seed))}, nil
}

// Name implements Scheme.
func (r *Random) Name() string { return "random" }

// NextSleep implements Scheme.
func (r *Random) NextSleep() simtime.Duration {
	span := int64(r.Max - r.Min)
	return r.Min + simtime.Duration(r.rng.Int63n(span+1))
}

// Reset implements Scheme (stateless backoff).
func (r *Random) Reset() {}

// WakeUp is one radio wake event of a simulated duty cycle.
type WakeUp struct {
	At       simtime.Instant
	Window   simtime.Duration
	Activity bool // activity detected during the window
}

// Result summarises a duty-cycle simulation.
type Result struct {
	WakeUps []WakeUp
	// RadioOn is time spent awake (wake windows).
	RadioOn simtime.Duration
	// Horizon is the simulated span.
	Horizon simtime.Duration
}

// NumWakeUps returns the wake-up count.
func (r Result) NumWakeUps() int { return len(r.WakeUps) }

// RadioOnFraction is RadioOn / Horizon.
func (r Result) RadioOnFraction() float64 {
	if r.Horizon <= 0 {
		return 0
	}
	return r.RadioOn.Seconds() / r.Horizon.Seconds()
}

// WakeUpsBefore counts wake-ups at or before t, the x-axis of Fig. 10(b).
func (r Result) WakeUpsBefore(t simtime.Instant) int {
	n := 0
	for _, w := range r.WakeUps {
		if w.At <= t {
			n++
		}
	}
	return n
}

// Simulate runs a scheme over [start, start+horizon) with the given wake
// window. activityAt reports whether activity (a Special-App network
// request or user interaction) occurs within an interval; a nil func
// means a silent period — the paper's false-wake-up worst case.
func Simulate(s Scheme, start simtime.Instant, horizon, wakeWindow simtime.Duration,
	activityAt func(simtime.Interval) bool) Result {
	if wakeWindow <= 0 {
		wakeWindow = 1
	}
	end := start.Add(horizon)
	res := Result{Horizon: horizon}
	t := start
	for {
		sleep := s.NextSleep()
		t = t.Add(sleep)
		if t >= end {
			break
		}
		window := simtime.Interval{Start: t, End: t.Add(wakeWindow)}
		if window.End > end {
			window.End = end
		}
		active := activityAt != nil && activityAt(window)
		res.WakeUps = append(res.WakeUps, WakeUp{At: t, Window: window.Len(), Activity: active})
		res.RadioOn += window.Len()
		if active {
			s.Reset()
		}
		t = window.End
	}
	return res
}
