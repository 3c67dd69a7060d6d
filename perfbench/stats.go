package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the ceil-rank q-quantile (0 < q <= 1) of samples:
// the smallest sample with at least a q share of samples at or below it.
// A failed operation is recorded as +Inf, so it misses every limit. No
// samples give 0.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// supported reports whether n samples leave at least minBeyond samples
// beyond the q-quantile.
func supported(q float64, n int) bool {
	return math.Floor(float64(n)*(1-q)+1e-9) >= minBeyond
}

// highestSupported returns the highest of the usual reporting
// percentiles that n samples support, or 0 when not even the median is.
func highestSupported(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.9, 0.5} {
		if supported(q, n) {
			return q
		}
	}
	return 0
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metricName is the validity rule for every metric this benchmark prints.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// figures collects a run's figures by name.
type figures map[string]metric

func (m figures) set(name, unit string, v float64) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("invalid metric name %q", name))
	}
	m[name] = metric{Value: v, Unit: unit}
}

// latency reports the percentiles of one timed series, noting on the
// log how many samples back them and the highest percentile they
// support. failedMS replaces +Inf (a failed op) so the figure stays
// printable: a failure counts as taking the whole measuring window.
func (m figures) latency(log func(string, ...any), name string, samples []float64, failedMS float64, pcts ...int) {
	log("%s: %d samples, highest supported percentile p%g", name, len(samples), 100*highestSupported(len(samples)))
	for _, p := range pcts {
		q := float64(p) / 100
		if !supported(q, len(samples)) {
			log("%s: p%d rests on fewer than %d samples beyond it", name, p, minBeyond)
		}
		v := percentile(samples, q)
		if math.IsInf(v, 1) {
			v = failedMS
		}
		m.set(fmt.Sprintf("%s.p%d", name, p), "ms", v)
	}
}
