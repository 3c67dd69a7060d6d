package habit

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"netmaster/internal/synth"
	"netmaster/internal/trace"
)

// incrementalWorkload is the one-new-day serve scenario: 91 days of
// history where the first 90 are already folded into a sketch and day
// 90 just arrived.
func incrementalWorkload(b *testing.B) (*trace.Trace, *Sketch, Config) {
	b.Helper()
	spec := synth.EvalCohort()[0]
	tr, err := synth.Generate(spec, 91)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	sk, err := NewSketch(tr.UserID, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := sk.FoldTrace(tr.PrefixDays(90)); err != nil {
		b.Fatal(err)
	}
	return tr, sk, cfg
}

func incrementalMine(b *testing.B, tr *trace.Trace, sk *Sketch) *Profile {
	b.Helper()
	cl := sk.Clone()
	if err := cl.FoldTraceDay(tr, 90); err != nil {
		b.Fatal(err)
	}
	return cl.Profile()
}

// BenchmarkMineIncrementalVsFull compares a full batch Mine over a
// 91-day trace against absorbing the one new day into a pre-folded
// sketch (clone + fold day + materialise). The incremental path is
// O(new events) instead of O(whole trace); "speedup" reports the ratio.
func BenchmarkMineIncrementalVsFull(b *testing.B) {
	tr, sk, cfg := incrementalWorkload(b)

	// The two paths must agree bit-for-bit before timing them.
	full, err := Mine(tr, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if !reflect.DeepEqual(full, incrementalMine(b, tr, sk)) {
		b.Fatal("incremental fold diverges from full Mine")
	}

	b.Run("full-mine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Mine(tr, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental-fold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			incrementalMine(b, tr, sk)
		}
	})
	b.Run("speedup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			start := time.Now()
			if _, err := Mine(tr, cfg); err != nil {
				b.Fatal(err)
			}
			fullDur := time.Since(start)
			start = time.Now()
			incrementalMine(b, tr, sk)
			incDur := time.Since(start)
			b.ReportMetric(float64(fullDur)/float64(incDur), "speedup-x")
		}
	})
}

// BenchmarkMineDays is batch Mine over growing histories of one cohort
// user. Each day's fold reads only that day's events, so the cost per
// mined day should stay flat as the history grows (O(days), not
// O(days × trace)).
func BenchmarkMineDays(b *testing.B) {
	tr, err := synth.Generate(synth.EvalCohort()[1], 112)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	for _, days := range []int{7, 28, 112} {
		prefix := tr.PrefixDays(days)
		b.Run(fmt.Sprintf("days=%d", days), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Mine(prefix, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
