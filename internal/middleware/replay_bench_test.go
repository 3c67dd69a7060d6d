package middleware

import (
	"fmt"
	"testing"

	"netmaster/internal/power"
	"netmaster/internal/synth"
)

// BenchmarkOnlineReplayWeek measures the online service path — events in,
// commands out — over one volunteer-week.
func BenchmarkOnlineReplayWeek(b *testing.B) {
	tr, err := synth.Generate(synth.EvalCohort()[1], 7)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultReplayConfig(power.Model3G())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Replay(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventIngestion measures the monitoring component's raw event
// throughput.
func BenchmarkEventIngestion(b *testing.B) {
	tr, err := synth.Generate(synth.EvalCohort()[2], 2)
	if err != nil {
		b.Fatal(err)
	}
	events, err := EventsFromTrace(tr, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc, err := New(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range events {
			if _, err := svc.HandleEvent(e); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(events)), "events")
}

// BenchmarkOnlineReplayWeekDual is BenchmarkOnlineReplayWeek with the
// Wi-Fi NIC enabled: the volunteer-week at Wi-Fi coverage 0.4, the
// shape of a dual-radio online simulate.
func BenchmarkOnlineReplayWeekDual(b *testing.B) {
	spec := synth.EvalCohort()[1]
	spec.WiFiCoverage = 0.4
	tr, err := synth.Generate(spec, 7)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultReplayConfig(power.Model3G())
	cfg.WiFi = power.ModelWiFi()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Replay(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlineReplayDays replays EvalCohort[1] on 3G over one and four
// weeks. Nightly mining folds each sealed day once, so ns/op grows
// linearly in days: 28 days cost about 4× what 7 do, not 16×.
func BenchmarkOnlineReplayDays(b *testing.B) {
	for _, days := range []int{7, 28} {
		b.Run(fmt.Sprintf("days=%d", days), func(b *testing.B) {
			tr, err := synth.Generate(synth.EvalCohort()[1], days)
			if err != nil {
				b.Fatal(err)
			}
			cfg := DefaultReplayConfig(power.Model3G())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Replay(tr, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
