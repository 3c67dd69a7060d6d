package device_test

import (
	"testing"

	"netmaster/internal/device"
	"netmaster/internal/middleware"
	"netmaster/internal/power"
	"netmaster/internal/synth"
)

// BenchmarkComputeMetricsRadios is the metering rung: both radios'
// metrics of an online week's plan, a volunteer-week at Wi-Fi coverage
// 0.4 with its ~3k duty wake windows, each charged for the listen time
// no cellular transfer covers.
func BenchmarkComputeMetricsRadios(b *testing.B) {
	spec := synth.EvalCohort()[1]
	spec.WiFiCoverage = 0.4
	tr, err := synth.Generate(spec, 7)
	if err != nil {
		b.Fatal(err)
	}
	cell, wifi := power.Model3G(), power.ModelWiFi()
	cfg := middleware.DefaultReplayConfig(cell)
	cfg.WiFi = wifi
	res, err := middleware.Replay(tr, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := device.ComputeMetricsRadios(res.Plan, cell, wifi); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Plan.WakeWindows)), "wakes")
}
