// Command experiments regenerates every table and figure of the paper's
// evaluation from the synthetic cohorts: the motivation study (Figs. 1–5),
// the live comparison (Fig. 7), the delay/batch sweeps (Figs. 8–9), the
// parameter analysis (Fig. 10) and the user-experience accounting
// (Section VI-B).
//
// Usage:
//
//	experiments [-figure all|1a|1b|2|3|4|5|7|8|9|10a|10b|10c|ux|wifi|motivation]
//	            [-days N] [-model 3g|lte] [-seed N] [-parallelism N]
//	            [-wifi-model wifi] [-wifi-coverage F]
//
// Figure "wifi" sweeps energy savings against Wi-Fi coverage fraction:
// at each point the cohort's traces are regenerated with that much
// seeded AP visibility (demand identical across points) and replayed
// under the wifi-offload-only baseline, cellular-only NetMaster and
// dual-radio NetMaster. -wifi-coverage narrows the sweep to {0, F}.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"netmaster/internal/atomicfile"
	"netmaster/internal/cliconfig"
	"netmaster/internal/device"
	"netmaster/internal/eval"
	"netmaster/internal/habit"
	"netmaster/internal/metrics"
	"netmaster/internal/middleware"
	"netmaster/internal/parallel"
	"netmaster/internal/policy"
	"netmaster/internal/power"
	"netmaster/internal/report"
	"netmaster/internal/simtime"
	"netmaster/internal/synth"
	"netmaster/internal/trace"
	"netmaster/internal/tracing"
)

func main() {
	o := cliconfig.DefaultExperiments()
	o.Register(flag.CommandLine)
	flag.Parse()
	parallel.SetDefaultWorkers(o.Parallelism)
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run writes the requested figures and tables to w.
func run(w io.Writer, o cliconfig.Experiments) error {
	figure, days, csvDir, obsDir := o.Figure, o.Days, o.CSVDir, o.ObsDir
	model, err := cliconfig.ResolveModel(o.ModelName)
	if err != nil {
		return err
	}
	wifi, err := o.WiFi.Resolve()
	if err != nil {
		return err
	}

	motivation, err := synth.GenerateCohort(synth.MotivationCohort(), days)
	if err != nil {
		return err
	}
	volunteers, err := synth.GenerateCohort(synth.EvalCohort(), days)
	if err != nil {
		return err
	}
	histories, err := synth.EvalHistories(14)
	if err != nil {
		return err
	}

	all := figure == "all"

	if all || figure == "motivation" {
		if err := printMotivation(w, motivation); err != nil {
			return err
		}
	}
	if all || figure == "1a" {
		if err := printFig1a(w, motivation); err != nil {
			return err
		}
	}
	if all || figure == "1b" {
		if err := printFig1b(w, motivation); err != nil {
			return err
		}
	}
	if all || figure == "2" {
		if err := printFig2(w, motivation); err != nil {
			return err
		}
	}
	if all || figure == "3" {
		if err := printFig3(w, motivation); err != nil {
			return err
		}
	}
	if all || figure == "4" {
		if err := printFig4(w, motivation[3]); err != nil {
			return err
		}
	}
	if all || figure == "5" {
		if err := printFig5(w, motivation[2]); err != nil {
			return err
		}
	}
	if all || figure == "7" {
		if err := printFig7(w, volunteers, histories, model); err != nil {
			return err
		}
	}
	if all || figure == "8" {
		if err := printFig8(w, volunteers, model); err != nil {
			return err
		}
	}
	if all || figure == "9" {
		if err := printFig9(w, volunteers, model); err != nil {
			return err
		}
	}
	if all || figure == "10a" {
		if err := printFig10a(w); err != nil {
			return err
		}
	}
	if all || figure == "10b" {
		if err := printFig10b(w); err != nil {
			return err
		}
	}
	if all || figure == "10c" {
		if err := printFig10c(w, volunteers, histories, model); err != nil {
			return err
		}
	}
	if all || figure == "gap" {
		if err := printGapDist(w, volunteers, histories, model); err != nil {
			return err
		}
	}
	if all || figure == "drift" {
		if err := printDrift(w, model); err != nil {
			return err
		}
	}
	if all || figure == "sensitivity" {
		if err := printSensitivity(w, volunteers, histories, model); err != nil {
			return err
		}
	}
	if all || figure == "battery" {
		if err := printBattery(w, volunteers, histories, model); err != nil {
			return err
		}
	}
	if all || figure == "delta" {
		if err := printDeltaRisk(w, volunteers); err != nil {
			return err
		}
	}
	if all || figure == "models" {
		if err := printCrossModel(w, volunteers, histories); err != nil {
			return err
		}
	}
	if all || figure == "hidden" {
		if err := printHiddenImpact(w, volunteers, histories, model); err != nil {
			return err
		}
	}
	if all || figure == "ux" {
		if err := printUX(w, volunteers, histories, model); err != nil {
			return err
		}
	}
	if all || figure == "wifi" {
		if err := printWiFi(w, days, model, wifi, o.WiFiCoverage); err != nil {
			return err
		}
	}
	if csvDir != "" {
		if err := writeCSVs(csvDir, volunteers, histories, model, wifi, days); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nCSV series written to %s\n", csvDir)
	}
	if obsDir != "" {
		if err := writeObservability(obsDir, volunteers, model); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nobservability cohort written to %s (analyse with netmaster-analyze)\n", obsDir)
	}
	return nil
}

// writeObservability replays every volunteer through the online
// middleware — the deployment path — with a private registry and trace
// sink each, and writes the per-device exports in the cohort layout
// netmaster-analyze consumes: <dir>/<user>/metrics.json + trace.jsonl.
// Devices replay in parallel on the default worker pool; each file is
// written atomically.
func writeObservability(dir string, volunteers []*trace.Trace, model *power.Model) error {
	return parallel.ForEach(len(volunteers), func(i int) error {
		t := volunteers[i]
		reg := metrics.NewRegistry()
		sink := tracing.NewSink(0)
		cfg := middleware.DefaultReplayConfig(model)
		cfg.Service.Metrics = reg
		cfg.Service.Tracing = sink
		if _, err := middleware.Replay(t, cfg); err != nil {
			return fmt.Errorf("%s: %w", t.UserID, err)
		}
		ddir := filepath.Join(dir, t.UserID)
		if err := os.MkdirAll(ddir, 0o755); err != nil {
			return err
		}
		if err := atomicfile.WriteFile(filepath.Join(ddir, "metrics.json"), reg.WriteJSON); err != nil {
			return err
		}
		return atomicfile.WriteFile(filepath.Join(ddir, "trace.jsonl"), sink.WriteJSONL)
	})
}

// writeCSVs exports the evaluation figures' data series as CSV files.
// The wifi sweep series is included whenever a NIC model is configured.
func writeCSVs(dir string, volunteers []*trace.Trace, histories map[string]*trace.Trace, model *power.Model, wifi *power.WiFiModel, days int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	save := func(name string, t *report.Table) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := t.RenderCSV(f); err != nil {
			return err
		}
		return f.Close()
	}

	cfg := eval.DefaultFig7Config(model)
	cfg.Histories = histories
	fig7, err := eval.Fig7(volunteers, cfg)
	if err != nil {
		return err
	}
	t7 := report.NewTable("", "volunteer", "oracle_saving", "netmaster_saving",
		"delay10_saving", "delay20_saving", "delay60_saving",
		"radio_on_netmaster", "down_avg_x", "up_avg_x", "down_peak_x", "up_peak_x")
	for _, r := range fig7 {
		t7.AddRow(r.UserID, r.OracleSaving, r.NetMasterSaving,
			r.DelaySaving[10*simtime.Second], r.DelaySaving[20*simtime.Second], r.DelaySaving[60*simtime.Second],
			r.RadioOnNetMaster, r.DownAvgIncrease, r.UpAvgIncrease, r.DownPeakIncrease, r.UpPeakIncrease)
	}
	if err := save("fig7.csv", t7); err != nil {
		return err
	}

	fig8, err := eval.Fig8(volunteers, model, eval.DefaultDelaySweep())
	if err != nil {
		return err
	}
	t8 := report.NewTable("", "delay_s", "energy_saving", "radio_on_saving", "bw_increase", "affected")
	for _, r := range fig8 {
		t8.AddRow(int64(r.Delay), r.EnergySaving, r.RadioOnSaving, r.BandwidthIncrease, r.AffectedShare)
	}
	if err := save("fig8.csv", t8); err != nil {
		return err
	}

	fig9, err := eval.Fig9(volunteers, model, eval.DefaultBatchSweep())
	if err != nil {
		return err
	}
	t9 := report.NewTable("", "max_batch", "energy_saving", "radio_on_saving", "bw_increase", "affected")
	for _, r := range fig9 {
		t9.AddRow(r.MaxBatch, r.EnergySaving, r.RadioOnSaving, r.BandwidthIncrease, r.AffectedShare)
	}
	if err := save("fig9.csv", t9); err != nil {
		return err
	}

	nmCfg := policy.DefaultNetMasterConfig(model)
	fig10c, err := eval.Fig10c(volunteers, nmCfg, histories, model, eval.DefaultDeltaSweep())
	if err != nil {
		return err
	}
	t10 := report.NewTable("", "delta", "accuracy", "sched_saving_vs_oracle")
	for _, r := range fig10c {
		t10.AddRow(r.Delta, r.Accuracy, r.EnergySaving)
	}
	if err := save("fig10c.csv", t10); err != nil {
		return err
	}

	dist, err := eval.Fig7aGapDistribution(volunteers, cfg, 100)
	if err != nil {
		return err
	}
	tg := report.NewTable("", "test_index", "gap")
	for i, g := range dist.Gaps {
		tg.AddRow(i, g)
	}
	if err := save("fig7a_gaps.csv", tg); err != nil {
		return err
	}

	if wifi == nil {
		return nil
	}
	sweep, err := eval.WiFiSweep(synth.EvalCohort(), days, model, wifi, eval.DefaultWiFiCoverageSweep())
	if err != nil {
		return err
	}
	tw := report.NewTable("", "coverage", "measured", "offload_saving", "cell_netmaster_saving", "dual_saving", "dual_wifi_j")
	for _, r := range sweep {
		tw.AddRow(r.Coverage, r.MeasuredCoverage, r.OffloadSaving, r.CellNetMasterSaving, r.DualSaving, r.DualWiFiEnergyJ)
	}
	return save("wifi.csv", tw)
}

func printMotivation(w io.Writer, cohort []*trace.Trace) error {
	m := eval.Motivation(cohort)
	t := report.NewTable("Section III motivation summary (paper targets in parentheses)",
		"metric", "measured", "paper")
	t.AddRow("screen-off activity share", report.Percent(m.ScreenOffActivityShare), "40.98%")
	t.AddRow("screen-on radio utilization", report.Percent(m.ScreenOnUtilization), "45.14%")
	t.AddRow("screen-off P90 rate (kB/s)", m.OffP90RateKBps, "<1")
	t.AddRow("screen-on P90 rate (kB/s)", m.OnP90RateKBps, "<5")
	t.AddRow("cross-user Pearson", m.CrossUserPearson, "0.1353")
	t.AddRow("intra-user Pearson mean", m.IntraUserPearsonMean, "0.54")
	t.AddRow("short-gap (<100s) session share", report.Percent(m.ShortGapInteractionShare), "~17%")
	return t.Render(w)
}

func printFig1a(w io.Writer, cohort []*trace.Trace) error {
	rows, mean := eval.Fig1a(cohort)
	t := report.NewTable(fmt.Sprintf("Fig 1(a) network activity distribution (mean screen-off %.2f%%, paper 40.98%%)", mean*100),
		"user", "screen-on", "screen-off", "off-share")
	for _, r := range rows {
		t.AddRow(r.UserID, r.OnCount, r.OffCount, report.Percent(r.OffFraction()))
	}
	return t.Render(w)
}

func printFig1b(w io.Writer, cohort []*trace.Trace) error {
	onCDF, offCDF := eval.Fig1b(cohort)
	fmt.Fprintf(w, "\n== Fig 1(b) transfer-rate CDF ==\n")
	fmt.Fprintf(w, "screen-on:  P50=%.3f P90=%.3f P99=%.3f kB/s (paper: 90%% < 5)\n",
		onCDF.Quantile(0.5), onCDF.Quantile(0.9), onCDF.Quantile(0.99))
	fmt.Fprintf(w, "screen-off: P50=%.3f P90=%.3f P99=%.3f kB/s (paper: 90%% < 1)\n",
		offCDF.Quantile(0.5), offCDF.Quantile(0.9), offCDF.Quantile(0.99))
	xs, ys := onCDF.Points(11)
	if err := report.Series(w, "on-CDF", xs, ys); err != nil {
		return err
	}
	xs, ys = offCDF.Points(11)
	return report.Series(w, "off-CDF", xs, ys)
}

func printFig2(w io.Writer, cohort []*trace.Trace) error {
	rows, mean := eval.Fig2(cohort)
	t := report.NewTable(fmt.Sprintf("Fig 2 screen-on utilization (mean %.2f%%, paper 45.14%%)", mean*100),
		"user", "avg session (s)", "utilized (s)", "ratio")
	for _, r := range rows {
		t.AddRow(r.UserID, r.AvgSessionSecs, r.AvgUtilizedSecs, report.Percent(r.Utilization()))
	}
	return t.Render(w)
}

func printFig3(w io.Writer, cohort []*trace.Trace) error {
	m, mean := eval.Fig3(cohort)
	labels := make([]string, len(cohort))
	for i, tr := range cohort {
		labels[i] = tr.UserID
	}
	if err := report.Matrix(w, fmt.Sprintf("Fig 3 cross-user Pearson (mean %.4f, paper 0.1353)", mean), labels, m); err != nil {
		return err
	}
	perUser, intraMean := eval.IntraUserPearson(cohort)
	t := report.NewTable(fmt.Sprintf("intra-user Pearson (mean %.4f, paper 0.54)", intraMean), "user", "mean day-to-day Pearson")
	for i, v := range perUser {
		t.AddRow(cohort[i].UserID, v)
	}
	return t.Render(w)
}

func printFig4(w io.Writer, t *trace.Trace) error {
	m, mean, err := eval.Fig4(t, 8)
	if err != nil {
		return err
	}
	labels := make([]string, 8)
	for i := range labels {
		labels[i] = fmt.Sprintf("d%d", i+1)
	}
	return report.Matrix(w, fmt.Sprintf("Fig 4 day-by-day Pearson for %s (mean %.4f, paper 0.8171)", t.UserID, mean), labels, m)
}

func printFig5(w io.Writer, tr *trace.Trace) error {
	rows, err := eval.Fig5(tr, 7)
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Fig 5 one-week app pattern for %s (%d network apps of %d installed; paper: 8 of 23)",
		tr.UserID, len(rows), len(tr.InstalledApps)),
		"app", "uses", "peak-hour", "peak-intensity")
	for _, r := range rows {
		peakH, peakV := 0, 0.0
		for h, v := range r.Hourly {
			if v > peakV {
				peakH, peakV = h, v
			}
		}
		t.AddRow(string(r.App), r.Total, peakH, peakV)
	}
	return t.Render(w)
}

func printFig7(w io.Writer, volunteers []*trace.Trace, histories map[string]*trace.Trace, model *power.Model) error {
	cfg := eval.DefaultFig7Config(model)
	cfg.Histories = histories
	rows, err := eval.Fig7(volunteers, cfg)
	if err != nil {
		return err
	}
	t := report.NewTable("Fig 7(a) radio energy saving vs baseline (paper: NetMaster 77.8% avg, oracle gap <5% in 81.6% of tests)",
		"volunteer", "oracle", "netmaster", "delay10", "delay20", "delay60", "gap-to-oracle")
	var nmSum float64
	for _, r := range rows {
		t.AddRow(r.UserID,
			report.Percent(r.OracleSaving), report.Percent(r.NetMasterSaving),
			report.Percent(r.DelaySaving[10*simtime.Second]),
			report.Percent(r.DelaySaving[20*simtime.Second]),
			report.Percent(r.DelaySaving[60*simtime.Second]),
			report.Percent(r.GapToOracle))
		nmSum += r.NetMasterSaving
	}
	t.AddRow("mean", "", report.Percent(nmSum/float64(len(rows))), "", "", "", "")
	if err := t.Render(w); err != nil {
		return err
	}

	t2 := report.NewTable("Fig 7(b) radio-on time (paper: 75.39% inefficient time removed)",
		"volunteer", "default", "netmaster", "turned-off share")
	for _, r := range rows {
		t2.AddRow(r.UserID, r.RadioOnDefault, r.RadioOnNetMaster, report.Percent(r.RadioOffByNM))
	}
	if err := t2.Render(w); err != nil {
		return err
	}

	t3 := report.NewTable("Fig 7(c) bandwidth utilization increase (paper: 3.84x down avg, 2.63x up avg, peak ~1x)",
		"volunteer", "down-avg", "up-avg", "down-peak", "up-peak")
	for _, r := range rows {
		t3.AddRow(r.UserID,
			fmt.Sprintf("%.2fx", r.DownAvgIncrease), fmt.Sprintf("%.2fx", r.UpAvgIncrease),
			fmt.Sprintf("%.2fx", r.DownPeakIncrease), fmt.Sprintf("%.2fx", r.UpPeakIncrease))
	}
	return t3.Render(w)
}

func printFig8(w io.Writer, volunteers []*trace.Trace, model *power.Model) error {
	rows, err := eval.Fig8(volunteers, model, eval.DefaultDelaySweep())
	if err != nil {
		return err
	}
	t := report.NewTable("Fig 8 delay sweep (paper @600s: radio-on -36.7%, bw +33.05%, energy -9.2%, affected >40%)",
		"delay", "energy-saving", "radio-on-saving", "bw-increase", "affected")
	for _, r := range rows {
		t.AddRow(r.Delay.String(), report.Percent(r.EnergySaving), report.Percent(r.RadioOnSaving),
			report.Percent(r.BandwidthIncrease), report.Percent(r.AffectedShare))
	}
	return t.Render(w)
}

func printFig9(w io.Writer, volunteers []*trace.Trace, model *power.Model) error {
	rows, err := eval.Fig9(volunteers, model, eval.DefaultBatchSweep())
	if err != nil {
		return err
	}
	t := report.NewTable("Fig 9 batch sweep (paper: radio-on -17.7%, bw +17.6%, plateau past 5)",
		"max-batch", "energy-saving", "radio-on-saving", "bw-increase", "affected")
	for _, r := range rows {
		t.AddRow(r.MaxBatch, report.Percent(r.EnergySaving), report.Percent(r.RadioOnSaving),
			report.Percent(r.BandwidthIncrease), report.Percent(r.AffectedShare))
	}
	return t.Render(w)
}

func printFig10a(w io.Writer) error {
	sleeps := []simtime.Duration{5, 10, 20, 30, 120, 360}
	series := eval.Fig10a(sleeps, 5*simtime.Second, 20)
	t := report.NewTable("Fig 10(a) radio-on fraction vs wake-ups (exponential sleep)",
		"sleep", "k=2", "k=6", "k=10", "k=20")
	for _, s := range series {
		t.AddRow(s.SleepSecs.String(), s.Fraction[1], s.Fraction[5], s.Fraction[9], s.Fraction[19])
	}
	return t.Render(w)
}

func printFig10b(w io.Writer) error {
	series, err := eval.Fig10b(10*simtime.Second, 30*simtime.Minute, 5*simtime.Second, 42)
	if err != nil {
		return err
	}
	t := report.NewTable("Fig 10(b) cumulative wake-ups over 30 min (paper: exponential << fixed)",
		"scheme", "5min", "10min", "20min", "30min")
	for _, s := range series {
		t.AddRow(s.Scheme, s.Minutes[4], s.Minutes[9], s.Minutes[19], s.Minutes[29])
	}
	return t.Render(w)
}

func printFig10c(w io.Writer, volunteers []*trace.Trace, histories map[string]*trace.Trace, model *power.Model) error {
	cfg := policy.DefaultNetMasterConfig(model)
	rows, err := eval.Fig10c(volunteers, cfg, histories, model, eval.DefaultDeltaSweep())
	if err != nil {
		return err
	}
	t := report.NewTable("Fig 10(c) prediction threshold sweep (paper: curves cross near 0.37)",
		"delta", "accuracy", "energy-saving/oracle")
	for _, r := range rows {
		t.AddRow(r.Delta, report.Percent(r.Accuracy), report.Percent(r.EnergySaving))
	}
	return t.Render(w)
}

// wifiSweepPoints picks the coverage x-axis: the default sweep, or
// {0, cov} when -wifi-coverage pins a single point of interest (the
// zero point stays so the cellular-only anchor is always visible).
func wifiSweepPoints(cov float64) []float64 {
	if cov > 0 {
		return []float64{0, cov}
	}
	return eval.DefaultWiFiCoverageSweep()
}

func printWiFi(w io.Writer, days int, model *power.Model, wifi *power.WiFiModel, cov float64) error {
	if wifi == nil {
		return fmt.Errorf("figure wifi needs -wifi-model (try -wifi-model wifi)")
	}
	rows, err := eval.WiFiSweep(synth.EvalCohort(), days, model, wifi, wifiSweepPoints(cov))
	if err != nil {
		return err
	}
	t := report.NewTable("Wi-Fi coverage sweep: radio energy saving vs the all-cellular baseline (expect dual >= offload-only >= 0)",
		"coverage", "measured", "offload-only", "cell-netmaster", "dual-netmaster", "dual wifi (J)")
	for _, r := range rows {
		t.AddRow(report.Percent(r.Coverage), report.Percent(r.MeasuredCoverage),
			report.Percent(r.OffloadSaving), report.Percent(r.CellNetMasterSaving),
			report.Percent(r.DualSaving), r.DualWiFiEnergyJ)
	}
	return t.Render(w)
}

func printUX(w io.Writer, volunteers []*trace.Trace, histories map[string]*trace.Trace, model *power.Model) error {
	cfg := policy.DefaultNetMasterConfig(model)
	rows, err := eval.UserExperience(volunteers, cfg, histories, model)
	if err != nil {
		return err
	}
	t := report.NewTable("Section VI-B user experience (paper: 1 wrong decision in 319, <1%)",
		"volunteer", "interactions", "want-network", "wrong", "rate")
	for _, r := range rows {
		t.AddRow(r.UserID, r.Interactions, r.NetInteractions, r.WrongDecisions, report.Percent(r.Rate()))
	}
	return t.Render(w)
}

func printGapDist(w io.Writer, volunteers []*trace.Trace, histories map[string]*trace.Trace, model *power.Model) error {
	cfg := eval.DefaultFig7Config(model)
	cfg.Histories = histories
	dist, err := eval.Fig7aGapDistribution(volunteers, cfg, 100)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n== Fig 7(a) per-test gap distribution (paper: <5%% in 81.6%% of tests, worst 11.2%%) ==\n")
	fmt.Fprintf(w, "tests=%d  below-5%%=%s  mean=%s  worst=%s\n",
		len(dist.Gaps), report.Percent(dist.ShareBelow5pc), report.Percent(dist.Mean), report.Percent(dist.Worst))
	return nil
}

func printHiddenImpact(w io.Writer, volunteers []*trace.Trace, histories map[string]*trace.Trace, model *power.Model) error {
	var policies []device.Policy
	nmCfg := policy.DefaultNetMasterConfig(model)
	if h, ok := histories[volunteers[0].UserID]; ok {
		nmCfg.History = h
	}
	nm, err := policy.NewNetMaster(nmCfg)
	if err != nil {
		return err
	}
	d60, err := policy.NewDelay(60 * simtime.Second)
	if err != nil {
		return err
	}
	d600, err := policy.NewDelay(600 * simtime.Second)
	if err != nil {
		return err
	}
	policies = append(policies, policy.Baseline{}, nm, d60, d600)
	// NetMaster's history is per-user; measure it on its own volunteer
	// only and the stateless policies on the whole cohort.
	rows, err := eval.HiddenImpact(volunteers[:1], model, policies)
	if err != nil {
		return err
	}
	t := report.NewTable("Section VII hidden impact: push delivery latency (seconds)",
		"policy", "pushes", "mean", "p50", "p90", "max", "<=60s")
	for _, r := range rows {
		t.AddRow(r.Policy, r.Pushes, r.DelaySecs.Mean, r.DelaySecs.P50, r.DelaySecs.P90,
			r.DelaySecs.Max, report.Percent(r.WithinMinute))
	}
	return t.Render(w)
}

func printCrossModel(w io.Writer, volunteers []*trace.Trace, histories map[string]*trace.Trace) error {
	rows, err := eval.CrossModel(volunteers, histories, []*power.Model{power.Model3G(), power.ModelLTE()})
	if err != nil {
		return err
	}
	t := report.NewTable("cross-model check: the savings follow the tail structure, not one parameter set",
		"model", "baseline J/day", "oracle", "netmaster", "delay-60s")
	for _, r := range rows {
		t.AddRow(r.Model, r.BaselineJPerDay, report.Percent(r.OracleSaving),
			report.Percent(r.NetMasterSaving), report.Percent(r.DelaySaving))
	}
	return t.Render(w)
}

func printDeltaRisk(w io.Writer, volunteers []*trace.Trace) error {
	rows, err := eval.DeltaRisk(volunteers, habit.DefaultConfig(), eval.DefaultDeltaSweep())
	if err != nil {
		return err
	}
	t := report.NewTable("impact-based threshold selection (paper picks δ=0.2 weekdays / 0.1 weekends)",
		"delta", "weekday risk", "weekend risk")
	for _, r := range rows {
		t.AddRow(r.Delta, r.WeekdayRisk, r.WeekendRisk)
	}
	return t.Render(w)
}

func printBattery(w io.Writer, volunteers []*trace.Trace, histories map[string]*trace.Trace, model *power.Model) error {
	nmCfg := policy.DefaultNetMasterConfig(model)
	if h, ok := histories[volunteers[0].UserID]; ok {
		nmCfg.History = h
	}
	nm, err := policy.NewNetMaster(nmCfg)
	if err != nil {
		return err
	}
	oracle, err := policy.NewOracle(model)
	if err != nil {
		return err
	}
	rows, err := eval.BatteryLife(volunteers[:1], model, eval.DefaultBatteryConfig(), []device.Policy{nm, oracle})
	if err != nil {
		return err
	}
	t := report.NewTable("projected battery life (6.66 Wh battery, screen+idle included)",
		"policy", "device J/day", "radio share", "hours/charge", "extension")
	for _, r := range rows {
		t.AddRow(r.Policy, r.DeviceJPerDay, report.Percent(r.RadioShare),
			r.ProjectedHours, report.Percent(r.ExtensionVsBaseline))
	}
	return t.Render(w)
}

func printSensitivity(w io.Writer, volunteers []*trace.Trace, histories map[string]*trace.Trace, model *power.Model) error {
	rows, err := eval.Sensitivity(volunteers[:1], histories, model)
	if err != nil {
		return err
	}
	t := report.NewTable("sensitivity of the headline saving to NetMaster's operational knobs",
		"knob", "setting", "energy-saving", "wake share", "wrong rate")
	for _, r := range rows {
		t.AddRow(r.Knob, r.Setting, report.Percent(r.EnergySaving),
			report.Percent(r.WakeShare), report.Percent(r.WrongRate))
	}
	return t.Render(w)
}

func printDrift(w io.Writer, model *power.Model) error {
	rows, err := eval.Drift(eval.DefaultDriftConfig(), model)
	if err != nil {
		return err
	}
	t := report.NewTable("habit drift: the routine rotates 5 h after week 2 (recency mining is the §VII extension)",
		"mining", "energy-saving", "post-drift accuracy", "stale predicted time", "wrong rate")
	for _, r := range rows {
		t.AddRow(r.Strategy, report.Percent(r.EnergySaving), report.Percent(r.Accuracy),
			report.Percent(r.StaleShare), report.Percent(r.WrongRate))
	}
	return t.Render(w)
}
