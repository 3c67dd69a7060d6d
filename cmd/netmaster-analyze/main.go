// Command netmaster-analyze merges per-device observability exports —
// the metrics.json / trace.jsonl pairs netmaster-sim and experiments
// write with -obs-dir — into one fleet report: aggregated metrics,
// per-app energy attribution, the habit-profile prediction scorecard,
// deferral-latency distributions, duty-cycle thrash stats, and invariant
// audit findings.
//
// Usage:
//
//	netmaster-analyze [flags] <dir>...
//
// Each argument is either a device directory (containing metrics.json
// and/or trace.jsonl; the directory name is the device ID) or a cohort
// directory whose immediate subdirectories are device directories.
//
//	netmaster-analyze obs/                      # whole cohort, text report
//	netmaster-analyze -format json obs/         # machine-readable report
//	netmaster-analyze -prom-out fleet.prom obs/ # Prometheus text exposition
//	netmaster-analyze -check obs/               # exit 2 on invariant findings
//
// The report is a pure function of the input files: bytes are identical
// across runs and across -parallelism settings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"netmaster/internal/atomicfile"
	"netmaster/internal/cliconfig"
	"netmaster/internal/metrics"
	"netmaster/internal/parallel"
	"netmaster/internal/report"
	"netmaster/internal/telemetry"
	"netmaster/internal/telemetry/analyze"
	"netmaster/internal/tracing"
)

const (
	metricsFile = "metrics.json"
	traceFile   = "trace.jsonl"
)

// options is the netmaster-analyze flag set, shared via cliconfig so
// the common flags (-model, -parallelism, -format, output paths) stay
// aligned across binaries.
type options = cliconfig.Analyze

func main() {
	o := cliconfig.DefaultAnalyze()
	o.Register(flag.CommandLine)
	flag.Parse()
	o.Dirs = flag.Args()
	var out io.Writer = os.Stdout
	var buf *strings.Builder
	if o.Out != "" {
		buf = &strings.Builder{}
		out = buf
	}
	errs, err := run(o, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netmaster-analyze:", err)
		os.Exit(1)
	}
	if buf != nil {
		if err := atomicfile.WriteFileBytes(o.Out, []byte(buf.String())); err != nil {
			fmt.Fprintln(os.Stderr, "netmaster-analyze:", err)
			os.Exit(1)
		}
	}
	if o.Check && errs > 0 {
		fmt.Fprintf(os.Stderr, "netmaster-analyze: %d invariant findings\n", errs)
		os.Exit(2)
	}
}

// fleetDoc is the JSON report: the merged metric registry next to the
// trace analysis.
type fleetDoc struct {
	Metrics  telemetry.FleetSnapshot `json:"metrics"`
	Analysis analyze.FleetReport     `json:"analysis"`
}

// run loads every device, merges, and writes the report. It returns the
// number of error-severity findings (the -check exit condition).
func run(o options, out io.Writer) (int, error) {
	model, err := cliconfig.ResolveModel(o.ModelName)
	if err != nil {
		return 0, err
	}
	if len(o.Dirs) == 0 {
		return 0, fmt.Errorf("no input directories (want device or cohort dirs)")
	}
	devDirs, err := discoverDevices(o.Dirs)
	if err != nil {
		return 0, err
	}

	workers := o.Parallelism
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	acfg := analyze.DefaultConfig()
	acfg.ActivePowerMW = model.ActivePowerMW
	type loaded struct {
		report analyze.DeviceReport
		dev    *telemetry.Device
	}
	devs, err := parallel.MapN(workers, len(devDirs), func(i int) (loaded, error) {
		in, snap, err := loadDevice(devDirs[i])
		if err != nil {
			return loaded{}, err
		}
		l := loaded{report: analyze.Device(in, acfg)}
		if snap != nil {
			l.dev = &telemetry.Device{ID: in.ID, Snapshot: *snap}
		}
		return l, nil
	})
	if err != nil {
		return 0, err
	}

	reports := make([]analyze.DeviceReport, len(devs))
	var mdevs []telemetry.Device
	for i, d := range devs {
		reports[i] = d.report
		if d.dev != nil {
			mdevs = append(mdevs, *d.dev)
		}
	}
	agg, err := telemetry.Aggregate(mdevs...)
	if err != nil {
		return 0, err
	}
	doc := fleetDoc{Metrics: agg.Export(), Analysis: analyze.Fleet(reports)}

	if o.PromOut != "" {
		err := atomicfile.WriteFile(o.PromOut, func(w io.Writer) error {
			return telemetry.WriteProm(w, "netmaster_", doc.Metrics)
		})
		if err != nil {
			return 0, err
		}
	}

	switch o.Format {
	case "json":
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return 0, err
		}
	case "text":
		if err := renderText(out, doc); err != nil {
			return 0, err
		}
	default:
		return 0, fmt.Errorf("unknown format %q (want text or json)", o.Format)
	}
	return doc.Analysis.Errors(), nil
}

// discoverDevices resolves the argument list to device directories. A
// directory holding metrics.json or trace.jsonl is a device; otherwise
// its immediate subdirectories holding either file are. The result is
// sorted and de-duplicated so the report never depends on argument or
// readdir order.
func discoverDevices(args []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			out = append(out, dir)
		}
	}
	for _, arg := range args {
		fi, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !fi.IsDir() {
			return nil, fmt.Errorf("%s: not a directory", arg)
		}
		if isDeviceDir(arg) {
			add(filepath.Clean(arg))
			continue
		}
		entries, err := os.ReadDir(arg)
		if err != nil {
			return nil, err
		}
		found := false
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			sub := filepath.Join(arg, e.Name())
			if isDeviceDir(sub) {
				add(sub)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("%s: no device directories (want %s or %s in it or its subdirectories)",
				arg, metricsFile, traceFile)
		}
	}
	sort.Slice(out, func(i, j int) bool { return filepath.Base(out[i]) < filepath.Base(out[j]) })
	return out, nil
}

func isDeviceDir(dir string) bool {
	for _, f := range []string{metricsFile, traceFile} {
		if fi, err := os.Stat(filepath.Join(dir, f)); err == nil && !fi.IsDir() {
			return true
		}
	}
	return false
}

// loadDevice reads one device directory. The trace and the metrics
// snapshot are both optional individually; the device ID is the
// directory name.
func loadDevice(dir string) (analyze.DeviceInput, *metrics.Snapshot, error) {
	in := analyze.DeviceInput{ID: filepath.Base(dir)}
	if f, err := os.Open(filepath.Join(dir, traceFile)); err == nil {
		hdr, events, rerr := tracing.ReadJSONLWithHeader(f)
		f.Close()
		if rerr != nil {
			return in, nil, fmt.Errorf("%s: %w", filepath.Join(dir, traceFile), rerr)
		}
		in.Header = hdr
		in.Events = events
	} else if !os.IsNotExist(err) {
		return in, nil, err
	}
	var snap *metrics.Snapshot
	if b, err := os.ReadFile(filepath.Join(dir, metricsFile)); err == nil {
		snap = &metrics.Snapshot{}
		if uerr := json.Unmarshal(b, snap); uerr != nil {
			return in, nil, fmt.Errorf("%s: %w", filepath.Join(dir, metricsFile), uerr)
		}
		in.Metrics = snap
	} else if !os.IsNotExist(err) {
		return in, nil, err
	}
	return in, snap, nil
}

// renderText writes the human-readable fleet report.
func renderText(w io.Writer, doc fleetDoc) error {
	a := doc.Analysis
	sum := report.NewTable(fmt.Sprintf("fleet report (%d devices: %s)", a.Devices, strings.Join(a.DeviceIDs, ", ")),
		"metric", "value")
	sum.AddRow("trace events", a.Events)
	sum.AddRow("truncated traces", a.Truncated)
	sum.AddRow("radio sessions", a.Thrash.RadioSessions)
	sum.AddRow("thrash pairs", a.Thrash.ThrashPairs)
	sum.AddRow("unproductive wakes", a.Thrash.UnproductiveWakes)
	sum.AddRow("deferred transfers", a.Deferrals.Count)
	sum.AddRow("defer mean (s)", fmt.Sprintf("%.1f", a.Deferrals.MeanSecs))
	sum.AddRow("defer p50/p90/p99 (s)", fmt.Sprintf("%.0f/%.0f/%.0f", a.Deferrals.P50Secs, a.Deferrals.P90Secs, a.Deferrals.P99Secs))
	sum.AddRow("defer max (s)", fmt.Sprintf("%.0f", a.Deferrals.MaxSecs))
	sum.AddRow("audit errors", a.Errors())
	sum.AddRow("audit warnings", len(a.Findings)-a.Errors())
	if err := sum.Render(w); err != nil {
		return err
	}

	apps := report.NewTable("per-app energy attribution", "app", "transfers", "bytes", "active (s)", "energy (J)")
	for i, ap := range a.Apps {
		if i == 12 {
			apps.AddRow(fmt.Sprintf("(+%d more)", len(a.Apps)-i), "", "", "", "")
			break
		}
		apps.AddRow(ap.App, ap.Transfers, ap.Bytes, ap.ActiveSecs, fmt.Sprintf("%.1f", ap.EnergyJ))
	}
	if err := apps.Render(w); err != nil {
		return err
	}

	slots := report.NewTable("prediction scorecard (hours with duty wakes or served transfers)",
		"hour", "wakes", "productive", "precision", "served", "deadline", "foreground")
	for _, s := range a.Slots {
		if s.Wakes == 0 && s.Served == 0 && s.DeadlineFlushes == 0 {
			continue
		}
		slots.AddRow(fmt.Sprintf("%02d", s.Hour), s.Wakes, s.ProductiveWakes,
			report.Percent(s.Precision()), s.Served, s.DeadlineFlushes, s.Foreground)
	}
	if slots.NumRows() > 0 {
		if err := slots.Render(w); err != nil {
			return err
		}
	}

	if len(a.Findings) > 0 {
		fnd := report.NewTable("findings", "device", "severity", "check", "count", "detail")
		for _, f := range a.Findings {
			fnd.AddRow(f.Device, string(f.Severity), f.Check, f.Count, f.Detail)
		}
		if err := fnd.Render(w); err != nil {
			return err
		}
	} else if _, err := fmt.Fprintf(w, "findings: none\n"); err != nil {
		return err
	}
	return nil
}
