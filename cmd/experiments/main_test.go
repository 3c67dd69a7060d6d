package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"netmaster/internal/cliconfig"
	"netmaster/internal/tracing"
)

// docs/experiments-output.txt is the committed output of
// `experiments -figure all`: every reproduced paper number at the
// default settings. Any change to one of them shows up as a diff of
// that file. Regenerate it deliberately with
//
//	go test ./cmd/experiments -run Golden -update
var update = flag.Bool("update", false, "rewrite docs/experiments-output.txt")

const goldenOutput = "../../docs/experiments-output.txt"

func TestGoldenExperimentsOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, cliconfig.DefaultExperiments()); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenOutput, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenOutput)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("experiments -figure all differs from %s (re-run with -update if intended)\ngot:\n%s",
			goldenOutput, buf.Bytes())
	}
}

// expOpts builds an Experiments option set over the defaults.
func expOpts(mut func(*cliconfig.Experiments)) cliconfig.Experiments {
	o := cliconfig.DefaultExperiments()
	mut(&o)
	return o
}

func TestRunSingleFigures(t *testing.T) {
	// The cheap figures run end to end; days kept small.
	for _, fig := range []string{"motivation", "1a", "1b", "2", "3", "4", "5", "10a", "10b", "delta"} {
		if err := run(io.Discard, expOpts(func(o *cliconfig.Experiments) {
			o.Figure, o.Days = fig, 8
		})); err != nil {
			t.Errorf("figure %s: %v", fig, err)
		}
	}
}

// The wifi figure covers the dual-radio sweep; the pinned -wifi-coverage
// path narrows the x-axis to the zero anchor plus the requested point.
func TestRunWiFiFigure(t *testing.T) {
	if err := run(io.Discard, expOpts(func(o *cliconfig.Experiments) {
		o.Figure, o.Days, o.WiFiCoverage = "wifi", 6, 0.6
	})); err != nil {
		t.Fatal(err)
	}
}

func TestRunWiFiFigureNeedsModel(t *testing.T) {
	if err := run(io.Discard, expOpts(func(o *cliconfig.Experiments) {
		o.Figure, o.Days, o.WiFiModelName = "wifi", 6, ""
	})); err == nil {
		t.Error("figure wifi without a NIC model accepted")
	}
}

func TestRunUnknownModel(t *testing.T) {
	if err := run(io.Discard, expOpts(func(o *cliconfig.Experiments) {
		o.Figure, o.Days, o.ModelName = "1a", 8, "6g"
	})); err == nil {
		t.Error("unknown model accepted")
	}
	if err := run(io.Discard, expOpts(func(o *cliconfig.Experiments) {
		o.Figure, o.Days, o.WiFiModelName = "1a", 8, "warp"
	})); err == nil {
		t.Error("unknown wifi model accepted")
	}
}

func TestRunCSVExport(t *testing.T) {
	dir := t.TempDir()
	if err := run(io.Discard, expOpts(func(o *cliconfig.Experiments) {
		o.Figure, o.Days, o.CSVDir = "7", 8, dir
	})); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"fig7.csv", "fig8.csv", "fig9.csv", "fig10c.csv", "fig7a_gaps.csv", "wifi.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing %s", f)
		}
	}
}

// -obs-dir writes the per-device cohort layout netmaster-analyze
// consumes: every volunteer gets metrics.json and a well-formed
// headered trace.
func TestRunObservabilityExport(t *testing.T) {
	dir := t.TempDir()
	if err := run(io.Discard, expOpts(func(o *cliconfig.Experiments) {
		o.Figure, o.Days, o.ObsDir = "1a", 6, dir
	})); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no device directories written")
	}
	for _, e := range entries {
		if _, err := os.Stat(filepath.Join(dir, e.Name(), "metrics.json")); err != nil {
			t.Errorf("%s: %v", e.Name(), err)
		}
		f, err := os.Open(filepath.Join(dir, e.Name(), "trace.jsonl"))
		if err != nil {
			t.Errorf("%s: %v", e.Name(), err)
			continue
		}
		hdr, events, err := tracing.ReadJSONLWithHeader(f)
		f.Close()
		if err != nil {
			t.Errorf("%s: %v", e.Name(), err)
			continue
		}
		if hdr.Format == 0 || len(events) == 0 || hdr.Events != len(events) {
			t.Errorf("%s: header %+v with %d events", e.Name(), hdr, len(events))
		}
	}
}
