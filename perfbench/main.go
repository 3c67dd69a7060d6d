// Command perfbench is the repository benchmark: for one workload and
// seed it generates the inputs, drives a netmaster-serve child process
// over loopback, checks the outputs, and prints every end-to-end metric
// (or, with --trace 1, every per-layer metric) as the last line of
// standard output. See README.md for the workloads and metrics.
//
//	perfbench --workload ingest|fleet-read|plan --seed N --seconds S --trace 0|1 -serve BIN
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	serve    string // netmaster-serve binary
	work     string // scratch directory for state dirs and spans
	log      func(format string, args ...any)
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   figures `json:"metrics"`
}

var workloads = []string{"ingest", "fleet-read", "plan"}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "ingest, fleet-read or plan")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measuring window per run")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes, for the harness's own tests")
	flag.StringVar(&o.serve, "serve", "", "netmaster-serve binary")
	flag.StringVar(&o.work, "work", os.TempDir(), "scratch directory")
	flag.Parse()
	o.trace = traceFlag == 1
	o.log = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(o options) (*result, error) {
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (want ingest, fleet-read or plan)", o.workload)
	}
	if o.serve == "" || o.seconds <= 0 {
		return nil, fmt.Errorf("need -serve and a positive --seconds")
	}
	sz := fullSizes()
	if o.smoke {
		sz = smokeSizes()
	}
	work, err := os.MkdirTemp(o.work, "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	o.work = work

	// Set up SetupReps times, keeping the last; setup_s is the median.
	var fx *fixture
	var setups []float64
	for rep := 0; rep < sz.SetupReps; rep++ {
		if fx != nil {
			fx.close()
		}
		t0 := time.Now()
		fx, err = setUp(o, sz, rep)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer fx.close()
	o.log("%s seed %d: set-up %.2f s (median of %v)", o.workload, o.seed, percentile(setups, 0.5), setups)
	fx.rec.traced = o.trace
	return fx.measure(o, percentile(setups, 0.5))
}

// measure runs the workload's traffic, the reference passes, and the
// output checks on a set-up fixture, then assembles the metrics.
func (fx *fixture) measure(o options, setupS float64) (*result, error) {
	window := time.Duration(o.seconds * float64(time.Second))
	before, err := fx.counters()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	stop := stopAt{deadline: start.Add(window)}
	var main []*op
	var mainCycles int
	var w *writer
	switch o.workload {
	case "ingest":
		main = fx.ingestLoop(2, stop, "ingest")
	case "fleet-read":
		w = &writer{fx: fx}
		done := make(chan struct{})
		go func() { defer close(done); w.run(start, stop) }()
		main = fx.readLoop(stop, 1)
		<-done
		main = append(main, w.ops...)
	case "plan":
		main, mainCycles = fx.planLoop(2, stop)
	}
	elapsed := time.Since(start)
	after, err := fx.counters()
	if err != nil {
		return nil, err
	}
	heap, err := fx.c.liveHeapMB()
	if err != nil {
		return nil, err
	}

	// Output checks and reference passes run off the clock, writer paused.
	var failures []string
	fail := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}
	if w != nil {
		if late := percentile(lateness(w.ops), 0.99); late > float64(fx.sz.WriterPeriod) {
			o.log("fleet-read writer fell behind: send lateness p99 %.1f ms exceeds its %d ms period", late, fx.sz.WriterPeriod)
		}
	}
	if o.workload == "ingest" {
		if err := fx.checkRecovery(o); err != nil {
			fail("recovery: %v", err)
		}
		// The other paths are measured on an in-memory daemon holding the
		// same state: on the durable one, with the passes' profile updates
		// journaled right after the window's disk traffic, their figures
		// spread twice as wide.
		if err := fx.restartInMemory(); err != nil {
			return nil, fmt.Errorf("reference daemon: %w", err)
		}
	} else if err := fx.checkFleet(); err != nil {
		fail("fleet report: %v", err)
	}

	ref := fx.referencePasses(o.workload)
	o.log("reference passes: ingest %d ops in %.1f s, reads %d in %.1f s, plan %d in %.1f s",
		len(ref.ingest.ops), ref.ingest.elapsed.Seconds(), len(ref.reads.ops), ref.reads.elapsed.Seconds(),
		len(ref.plan.ops), ref.plan.elapsed.Seconds())
	if err := fx.checkPlan(); err != nil {
		fail("plan: %v", err)
	}
	saving, err := fx.energySaving()
	if err != nil {
		fail("energy saving: %v", err)
	}

	// Each path's figures come from the workload's own traffic where it
	// has that path, else from its reference pass.
	own := phase{ops: main, elapsed: elapsed, cycles: mainCycles}
	ing, rd, pl := ref.ingest, ref.reads, ref.plan
	ingLat := ing
	switch o.workload {
	case "ingest":
		ing, ingLat = own, own
	case "fleet-read":
		rd, ingLat = own, own
	case "plan":
		pl = own
	}
	windowMS := ms(window)
	m := figures{}
	m.set("setup_s", "s", setupS)
	m.set("ingest_devices_per_s", "1/s", float64(acked(ing.ops))/ing.elapsed.Seconds())
	m.latency(o.log, "ingest_ms", byName(ingLat.ops, "ingest_batch"), windowMS, 50, 90)
	m.latency(o.log, "ingest_ms", byName(ing.ops, "ingest_batch"), windowMS, 99)
	m.latency(o.log, "fleet_report_ms", byName(rd.ops, "fleet_report"), windowMS, 50, 90)
	m.latency(o.log, "fleet_metrics_ms", byName(rd.ops, "fleet_metrics"), windowMS, 50)
	m.latency(o.log, "profile_update_ms", byName(pl.ops, "profile_update"), windowMS, 50)
	m.latency(o.log, "schedule_ms", byName(pl.ops, "schedule"), windowMS, 50)
	m.latency(o.log, "simulate_ms", byName(pl.ops, "simulate"), windowMS, 50)
	m.set("plan_cycles_per_s", "1/s", float64(pl.cycles)/pl.elapsed.Seconds())
	m.set("energy_saving_pct", "%", saving)
	m.set("heap_live_mb", "MiB", heap)

	all := append(append(append(append([]*op(nil), main...), ref.ingest.ops...), ref.reads.ops...), ref.plan.ops...)
	res := &result{Correct: len(failures) == 0, Attempted: len(all), Metrics: m}
	for _, op := range all {
		if op.Failed {
			res.Failed++
		}
	}
	if res.Failed > 0 {
		o.log("%d of %d ops failed", res.Failed, res.Attempted)
	}
	for _, f := range failures {
		o.log("check failed: %s", f)
	}
	if !o.trace {
		return res, nil
	}

	// Traced run: log this run's end-to-end figures beside the per-layer
	// ones; their difference from the untraced run of the same seed is
	// the tracing overhead.
	if line, err := json.Marshal(m); err == nil {
		o.log("traced end-to-end: %s", line)
	}
	lm, err := fx.layers(o, all, main, before, after)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	res.Metrics = lm
	return res, nil
}

// acked counts the devices acknowledged by successful ingest batches.
func acked(ops []*op) int {
	n := 0
	for _, o := range ops {
		if o.Name == "ingest_batch" && !o.Failed {
			n += o.Items
		}
	}
	return n
}
