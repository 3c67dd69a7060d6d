// Package cliconfig centralises the flag surface of the repository's
// binaries. Each command gets one options struct with a Register method
// that installs its flags on a FlagSet; the flags shared across
// commands (-model, -parallelism, -obs-dir, report formats and output
// paths) are declared once here, so their names, defaults and help
// strings cannot drift apart between binaries.
package cliconfig

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"netmaster/internal/cfgerr"
	"netmaster/internal/parallel"
	"netmaster/internal/power"
)

// ResolveModel maps the shared -model flag value to a power model.
func ResolveModel(name string) (*power.Model, error) {
	switch name {
	case "3g":
		return power.Model3G(), nil
	case "lte":
		return power.ModelLTE(), nil
	default:
		return nil, fmt.Errorf("unknown model %q (want 3g or lte)", name)
	}
}

// registerModel installs the shared -model flag.
func registerModel(fs *flag.FlagSet, dst *string, usage string) {
	fs.StringVar(dst, "model", *dst, usage)
}

// WiFi is the shared dual-radio flag pair: -wifi-model selects the NIC
// power model (empty keeps a binary cellular-only), -wifi-coverage the
// coverage fraction overlaid on generated traces. Option structs embed
// it so the two flags keep one name, default and help string across
// binaries.
type WiFi struct {
	WiFiModelName string
	WiFiCoverage  float64
}

// Register installs the shared -wifi-model and -wifi-coverage flags.
func (o *WiFi) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.WiFiModelName, "wifi-model", o.WiFiModelName,
		"Wi-Fi NIC power model: wifi; empty keeps the run cellular-only")
	fs.Float64Var(&o.WiFiCoverage, "wifi-coverage", o.WiFiCoverage,
		"Wi-Fi coverage fraction of each generated day, in [0, 1]")
}

// Resolve validates the pair with typed field errors and returns the
// NIC model — nil when -wifi-model is empty (dual radio disabled).
func (o *WiFi) Resolve() (*power.WiFiModel, error) {
	var es cfgerr.Errors
	var m *power.WiFiModel
	switch o.WiFiModelName {
	case "":
	case "wifi":
		m = power.ModelWiFi()
	default:
		es = append(es, cfgerr.New("cliconfig.WiFi", "wifi-model", o.WiFiModelName,
			"unknown wifi model (want wifi)"))
	}
	if o.WiFiCoverage < 0 || o.WiFiCoverage > 1 {
		es = append(es, cfgerr.New("cliconfig.WiFi", "wifi-coverage", o.WiFiCoverage,
			"must be in [0, 1]"))
	}
	if err := es.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// Sim is the netmaster-sim option set.
type Sim struct {
	TracePath   string
	Gen         string
	Days        int
	PolicyName  string
	Interval    int
	BatchSize   int
	ModelName   string
	HistoryPath string
	PerApp      bool
	TimelineDay int
	WiFi        // -wifi-model / -wifi-coverage

	// Fault schedule (policy=online only).
	FaultRate   float64
	FaultSeed   int64
	FaultOutage string // "start:end" in seconds
	MaxDeferral int    // seconds, 0 = default

	// Observability outputs.
	MetricsOut string // write the metrics snapshot JSON here
	TraceOut   string // write the decision trace JSONL here
	ObsDir     string // write <ObsDir>/<user>/metrics.json + trace.jsonl
	TraceCap   int    // trace ring capacity, 0 = default
	PprofAddr  string // serve /debug/pprof and /debug/vars here
}

// DefaultSim returns netmaster-sim's flag defaults.
func DefaultSim() Sim {
	return Sim{
		Days:        21,
		PolicyName:  "netmaster",
		Interval:    60,
		BatchSize:   5,
		ModelName:   "3g",
		TimelineDay: -1,
		FaultSeed:   1,
	}
}

// Register installs netmaster-sim's flags.
func (o *Sim) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.TracePath, "trace", o.TracePath, "trace file to replay")
	fs.StringVar(&o.Gen, "gen", o.Gen, "generate the named cohort user instead of reading a trace")
	fs.IntVar(&o.Days, "days", o.Days, "days for -gen")
	fs.StringVar(&o.PolicyName, "policy", o.PolicyName, "policy: baseline, netmaster, oracle, delay, batch, online, wifi-offload")
	fs.IntVar(&o.Interval, "interval", o.Interval, "delay interval seconds (policy=delay)")
	fs.IntVar(&o.BatchSize, "batch", o.BatchSize, "batch size (policy=batch)")
	registerModel(fs, &o.ModelName, "radio model: 3g or lte")
	fs.StringVar(&o.HistoryPath, "history", o.HistoryPath, "optional pre-collected history trace (policy=netmaster)")
	fs.BoolVar(&o.PerApp, "per-app", o.PerApp, "print eprof-style per-app energy attribution")
	fs.IntVar(&o.TimelineDay, "timeline", o.TimelineDay, "render an ASCII radio timeline of this day (baseline vs the policy)")
	fs.Float64Var(&o.FaultRate, "fault-rate", o.FaultRate, "uniform fault probability for the chaos replay (policy=online)")
	fs.Int64Var(&o.FaultSeed, "fault-seed", o.FaultSeed, "fault-schedule seed (policy=online)")
	fs.StringVar(&o.FaultOutage, "fault-outage", o.FaultOutage, "radio outage window start:end in seconds (policy=online)")
	fs.IntVar(&o.MaxDeferral, "max-deferral", o.MaxDeferral, "hard deferral deadline in seconds, 0 = 4x duty max sleep (policy=online)")
	fs.StringVar(&o.MetricsOut, "metrics-out", o.MetricsOut, "write the run's metrics snapshot to this file as JSON")
	fs.StringVar(&o.TraceOut, "trace-out", o.TraceOut, "write the run's decision trace to this file as JSONL")
	fs.StringVar(&o.ObsDir, "obs-dir", o.ObsDir, "write <dir>/<user>/metrics.json and trace.jsonl for netmaster-analyze")
	fs.IntVar(&o.TraceCap, "trace-cap", o.TraceCap, "trace ring capacity in events, 0 = default")
	fs.StringVar(&o.PprofAddr, "pprof-addr", o.PprofAddr, "serve net/http/pprof and expvar on this address (for soak runs)")
	o.WiFi.Register(fs)
}

// Experiments is the experiments option set.
type Experiments struct {
	Figure      string
	Days        int
	ModelName   string
	CSVDir      string
	ObsDir      string
	Parallelism int
	WiFi        // -wifi-model / -wifi-coverage (figure wifi)
}

// DefaultExperiments returns experiments' flag defaults. Parallelism
// zero resolves to the process-wide default at Register time (the
// binary's historical default was GOMAXPROCS).
func DefaultExperiments() Experiments {
	return Experiments{
		Figure:      "all",
		Days:        21,
		ModelName:   "3g",
		Parallelism: parallel.DefaultWorkers(),
		// The wifi figure needs a NIC model; ship it enabled so
		// `experiments -figure wifi` works without extra flags.
		WiFi: WiFi{WiFiModelName: "wifi"},
	}
}

// Register installs experiments' flags.
func (o *Experiments) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.Figure, "figure", o.Figure, "which figure to regenerate")
	fs.IntVar(&o.Days, "days", o.Days, "trace length in days (the paper: 3 weeks)")
	registerModel(fs, &o.ModelName, "radio model: 3g or lte")
	fs.StringVar(&o.CSVDir, "csv", o.CSVDir, "also write figure data as CSV files into this directory")
	fs.StringVar(&o.ObsDir, "obs-dir", o.ObsDir, "replay the cohort online and write per-device metrics.json + trace.jsonl for netmaster-analyze")
	fs.IntVar(&o.Parallelism, "parallelism", o.Parallelism,
		"worker-pool width for the evaluation engine and scheduler (1 = sequential)")
	o.WiFi.Register(fs)
}

// Analyze is the netmaster-analyze option set. Dirs comes from the
// positional arguments, not a flag.
type Analyze struct {
	Format      string // text | json
	Out         string // report destination, "" = stdout
	PromOut     string // Prometheus exposition destination
	Check       bool   // exit non-zero on error findings
	Parallelism int    // worker count, 0 = default
	ModelName   string // 3g | lte, prices attributed seconds
	Dirs        []string
}

// DefaultAnalyze returns netmaster-analyze's flag defaults.
func DefaultAnalyze() Analyze {
	return Analyze{Format: "text", ModelName: "3g"}
}

// Register installs netmaster-analyze's flags.
func (o *Analyze) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.Format, "format", o.Format, "report format: text or json")
	fs.StringVar(&o.Out, "out", o.Out, "write the report to this file instead of stdout")
	fs.StringVar(&o.PromOut, "prom-out", o.PromOut, "write the merged metrics in Prometheus text exposition format to this file")
	fs.BoolVar(&o.Check, "check", o.Check, "exit with status 2 when any invariant audit fails")
	fs.IntVar(&o.Parallelism, "parallelism", o.Parallelism, "worker count for loading and merging, 0 = GOMAXPROCS")
	registerModel(fs, &o.ModelName, "radio model pricing attributed seconds: 3g or lte")
}

// Serve is the netmaster-serve option set.
type Serve struct {
	Addr               string
	MaxInFlight        int
	CacheSize          int
	RequestTimeoutSecs int
	ShutdownGraceSecs  int
	Parallelism        int
	Quiet              bool   // suppress the per-request access log
	StateDir           string // durable state directory, "" = in-memory only
	CompactEvery       int    // journal records between snapshots, 0 = default

	// Request observability: slow-request capture, the /debug/requests
	// span ring, and SLO burn tracking (server_slo_*/router_slo_*
	// series plus a /healthz block).
	SlowRequestMillis int     // log requests at or above this latency, 0 disables
	TraceRing         int     // /debug/requests recent-span ring capacity, 0 = default
	SLOP99Millis      float64 // p99 latency objective in ms, 0 disables
	SLOErrorRate      float64 // 5xx-rate objective, 0 disables
	SLOWindow         int     // trailing request window for burn rates, 0 = default

	// Router mode: proxy the API across backend shards instead of
	// serving it from this process.
	Router   bool
	Backends string // comma-separated shard base URLs (router mode)
	VNodes   int    // consistent-hash virtual nodes per shard, 0 = default
}

// BackendList splits the comma-separated -backends value, dropping
// empty segments so trailing commas are harmless.
func (o *Serve) BackendList() []string {
	var out []string
	for _, b := range strings.Split(o.Backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			out = append(out, b)
		}
	}
	return out
}

// DefaultServe returns netmaster-serve's flag defaults. Unlike the
// library's server.DefaultConfig (which keeps SLO tracking off so
// embedded servers opt in explicitly), the CLI ships with burn
// tracking on: a production daemon should know when it is missing its
// objectives without extra flags.
func DefaultServe() Serve {
	return Serve{
		Addr:               "127.0.0.1:8080",
		MaxInFlight:        64,
		CacheSize:          128,
		RequestTimeoutSecs: 30,
		ShutdownGraceSecs:  5,
		SLOP99Millis:       2000,
		SLOErrorRate:       0.01,
	}
}

// Bench is the netmaster-bench option set.
type Bench struct {
	Target       string        // serve-tier base URL; "" self-hosts an in-memory daemon
	Devices      int           // synthetic cohort size
	Batch        int           // devices per ingest batch
	Concurrency  int           // concurrent in-flight requests
	Duration     time.Duration // keep cycling passes until elapsed; 0 = one pass
	Days         int           // replay days behind each template device
	Format       string        // text | json
	Out          string        // also write the report here
	SLOErrorRate float64       // request error-rate ceiling
	SLOP99Millis float64       // p99 latency ceiling in milliseconds
	Parallelism  int           // self-hosted daemon parallelism, 0 = default
	WiFi                       // -wifi-model / -wifi-coverage for the template replays
}

// DefaultBench returns netmaster-bench's flag defaults.
func DefaultBench() Bench {
	return Bench{
		Devices:      100000,
		Batch:        500,
		Concurrency:  32,
		Days:         2,
		Format:       "text",
		SLOErrorRate: 0.01,
		SLOP99Millis: 5000,
	}
}

// Register installs netmaster-bench's flags.
func (o *Bench) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.Target, "target", o.Target, "serve-tier base URL (daemon or router); empty self-hosts an in-memory daemon")
	fs.IntVar(&o.Devices, "devices", o.Devices, "synthetic cohort size")
	fs.IntVar(&o.Batch, "batch", o.Batch, "devices per /v1/fleet/ingest:batch request")
	fs.IntVar(&o.Concurrency, "concurrency", o.Concurrency, "concurrent in-flight requests")
	fs.DurationVar(&o.Duration, "duration", o.Duration, "keep cycling ingest passes until this much time has elapsed (0 = one pass)")
	fs.IntVar(&o.Days, "days", o.Days, "replayed days behind each template device")
	fs.StringVar(&o.Format, "format", o.Format, "report format: text or json")
	fs.StringVar(&o.Out, "out", o.Out, "also write the report to this file")
	fs.Float64Var(&o.SLOErrorRate, "slo-error-rate", o.SLOErrorRate, "fail (exit 1) when the request error rate exceeds this")
	fs.Float64Var(&o.SLOP99Millis, "slo-p99", o.SLOP99Millis, "fail (exit 1) when p99 request latency exceeds this many milliseconds")
	fs.IntVar(&o.Parallelism, "parallelism", o.Parallelism, "self-hosted daemon worker count, 0 = GOMAXPROCS")
	o.WiFi.Register(fs)
}

// Tracegen is the tracegen option set.
type Tracegen struct {
	Cohort    string
	SpecFile  string
	EmitSpec  string
	Days      int
	OutDir    string
	User      string
	StatsOnly bool
	WiFi      // -wifi-coverage overlays coverage on the written traces
}

// DefaultTracegen returns tracegen's flag defaults.
func DefaultTracegen() Tracegen {
	return Tracegen{Cohort: "motivation", Days: 21, OutDir: "."}
}

// Register installs tracegen's flags.
func (o *Tracegen) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.Cohort, "cohort", o.Cohort, "cohort to generate: motivation or eval")
	fs.StringVar(&o.SpecFile, "spec", o.SpecFile, "generate from a JSON cohort spec file instead of a built-in cohort")
	fs.StringVar(&o.EmitSpec, "emit-spec", o.EmitSpec, "write the selected built-in cohort's spec JSON to this file and exit")
	fs.IntVar(&o.Days, "days", o.Days, "trace length in days")
	fs.StringVar(&o.OutDir, "out", o.OutDir, "output directory for trace files")
	fs.StringVar(&o.User, "user", o.User, "generate only this user ID")
	fs.BoolVar(&o.StatsOnly, "stats", o.StatsOnly, "print statistics instead of writing files")
	o.WiFi.Register(fs)
}

// Register installs netmaster-serve's flags.
func (o *Serve) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.Addr, "addr", o.Addr, "listen address")
	fs.IntVar(&o.MaxInFlight, "max-in-flight", o.MaxInFlight, "bound on concurrently served API requests; excess answers 429")
	fs.IntVar(&o.CacheSize, "cache-size", o.CacheSize, "habit-profile LRU capacity in entries, 0 disables caching")
	fs.IntVar(&o.RequestTimeoutSecs, "request-timeout", o.RequestTimeoutSecs, "per-request deadline in seconds")
	fs.IntVar(&o.ShutdownGraceSecs, "shutdown-grace", o.ShutdownGraceSecs, "drain window in seconds on SIGTERM/SIGINT")
	fs.IntVar(&o.Parallelism, "parallelism", o.Parallelism, "worker count for request fan-out, 0 = GOMAXPROCS")
	fs.BoolVar(&o.Quiet, "quiet", o.Quiet, "suppress the per-request access log on stderr")
	fs.StringVar(&o.StateDir, "state-dir", o.StateDir, "journal ingests and profile updates to this directory and recover it on boot; empty = in-memory only")
	fs.IntVar(&o.CompactEvery, "compact-every", o.CompactEvery, "journal records between snapshot compactions, 0 = default")
	fs.IntVar(&o.SlowRequestMillis, "slow-request", o.SlowRequestMillis, "log a structured slow_request line for requests at or above this many milliseconds, 0 disables")
	fs.IntVar(&o.TraceRing, "trace-ring", o.TraceRing, "/debug/requests recent-span ring capacity, 0 = default")
	fs.Float64Var(&o.SLOP99Millis, "slo-p99", o.SLOP99Millis, "p99 latency objective in milliseconds for SLO burn tracking, 0 disables")
	fs.Float64Var(&o.SLOErrorRate, "slo-error-rate", o.SLOErrorRate, "5xx error-rate objective for SLO burn tracking, 0 disables")
	fs.IntVar(&o.SLOWindow, "slo-window", o.SLOWindow, "trailing request window for SLO burn rates, 0 = default")
	fs.BoolVar(&o.Router, "router", o.Router, "run as a shard router: proxy /v1/* across -backends by device ID instead of serving locally")
	fs.StringVar(&o.Backends, "backends", o.Backends, "comma-separated shard base URLs, e.g. http://127.0.0.1:9101,http://127.0.0.1:9102 (router mode)")
	fs.IntVar(&o.VNodes, "vnodes", o.VNodes, "consistent-hash virtual nodes per shard, 0 = default (router mode)")
}
