// Perfbench is the repository benchmark: it runs one named workload with a
// seed, checks that the program's outputs are correct, and prints every
// end-to-end metric with its unit as the last line of standard output.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 45 --trace 0
//
// Workloads:
//
//	serve-ingest  collabserve in-process on loopback, 10k peers, in 3 s
//	              rounds on fresh servers: open loop at 500 req/s (90%
//	              ingest of new edges), then a closed-loop ingest-only phase
//	              (not in BENCHMARK.json: too host-sensitive to gate, see
//	              README.md)
//	serve-read    one server pre-populated with ~300k events, in 3 s
//	              rounds: open loop at 1000 req/s (95% reads, 5% re-rates
//	              of existing edges), then a closed-loop read-only phase
//	repro-fig4    the paper's Fig 4 mixture sweep at paper scale as
//	              warm-start chains through sim.RunChains
//
// With --trace 1 the run is split into an untraced half and a traced half;
// the traced half records spans at every layer boundary, writes them under
// .bench_build/trace/, and the run prints the per-layer metrics instead of
// the end-to-end ones. See perfbench/README.md for the metric table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the end-to-end metrics every untraced run reports. Their
// meaning per workload is in README.md: "op" is the workload's primary
// operation (ingest request, read request, sweep point) and "visible" is
// the time until an input's result is visible (the freshness probe, or a
// sweep point's result).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"visible_p50_ms", "ms"},
	{"visible_p90_ms", "ms"},
	{"work_per_s", "1/s"},
	{"ok_frac", "fraction"},
	{"rss_peak_mb", "MB"},
}

// perLayer lists the per-layer metrics every traced run reports. A metric
// of a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"gen.late_p99_ms", "ms"},
	{"client.transport_write_p50_us", "us"},
	{"client.transport_read_p50_us", "us"},
	{"serve.ingest_handler_p50_us", "us"},
	{"serve.ingest_handler_p99_us", "us"},
	{"serve.read_handler_p50_us", "us"},
	{"serve.read_handler_p99_us", "us"},
	{"serve.reputation_p50_us", "us"},
	{"serve.top_p50_us", "us"},
	{"serve.alloc_p50_us", "us"},
	{"serve.refused_frac", "fraction"},
	{"serve.queued_batches_max", "count"},
	{"serve.apply_lag_events_max", "count"},
	{"store.publishes_per_s", "1/s"},
	{"store.retire_waits", "count"},
	{"store.pending_max", "count"},
	{"store.nnz_end", "count"},
	{"solve.count", "count"},
	{"solve.skipped_frac", "fraction"},
	{"solve.rebuild_frac", "fraction"},
	{"solve.dirty_rows_mean", "count"},
	{"solve.iters_mean", "count"},
	{"solve.ms_p50", "ms"},
	{"solve.ms_p90", "ms"},
	{"solve.busy_frac", "fraction"},
	{"fresh.edge_visible_p50_ms", "ms"},
	{"fresh.trust_lag_p50_ms", "ms"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"runtime.alloc_mb_per_s", "MB/s"},
	{"engine.step_us_p50", "us"},
	{"engine.step_us_p99", "us"},
	{"chain.point_setup_ms_mean", "ms"},
	{"chain.measure_share", "fraction"},
	{"chain.worker_imbalance", "ratio"},
	{"agent.selects_per_step", "count"},
	{"network.downloads_per_step", "count"},
	{"network.dl_success", "fraction"},
	{"articles.sessions_per_step", "count"},
	{"trace.overhead_frac", "fraction"},
}

// params are the per-run inputs every workload receives.
type params struct {
	seed    uint64
	seconds float64
	tr      *tracer // nil for an untraced run
}

// outcome is one workload run's result.
type outcome struct {
	attempted, failed int
	gate              []string           // correctness failures; empty = correct
	e2e               map[string]float64 // endToEnd names
	layer             map[string]float64 // perLayer names (traced runs)
	samples           map[string]int     // sample count behind each metric
	// view restates the run in per-workload metric names (write_p50_ms,
	// fresh_p90_ms, sim_steps_per_s, ...) for the log.
	view []string
	// reconcile is the traced run's reconciliation table.
	reconcile []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.gate = append(o.gate, fmt.Sprintf(format, args...))
}

func (o *outcome) viewf(format string, args ...any) {
	o.view = append(o.view, fmt.Sprintf(format, args...))
}

// workload is one named benchmark input.
type workload struct {
	name string
	run  func(params) (*outcome, error)
	// primary returns the end-to-end figure the trace overhead is taken
	// on, oriented so that larger is slower.
	primary func(*outcome) float64
}

func workloads() []workload {
	slower := func(o *outcome) float64 { return o.e2e["op_p50_ms"] }
	return []workload{
		{name: "serve-ingest", run: serveIngest().run, primary: slower},
		{name: "serve-read", run: serveRead().run, primary: slower},
		{name: "repro-fig4", run: paperFig4().run, primary: func(o *outcome) float64 {
			if o.e2e["work_per_s"] == 0 {
				return 0
			}
			return 1 / o.e2e["work_per_s"]
		}},
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: serve-ingest, serve-read, repro-fig4")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 45, "measured seconds per run")
	traced := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for _, c := range workloads() {
		if c.name == *name {
			w = &c
			break
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload serve-ingest|serve-read|repro-fig4, --seconds > 0, --trace 0|1\n")
		return 2
	}

	var out *outcome
	var err error
	if *traced == 0 {
		out, err = w.run(params{seed: *seed, seconds: *seconds})
	} else {
		out, err = tracedRun(*w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	report(stdout, w.name, *seed, *traced == 1, out)
	if len(out.gate) > 0 {
		for _, g := range out.gate {
			fmt.Fprintf(stderr, "perfbench: CORRECTNESS GATE FAILED: %s\n", g)
		}
		return 1
	}
	return 0
}

// tracedRun measures the workload twice with half the time each, untraced
// and then traced, and reports the traced half's per-layer metrics plus the
// relative cost of tracing on the workload's primary figure.
func tracedRun(w workload, seed uint64, seconds float64) (*outcome, error) {
	base, err := w.run(params{seed: seed, seconds: seconds / 2})
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	out, err := w.run(params{seed: seed, seconds: seconds / 2, tr: tr})
	if err != nil {
		return nil, err
	}
	out.gate = append(base.gate, out.gate...)
	out.attempted += base.attempted
	out.failed += base.failed
	if b := w.primary(base); b > 0 {
		out.layer["trace.overhead_frac"] = w.primary(out)/b - 1
	}
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	out.view = append(out.view, fmt.Sprintf("trace: %d spans written to %s", len(tr.snapshot()), path))
	return out, nil
}

// metricJSON is one metric in the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the result line: the last line of standard output.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// report prints the run log (per-workload view, reconciliation table,
// environment fingerprint with per-metric sample counts) and then the
// result line.
func report(w io.Writer, name string, seed uint64, traced bool, out *outcome) {
	defs, vals := endToEnd, out.e2e
	if traced {
		defs, vals = perLayer, out.layer
	}
	fmt.Fprintf(w, "workload %s seed %d traced %v\n", name, seed, traced)
	for _, line := range out.view {
		fmt.Fprintln(w, "  "+line)
	}
	for _, line := range out.reconcile {
		fmt.Fprintln(w, "  "+line)
	}
	res := resultJSON{Correct: len(out.gate) == 0, Attempted: max(1, out.attempted),
		Failed: out.failed, Metrics: map[string]metricJSON{}}
	counts := map[string]int{}
	for _, d := range defs {
		res.Metrics[d.name] = metricJSON{Value: finite(vals[d.name]), Unit: d.unit}
		if n, ok := out.samples[d.name]; ok {
			counts[d.name] = n
		}
	}
	env, _ := json.Marshal(map[string]any{"env": fingerprint(), "samples": counts})
	fmt.Fprintf(w, "%s\n", env)
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
}

// finite maps a latency driven to infinity by failed requests onto a large
// finite number, since JSON has no infinity.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return 1e12
	case math.IsInf(v, -1), math.IsNaN(v):
		return -1e12
	}
	return v
}

// fingerprint describes the machine and build that produced a result.
func fingerprint() map[string]any {
	env := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"rev":        "unknown",
		"dirty":      false,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env["rev"] = s.Value
			case "vcs.modified":
				env["dirty"] = s.Value == "true"
			}
		}
	}
	return env
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// rssMB returns the process's current resident set size in MB (0 where
// /proc/self/statm cannot be read).
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
