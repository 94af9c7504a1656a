// Command perfsuite is Clara's end-to-end benchmark. One run measures one
// workload for a fixed time, checks that every output is correct, and
// prints its metrics; the last line of standard output is a JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root, via run.sh which builds it first):
//
//	bash perfsuite/run.sh --workload fleet-library --seed 1 --seconds 30 --trace 0
//
// Workloads: fleet-library, serve-novel, nic-whatif (see README.md).
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate
// traced run that times each layer's public calls from this program and
// reports the per-layer metrics plus the tracing overhead. The seed fixes
// every generated input; the program under test only sees those inputs.
//
// The command exits 1 when any correctness check fails (after printing
// the result with "correct": false) and 2 on bad flags.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// procs pins the scheduler to the box the benchmark is sized for.
const procs = 2

// benchDir is where runs keep scratch files (bundles, span dumps),
// relative to the checkout root the benchmark runs from.
var benchDir = filepath.Join(".bench_build", "perfsuite")

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// metric is one reported value with its unit. Samples and Note only
// feed the human-readable table.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"-"`
	Note    string  `json:"-"`
}

// report accumulates one run's outcome.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	mismatches []string
}

func newReport() *report { return &report{Correct: true, Metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string, samples int, note string) {
	r.Metrics[name] = metric{Value: v, Unit: unit, Samples: samples, Note: note}
}

// mismatch records a failed correctness check.
func (r *report) mismatch(format string, args ...any) {
	r.Correct = false
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

// endToEnd and perLayer are the metric names BENCHMARK.json declares, in
// print order. Every run of either kind reports every name in its list.
var endToEnd = []string{"setup_s", "peak_rss_mb", "throughput_per_s", "latency_p50_ms", "aux_p50_ms"}

// perLayer lists the per-layer metrics with their units. A workload that
// does not exercise a layer reports it as 0.
var perLayer = []struct{ name, unit string }{
	{"core.profile_us_per_pkt", "us"}, {"analysis.lint_us", "us"}, {"analysis.state_profile_us", "us"},
	{"core.algoid_us", "us"}, {"core.placement_us", "us"}, {"core.packs_us", "us"}, {"core.scaleout_us", "us"},
	{"fleet.cache_hit_ratio", "ratio"}, {"fleet.busy_share", "ratio"},
	{"lang.compile_us", "us"}, {"core.predict_us_per_block", "us"}, {"core.predict_blocks", "count"},
	{"interp.precompile_us", "us"},
	{"server.analyze_p50_ms", "ms"}, {"server.analyze_p99_ms", "ms"}, {"client.queue_wait_ms_p99", "ms"},
	{"cluster.hop_us", "us"}, {"server.rejected_429", "count"}, {"cluster.retries", "count"},
	{"cluster.cache_hit_rate", "ratio"}, {"client.gen_late_ms_p99", "ms"}, {"client.failed_share", "ratio"},
	{"client.ladder_max_rps", "1/s"},
	{"niccc.nf_build_ms", "ms"}, {"nicsim.gen_traces_us_per_pkt", "us"}, {"nicsim.sim_us_per_pkt", "us"},
	{"offload.us_per_round", "us"}, {"offload.seed_policy_us", "us"},
	{"setup.train_predictor_s", "s"}, {"setup.train_algoid_s", "s"}, {"setup.train_scaleout_s", "s"},
	{"setup.bundle_load_ms", "ms"},
	{"runtime.alloc_kb_per_op", "KB"}, {"runtime.gc_cpu_share", "ratio"}, {"trace.overhead_share", "ratio"},
	{"e2e.latency_tail_ms", "ms"}, {"e2e.aux_tail_ms", "ms"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, *report) error{
	"fleet-library": runFleet,
	"serve-novel":   runServe,
	"nic-whatif":    runNIC,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one benchmark run and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfsuite:", err)
		return 2
	}
	runtime.GOMAXPROCS(procs)
	rep := newReport()
	if err := workloads[opt.workload](opt, rep); err != nil {
		fmt.Fprintf(stderr, "perfsuite: %s: %v\n", opt.workload, err)
		return 1
	}
	return finish(opt, rep, stdout, stderr)
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	var opt options
	var trace int
	fs := flag.NewFlagSet("perfsuite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opt.workload, "workload", "", "fleet-library | serve-novel | nic-whatif")
	fs.Int64Var(&opt.seed, "seed", 1, "input seed")
	fs.IntVar(&opt.seconds, "seconds", 30, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if _, ok := workloads[opt.workload]; !ok {
		return opt, fmt.Errorf("unknown workload %q", opt.workload)
	}
	if opt.seconds < 1 {
		return opt, errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return opt, errors.New("--trace must be 0 or 1")
	}
	opt.trace = trace == 1
	return opt, nil
}

// finish checks that the run reported exactly its declared metric set,
// prints the table and the JSON result line, and maps correctness to the
// exit code.
func finish(opt options, rep *report, stdout, stderr io.Writer) int {
	type decl struct{ name, unit string }
	var want []decl
	if opt.trace {
		for _, l := range perLayer {
			want = append(want, decl{l.name, l.unit})
		}
	} else {
		for _, n := range endToEnd {
			want = append(want, decl{n, ""})
		}
	}
	out := make(map[string]metric, len(want))
	fmt.Fprintf(stdout, "# %s seed=%d seconds=%d trace=%v\n", opt.workload, opt.seed, opt.seconds, opt.trace)
	for _, d := range want {
		m, ok := rep.Metrics[d.name]
		switch {
		case !ok && !opt.trace:
			rep.mismatch("end-to-end metric %s was not measured", d.name)
			continue
		case !ok:
			m = metric{Unit: d.unit, Note: "layer not exercised by " + opt.workload}
		}
		out[d.name] = m
		line := fmt.Sprintf("%-28s %14s %-6s", d.name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf(" n=%d", m.Samples)
		}
		if m.Note != "" {
			line += "  " + m.Note
		}
		fmt.Fprintln(stdout, line)
	}
	var extra []string
	for name := range rep.Metrics {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		m := rep.Metrics[name]
		fmt.Fprintf(stdout, "# also measured: %s %s %s n=%d  %s\n", name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit, m.Samples, m.Note)
	}
	for _, s := range rep.mismatches {
		fmt.Fprintln(stderr, "perfsuite: MISMATCH:", s)
	}
	rep.Metrics = out
	blob, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfsuite:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(blob))
	if !rep.Correct {
		return 1
	}
	return 0
}

// phaseEnd returns when a phase taking the given share of the run's
// seconds, counted from start, ends.
func phaseEnd(start time.Time, opt options, share float64) time.Time {
	return start.Add(time.Duration(share * float64(opt.seconds) * float64(time.Second)))
}
