// Command cmbench is CounterMiner's end-to-end benchmark. One run
// drives one workload from a seed, checks the outputs, and prints every
// metric by name with its unit; the last line of standard output is a
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//	bash cmbench/run.sh --workload analyze-default --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it reports the per-layer metrics, timed by spans the benchmark
// records around its calls into each module. README.md lists the
// workloads, rates, latency limits and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	cm "counterminer"
	"counterminer/cmbench/stat"
)

// endToEnd lists the metrics a user of the system sees, with units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"analysis_p50_s", "s"},
	{"model_error_pct", "%"},
	{"peak_rss_mib", "MiB"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"max_rate_rps", "1/s"},
	{"success_ratio", "ratio"},
}

// traceLayers are the span layers whose self time the traced run
// reports.
var traceLayers = []string{"pipeline", "collector", "clean", "rank", "interact", "fingerprint", "store", "client"}

// perLayer lists the per-layer metrics the traced run reports.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"rank.eir_ms", "ms"}, {"rank.eir_rounds", "count"},
		{"sgbrt.tree_fits", "count"}, {"sgbrt.ms_per_tree", "ms"},
		{"pipeline.alloc_mib", "MiB"}, {"pipeline.gc_cycles", "count"},
		{"collector.collect_ms", "ms"}, {"collector.builds", "count"}, {"collector.memo_hit_ratio", "ratio"},
		{"clean.clean_ms", "ms"}, {"clean.outliers_replaced", "count"}, {"clean.missing_filled", "count"},
		{"interact.fit_ms", "ms"}, {"interact.rank_pairs_ms", "ms"},
		{"fingerprint.embed_ms", "ms"}, {"fingerprint.classify_ms", "ms"}, {"fingerprint.classify_cache_hit_ratio", "ratio"},
		{"store.put_ms", "ms"}, {"store.flush_ms", "ms"}, {"store.bytes_on_disk", "bytes"},
		{"store.writeback_flushes", "count"}, {"store.shard_loads", "count"},
		{"serve.queue_wait_ms", "ms"}, {"serve.exec_ms", "ms"}, {"client.transport_ms", "ms"},
		{"serve.cache_hit_ratio", "ratio"}, {"serve.singleflight_shared", "count"}, {"serve.rejected", "count"},
		{"daemon.cpu_ms_per_request", "ms"},
		{"batch.sync_ms", "ms"}, {"batch.dedup_ratio", "ratio"}, {"batch.groups", "count"},
		{"stream.first_event_ms", "ms"}, {"stream.done_ms", "ms"}, {"stream.ring_rebuilds", "count"}, {"stream.events_sent", "count"},
		{"loop.lag_p50_ms", "ms"}, {"loop.lag_max_ms", "ms"},
		{"trace.replay_mismatch", "count"}, {"trace.overhead_pct", "%"},
	}
	for _, s := range cm.StageNames() {
		defs = append(defs, metricDef{"pipeline.stage." + s + "_ms", "ms"})
	}
	for _, l := range traceLayers {
		defs = append(defs, metricDef{"trace.self." + l + "_ms", "ms"})
	}
	return defs
}()

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the final JSON line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report accumulates one run's metrics, notes and check failures.
type report struct {
	w         io.Writer
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
}

func newReport(w io.Writer) *report { return &report{w: w, values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// check records a failed output check; nil is a pass.
func (r *report) check(err error) {
	if err != nil {
		r.problems = append(r.problems, err.Error())
	}
}

func (r *report) notef(format string, args ...any) { fmt.Fprintf(r.w, "# "+format+"\n", args...) }

// finish prints every metric of the mode's list and returns the JSON
// result. A metric the workload failed to produce is a benchmark bug.
func (r *report) finish(defs []metricDef) (output, error) {
	out := output{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue)}
	for _, p := range r.problems {
		fmt.Fprintln(r.w, "CHECK FAILED:", p)
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Fprintf(r.w, "%-40s %14.4f %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	daemon   string // counterminerd binary
	work     string // scratch directory inside the checkout
}

var workloads = map[string]func(context.Context, config, *report) error{
	"analyze-default": runAnalyzeDefault,
	"serve-distinct":  runServeDistinct,
	"serve-batch":     runServeBatch,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cfg   config
		trace int
	)
	fs.StringVar(&cfg.workload, "workload", "", "workload name: analyze-default, serve-distinct or serve-batch")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	fs.IntVar(&cfg.seconds, "seconds", 30, "how long the run measures")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	fs.StringVar(&cfg.daemon, "daemon", ".bench_build/bin/counterminerd", "counterminerd binary for the serve workloads")
	fs.StringVar(&cfg.work, "work", ".bench_build/run", "scratch directory for stores and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "cmbench: need --workload (one of %s), --seconds > 0 and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	cfg.trace = trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runDir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "cmbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)
	cfg.work = runDir

	fmt.Fprintf(stdout, "# cmbench %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, trace, runtime.GOMAXPROCS(0))
	rep := newReport(stdout)
	steal0, stealErr := cpuSteal()
	if err := fn(ctx, cfg, rep); err != nil {
		fmt.Fprintln(stderr, "cmbench:", err)
		return 1
	}
	// Time the host took the CPUs away explains runs that are slow for
	// reasons outside the program.
	if steal1, err := cpuSteal(); err == nil && stealErr == nil && steal1.total > steal0.total {
		rep.notef("host CPU steal during the run: %.1f%% of CPU time",
			100*float64(steal1.steal-steal0.steal)/float64(steal1.total-steal0.total))
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out, err := rep.finish(defs)
	if err != nil {
		fmt.Fprintln(stderr, "cmbench:", err)
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "cmbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// Shared helpers.

func median(xs []float64) float64 { return stat.Median(xs) }

func tail(xs []float64) (p, v float64) { return stat.Tail(xs) }

func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}

// ratio is num/den, 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMiB is the process's peak resident set (VmHWM in
// /proc/<pid>/status) in MiB.
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kib, err := strconv.ParseFloat(f[0], 64)
				return kib / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}

// cpuTime is the process's user+system CPU time from /proc/<pid>/stat,
// assuming the usual 100 clock ticks per second.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	// Fields after the command: state is f[0], utime f[11], stime f[12].
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(u+st) * 10 * time.Millisecond, nil
}

// stealTicks is the steal and total columns of /proc/stat's cpu line.
type stealTicks struct{ steal, total int64 }

func cpuSteal() (stealTicks, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealTicks{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return stealTicks{}, errors.New("malformed /proc/stat")
	}
	var t stealTicks
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return stealTicks{}, err
		}
		// Guest time (columns 9 and 10) is already counted in user time.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) float64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n)
}
