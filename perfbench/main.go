// Command perfbench is the repository's benchmark: one process that sets up
// one of four workloads, measures it for a fixed time, checks that every
// output is correct, and prints its metrics.
//
//	perfbench --workload lib-mixed --seed 1 --seconds 50 --trace 0
//
// Workloads (see BENCHMARK.json for why lib-mixed and cluster-rf2-write
// were chosen):
//
//	lib-mixed          in-process stem.Cache, cache-aside over the mixed stream
//	serve-zipf         one loopback server driven through the pooled client
//	cluster-rf2-write  three nodes at replication factor 2, 50/50 GET/SET
//	sim-paper          the STEM simulator at paper geometry on the mcf analog
//
// sim-paper has no end-to-end run and is not listed in BENCHMARK.json: on
// a shared two-vCPU VM its single-goroutine, memory-bound timings moved by
// a fifth to a quarter between runs of one seed, beyond any bound the
// benchmark may set. Its layers, and the check of its exact hit and miss
// counts, run in every traced run.
//
// serve-zipf has an end-to-end run but is not listed in BENCHMARK.json
// either. It isolates the client, wire and server path (the cache carries
// about 0.4 us of a ~10 us request), and that path is mostly the loopback
// round trip, which on a shared two-vCPU VM moves between about 6.5 and
// 13 us from one second to the next (a bare Go TCP echo moves the same
// way): ten runs' GET p50 spread by up to a quarter of their median.
// cluster-rf2-write, whose requests do more per round trip, carries the
// same path end to end; serve-zipf's layers run in every traced run.
//
// With --trace 0 the run reports the end-to-end metrics, each for the
// named workload:
//
//	setup_s      median of nine builds of the system (construction, cluster
//	             membership bootstrap, warm-up fill); the first build is timed
//	             from process start
//	ops_per_s    closed loop over the whole measured time, one worker per
//	             CPU: the upper quartile of the throughput of 250 ms chunks
//	get_p50_us,  the same closed loop: median latency of the GET and SET
//	set_p50_us   calls of one step in 16, so that timing barely slows it
//	hit_rate     the cache's own hit fraction over the measured pass, from
//	             Stats or STATS
//	heap_mb      live heap after a forced collection at the end of the run
//
// The open loop at the workload's fixed Poisson rate runs only in the
// traced run, for the generator's lateness (loadgen.late_p99_us).
//
// Failed operations and failed correctness checks are counted in "failed";
// error_rate (failed over attempted) is printed with the metrics.
//
// With --trace 1 the run reports the per-layer metrics instead: every layer
// is measured on its own workload's stream from spans the benchmark records
// around the calls into that layer, and the runtime and load-generator
// metrics come from the named workload. End-to-end numbers never come from
// a traced run.
//
// Human-readable lines go to standard output first; the last line is one
// JSON object with the keys correct, attempted, failed and metrics. Any
// failed operation or correctness check makes the exit status 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one run's settings.
type config struct {
	seed    uint64
	seconds time.Duration
	workers int // concurrent load workers: never more than the CPUs
}

// report accumulates one run's metrics, operation counts and failures.
type report struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// add records a metric; a NaN or infinite value is itself a failure, since
// the JSON result cannot carry it.
func (r *report) add(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail(fmt.Errorf("metric %s is %v", name, v))
		return
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts one failed operation or correctness check.
func (r *report) fail(err error) {
	r.failed++
	fmt.Printf("FAILED  %v\n", err)
}

// ops folds one pass's operation count and errors into the report.
func (r *report) ops(n int64, errs []error) {
	r.attempted += n
	for _, err := range errs {
		r.fail(err)
	}
}

// check counts one correctness check, failing it when err is non-nil.
func (r *report) check(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// workload is one benchmark workload: run measures its end-to-end metrics
// (nil for a workload measured only layer by layer); layers measures the
// per-layer metrics on its stream within dur, adding the runtime and
// load-generator metrics too when common is set.
type workload struct {
	name   string
	run    func(cfg config, r *report) error
	layers func(cfg config, r *report, dur time.Duration, common bool) error
}

var workloadList = []workload{
	{"lib-mixed", runLibMixed, layersLibMixed},
	{"serve-zipf", runServeZipf, layersServeZipf},
	{"cluster-rf2-write", runCluster, layersCluster},
	{"sim-paper", nil, layersSimPaper},
}

func main() {
	name := flag.String("workload", "", "workload to run: lib-mixed, serve-zipf, cluster-rf2-write or sim-paper")
	seed := flag.Uint64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 50, "measured time of the run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()

	var wl *workload
	for i := range workloadList {
		if workloadList[i].name == *name {
			wl = &workloadList[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || (*trace == 0 && wl.run == nil) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s; sim-paper only with --trace 1), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		workers: max(1, min(runtime.NumCPU(), runtime.GOMAXPROCS(0))),
	}
	printFingerprint(cfg, wl.name, *trace == 1)

	r := newReport()
	var err error
	if *trace == 1 {
		err = runLayers(cfg, wl.name, r)
	} else {
		err = wl.run(cfg, r)
	}
	if err != nil {
		r.fail(err)
	}
	printReport(r)
	if r.failed > 0 {
		os.Exit(1)
	}
}

// runLayers is the traced run: every workload's layer section gets an equal
// share of the measured time, and only the named workload contributes the
// runtime and load-generator metrics.
func runLayers(cfg config, named string, r *report) error {
	share := cfg.seconds / time.Duration(len(workloadList))
	var errs []error
	for _, wl := range workloadList {
		if err := wl.layers(cfg, r, share, wl.name == named); err != nil {
			errs = append(errs, fmt.Errorf("%s layers: %w", wl.name, err))
		}
	}
	return errors.Join(errs...)
}

func workloadNames() string {
	names := make([]string, len(workloadList))
	for i, wl := range workloadList {
		names[i] = wl.name
	}
	return strings.Join(names, ", ")
}

// printFingerprint identifies the machine and inputs a result came from.
func printFingerprint(cfg config, name string, traced bool) {
	fmt.Printf("workload   %s  seed %d  seconds %.0f  traced %v\n", name, cfg.seed, cfg.seconds.Seconds(), traced)
	fmt.Printf("machine    cpu %q  nproc %d  GOMAXPROCS %d  workers %d  %s %s/%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.workers,
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// cpuModel reads the CPU model name the kernel reports, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printReport prints every metric with its unit, the error rate, and then
// the JSON result as the last line.
func printReport(r *report) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	errRate := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Printf("%-32s %14.6g fraction  (%d failed of %d attempted)\n", "error_rate", errRate, r.failed, r.attempted)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, max(r.attempted, 1), r.failed, r.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
