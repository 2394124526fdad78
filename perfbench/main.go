// Command perfbench is the repository's benchmark: three workloads that
// drive the simulator through its public entry points and print every
// end-to-end metric (or, with -trace 1, every per-layer metric) as one
// JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload sweep-timing --seed 1 --seconds 15 --trace 0
//
// run.sh builds this command and svfd from the checkout it is run in, and
// keeps every build and scratch file under .bench_build/.
//
// Workloads:
//
//	sweep-timing   svfexp -exp fig5,fig7 in process: 168 timing cells
//	sweep-traffic  svfexp -exp table3,table4 -journal DIR: 126 traffic cells
//	svfd-fleet     svfd -workers nproc under a closed loop of nproc clients
//
// A sweep runs as passes, each a fresh child process (this binary with
// -pass), until -seconds of sweep time are measured; the fleet runs one
// daemon for -seconds after three timed start-ups.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	svfd     string
	tmp      string
}

// report is one run's outcome before rendering.
type report struct {
	attempted, failed int
	errors, notes     []string
	metrics           map[string]float64
}

type metricSpec struct{ name, unit string }

// endToEnd are the metrics a -trace 0 run prints, on every workload. On
// the sweeps a "job" is one simulated cell; on svfd-fleet it is one
// submission, timed from the POST to its last results line.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"sim_minst_per_s", "Minst/s"},
	{"cpu_ns_per_inst", "ns"},
	{"peak_rss_mb", "MB"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
}

// perLayer are the metrics a -trace 1 run prints. A layer that does no
// work on a workload reports 0 there (see fleetOnlyLayers and
// sweepOnlyLayers).
var perLayer = []metricSpec{
	{"synth.build_s", "s"},
	{"synth.gen_minst_per_s", "Minst/s"},
	{"tracecache.hits", "count"},
	{"tracecache.misses", "count"},
	{"tracecache.evictions", "count"},
	{"tracecache.hit_ratio", "ratio"},
	{"tracecache.used_mb", "MB"},
	{"sim.run_cells", "count"},
	{"sim.run_busy_s", "s"},
	{"sim.run_ns_per_cycle", "ns"},
	{"sim.run_cell_p50_ms", "ms"},
	{"sim.traffic_cells", "count"},
	{"sim.traffic_busy_s", "s"},
	{"sim.traffic_minst_per_s", "Minst/s"},
	{"experiments.idle_frac", "ratio"},
	{"runcache.requests", "count"},
	{"runcache.misses", "count"},
	{"runcache.hits", "count"},
	{"runcache.shared", "count"},
	{"runcache.retried", "count"},
	{"runcache.hit_ratio", "ratio"},
	{"journal.appends", "count"},
	{"journal.syncs", "count"},
	{"journal.appends_per_sync", "ratio"},
	{"journal.put_p50_ms", "ms"},
	{"journal.put_busy_s", "s"},
	{"service.submit_p50_ms", "ms"},
	{"service.submit_p95_ms", "ms"},
	{"service.queue_p50_ms", "ms"},
	{"service.queue_p95_ms", "ms"},
	{"service.deduped", "count"},
	{"service.rejected", "count"},
	{"service.daemon_cpu_s", "s"},
	{"shard.assigned", "count"},
	{"shard.reenqueued", "count"},
	{"shard.worker_deaths", "count"},
	{"shard.lease_wait_p50_ms", "ms"},
	{"shard.worker_run_p50_ms", "ms"},
	{"shard.overhead_p50_ms", "ms"},
	{"shard.worker_cpu_s", "s"},
	{"overhead.sim_minst_per_s", "Minst/s"},
	{"overhead.job_p50_ms", "ms"},
}

// fleetOnlyLayers do no work on the sweeps, which run in one process with
// no service and no shard fleet.
var fleetOnlyLayers = []string{
	"service.submit_p50_ms", "service.submit_p95_ms", "service.queue_p50_ms", "service.queue_p95_ms",
	"service.deduped", "service.rejected", "service.daemon_cpu_s",
	"shard.assigned", "shard.reenqueued", "shard.worker_deaths", "shard.lease_wait_p50_ms",
	"shard.worker_run_p50_ms", "shard.overhead_p50_ms", "shard.worker_cpu_s",
}

// sweepOnlyLayers cannot be read from outside svfd: the trace caches live
// in the worker processes, there is no experiments fan-out, and the
// daemon's journals expose no sync or per-append timing.
var sweepOnlyLayers = []string{
	"tracecache.hits", "tracecache.misses", "tracecache.evictions", "tracecache.hit_ratio", "tracecache.used_mb",
	"experiments.idle_frac",
	"journal.syncs", "journal.appends_per_sync", "journal.put_p50_ms", "journal.put_busy_s",
}

func zeroLayers(m map[string]float64, names []string) {
	for _, n := range names {
		m[n] = 0
	}
}

var workloads = map[string]func(context.Context, options) (*report, error){
	"sweep-timing":  runSweep,
	"sweep-traffic": runSweep,
	"svfd-fleet":    runFleet,
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var traceN int
	var pass string
	flag.StringVar(&o.workload, "workload", "", "sweep-timing, sweep-traffic or svfd-fleet")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 15, "how long to measure")
	flag.IntVar(&traceN, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	flag.StringVar(&o.svfd, "svfd", "", "path to the svfd binary (svfd-fleet)")
	flag.StringVar(&o.tmp, "tmp", "", "scratch directory (default .bench_build/perfbench/tmp-PID)")
	flag.StringVar(&pass, "pass", "", "internal: run one sweep pass of this workload and print its JSON result")
	flag.Parse()
	o.trace = traceN == 1

	if pass != "" {
		o.workload = pass
		res, err := runPassChild(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: pass: %v\n", err)
			return 1
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: pass: %v\n", err)
			return 1
		}
		return 0
	}

	fn, ok := workloads[o.workload]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q\n", o.workload)
		return 2
	case o.seconds <= 0 || (traceN != 0 && traceN != 1):
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	case o.workload == "svfd-fleet" && o.svfd == "":
		fmt.Fprintln(os.Stderr, "perfbench: svfd-fleet needs -svfd")
		return 2
	}
	if o.tmp == "" {
		o.tmp = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("tmp-%d", os.Getpid()))
	}
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(o.tmp)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := fn(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := printReport(o, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	return 0
}

// printReport writes a readable summary, then the result object as the
// last line of standard output.
func printReport(o options, rep *report) error {
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(specs))
	for _, s := range specs {
		v, ok := rep.metrics[s.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", s.name, v)
		}
		metrics[s.name] = value{v, s.unit}
	}
	if len(rep.metrics) != len(specs) {
		var extra []string
		for k := range rep.metrics {
			if _, ok := metrics[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return fmt.Errorf("undeclared metrics %v", extra)
	}

	fmt.Printf("perfbench %s seed=%d trace=%v\n", o.workload, o.seed, o.trace)
	for _, n := range rep.notes {
		fmt.Printf("  # %s\n", n)
	}
	for _, s := range specs {
		fmt.Printf("  %-26s %14.4f %s\n", s.name, metrics[s.name].Value, s.unit)
	}
	fmt.Printf("  %-26s %14.4f (%d of %d failed)\n", "failed_frac", ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	for _, e := range rep.errors {
		fmt.Printf("  ! %s\n", e)
	}
	return json.NewEncoder(os.Stdout).Encode(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0 && len(rep.errors) == 0 && rep.attempted > 0, rep.attempted, rep.failed, metrics})
}
