package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"svf/internal/experiments"
	"svf/internal/journal"
	"svf/internal/pipeline"
	"svf/internal/sim"
	"svf/internal/synth"
)

// A sweep workload runs as a sequence of passes, each in a fresh child
// process so the program cache, trace cache, RunCache and heap start
// empty. One pass is one whole campaign: set-up (program builds), then the
// timed sweep. minPasses keeps the pooled cell latencies deep enough for
// a p95 (168 or 126 cells a pass, 200 needed).
const minPasses = 2

// passResult is what one child pass reports to the parent on stdout.
type passResult struct {
	SetupS    float64            `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	CPUS      float64            `json:"cpu_s"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Insts     uint64             `json:"insts"`
	CellMS    []float64          `json:"cell_ms"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Traced    bool               `json:"traced"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// runSweep drives passes of one sweep workload until at least seconds of
// sweep time have been measured, and aggregates them.
func runSweep(ctx context.Context, o options) (*report, error) {
	var passes []*passResult
	var timed float64
	for i := 0; ; i++ {
		// A traced run alternates untraced and traced passes, so the
		// tracing overhead is the difference of two halves of one run.
		traced := o.trace && i%2 == 1
		p, err := runPass(ctx, o, traced)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		timed += p.WallS
		if len(passes) >= minPasses && timed >= o.seconds && (!o.trace || len(passes)%2 == 0) {
			break
		}
	}
	return sweepReport(o, passes)
}

// runPass runs one child pass and decodes its result.
func runPass(ctx context.Context, o options, traced bool) (*passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-pass", o.workload, "-seed", fmt.Sprint(o.seed), "-tmp", o.tmp}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("pass %s: %w", o.workload, err)
	}
	p := &passResult{}
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), p); err != nil {
		return nil, fmt.Errorf("pass %s: decode result: %w", o.workload, err)
	}
	return p, nil
}

// sweepReport aggregates passes: throughput and CPU as totals over every
// pass, set-up and peak RSS as the median pass, latencies pooled.
func sweepReport(o options, passes []*passResult) (*report, error) {
	rep := &report{}
	var insts uint64
	var wall, cpu float64
	var cellMS, setups, rss []float64
	var tracedMS, plainMS, tracedRate, plainRate []float64
	layers := map[string][]float64{}
	for _, p := range passes {
		rep.attempted += p.Attempted
		rep.failed += p.Failed
		rep.errors = append(rep.errors, p.Errors...)
		insts += p.Insts
		wall += p.WallS
		cpu += p.CPUS
		cellMS = append(cellMS, p.CellMS...)
		setups = append(setups, p.SetupS)
		rss = append(rss, p.PeakRSSMB)
		rate := float64(p.Insts) / p.WallS / 1e6
		if p.Traced {
			tracedMS = append(tracedMS, p.CellMS...)
			tracedRate = append(tracedRate, rate)
			for k, v := range p.Layers {
				layers[k] = append(layers[k], v)
			}
		} else {
			plainMS = append(plainMS, p.CellMS...)
			plainRate = append(plainRate, rate)
		}
	}
	if o.trace {
		rep.metrics = map[string]float64{}
		for k, vs := range layers {
			rep.metrics[k] = median(vs)
		}
		tp50, err1 := percentile(tracedMS, 0.5)
		pp50, err2 := percentile(plainMS, 0.5)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("overhead.job_p50_ms: %v %v", err1, err2)
		}
		rep.metrics["overhead.sim_minst_per_s"] = median(tracedRate) - median(plainRate)
		rep.metrics["overhead.job_p50_ms"] = tp50 - pp50
		zeroLayers(rep.metrics, fleetOnlyLayers)
		return rep, nil
	}
	p50, err := percentile(cellMS, 0.5)
	if err != nil {
		return nil, fmt.Errorf("job_p50_ms: %w", err)
	}
	p95, err := percentile(cellMS, 0.95)
	if err != nil {
		return nil, fmt.Errorf("job_p95_ms: %w", err)
	}
	rep.metrics = map[string]float64{
		"setup_s":         median(setups),
		"sim_minst_per_s": float64(insts) / wall / 1e6,
		"cpu_ns_per_inst": cpu * 1e9 / float64(insts),
		"peak_rss_mb":     median(rss),
		"jobs_per_s":      float64(len(cellMS)) / wall,
		"job_p50_ms":      p50,
		"job_p95_ms":      p95,
	}
	rep.notes = append(rep.notes, fmt.Sprintf("%d passes, %d cells timed, %.1f s of sweep", len(passes), len(cellMS), wall))
	return rep, nil
}

// cellClock is the sim.Executor every sweep pass runs its cells through.
// It reads the clock around sim.RunContext and sim.TrafficOnly and keeps
// each executed cell's counters for the correctness digest; it does no
// other work, so a cell costs what it costs without it.
type cellClock struct {
	mu                     sync.Mutex
	runMS, trafficMS       []float64
	runBusy, trafficBusy   time.Duration
	runCycles              uint64
	runInsts, trafficInsts uint64
	lines                  []string
	errs                   []string
}

func (c *cellClock) ExecRun(ctx context.Context, prof *synth.Profile, opt sim.Options) (*sim.Result, error) {
	t0 := time.Now()
	res, err := sim.RunContext(ctx, prof, opt)
	d := time.Since(t0)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.errs = append(c.errs, fmt.Sprintf("%s: %v", prof.ID(), err))
		return res, err
	}
	c.runMS = append(c.runMS, msOf(d))
	c.runBusy += d
	c.runCycles += res.Pipe.Cycles
	c.runInsts += res.Pipe.Committed
	c.lines = append(c.lines, runLine(res))
	return res, nil
}

func (c *cellClock) ExecTraffic(ctx context.Context, prof *synth.Profile, policy pipeline.StackPolicy, sizeBytes, maxInsts int, period uint64) (in, out, ctxBytes uint64, err error) {
	t0 := time.Now()
	in, out, ctxBytes, err = sim.TrafficOnly(ctx, prof, policy, sizeBytes, maxInsts, period)
	d := time.Since(t0)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.errs = append(c.errs, fmt.Sprintf("%s: %v", prof.ID(), err))
		return in, out, ctxBytes, err
	}
	c.trafficMS = append(c.trafficMS, msOf(d))
	c.trafficBusy += d
	c.trafficInsts += uint64(maxInsts)
	c.lines = append(c.lines, trafficLine(prof.ID(), policy, sizeBytes, maxInsts, period, in, out, ctxBytes))
	return in, out, ctxBytes, nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timedStore is the traced run's sim.ResultStore decorator: it times each
// Put, which for the journaled store is one durable journal append.
type timedStore struct {
	sim.ResultStore
	mu    sync.Mutex
	putMS []float64
	busy  time.Duration
}

func (s *timedStore) Put(rec journal.Record) {
	t0 := time.Now()
	s.ResultStore.Put(rec)
	d := time.Since(t0)
	s.mu.Lock()
	s.putMS = append(s.putMS, msOf(d))
	s.busy += d
	s.mu.Unlock()
}

// permuted returns profs in a seed-drawn order. The sweeps' seed changes
// only the order the fan-out meets the profiles, never the cell set.
func permuted(profs []*synth.Profile, seed int64) []*synth.Profile {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*synth.Profile, len(profs))
	for i, j := range rng.Perm(len(profs)) {
		out[i] = profs[j]
	}
	return out
}

func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// runPassChild is one sweep pass, run in the child process: set-up, the
// timed sweep, then the correctness gate and, when traced, the per-layer
// readings.
func runPassChild(o options) (*passResult, error) {
	nproc := runtime.NumCPU()
	timing := o.workload == "sweep-timing"
	bench := permuted(synth.Benchmarks(), o.seed)
	inputs := permuted(synth.BenchmarkInputs(), o.seed)
	all := bench
	if !timing {
		all = append(append([]*synth.Profile(nil), inputs...), bench...)
	}

	// Set-up: build (and calibrate) every program the sweep will run.
	t0 := time.Now()
	for _, p := range all {
		if _, err := sim.ProgramFor(p); err != nil {
			return nil, fmt.Errorf("build %s: %w", p.ID(), err)
		}
	}
	res := &passResult{SetupS: time.Since(t0).Seconds(), Traced: o.trace}

	clock := &cellClock{}
	var cache *sim.RunCache
	var jr *journal.Journal
	var store *timedStore
	jdir := filepath.Join(o.tmp, fmt.Sprintf("journal-%d", os.Getpid()))
	if timing {
		cache = sim.NewRunCache()
	} else {
		var rep *journal.Replay
		var err error
		if jr, rep, err = journal.Open(jdir, journal.Options{}); err != nil {
			return nil, err
		}
		defer os.RemoveAll(jdir)
		defer jr.Close()
		cache, _ = sim.NewRunCacheWithJournal(jr, rep)
		if o.trace {
			store = &timedStore{ResultStore: cache.Store()}
			cache = sim.NewRunCacheWithStore(store)
		}
	}
	cache.SetExecutor(clock)
	faults := &experiments.FaultLog{}
	cfg := experiments.Config{Benchmarks: bench, Parallel: nproc, Cache: cache, OnFault: experiments.FaultContinue, Faults: faults}

	cpu0 := cpuNow()
	t1 := time.Now()
	var sweepErr error
	if timing {
		if _, sweepErr = experiments.Fig5(cfg); sweepErr == nil {
			_, sweepErr = experiments.Fig7(cfg)
		}
	} else {
		t3 := cfg
		t3.Benchmarks = inputs
		if _, sweepErr = experiments.Table3(t3); sweepErr == nil {
			_, sweepErr = experiments.Table4(cfg)
		}
	}
	res.WallS = time.Since(t1).Seconds()
	res.CPUS = cpuNow() - cpu0
	var err error
	if res.PeakRSSMB, err = proc.hwmMB(os.Getpid()); err != nil {
		return nil, err
	}
	if sweepErr != nil {
		res.Errors = append(res.Errors, sweepErr.Error())
	}

	cells := len(clock.runMS) + len(clock.trafficMS)
	res.CellMS = append(append([]float64(nil), clock.runMS...), clock.trafficMS...)
	res.Insts = clock.runInsts + clock.trafficInsts
	res.Attempted = cells + len(clock.errs)
	res.Failed = len(clock.errs)
	res.Errors = append(res.Errors, clock.errs...)
	for _, f := range faults.All() {
		res.Errors = append(res.Errors, f.Error())
	}

	// Correctness gate: the counters of every executed cell against the
	// reference digest; for the journaled sweep, every executed cell must
	// also be durable.
	gate := checkDigest(o.workload, digest(clock.lines))
	var js journal.Stats
	if jr != nil {
		js = jr.Stats()
		if gate == nil {
			gate = checkJournal(jr, jdir, cells)
		}
	}
	if gate != nil || len(res.Errors) > 0 {
		res.Failed = res.Attempted
		if gate != nil {
			res.Errors = append(res.Errors, gate.Error())
		}
	}

	if o.trace {
		res.Layers = sweepLayers(o, res, clock, cache.Stats(), js, store, all, nproc)
	}
	return res, nil
}

// checkJournal closes the pass's journal and replays it: a completed cell
// must be one live record.
func checkJournal(jr *journal.Journal, dir string, cells int) error {
	if err := jr.Close(); err != nil {
		return fmt.Errorf("journal close: %w", err)
	}
	j2, rep, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return fmt.Errorf("journal reopen: %w", err)
	}
	defer j2.Close()
	if got := len(rep.Records); got != cells {
		return fmt.Errorf("journal replays %d records, want %d executed cells", got, cells)
	}
	return nil
}

// sweepLayers takes the traced pass's per-layer readings, each from a
// public entry point of its layer.
func sweepLayers(o options, res *passResult, clock *cellClock, cs sim.CacheStats, js journal.Stats, store *timedStore, profs []*synth.Profile, nproc int) map[string]float64 {
	m := map[string]float64{}
	tc := sim.TraceCacheStats()
	m["synth.build_s"] = res.SetupS
	m["synth.gen_minst_per_s"] = genRate(profs, o.workload)
	m["tracecache.hits"] = float64(tc.Hits)
	m["tracecache.misses"] = float64(tc.Misses)
	m["tracecache.evictions"] = float64(tc.Evictions)
	m["tracecache.hit_ratio"] = ratio(float64(tc.Hits), float64(tc.Hits+tc.Misses))
	m["tracecache.used_mb"] = float64(tc.UsedBytes) / (1 << 20)

	m["sim.run_cells"] = float64(len(clock.runMS))
	m["sim.run_busy_s"] = clock.runBusy.Seconds()
	m["sim.run_ns_per_cycle"] = ratio(float64(clock.runBusy.Nanoseconds()), float64(clock.runCycles))
	m["sim.run_cell_p50_ms"] = mustPct(clock.runMS, 0.5)
	m["sim.traffic_cells"] = float64(len(clock.trafficMS))
	m["sim.traffic_busy_s"] = clock.trafficBusy.Seconds()
	m["sim.traffic_minst_per_s"] = ratio(float64(clock.trafficInsts)/1e6, clock.trafficBusy.Seconds())
	busy := (clock.runBusy + clock.trafficBusy).Seconds()
	m["experiments.idle_frac"] = 1 - busy/(res.WallS*float64(nproc))

	m["runcache.requests"] = float64(cs.Requests())
	m["runcache.misses"] = float64(cs.Misses)
	m["runcache.hits"] = float64(cs.Hits)
	m["runcache.shared"] = float64(cs.Shared)
	m["runcache.retried"] = float64(cs.Retries)
	m["runcache.hit_ratio"] = ratio(float64(cs.Hits+cs.Shared), float64(cs.Requests()))

	m["journal.appends"] = float64(js.Appends)
	m["journal.syncs"] = float64(js.SyncBatches)
	m["journal.appends_per_sync"] = ratio(float64(js.Appends), float64(js.SyncBatches))
	m["journal.put_p50_ms"] = 0
	m["journal.put_busy_s"] = 0
	if store != nil {
		m["journal.put_p50_ms"] = mustPct(store.putMS, 0.5)
		m["journal.put_busy_s"] = store.busy.Seconds()
	}
	return m
}

// mustPct is pctOrZero for per-layer medians that always have enough
// samples on the workloads that report them; a shortfall reads as -1 so
// it shows rather than passing for a measurement.
func mustPct(xs []float64, p float64) float64 {
	v, err := pctOrZero(xs, p)
	if err != nil {
		return -1
	}
	return v
}

// genRate times synth.TraceFor over the workload's profiles at its
// instruction budget: the generator alone, outside any cache.
func genRate(profs []*synth.Profile, workload string) float64 {
	n := 400_000
	switch workload {
	case "sweep-traffic":
		n = 2_000_000
	case "svfd-fleet":
		n = fleetTrafficInsts[len(fleetTrafficInsts)-1]
	}
	seen := map[string]bool{}
	var total time.Duration
	var insts int
	for _, p := range profs {
		if seen[p.Fingerprint()] {
			continue
		}
		seen[p.Fingerprint()] = true
		prog, err := sim.ProgramFor(p)
		if err != nil {
			return -1
		}
		t0 := time.Now()
		insts += len(synth.TraceFor(prog, n))
		total += time.Since(t0)
	}
	return ratio(float64(insts)/1e6, total.Seconds())
}
