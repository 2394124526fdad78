package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"svf/internal/journal"
	"svf/internal/pipeline"
	"svf/internal/service"
	"svf/internal/sim"
	"svf/internal/synth"
)

// The svfd-fleet workload: the real daemon with one worker process per
// core, driven by a closed loop of one client per core. Each client
// submits a job, streams its results to the end, then submits the next.
const (
	fleetSetups  = 3 // daemon start + warm-up, repeated for the setup_s median
	warmCells    = 4 // untimed warm-up cells per profile
	repeatOneIn  = 4 // about one submission in four repeats an earlier job
	maxJobCells  = 4 // a job holds 1..maxJobCells cells
	drainTimeout = 30 * time.Second
	// minJobs keeps the job_p95_ms tail at least ten jobs deep: the timed
	// phase runs past -seconds (up to four times it) until this many jobs
	// have been submitted.
	minJobs = 240
)

// Cell budgets: a few instruction counts per kind, so each worker's trace
// cache holds every profile's traces (12 × 650k insts in 256 MiB) and a
// cell costs tens of milliseconds of simulation, enough that the
// per-job HTTP and journal work does not dominate.
var (
	fleetRunInsts     = []int{100_000, 200_000}
	fleetTrafficInsts = []int{100_000, 250_000}
)

var trafficPolicies = map[string]pipeline.StackPolicy{
	"svf":        pipeline.PolicySVF,
	"stackcache": pipeline.PolicyStackCache,
	"rse":        pipeline.PolicyRSE,
}

// fleetCells enumerates the distinct cells the job generator draws from:
// run cells across machine width, DL1 ports and size, stack structure,
// predictor, stack size and budget; traffic cells across policy, size,
// budget and context-switch period. 7056 cells, several times what a run
// consumes, so new jobs are new work and repeats are the only reads.
func fleetCells() []*service.CellSpec {
	widths := []func() pipeline.MachineConfig{pipeline.FourWide, pipeline.EightWide, pipeline.SixteenWide}
	stacks := []struct {
		policy       pipeline.StackPolicy
		ports, banks int
	}{
		{pipeline.PolicyNone, 0, 0},
		{pipeline.PolicySVF, 1, 0},
		{pipeline.PolicySVF, 2, 0},
		{pipeline.PolicyStackCache, 2, 0},
		{pipeline.PolicySVF, 0, 2},
	}
	var cells []*service.CellSpec
	for _, prof := range synth.Benchmarks() {
		for _, w := range widths {
			for _, dl1 := range []int{2, 4} {
				for _, dl1Size := range []int{0, 32 << 10} {
					for _, st := range stacks {
						for _, pred := range []sim.PredictorKind{sim.PredPerfect, sim.PredGshare} {
							for _, size := range []int{4 << 10, 8 << 10} {
								for _, n := range fleetRunInsts {
									opt := sim.Options{
										Machine: w(), DL1Ports: dl1, DL1SizeBytes: dl1Size, Policy: st.policy,
										StackPorts: st.ports, SVFBanks: st.banks, Predictor: pred,
										StackSizeBytes: size, MaxInsts: n,
									}
									cells = append(cells, &service.CellSpec{Kind: service.CellRun, Bench: prof.ID(), Opt: &opt})
								}
							}
						}
					}
				}
			}
		}
		for _, pol := range []string{"svf", "stackcache", "rse"} {
			for _, size := range []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10} {
				for _, n := range fleetTrafficInsts {
					for _, period := range []uint64{0, 50_000, 100_000} {
						cells = append(cells, &service.CellSpec{Kind: service.CellTraffic, Bench: prof.ID(),
							Policy: pol, SizeBytes: size, MaxInsts: n, CtxPeriod: period})
					}
				}
			}
		}
	}
	return cells
}

// jobGen draws one client's jobs from the seed: new jobs take the next
// cells of the client's own share of the shuffled cell space; about one
// in repeatOneIn repeats one of the client's earlier jobs verbatim.
type jobGen struct {
	rng   *rand.Rand
	cells []*service.CellSpec
	next  int
	prior [][]byte
}

func newJobGens(seed int64, clients int) []*jobGen {
	all := fleetCells()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	gens := make([]*jobGen, clients)
	for c := range gens {
		g := &jobGen{rng: rand.New(rand.NewSource(seed*1000 + int64(c) + 1))}
		for i := c; i < len(all); i += clients {
			g.cells = append(g.cells, all[i])
		}
		gens[c] = g
	}
	return gens
}

// job returns the next submission body. When the client's share runs out
// it starts over, and those cells become cache hits.
func (g *jobGen) job() []byte {
	if len(g.prior) > 0 && g.rng.Intn(repeatOneIn) == 0 {
		return g.prior[g.rng.Intn(len(g.prior))]
	}
	k := 1 + g.rng.Intn(maxJobCells)
	spec := service.JobSpec{}
	for i := 0; i < k; i++ {
		spec.Cells = append(spec.Cells, g.cells[g.next%len(g.cells)])
		g.next++
	}
	body, err := json.Marshal(spec)
	if err != nil {
		panic(err) // a bug: every field is a plain value
	}
	g.prior = append(g.prior, body)
	return body
}

// warmJob is the untimed warm-up: warmCells tiny runs of every profile,
// profile-major, so each worker builds each profile's program before the
// timed phase starts.
func warmJob() []byte {
	spec := service.JobSpec{}
	for _, prof := range synth.Benchmarks() {
		for i := 0; i < warmCells; i++ {
			spec.Cells = append(spec.Cells, &service.CellSpec{Kind: service.CellRun, Bench: prof.ID(), Opt: &sim.Options{MaxInsts: 2000 + i}})
		}
	}
	body, _ := json.Marshal(spec)
	return body
}

// daemon is one svfd process under the harness's control.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://addr
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
	stderr *tailBuffer
}

// tailBuffer keeps the last few KiB of the daemon's stderr for error
// reports; the daemon logs a line per job.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 8<<10 {
		t.buf = append([]byte(nil), t.buf[len(t.buf)-4<<10:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// startDaemon launches svfd and returns once /readyz answers 200.
func startDaemon(ctx context.Context, svfd, dir string, workers int) (*daemon, error) {
	cmd := exec.Command(svfd, "-listen", "127.0.0.1:0", "-workers", strconv.Itoa(workers),
		"-journal", dir, "-drain-timeout", drainTimeout.String())
	d := &daemon{cmd: cmd, exited: make(chan struct{}), stderr: &tailBuffer{}}
	cmd.Stderr = d.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start svfd: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "svfd: listening on "); ok {
				addr <- a
			}
		}
		// Wait only after stdout is drained, as os/exec requires.
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, fmt.Errorf("svfd exited before listening: %v\n%s", d.err, d.stderr)
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, errors.New("svfd did not report its listener within 60s")
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("svfd exited before ready: %v\n%s", d.err, d.stderr)
		case <-ctx.Done():
			d.kill()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM and requires exit status 0 within the drain timeout.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal svfd: %w", err)
	}
	select {
	case <-d.exited:
		if d.err != nil {
			return fmt.Errorf("svfd drain: %v\n%s", d.err, d.stderr)
		}
		return nil
	case <-time.After(drainTimeout + 5*time.Second):
		d.kill()
		return fmt.Errorf("svfd did not exit within %s of SIGTERM", drainTimeout)
	}
}

// kill ends a daemon that is still running and waits for it; its workers
// see their pipes close and exit on their own.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// client is one closed-loop caller's HTTP session (one keep-alive
// connection, since it has at most one request outstanding).
type client struct {
	http *http.Client
	base string
}

// submitted is the outcome of one job submission.
type submitted struct {
	spec     *service.JobSpec
	id       string
	deduped  bool
	code     int
	submitMS float64
	jobMS    float64
	lines    []resultLine
	traced   bool
	spans    []span
	err      error
}

// resultLine mirrors one NDJSON record of /v1/jobs/{id}/results.
type resultLine struct {
	Index   int         `json:"index"`
	Kind    string      `json:"kind"`
	Bench   string      `json:"bench"`
	Key     string      `json:"key"`
	Status  string      `json:"status"`
	Error   string      `json:"error"`
	Result  *sim.Result `json:"result"`
	Traffic *struct {
		QWIn     uint64 `json:"qw_in"`
		QWOut    uint64 `json:"qw_out"`
		CtxBytes uint64 `json:"ctx_bytes"`
	} `json:"traffic"`
}

// do submits one job and streams its results to the end. The job's time
// runs from the POST to the last results line.
func (c *client) do(body []byte, fetchTrace bool) *submitted {
	s := &submitted{}
	spec, err := service.ParseJobSpec(body)
	if err != nil {
		s.err = err
		return s
	}
	s.spec = spec
	t0 := time.Now()
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return s
	}
	s.submitMS = msOf(time.Since(t0))
	s.code = resp.StatusCode
	var ack struct {
		ID         string `json:"id"`
		Deduped    bool   `json:"deduped"`
		ResultsURL string `json:"results_url"`
		TraceURL   string `json:"trace_url"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if s.code != http.StatusAccepted && s.code != http.StatusOK {
		s.err = fmt.Errorf("submit: HTTP %d", s.code)
		return s
	}
	if err != nil {
		s.err = fmt.Errorf("submit: decode: %w", err)
		return s
	}
	s.id, s.deduped = ack.ID, ack.Deduped
	resp, err = c.http.Get(c.base + ack.ResultsURL)
	if err != nil {
		s.err = err
		return s
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var l resultLine
		if err := dec.Decode(&l); err != nil {
			if !errors.Is(err, io.EOF) {
				s.err = fmt.Errorf("results: %w", err)
			}
			break
		}
		s.lines = append(s.lines, l)
	}
	resp.Body.Close()
	s.jobMS = msOf(time.Since(t0))
	if s.err == nil && resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("results: HTTP %d", resp.StatusCode)
	}
	if s.err == nil && len(s.lines) != len(spec.Cells) {
		s.err = fmt.Errorf("results: %d lines for %d cells", len(s.lines), len(spec.Cells))
	}
	for _, l := range s.lines {
		if s.err == nil && l.Status != service.CellDone {
			s.err = fmt.Errorf("cell %d (%s): %s %s", l.Index, l.Bench, l.Status, l.Error)
		}
	}
	if fetchTrace && s.err == nil && !s.deduped {
		s.traced = true
		s.spans, s.err = c.trace(ack.TraceURL)
	}
	return s
}

// trace fetches and decodes a job's span tree.
func (c *client) trace(url string) ([]span, error) {
	resp, err := c.http.Get(c.base + url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace: HTTP %d", resp.StatusCode)
	}
	return decodeSpans(resp.Body)
}

// metrics scrapes /metrics (classic text format) and sums each metric
// over its label sets.
func (c *client) metrics() (map[string]float64, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (map[string]float64, error) {
	m := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) < 2 {
			continue
		}
		name := fs[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(fs[len(fs)-1], 64)
		if err != nil {
			continue
		}
		m[name] += v
	}
	return m, sc.Err()
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{Timeout: 120 * time.Second}}
}

// setupFleet starts a daemon on a fresh journal directory and runs the
// warm-up job; it returns the daemon and how long that took.
func setupFleet(ctx context.Context, o options, dir string) (*daemon, float64, error) {
	t0 := time.Now()
	d, err := startDaemon(ctx, o.svfd, dir, runtime.NumCPU())
	if err != nil {
		return nil, 0, err
	}
	if s := newClient(d.base).do(warmJob(), false); s.err != nil {
		d.kill()
		return nil, 0, fmt.Errorf("warm-up job: %w\n%s", s.err, d.stderr)
	}
	return d, time.Since(t0).Seconds(), nil
}

// fleetRun is the raw record of one timed phase.
type fleetRun struct {
	jobs   []*submitted
	wall   float64 // seconds, first POST to last results line
	before treeUsage
	after  treeUsage
	m0, m1 map[string]float64
}

func runFleet(ctx context.Context, o options) (*report, error) {
	rep := &report{}
	var setups []float64
	var d *daemon
	var dir string
	for i := 0; i < fleetSetups; i++ {
		dir = filepath.Join(o.tmp, fmt.Sprintf("svfd-%d", i))
		var s float64
		var err error
		if d, s, err = setupFleet(ctx, o, dir); err != nil {
			return nil, err
		}
		setups = append(setups, s)
		if i == fleetSetups-1 {
			break
		}
		if err := d.stop(); err != nil {
			return nil, err
		}
		os.RemoveAll(dir)
	}
	defer d.kill()

	run, err := timedFleet(ctx, o, d)
	if err != nil {
		return nil, err
	}
	// Lifecycle: peak RSS is read while the daemon and workers live, then
	// SIGTERM must drain to exit 0.
	deaths := run.m1["svf_shard_worker_deaths_total"] - run.m0["svf_shard_worker_deaths_total"]
	rep.notes = append(rep.notes, fmt.Sprintf("svf_shard_worker_deaths_total=%g", run.m1["svf_shard_worker_deaths_total"]))
	if deaths > 0 {
		rep.errors = append(rep.errors, fmt.Sprintf("%g worker deaths during the timed phase", deaths))
	}
	if err := d.stop(); err != nil {
		rep.errors = append(rep.errors, "lifecycle: "+err.Error())
	}
	return fleetReport(o, rep, run, setups, dir)
}

// timedFleet runs the closed loop for o.seconds and reads the daemon's
// /proc accounting and /metrics around it.
func timedFleet(ctx context.Context, o options, d *daemon) (*fleetRun, error) {
	nproc := runtime.NumCPU()
	scrape := newClient(d.base)
	run := &fleetRun{}
	var err error
	if run.m0, err = scrape.metrics(); err != nil {
		return nil, err
	}
	pid := d.cmd.Process.Pid
	if run.before, err = proc.usage(pid); err != nil {
		return nil, err
	}
	gens := newJobGens(o.seed, nproc)
	var mu sync.Mutex
	var wg sync.WaitGroup
	dur := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	more := func() bool {
		mu.Lock()
		n := len(run.jobs)
		mu.Unlock()
		el := time.Since(start)
		return el < dur || (n < minJobs && el < 4*dur)
	}
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func(g *jobGen) {
			defer wg.Done()
			cl := newClient(d.base)
			// A traced run fetches the trace of every other job: the
			// per-layer numbers come from those, the tracing overhead from
			// comparing them with the jobs in between.
			for i := 0; ctx.Err() == nil && more(); i++ {
				traced := o.trace && i%2 == 1
				s := cl.do(g.job(), traced)
				s.traced = traced
				mu.Lock()
				run.jobs = append(run.jobs, s)
				mu.Unlock()
			}
		}(gens[c])
	}
	wg.Wait()
	run.wall = time.Since(start).Seconds()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if run.after, err = proc.usage(pid); err != nil {
		return nil, err
	}
	if run.m1, err = scrape.metrics(); err != nil {
		return nil, err
	}
	return run, nil
}

// cellCounters renders a result line in the digest format.
func lineCounters(c *service.CellSpec, l resultLine) string {
	if c.Kind == service.CellRun {
		if l.Result == nil {
			return "missing result"
		}
		return runLine(l.Result)
	}
	if l.Traffic == nil {
		return "missing traffic counters"
	}
	return trafficLine(c.BenchID(), trafficPolicies[c.Policy], c.SizeBytes, c.MaxInsts, c.CtxPeriod, l.Traffic.QWIn, l.Traffic.QWOut, l.Traffic.CtxBytes)
}

// inProcess runs one cell in this process, untimed by the benchmark's
// end-to-end metrics, for the correctness check.
func inProcess(ctx context.Context, c *service.CellSpec) (string, time.Duration, error) {
	prof := synth.ByName(c.Bench)
	if prof == nil {
		return "", 0, fmt.Errorf("unknown bench %s", c.Bench)
	}
	t0 := time.Now()
	if c.Kind == service.CellRun {
		res, err := sim.RunContext(ctx, prof, *c.Opt)
		if err != nil {
			return "", 0, err
		}
		return runLine(res), time.Since(t0), nil
	}
	in, out, cb, err := sim.TrafficOnly(ctx, prof, trafficPolicies[c.Policy], c.SizeBytes, c.MaxInsts, c.CtxPeriod)
	if err != nil {
		return "", 0, err
	}
	return trafficLine(c.BenchID(), trafficPolicies[c.Policy], c.SizeBytes, c.MaxInsts, c.CtxPeriod, in, out, cb), time.Since(t0), nil
}

// verified is the in-process reference for one distinct cell.
type verified struct {
	line string
	dur  time.Duration
	err  error
}

// verifyFleet re-runs every distinct cell the timed phase returned, in
// process and on nproc goroutines, and marks each job whose result lines
// disagree as failed. It returns the reference runs by cell key.
func verifyFleet(ctx context.Context, jobs []*submitted) map[string]*verified {
	ref := map[string]*verified{}
	var todo []*service.CellSpec
	for _, s := range jobs {
		if s.spec == nil {
			continue
		}
		for _, c := range s.spec.Cells {
			if _, ok := ref[c.Key()]; !ok {
				ref[c.Key()] = &verified{}
				todo = append(todo, c)
			}
		}
	}
	var wg sync.WaitGroup
	next := make(chan *service.CellSpec)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				v := ref[c.Key()] // the map is only read here
				v.line, v.dur, v.err = inProcess(ctx, c)
			}
		}()
	}
	for _, c := range todo {
		next <- c
	}
	close(next)
	wg.Wait()
	for _, s := range jobs {
		if s.err != nil || s.spec == nil {
			continue
		}
		for i, c := range s.spec.Cells {
			v := ref[c.Key()]
			if v.err != nil {
				s.err = fmt.Errorf("in-process %s: %w", c.BenchID(), v.err)
				break
			}
			if got := lineCounters(c, s.lines[i]); got != v.line {
				s.err = fmt.Errorf("cell %d mismatch:\n  svfd:       %s\n  in-process: %s", i, got, v.line)
				break
			}
		}
	}
	return ref
}

// cellInsts is the simulated instructions one executed cell accounts for:
// committed instructions for a timing cell, streamed ones for traffic.
func cellInsts(c *service.CellSpec, l resultLine) uint64 {
	if c.Kind == service.CellRun {
		if l.Result == nil {
			return 0
		}
		return l.Result.Pipe.Committed
	}
	return uint64(c.MaxInsts)
}

func fleetReport(o options, rep *report, run *fleetRun, setups []float64, dir string) (*report, error) {
	ctx := context.Background()
	// Build this process's programs (the synth layer's cost, timed), then
	// check every result line against an in-process run of its cell.
	t0 := time.Now()
	for _, p := range synth.Benchmarks() {
		if _, err := sim.ProgramFor(p); err != nil {
			return nil, err
		}
	}
	buildS := time.Since(t0).Seconds()
	ref := verifyFleet(ctx, run.jobs)

	// Executed work: a cell is simulated the first time its key completes
	// in a non-deduplicated job; later requests are cache reads.
	executed := map[string]bool{}
	var insts, tracedInsts, plainInsts uint64
	var jobMS, submitMS, tracedMS, plainMS []float64
	var tracedS, plainS float64
	done := 0
	for _, s := range run.jobs {
		rep.attempted++
		if s.err != nil {
			rep.failed++
			if len(rep.errors) < 5 {
				rep.errors = append(rep.errors, s.err.Error())
			}
			continue
		}
		done++
		jobMS = append(jobMS, s.jobMS)
		submitMS = append(submitMS, s.submitMS)
		var n uint64
		for i, c := range s.spec.Cells {
			if !s.deduped && !executed[c.Key()] {
				executed[c.Key()] = true
				n += cellInsts(c, s.lines[i])
			}
		}
		insts += n
		if s.traced {
			tracedMS = append(tracedMS, s.jobMS)
			tracedInsts += n
			tracedS += s.jobMS / 1e3
		} else {
			plainMS = append(plainMS, s.jobMS)
			plainInsts += n
			plainS += s.jobMS / 1e3
		}
	}
	cpu := (run.after.SelfCPU - run.before.SelfCPU) + (run.after.ChildCPU - run.before.ChildCPU)
	rep.notes = append(rep.notes, fmt.Sprintf("%d jobs (%d done), %d distinct cells simulated, %d workers, %.1f s timed",
		len(run.jobs), done, len(executed), run.after.Children, run.wall))
	if run.after.Children != runtime.NumCPU() {
		rep.errors = append(rep.errors, fmt.Sprintf("found %d worker processes, want %d", run.after.Children, runtime.NumCPU()))
	}

	if !o.trace {
		p50, err := percentile(jobMS, 0.5)
		if err != nil {
			return nil, fmt.Errorf("job_p50_ms: %w", err)
		}
		p95, err := percentile(jobMS, 0.95)
		if err != nil {
			return nil, fmt.Errorf("job_p95_ms: %w", err)
		}
		rep.metrics = map[string]float64{
			"setup_s":         median(setups),
			"sim_minst_per_s": float64(insts) / run.wall / 1e6,
			"cpu_ns_per_inst": cpu * 1e9 / float64(insts),
			"peak_rss_mb":     run.after.HWMMB,
			"jobs_per_s":      float64(done) / run.wall,
			"job_p50_ms":      p50,
			"job_p95_ms":      p95,
		}
		return rep, nil
	}

	m := map[string]float64{}
	delta := func(name string) float64 { return run.m1[name] - run.m0[name] }
	tp50, err1 := percentile(tracedMS, 0.5)
	pp50, err2 := percentile(plainMS, 0.5)
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("overhead.job_p50_ms: %v %v", err1, err2)
	}
	m["overhead.job_p50_ms"] = tp50 - pp50
	// Per-job simulated rate: instructions a job class executed over the
	// time its jobs were open.
	m["overhead.sim_minst_per_s"] = ratio(float64(tracedInsts)/1e6, tracedS) - ratio(float64(plainInsts)/1e6, plainS)

	m["synth.build_s"] = buildS
	m["synth.gen_minst_per_s"] = genRate(synth.Benchmarks(), o.workload)

	sp := fleetSpans(run.jobs, ref)
	m["sim.run_cells"] = float64(len(sp.runMS))
	m["sim.run_busy_s"] = sp.runBusy / 1e3
	m["sim.run_ns_per_cycle"] = ratio(sp.runBusy*1e6, float64(sp.runCycles))
	m["sim.run_cell_p50_ms"] = mustPct(sp.runMS, 0.5)
	m["sim.traffic_cells"] = float64(len(sp.trafficMS))
	m["sim.traffic_busy_s"] = sp.trafficBusy / 1e3
	m["sim.traffic_minst_per_s"] = ratio(float64(sp.trafficInsts)/1e6, sp.trafficBusy/1e3)

	m["runcache.misses"] = float64(len(executed))
	m["runcache.hits"] = delta("svf_cache_hits_total")
	m["runcache.requests"] = m["runcache.misses"] + m["runcache.hits"]
	m["runcache.shared"] = float64(sp.joins)
	m["runcache.retried"] = delta("svf_sim_retries_total")
	m["runcache.hit_ratio"] = ratio(m["runcache.hits"], m["runcache.requests"])

	var err error
	if m["journal.appends"], err = journalRecords(dir); err != nil {
		return nil, err
	}

	m["service.submit_p50_ms"] = mustPct(submitMS, 0.5)
	m["service.submit_p95_ms"] = mustPct(submitMS, 0.95)
	m["service.queue_p50_ms"] = mustPct(sp.queueMS, 0.5)
	m["service.queue_p95_ms"] = mustPct(sp.queueMS, 0.95)
	m["service.deduped"] = delta("svf_service_jobs_deduped_total")
	m["service.rejected"] = delta("svf_service_rejected_total")
	m["service.daemon_cpu_s"] = run.after.SelfCPU - run.before.SelfCPU

	m["shard.assigned"] = delta("svf_shard_assigned_total")
	m["shard.reenqueued"] = delta("svf_shard_reenqueued_total")
	m["shard.worker_deaths"] = delta("svf_shard_worker_deaths_total")
	m["shard.lease_wait_p50_ms"] = mustPct(sp.leaseWaitMS, 0.5)
	m["shard.worker_run_p50_ms"] = mustPct(sp.workerRunMS, 0.5)
	m["shard.overhead_p50_ms"] = mustPct(sp.overheadMS, 0.5)
	m["shard.worker_cpu_s"] = run.after.ChildCPU - run.before.ChildCPU
	zeroLayers(m, sweepOnlyLayers)
	rep.metrics = m
	return rep, nil
}

// journalRecords replays the stopped daemon's two journals (cells and
// jobs) and counts the records they hold, live and superseded.
func journalRecords(dir string) (float64, error) {
	var n int
	for _, sub := range []string{"cells", "jobs"} {
		j, rep, err := journal.Open(filepath.Join(dir, sub), journal.Options{NoAutoCompact: true})
		if err != nil {
			return 0, fmt.Errorf("replay %s journal: %w", sub, err)
		}
		n += rep.Stats.Live + rep.Stats.Obsolete
		j.Close()
	}
	return float64(n), nil
}
