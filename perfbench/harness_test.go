package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"svf/internal/pipeline"
	"svf/internal/sim"
)

func samples(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		p  float64
		n  int
		ok bool
	}{
		{0.5, 19, false}, {0.5, 20, true},
		{0.95, 199, false}, {0.95, 200, true},
		{0.99, 999, false}, {0.99, 1000, true},
	} {
		_, err := percentile(samples(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("percentile(p%g, %d samples): err=%v, want ok=%v", c.p*100, c.n, err, c.ok)
		}
	}
	if _, err := pctOrZero(nil, 0.95); err != nil {
		t.Errorf("pctOrZero of an idle layer: %v", err)
	}
	if got, _ := percentile(samples(21), 0.5); got != 10 {
		t.Errorf("p50 of 0..20 = %v, want 10", got)
	}
	if got, _ := percentile(samples(201), 0.95); got != 190 {
		t.Errorf("p95 of 0..200 = %v, want 190", got)
	}
}

func TestDigestTripsOnOneCounter(t *testing.T) {
	res := func() *sim.Result {
		r := &sim.Result{Bench: "176.gcc", SVFQWIn: 7, SVFQWOut: 9, SCCtxBytes: 3}
		r.Pipe.Cycles, r.Pipe.Committed, r.DL1.Accesses = 1000, 800, 300
		return r
	}
	lines := func(r *sim.Result) []string {
		return []string{
			runLine(r),
			trafficLine("176.gcc", pipeline.PolicySVF, 8192, 2_000_000, 0, 11, 12, 0),
		}
	}
	base := digest(lines(res()))
	if got := digest([]string{lines(res())[1], lines(res())[0]}); got != base {
		t.Fatal("digest depends on cell order")
	}
	perturb := map[string]func(*sim.Result){
		"cycles":    func(r *sim.Result) { r.Pipe.Cycles++ },
		"committed": func(r *sim.Result) { r.Pipe.Committed++ },
		"dl1":       func(r *sim.Result) { r.DL1.Accesses++ },
		"svf out":   func(r *sim.Result) { r.SVFQWOut++ },
		"rse in":    func(r *sim.Result) { r.RSEQWIn++ },
		"sc ctx":    func(r *sim.Result) { r.SCCtxBytes++ },
	}
	for name, f := range perturb {
		r := res()
		f(r)
		if digest(lines(r)) == base {
			t.Errorf("perturbing %s left the digest unchanged", name)
		}
	}
	// A counter outside the gated set must not trip it.
	r := res()
	r.IL1.Accesses++
	if digest(lines(r)) != base {
		t.Error("a counter outside the gated set changed the digest")
	}
	if digest(append(lines(res())[:1], trafficLine("176.gcc", pipeline.PolicySVF, 8192, 2_000_000, 0, 11, 13, 0))) == base {
		t.Error("perturbing a traffic counter left the digest unchanged")
	}
	if err := checkDigest("sweep-timing", base); err == nil {
		t.Error("checkDigest accepted a digest that is not the reference")
	}
}

// writeProc lays out one fake /proc/<pid> entry.
func writeProc(t *testing.T, root string, pid, ppid int, comm string, utime, stime, hwmKB int) {
	t.Helper()
	dir := filepath.Join(root, fmt.Sprint(pid))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	stat := fmt.Sprintf("%d (%s) S %d %d %d 0 -1 4194304 100 0 0 0 %d %d 0 0 20 0 3 0\n", pid, comm, ppid, pid, pid, utime, stime)
	status := fmt.Sprintf("Name:\t%s\nVmPeak:\t 999999 kB\nVmHWM:\t %d kB\nVmRSS:\t 100 kB\n", comm, hwmKB)
	if err := os.WriteFile(filepath.Join(dir, "stat"), []byte(stat), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "status"), []byte(status), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestProcUsageSumsDaemonAndWorkers(t *testing.T) {
	root := t.TempDir()
	writeProc(t, root, 100, 1, "svfd", 150, 50, 10240)
	writeProc(t, root, 101, 100, "svfd", 300, 100, 20480)
	writeProc(t, root, 102, 100, "odd) name (x", 200, 0, 30720) // ')' inside comm
	writeProc(t, root, 200, 1, "other", 9999, 9999, 999999)     // not a child
	writeProc(t, root, 300, 101, "grandchild", 9999, 9999, 999999)
	if err := os.MkdirAll(filepath.Join(root, "self"), 0o755); err != nil {
		t.Fatal(err)
	}
	u, err := procTree{root: root}.usage(100)
	if err != nil {
		t.Fatal(err)
	}
	if u.Children != 2 || u.SelfCPU != 2 || u.ChildCPU != 6 || u.HWMMB != 60 {
		t.Fatalf("usage = %+v, want 2 children, self 2s, children 6s, 60 MB", u)
	}
}

func TestProcUsageLive(t *testing.T) {
	cmd := exec.Command("sleep", "5")
	if err := cmd.Start(); err != nil {
		t.Skip("no sleep binary:", err)
	}
	defer func() { _ = cmd.Process.Kill(); _ = cmd.Wait() }()
	u, err := proc.usage(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	self, err := proc.hwmMB(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if u.Children < 1 || u.HWMMB <= self {
		t.Fatalf("usage = %+v: the sleep child is not summed in (self VmHWM %.1f MB)", u, self)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "parent", ID: "p", TS: 0, Dur: 100},
		{Name: "a", ID: "a", Parent: "p", TS: 10, Dur: 20},
		{Name: "b", ID: "b", Parent: "p", TS: 20, Dur: 30},
		{Name: "c", ID: "c", Parent: "p", TS: 90, Dur: 30},
	}
	if got := selfTimes(spans)["p"]; got != 50 {
		t.Fatalf("self time = %v, want 50 (100 minus [10,50) and [90,100))", got)
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the harness's
// metric and workload lists in step.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	render := func(ms []metricSpec) string {
		var s []string
		for _, m := range ms {
			s = append(s, m.name+" "+m.unit)
		}
		return strings.Join(s, "\n")
	}
	var e2e, layer []metricSpec
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
	}
	for _, m := range doc.PerLayer {
		layer = append(layer, metricSpec{m.Name, m.Unit})
	}
	if render(e2e) != render(endToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json:\n%s\nharness:\n%s", render(e2e), render(endToEnd))
	}
	if render(layer) != render(perLayer) {
		t.Errorf("per_layer differs:\nBENCHMARK.json:\n%s\nharness:\n%s", render(layer), render(perLayer))
	}
	var names, want []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, harness %v", names, want)
	}
}
