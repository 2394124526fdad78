package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"svf/internal/pipeline"
	"svf/internal/sim"
)

// referenceJSON holds the expected sweep digests. Every seed of a sweep
// simulates the same set of cells (the seed only permutes the order the
// fan-out meets them), and the digest is order-free, so one reference
// per sweep serves every seed.
//
//go:embed reference.json
var referenceJSON []byte

// runLine renders the counters the gate checks for one timing cell. Only
// these named fields are hashed, so a model change that adds counters to
// sim.Result does not trip the gate.
func runLine(r *sim.Result) string {
	return fmt.Sprintf("run|%s|cycles=%d|committed=%d|dl1=%d|svf=%d/%d|sc=%d/%d|rse=%d/%d|ctx=%d/%d/%d",
		r.Bench, r.Pipe.Cycles, r.Pipe.Committed, r.DL1.Accesses,
		r.SVFQWIn, r.SVFQWOut, r.SCQWIn, r.SCQWOut, r.RSEQWIn, r.RSEQWOut,
		r.SVFCtxBytes, r.SCCtxBytes, r.RSECtxBytes)
}

// trafficLine renders one functional traffic cell: its identity and the
// three numbers sim.TrafficOnly returns.
func trafficLine(bench string, policy pipeline.StackPolicy, sizeBytes, maxInsts int, period, in, out, ctxBytes uint64) string {
	return fmt.Sprintf("traffic|%s|policy=%d|size=%d|insts=%d|period=%d|qw=%d/%d|ctx=%d",
		bench, policy, sizeBytes, maxInsts, period, in, out, ctxBytes)
}

// digest hashes a multiset of cell lines independently of their order.
func digest(lines []string) string {
	s := append([]string(nil), lines...)
	sort.Strings(s)
	sum := sha256.Sum256([]byte(strings.Join(s, "\n")))
	return hex.EncodeToString(sum[:])
}

// checkDigest compares a sweep's digest with the embedded reference.
func checkDigest(workload, got string) error {
	var ref map[string]string
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return fmt.Errorf("reference.json: %w", err)
	}
	want, ok := ref[workload]
	if !ok {
		return fmt.Errorf("reference.json has no digest for %s (computed %s)", workload, got)
	}
	if got != want {
		return fmt.Errorf("%s counter digest %s, reference %s", workload, got, want)
	}
	return nil
}
