package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"svf/internal/pipeline"
	"svf/internal/synth"
)

// Traffic golden parameters: long enough for several context switches and
// window slides per profile, short enough for every bundled profile.
const (
	trafficGoldenInsts  = 200_000
	trafficGoldenPeriod = 50_000
)

// trafficGoldenRecord is what one functional traffic run must reproduce.
type trafficGoldenRecord struct {
	In, Out, CtxBytes uint64
}

// trafficPolicies are the stack structures the functional traffic loop
// drives.
var trafficPolicies = []pipeline.StackPolicy{pipeline.PolicySVF, pipeline.PolicyStackCache, pipeline.PolicyRSE}

// bundledProfiles is every Table 1 SPEC profile plus every stack-stress
// family.
func bundledProfiles() []*synth.Profile {
	return append(synth.Benchmarks(), synth.Families()...)
}

// TestTrafficGolden pins TrafficOnly byte for byte: every bundled profile
// under the SVF, the stack cache and the RSE, at a small and the default
// structure size, with context switches. The fixture was recorded before
// the traffic loops were merged into one; any quadword of drift fails.
// Rewrite it with `go test ./internal/sim -run TestTrafficGolden
// -update-golden` only when a change is meant to alter traffic.
func TestTrafficGolden(t *testing.T) {
	path := filepath.Join("testdata", "traffic_golden.json")
	got := map[string]trafficGoldenRecord{}
	for _, prof := range bundledProfiles() {
		for _, policy := range trafficPolicies {
			for _, size := range []int{2 << 10, 8 << 10} {
				in, out, cb, err := TrafficOnly(context.Background(), prof, policy, size, trafficGoldenInsts, trafficGoldenPeriod)
				if err != nil {
					t.Fatalf("%s/%s: %v", prof.ID(), policy, err)
				}
				key := fmt.Sprintf("%s/%s/%dKB", prof.ID(), policy, size>>10)
				got[key] = trafficGoldenRecord{In: in, Out: out, CtxBytes: cb}
			}
		}
	}

	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d traffic runs to %s", len(got), path)
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read traffic fixture (use -update-golden to record): %v", err)
	}
	want := map[string]trafficGoldenRecord{}
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("fixture has %d runs, produced %d", len(want), len(got))
	}
	for key, w := range want {
		if g, ok := got[key]; !ok {
			t.Errorf("%s: missing from current run set", key)
		} else if g != w {
			t.Errorf("%s: traffic diverged from fixture: got %+v, want %+v", key, g, w)
		}
	}
}
