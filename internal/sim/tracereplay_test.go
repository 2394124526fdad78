package sim

import (
	"context"
	"reflect"
	"testing"

	"svf/internal/pipeline"
	"svf/internal/synth"
	"svf/internal/tracecache"
)

// replayInsts is the per-run budget for the replay-equivalence tests:
// big enough to exercise wheel wrap, store-table churn and SVF morphing,
// small enough that 16 profiles × 3 runs stay quick.
const replayInsts = 40_000

// replayOpt exercises the stack structure and port arbitration so the
// comparison covers more than the bare scheduler.
func replayOpt() Options {
	return Options{Policy: pipeline.PolicySVF, StackPorts: 2, MaxInsts: replayInsts}
}

// generatorRun executes prof with a live generator, bypassing the trace
// cache entirely (RunStream never consults it).
func generatorRun(t *testing.T, prof *synth.Profile) *Result {
	t.Helper()
	prog, err := ProgramFor(prof)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunStream(context.Background(), prof.ID(), synth.NewGeneratorFor(prog), replayOpt())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTraceReplayMatchesGenerator holds the trace cache to observational
// equivalence: for every Table 1 SPEC profile and every stack-stress
// family, a run fed by the recorded trace must produce byte-identical
// stats — pipeline counters, every cache level, stack-structure traffic —
// to a run fed by the live generator.
func TestTraceReplayMatchesGenerator(t *testing.T) {
	profiles := append(synth.Benchmarks(), synth.Families()...)
	if len(profiles) < 16 {
		t.Fatalf("expected ≥16 profiles (12 SPEC + 4 families), got %d", len(profiles))
	}
	for _, prof := range profiles {
		prof := prof
		t.Run(prof.ID(), func(t *testing.T) {
			want := generatorRun(t, prof)

			// First cached run records the trace and replays the buffer.
			got1, err := Run(prof, replayOpt())
			if err != nil {
				t.Fatal(err)
			}
			key := tracecache.Key{FP: prof.Fingerprint(), N: replayInsts}
			if !traceCache.Contains(key) {
				t.Fatal("run did not record its trace")
			}
			// Second run replays the recorded entry.
			got2, err := Run(prof, replayOpt())
			if err != nil {
				t.Fatal(err)
			}

			// The generator-fed result came through RunStream, whose
			// identity differs only in fields the stats must not depend on.
			for i, got := range []*Result{got1, got2} {
				if got.Bench != want.Bench {
					t.Fatalf("bench name mismatch: %q vs %q", got.Bench, want.Bench)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("replayed run %d diverges from generator-fed run:\n got %+v\nwant %+v", i+1, got, want)
				}
			}
		})
	}
}

// TestTraceEvictionFallsBackToGenerator pins the transparency guarantee:
// a capacity-evicted (or never-recordable) trace silently regenerates,
// with identical results.
func TestTraceEvictionFallsBackToGenerator(t *testing.T) {
	defer SetTraceCacheBudget(DefaultTraceCacheBytes)
	profiles := synth.Families()
	a, b := profiles[0], profiles[1]

	// Reference results, recorded under a roomy budget.
	SetTraceCacheBudget(DefaultTraceCacheBytes)
	wantA, err := Run(a, replayOpt())
	if err != nil {
		t.Fatal(err)
	}

	// A budget that holds exactly one recorded trace: running b must
	// evict a's recording.
	SetTraceCacheBudget(int64(replayInsts) * 48)
	if _, err := Run(a, replayOpt()); err != nil {
		t.Fatal(err)
	}
	keyA := tracecache.Key{FP: a.Fingerprint(), N: replayInsts}
	if !traceCache.Contains(keyA) {
		t.Fatal("trace for a not recorded under the one-entry budget")
	}
	if _, err := Run(b, replayOpt()); err != nil {
		t.Fatal(err)
	}
	if traceCache.Contains(keyA) {
		t.Fatal("recording b did not evict a under a one-entry budget")
	}
	evicted, err := Run(a, replayOpt())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evicted, wantA) {
		t.Errorf("post-eviction run diverges:\n got %+v\nwant %+v", evicted, wantA)
	}

	// Recording disabled entirely: still identical.
	SetTraceCacheBudget(0)
	bare, err := Run(a, replayOpt())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, wantA) {
		t.Errorf("cache-disabled run diverges:\n got %+v\nwant %+v", bare, wantA)
	}
}

// TestTrafficReplayMatchesGenerator is the functional-traffic counterpart
// of TestTraceReplayMatchesGenerator: for every bundled profile and every
// stack policy, TrafficOnly fed by a recorded trace must return exactly
// what it returns with recording disabled and the live generator feeding
// the loop.
func TestTrafficReplayMatchesGenerator(t *testing.T) {
	defer SetTraceCacheBudget(DefaultTraceCacheBytes)
	const period = replayInsts / 4
	type traffic struct{ in, out, ctxBytes uint64 }
	run := func(prof *synth.Profile, policy pipeline.StackPolicy) traffic {
		t.Helper()
		in, out, cb, err := TrafficOnly(context.Background(), prof, policy, 2<<10, replayInsts, period)
		if err != nil {
			t.Fatalf("%s/%s: %v", prof.ID(), policy, err)
		}
		return traffic{in, out, cb}
	}
	profiles := bundledProfiles()
	if len(profiles) < 16 {
		t.Fatalf("expected ≥16 profiles (12 SPEC + 4 families), got %d", len(profiles))
	}
	for _, prof := range profiles {
		SetTraceCacheBudget(0)
		var live []traffic
		for _, policy := range trafficPolicies {
			live = append(live, run(prof, policy))
		}
		SetTraceCacheBudget(DefaultTraceCacheBytes)
		for i, policy := range trafficPolicies {
			if got := run(prof, policy); got != live[i] {
				t.Errorf("%s/%s: replayed %+v, live generator %+v", prof.ID(), policy, got, live[i])
			}
		}
		if !traceCache.Contains(tracecache.Key{FP: prof.Fingerprint(), N: replayInsts}) {
			t.Errorf("%s: traffic run did not record its trace", prof.ID())
		}
	}
}
