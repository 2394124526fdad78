package sim

// Run-to-run reuse. A campaign is thousands of runs drawn from a small
// set of workloads and machine shapes, so almost everything a run builds
// is rebuilt identically moments later. Two process-wide stores exploit
// that:
//
//   - traceCache records each (workload fingerprint, instruction budget)
//     pair's generator output once and replays the flat buffer for every
//     later run, so only the first run of a profile pays for generator
//     execution.
//   - machinePool / hierPool recycle pipeline and cache-hierarchy
//     allocations across runs: Reset is a handful of memclrs over rings
//     that are already the right size, and a reset machine is
//     bit-identical to a fresh one (the golden fixture holds it to that).
//
// Both stores are transparent: a budget-evicted or oversize trace falls
// back to live generation, and a faulted run's machine or hierarchy is
// dropped rather than pooled. Timing runs and functional traffic runs
// share both stores.

import (
	"sync"

	"svf/internal/cache"
	"svf/internal/isa"
	"svf/internal/pipeline"
	"svf/internal/synth"
	"svf/internal/trace"
	"svf/internal/tracecache"
)

// DefaultTraceCacheBytes is the recorded-trace budget when no override is
// set. A trace costs 32 B per instruction, so 256 MiB holds eight
// 1M-instruction traces but only four of the 2M-instruction traces a
// Table 3/4 traffic sweep records (61 MiB each): such a sweep evicts, and
// Table 4 re-records profiles that Table 3 pushed out.
const DefaultTraceCacheBytes = 256 << 20

var traceCache = tracecache.New(DefaultTraceCacheBytes)

// SetTraceCacheBudget rebounds the process-wide recorded-trace cache (the
// -trace-cache-mb flag lands here). Non-positive disables recording.
func SetTraceCacheBudget(bytes int64) { traceCache.SetBudget(bytes) }

// TraceCacheStats exposes the trace cache's counters (tests, status dumps).
func TraceCacheStats() tracecache.Stats { return traceCache.Stats() }

// recordedTrace returns the recorded first n instructions of prog, to be
// read in place, recording them when the budget allows; nil means the
// caller must run the generator live (oversize, disabled, or abandoned).
// A panic while recording (a faulty profile) abandons the recording, so
// the panic surfaces inside the supervised run exactly as it did before
// the cache existed.
func recordedTrace(prog *synth.Program, fp string, n int) []isa.Inst {
	return traceCache.Get(tracecache.Key{FP: fp, N: n}, func() (insts []isa.Inst) {
		defer func() { _ = recover() }()
		return synth.TraceFor(prog, n)
	})
}

// cachedStream returns the first n instructions of prog as a stream: a
// replay of the recorded trace when there is one, else the live generator.
func cachedStream(prog *synth.Program, fp string, n int) trace.Stream {
	if insts := recordedTrace(prog, fp, n); insts != nil {
		return trace.NewSliceStream(insts)
	}
	return synth.NewGeneratorFor(prog)
}

// machinePool recycles pipelines across runs; Reset re-fits whatever
// rings already match the next configuration.
var machinePool pipeline.Pool

// hierPool recycles cache hierarchies, keyed by exact configuration so a
// recycled hierarchy's geometry (and thus behaviour) matches a fresh one.
var hierPool = struct {
	sync.Mutex
	free map[cache.HierarchyConfig][]*cache.Hierarchy
	n    int
}{free: make(map[cache.HierarchyConfig][]*cache.Hierarchy)}

// hierPoolMax bounds retained hierarchies across all configurations.
const hierPoolMax = 16

// getHierarchy returns a cold hierarchy for cfg, recycling a pooled one
// when available.
func getHierarchy(cfg cache.HierarchyConfig) (*cache.Hierarchy, error) {
	hierPool.Lock()
	if l := hierPool.free[cfg]; len(l) > 0 {
		h := l[len(l)-1]
		l[len(l)-1] = nil
		hierPool.free[cfg] = l[:len(l)-1]
		hierPool.n--
		hierPool.Unlock()
		h.Reset()
		return h, nil
	}
	hierPool.Unlock()
	return cache.NewHierarchy(cfg)
}

// putHierarchy returns a hierarchy to the pool once its stats have been
// harvested. Callers must not touch h afterwards.
func putHierarchy(cfg cache.HierarchyConfig, h *cache.Hierarchy) {
	hierPool.Lock()
	if hierPool.n < hierPoolMax {
		hierPool.free[cfg] = append(hierPool.free[cfg], h)
		hierPool.n++
	}
	hierPool.Unlock()
}
