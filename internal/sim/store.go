package sim

import (
	"context"
	"encoding/json"
	"sync"

	"svf/internal/journal"
	"svf/internal/pipeline"
	"svf/internal/synth"
)

// ResultStore is the storage backend behind a RunCache: it persists
// completed cells as journal records, remembers per-cell fault attempts so
// the bounded-retry supervision survives the cache (and, with a journal,
// the process), and gates cells whose budget is exhausted.
//
// MemStore is the one implementation, with or without a write-through
// journal (NewRunCacheWithJournal attaches one); the interface is the seam
// a decorator wraps, e.g. to time each Put.
//
// All methods must be safe for concurrent use.
type ResultStore interface {
	// Put persists a completed cell, superseding any fault state for it.
	Put(rec journal.Record)
	// Fault persists one failed execution attempt (cumulative count);
	// permanent latches the cell so Gate refuses it from now on.
	Fault(key, bench string, attempts uint32, permanent bool, cause error)
	// Gate returns the cell's *LatchedError when its recorded attempts
	// meet or exceed budget, nil when it may (re)execute.
	Gate(key string, budget uint32) error
	// PriorAttempts returns how many times the cell has already failed,
	// including (for durable backends) in previous sessions.
	PriorAttempts(key string) uint32
	// Restored reports whether the cell was seeded from a previous
	// session (journal replay); the telemetry layer uses it to tell a
	// cache_restore from an ordinary cache_hit.
	Restored(key string) bool
}

// MemStore is the ResultStore: fault attempts, permanent latches and the
// keys a journal replay restored, held in maps. Without a journal the
// state lasts the process lifetime — what a sharded campaign without
// -journal needs so a poison cell stays latched. With one, every Put and
// Fault is also appended durably and the state survives kill -9.
// Completed results live in the RunCache itself, not here.
type MemStore struct {
	// j, when non-nil, receives every Put and Fault as a durable append.
	// Append failures only cost durability (the in-memory state is
	// already good); the journal counts them in Stats().AppendErrors.
	j *journal.Journal

	mu sync.Mutex
	// attempts maps a cell key to its cumulative failed executions.
	attempts map[string]uint32
	// latched maps a cell key to its permanent-failure record.
	latched map[string]*LatchedError
	// restored marks the cell keys seeded from the journal replay.
	restored map[string]bool
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{
		attempts: map[string]uint32{},
		latched:  map[string]*LatchedError{},
		restored: map[string]bool{},
	}
}

// Put implements ResultStore.
func (s *MemStore) Put(rec journal.Record) {
	s.mu.Lock()
	delete(s.attempts, rec.Key)
	delete(s.latched, rec.Key)
	s.mu.Unlock()
	if s.j != nil {
		_ = s.j.Append(rec) // counted in the journal's AppendErrors; see j
	}
}

// Fault implements ResultStore.
func (s *MemStore) Fault(key, bench string, attempts uint32, permanent bool, cause error) {
	poison := isPermanentFault(cause)
	s.mu.Lock()
	if permanent {
		s.latched[key] = &LatchedError{Bench: bench, Key: key, Attempts: attempts, Msg: cause.Error(), Poison: poison}
		delete(s.attempts, key)
	} else {
		s.attempts[key] = attempts
	}
	s.mu.Unlock()
	if s.j == nil {
		return
	}
	data, err := json.Marshal(faultPayload{Bench: bench, Msg: cause.Error(), Poison: poison})
	if err != nil {
		return
	}
	_ = s.j.Append(journal.Record{Kind: recKindFault, Key: key, Attempts: attempts, Permanent: permanent, Data: data})
}

// Gate implements ResultStore. The latch stores attempts rather than a
// verdict: raising the budget past Attempts makes the cell retryable
// again — except for poison latches, which hold at any budget (the
// quarantine counted worker deaths, not attempts).
func (s *MemStore) Gate(key string, budget uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.latched[key]; e != nil && (e.Poison || e.Attempts >= budget) {
		return e
	}
	return nil
}

// PriorAttempts implements ResultStore.
func (s *MemStore) PriorAttempts(key string) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.latched[key]; e != nil {
		return e.Attempts
	}
	return s.attempts[key]
}

// Restored implements ResultStore: whether key was seeded by a journal
// replay (always false without one).
func (s *MemStore) Restored(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restored[key]
}

// NewRunCacheWithStore returns a cache whose cell state lives in store:
// completed cells are Put, failed attempts accumulate across the store's
// lifetime under the retry budget with backoff, and latched cells are
// refused at the gate. Pass a MemStore for process-lifetime semantics;
// NewRunCacheWithJournal builds one with a journal attached and replayed.
func NewRunCacheWithStore(store ResultStore) *RunCache {
	c := NewRunCache()
	c.store = store
	return c
}

// Store returns the cache's result store (nil for a plain cache).
func (c *RunCache) Store() ResultStore { return c.store }

// Executor replaces the local execution of cache misses — the seam the
// shard coordinator plugs its worker pool into. Everything above it
// (single-flight dedup, the retry/backoff budget, journaling, latching,
// telemetry) is unchanged; only the raw simulation moves out of process.
//
// Executors must honour the *Fault contract: a contained simulation
// failure (including a worker death or an expired lease, which are faults
// of the fleet rather than of the machine model) comes back as an error
// matching *Fault so the cache's bounded retry re-enqueues the cell, while
// configuration errors and context cancellation come back untyped and are
// not retried. An error additionally implementing PermanentFaulter latches
// the cell immediately, budget or not — the poison-cell quarantine path.
type Executor interface {
	ExecRun(ctx context.Context, prof *synth.Profile, opt Options) (*Result, error)
	ExecTraffic(ctx context.Context, prof *synth.Profile, policy pipeline.StackPolicy, sizeBytes, maxInsts int, ctxPeriod uint64) (qwIn, qwOut, ctxBytes uint64, err error)
}

// SetExecutor routes this cache's simulations through ex instead of running
// them in process. Characterisation passes stay local: they are cheap
// functional passes not worth a round trip. Call before the sweep starts;
// the cache does not synchronise against a concurrent swap.
func (c *RunCache) SetExecutor(ex Executor) { c.exec = ex }

// PermanentFaulter marks an error that must latch its cell immediately:
// retrying cannot help. The shard coordinator's poison-cell error (a cell
// that has killed K distinct workers) implements it; the cache latches such
// cells in the store even when retry budget remains.
type PermanentFaulter interface {
	PermanentFault() bool
}

// IsPermanentFault reports whether err carries the immediate-latch marker
// anywhere in its unwrap chain.
func IsPermanentFault(err error) bool {
	for e := err; e != nil; e = unwrapOnce(e) {
		if pf, ok := e.(PermanentFaulter); ok && pf.PermanentFault() {
			return true
		}
	}
	return false
}

// isPermanentFault is the package-internal alias.
func isPermanentFault(err error) bool { return IsPermanentFault(err) }

// unwrapOnce is errors.Unwrap without the multi-error fan-out (a linear
// chain is all the cache ever builds).
func unwrapOnce(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}

// storeRestored reports whether the store seeded this key from a previous
// session; nil-safe for plain in-memory caches.
func (c *RunCache) storeRestored(key string) bool {
	if c.store == nil || key == "" {
		return false
	}
	return c.store.Restored(key)
}
