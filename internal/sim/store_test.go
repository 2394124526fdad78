package sim

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"svf/internal/journal"
	"svf/internal/pipeline"
	"svf/internal/synth"
)

// poisonErr is a stand-in for the shard coordinator's quarantine verdict.
type poisonErr struct{ msg string }

func (e *poisonErr) Error() string        { return e.msg }
func (e *poisonErr) PermanentFault() bool { return true }

// TestMemStoreSemantics pins the store's contract, in memory and with a
// journal attached: attempts accumulate, Put supersedes fault state, budget
// latches unlatch when the budget rises, poison latches never do. A
// journaled store must give the same answers after a reopen replays it,
// and report Restored only for the completed cell the replay seeded.
func TestMemStoreSemantics(t *testing.T) {
	prof := synth.Gzip()
	key := runKey{prof.Fingerprint(), Canonical(Options{MaxInsts: 1000})}
	data, err := json.Marshal(runPayload{Prof: key.prof, Opt: key.opt, Res: &Result{Bench: prof.ID()}})
	if err != nil {
		t.Fatal(err)
	}
	done := journal.Record{Kind: recKindRun, Key: runJournalKey(key), Data: data}
	k := done.Key

	// settled checks the state the sequence below leaves behind: k
	// completed, f pending one failure, l budget-latched at 2, p poisoned.
	settled := func(t *testing.T, s *MemStore) {
		t.Helper()
		for key, want := range map[string]uint32{k: 0, "f": 1, "l": 2, "p": 1} {
			if got := s.PriorAttempts(key); got != want {
				t.Errorf("PriorAttempts(%s) = %d, want %d", key, got, want)
			}
		}
		if err := s.Gate(k, 1); err != nil {
			t.Errorf("Gate after Put = %v", err)
		}
		if err := s.Gate("f", 2); err != nil {
			t.Errorf("Gate on pending cell = %v", err)
		}
		var le *LatchedError
		if err := s.Gate("l", 2); !errors.As(err, &le) || le.Poison || le.Attempts != 2 {
			t.Errorf("Gate at budget = %v, want a non-poison latch at 2 attempts", err)
		}
		if err := s.Gate("l", 3); err != nil {
			t.Errorf("Gate with raised budget = %v, want unlatched", err)
		}
		if err := s.Gate("p", 1000); !errors.As(err, &le) || !le.Poison {
			t.Errorf("Gate on poison cell = %v, want a poison latch", err)
		}
	}

	for _, mode := range []string{"memory", "journaled"} {
		t.Run(mode, func(t *testing.T) {
			s := NewMemStore()
			var dir string
			var j *journal.Journal
			if mode == "journaled" {
				dir = t.TempDir()
				var c *RunCache
				c, _, j = openJournaledCache(t, dir, journal.Options{})
				s = c.Store().(*MemStore)
			}
			if s.Restored(k) {
				t.Error("Restored = true before any replay")
			}

			s.Fault(k, "b", 1, false, errors.New("transient"))
			if got := s.PriorAttempts(k); got != 1 {
				t.Errorf("PriorAttempts = %d, want 1", got)
			}
			if err := s.Gate(k, 2); err != nil {
				t.Errorf("Gate with budget left = %v", err)
			}
			// Budget latch: refused at the latching budget, admitted at a
			// bigger one.
			s.Fault(k, "b", 2, true, errors.New("final"))
			var le *LatchedError
			if err := s.Gate(k, 2); !errors.As(err, &le) || le.Poison {
				t.Errorf("Gate at budget = %v, want a non-poison latch", err)
			}
			if err := s.Gate(k, 3); err != nil {
				t.Errorf("Gate with raised budget = %v, want unlatched", err)
			}
			// Put supersedes every fault record.
			s.Put(done)
			s.Fault("f", "b", 1, false, errors.New("transient"))
			s.Fault("l", "b", 2, true, errors.New("final"))
			s.Fault("p", "b", 1, true, &poisonErr{msg: "killed workers"})
			settled(t, s)
			if j == nil {
				return
			}

			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			c, rs, j2 := openJournaledCache(t, dir, journal.Options{})
			defer j2.Close()
			if rs.Runs != 1 || rs.Faulted != 1 || rs.Latched != 2 {
				t.Errorf("replay = %+v, want 1 run, 1 faulted, 2 latched", rs)
			}
			re := c.Store().(*MemStore)
			settled(t, re)
			for key, want := range map[string]bool{k: true, "f": false, "l": false, "p": false, "missing": false} {
				if got := re.Restored(key); got != want {
					t.Errorf("Restored(%s) = %v, want %v", key, got, want)
				}
			}
		})
	}
}

// TestPermanentFaultLatchesImmediately: an error carrying the
// PermanentFaulter marker latches its cell on the first failure even with
// retry budget to spare — the cache must not burn budget on a quarantined
// cell, and the latch must survive a raised budget.
func TestPermanentFaultLatchesImmediately(t *testing.T) {
	c := NewRunCacheWithStore(NewMemStore())
	c.SetRetries(10)
	prof := synth.Gzip()
	calls := countingRunFn(c, func(int) (*Result, error) {
		return nil, &poisonErr{msg: "poison"}
	})
	_, err := c.Run(context.Background(), prof, Options{MaxInsts: 1000})
	var pe *poisonErr
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want the poison error", err)
	}
	if *calls != 1 {
		t.Fatalf("executed %d times, want 1 (no retry of a permanent fault)", *calls)
	}

	// The latch is served from the store now; nothing re-executes.
	_, err = c.Run(context.Background(), prof, Options{MaxInsts: 1000})
	var le *LatchedError
	if !errors.As(err, &le) || !le.Poison {
		t.Fatalf("second request err = %v, want the poison latch", err)
	}
	if *calls != 1 {
		t.Errorf("latched cell re-executed (%d calls)", *calls)
	}
}

// TestIsPermanentFault covers marker detection through wrap chains.
func TestIsPermanentFault(t *testing.T) {
	if IsPermanentFault(nil) || IsPermanentFault(errors.New("plain")) {
		t.Error("marker detected where none exists")
	}
	if !IsPermanentFault(&poisonErr{}) {
		t.Error("direct marker missed")
	}
	wrapped := &Fault{Bench: "b", Err: &poisonErr{}}
	if !IsPermanentFault(wrapped) {
		t.Error("marker missed through a *Fault wrapper")
	}
}

// recordingExec is a stub Executor counting calls.
type recordingExec struct {
	runs, traffics int
	res            *Result
}

func (e *recordingExec) ExecRun(ctx context.Context, prof *synth.Profile, opt Options) (*Result, error) {
	e.runs++
	return e.res, nil
}

func (e *recordingExec) ExecTraffic(ctx context.Context, prof *synth.Profile, policy pipeline.StackPolicy, sizeBytes, maxInsts int, ctxPeriod uint64) (uint64, uint64, uint64, error) {
	e.traffics++
	return 1, 2, 3, nil
}

// TestExecutorSeam: SetExecutor reroutes misses through the executor while
// hits are still served from memory, and traffic cells go through too.
func TestExecutorSeam(t *testing.T) {
	prof := synth.Gzip()
	ex := &recordingExec{res: &Result{Bench: prof.ID()}}
	c := NewRunCache()
	c.SetExecutor(ex)

	for i := 0; i < 2; i++ {
		res, err := c.Run(context.Background(), prof, Options{MaxInsts: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Bench != prof.ID() {
			t.Fatalf("result = %+v", res)
		}
	}
	if ex.runs != 1 {
		t.Errorf("executor ran %d times, want 1 (second request is a hit)", ex.runs)
	}

	in, out, cb, err := c.Traffic(context.Background(), prof, pipeline.PolicySVF, 8<<10, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if in != 1 || out != 2 || cb != 3 || ex.traffics != 1 {
		t.Errorf("traffic = (%d,%d,%d) via %d executor calls", in, out, cb, ex.traffics)
	}
}

// TestStoreAccessor: the store a cache was built over is reachable (so a
// decorator, such as the benchmark's Put timer, can wrap it), and a plain
// cache has none.
func TestStoreAccessor(t *testing.T) {
	mem := NewMemStore()
	if got := NewRunCacheWithStore(mem).Store(); got != ResultStore(mem) {
		t.Errorf("Store() = %v, want the mem store", got)
	}
	if got := NewRunCache().Store(); got != nil {
		t.Errorf("plain cache Store() = %v, want nil", got)
	}
}
