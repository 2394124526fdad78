package tracecache

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"svf/internal/isa"
)

// fakeTrace builds a recognisable n-instruction trace seeded by tag.
func fakeTrace(tag uint64, n int) []isa.Inst {
	out := make([]isa.Inst, n)
	for i := range out {
		out[i] = isa.Inst{PC: tag<<32 | uint64(i), Kind: isa.KindALU}
	}
	return out
}

// same fails the test unless got is exactly want.
func same(t *testing.T, got, want []isa.Inst) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trace has %d insts, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("inst %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// noRecord fails the test if the cache tries to record.
func noRecord(t *testing.T) func() []isa.Inst {
	return func() []isa.Inst { t.Fatal("recorded when it must not"); return nil }
}

func TestRecordOnceReplayMany(t *testing.T) {
	c := New(1 << 20)
	want := fakeTrace(1, 100)
	records := 0
	var first []isa.Inst
	for i := 0; i < 3; i++ {
		got := c.Get(Key{FP: "p1", N: 100},
			func() []isa.Inst { records++; return fakeTrace(1, 100) })
		same(t, got, want)
		if i == 0 {
			first = got
		} else if &got[0] != &first[0] {
			t.Error("hit returned a copy, not the recorded slice")
		}
	}
	if records != 1 {
		t.Errorf("record ran %d times, want 1", records)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss / 1 entry", st)
	}
	if st.UsedBytes != 100*instBytes {
		t.Errorf("UsedBytes = %d, want %d", st.UsedBytes, 100*instBytes)
	}
}

func TestDistinctBudgetsKeySeparately(t *testing.T) {
	c := New(1 << 20)
	for _, n := range []int{50, 100} {
		n := n
		same(t, c.Get(Key{FP: "p", N: n}, func() []isa.Inst { return fakeTrace(9, n) }), fakeTrace(9, n))
	}
	if st := c.Stats(); st.Entries != 2 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 2 entries, 0 hits", st)
	}
}

func TestOversizeStreamsWithoutRecording(t *testing.T) {
	c := New(10 * instBytes)
	if got := c.Get(Key{FP: "big", N: 100}, noRecord(t)); got != nil {
		t.Fatalf("oversize key returned %d insts, want nil (generate live)", len(got))
	}
	if st := c.Stats(); st.Misses != 1 || st.Entries != 0 || st.UsedBytes != 0 {
		t.Errorf("oversize miss changed occupancy: %+v", st)
	}
}

func TestLRUEvictionUnderBudget(t *testing.T) {
	c := New(250 * instBytes) // fits two 100-inst traces, not three
	add := func(tag uint64, fp string) {
		same(t, c.Get(Key{FP: fp, N: 100}, func() []isa.Inst { return fakeTrace(tag, 100) }), fakeTrace(tag, 100))
	}
	add(1, "a")
	add(2, "b")
	// Touch "a" so "b" is the LRU victim when "c" arrives.
	same(t, c.Get(Key{FP: "a", N: 100}, nil), fakeTrace(1, 100))
	add(3, "c")

	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction leaving 2 entries", st)
	}
	if !c.Contains(Key{FP: "a", N: 100}) || !c.Contains(Key{FP: "c", N: 100}) {
		t.Error("LRU evicted the wrong entry")
	}
	if c.Contains(Key{FP: "b", N: 100}) {
		t.Error("victim still present")
	}
	// The evicted key transparently re-records.
	rerecorded := false
	got := c.Get(Key{FP: "b", N: 100}, func() []isa.Inst { rerecorded = true; return fakeTrace(2, 100) })
	same(t, got, fakeTrace(2, 100))
	if !rerecorded {
		t.Error("evicted trace was not re-recorded")
	}
}

func TestSetBudgetShrinkEvicts(t *testing.T) {
	c := New(1 << 20)
	for i := 0; i < 4; i++ {
		tag, fp := uint64(i), fmt.Sprint(i)
		same(t, c.Get(Key{FP: fp, N: 10}, func() []isa.Inst { return fakeTrace(tag, 10) }), fakeTrace(tag, 10))
	}
	c.SetBudget(15 * instBytes) // room for one 10-inst trace
	if st := c.Stats(); st.Entries != 1 || st.UsedBytes != 10*instBytes {
		t.Errorf("after shrink: %+v, want 1 entry", st)
	}
	c.SetBudget(0)
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("zero budget retained entries: %+v", st)
	}
	// A disabled cache records nothing: the caller generates live.
	if got := c.Get(Key{FP: "x", N: 10}, noRecord(t)); got != nil {
		t.Errorf("disabled cache returned %d insts, want nil", len(got))
	}
}

func TestSingleFlightConcurrentMisses(t *testing.T) {
	c := New(1 << 20)
	var records atomic.Int32
	release := make(chan struct{})
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := c.Get(Key{FP: "p", N: 64}, func() []isa.Inst {
				records.Add(1)
				<-release // hold the flight open so others pile up
				return fakeTrace(5, 64)
			})
			if len(got) != 64 {
				t.Errorf("Get returned %d insts, want 64", len(got))
			}
		}()
	}
	// Let the recorder start and the rest reach the wait, then release.
	for records.Load() == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if r := records.Load(); r != 1 {
		t.Errorf("record ran %d times under concurrent misses, want 1", r)
	}
}

func TestPanickingRecorderReleasesWaiters(t *testing.T) {
	c := New(1 << 20)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("record panic did not propagate")
			}
		}()
		c.Get(Key{FP: "boom", N: 8}, func() []isa.Inst { panic("synthetic") })
	}()
	// The flight must be gone: the next call records normally.
	same(t, c.Get(Key{FP: "boom", N: 8}, func() []isa.Inst { return fakeTrace(3, 8) }), fakeTrace(3, 8))
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("stats after recovery: %+v", st)
	}
}
