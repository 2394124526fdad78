package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"svf/internal/faultinject"
)

// openMust opens dir and fails the test on error.
func openMust(t *testing.T, dir string, opts Options) (*Journal, *Replay) {
	t.Helper()
	j, rep, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return j, rep
}

func rec(key string, n int) Record {
	return Record{Kind: "run", Key: key, Data: []byte(fmt.Sprintf("payload-%s-%d", key, n))}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rep := openMust(t, dir, Options{})
	if len(rep.Records) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(rep.Records))
	}
	want := []Record{rec("a", 1), rec("b", 1), {Kind: "fault", Key: "c", Attempts: 2, Permanent: true, Data: []byte("boom")}}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if st := j.Stats(); st.Appends != 3 || st.SyncBatches == 0 {
		t.Errorf("stats = %+v, want 3 appends and some sync batches", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rep2 := openMust(t, dir, Options{})
	defer j2.Close()
	if len(rep2.Records) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(rep2.Records), len(want))
	}
	for i, got := range rep2.Records {
		w := want[i]
		if got.Kind != w.Kind || got.Key != w.Key || got.Attempts != w.Attempts ||
			got.Permanent != w.Permanent || !bytes.Equal(got.Data, w.Data) {
			t.Errorf("record %d = %+v, want %+v", i, got, w)
		}
	}
	if s := rep2.Stats; s.Live != 3 || s.Obsolete != 0 || s.SkippedCorrupt != 0 || s.TruncatedBytes != 0 {
		t.Errorf("replay stats = %+v", s)
	}
}

// An Append on a closed journal fails with ErrClosed and is counted, so
// callers that drop the error still leave it visible in Stats.
func TestJournalAppendAfterCloseCounted(t *testing.T) {
	j, _ := openMust(t, t.TempDir(), Options{})
	if err := j.Append(rec("a", 1)); err != nil {
		t.Fatal(err)
	}
	if n := j.Stats().AppendErrors; n != 0 {
		t.Fatalf("AppendErrors = %d after a good append, want 0", n)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec("b", 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if st := j.Stats(); st.AppendErrors != 1 || st.Appends != 1 {
		t.Errorf("stats = %+v, want 1 append and 1 append error", st)
	}
}

func TestJournalLastRecordPerKeyWins(t *testing.T) {
	dir := t.TempDir()
	j, _ := openMust(t, dir, Options{})
	j.Append(Record{Kind: "fault", Key: "a", Attempts: 1, Data: []byte("first failure")})
	j.Append(rec("b", 1))
	j.Append(rec("a", 2)) // the cell's successful retry supersedes its fault
	j.Close()

	j2, rep := openMust(t, dir, Options{})
	defer j2.Close()
	if len(rep.Records) != 2 {
		t.Fatalf("live records = %d, want 2", len(rep.Records))
	}
	// Key order of first appearance, final contents.
	if rep.Records[0].Key != "a" || rep.Records[0].Kind != "run" {
		t.Errorf("record 0 = %+v, want a's superseding run record", rep.Records[0])
	}
	if rep.Stats.Obsolete != 1 {
		t.Errorf("obsolete = %d, want 1", rep.Stats.Obsolete)
	}
}

// A torn tail at EVERY byte offset of the final record must replay the
// earlier records intact and truncate (repair) the tail, never fail.
func TestJournalTornTailAtEveryOffset(t *testing.T) {
	master := t.TempDir()
	j, _ := openMust(t, master, Options{})
	j.Append(rec("a", 1))
	j.Append(rec("b", 1))
	before, err := os.ReadFile(Path(master))
	if err != nil {
		t.Fatal(err)
	}
	j.Append(rec("c", 1))
	j.Close()
	full, err := os.ReadFile(Path(master))
	if err != nil {
		t.Fatal(err)
	}
	if len(full) <= len(before) {
		t.Fatal("final record added no bytes?")
	}

	for cut := len(before); cut < len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(Path(dir), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, rep, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut at %d/%d bytes: open failed: %v", cut, len(full), err)
		}
		if len(rep.Records) != 2 || rep.Records[0].Key != "a" || rep.Records[1].Key != "b" {
			t.Fatalf("cut at %d: replayed %d records, want the 2 intact ones", cut, len(rep.Records))
		}
		wantTrunc := int64(cut - len(before))
		if rep.Stats.TruncatedBytes != wantTrunc {
			t.Errorf("cut at %d: truncated %d bytes, want %d", cut, rep.Stats.TruncatedBytes, wantTrunc)
		}
		// The repair is physical: the file shrank back to the last good
		// frame, and appending after repair works.
		if fi, _ := os.Stat(Path(dir)); fi.Size() != int64(len(before)) {
			t.Errorf("cut at %d: file is %d bytes after repair, want %d", cut, fi.Size(), len(before))
		}
		if err := j2.Append(rec("d", 1)); err != nil {
			t.Fatalf("cut at %d: append after repair: %v", cut, err)
		}
		j2.Close()
		j3, rep3, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep3.Records) != 3 || rep3.Records[2].Key != "d" {
			t.Fatalf("cut at %d: re-replay after repaired append got %d records", cut, len(rep3.Records))
		}
		j3.Close()
	}
}

// A checksum-corrupted record in the MIDDLE of the file is skipped and
// counted; everything after it survives.
func TestJournalCorruptMiddleRecordSkipped(t *testing.T) {
	dir := t.TempDir()
	j, _ := openMust(t, dir, Options{})
	j.Append(rec("a", 1))
	start, _ := os.Stat(Path(dir))
	j.Append(rec("b", 1))
	end, _ := os.Stat(Path(dir))
	j.Append(rec("c", 1))
	j.Close()

	raw, err := os.ReadFile(Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of record "b" (past its 8-byte frame header).
	raw[start.Size()+8+2] ^= 0xFF
	if err := os.WriteFile(Path(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_ = end

	j2, rep := openMust(t, dir, Options{})
	defer j2.Close()
	if len(rep.Records) != 2 || rep.Records[0].Key != "a" || rep.Records[1].Key != "c" {
		t.Fatalf("replayed %v, want records a and c", rep.Records)
	}
	if rep.Stats.SkippedCorrupt != 1 {
		t.Errorf("skipped corrupt = %d, want 1", rep.Stats.SkippedCorrupt)
	}
	if rep.Stats.TruncatedBytes != 0 {
		t.Errorf("truncated = %d bytes, want 0 (damage was not at the tail)", rep.Stats.TruncatedBytes)
	}
}

// Two opens of one directory must contend on the advisory lock.
func TestJournalDoubleOpenLocked(t *testing.T) {
	dir := t.TempDir()
	j, _ := openMust(t, dir, Options{})
	defer j.Close()
	_, _, err := Open(dir, Options{})
	if !errors.Is(err, ErrLocked) {
		t.Fatalf("second open: err = %v, want ErrLocked", err)
	}
	j.Close()
	j2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	j2.Close()
}

func TestJournalBadMagicRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(Path(dir), []byte("definitely not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("open of a non-journal file succeeded")
	}
}

// Compaction rewrites the file to the live set via atomic rename, and the
// journal keeps appending to the renamed file.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _ := openMust(t, dir, Options{NoAutoCompact: true})
	for i := 0; i < 20; i++ {
		j.Append(rec("hot", i)) // 19 of these are dead weight
	}
	j.Append(rec("cold", 1))
	big, _ := os.Stat(Path(dir))
	j.Close()

	j2, rep := openMust(t, dir, Options{})
	if !rep.Stats.Compacted || rep.Stats.Obsolete != 19 {
		t.Fatalf("replay stats = %+v, want compacted with 19 obsolete", rep.Stats)
	}
	small, _ := os.Stat(Path(dir))
	if small.Size() >= big.Size() {
		t.Errorf("compaction did not shrink the file: %d -> %d bytes", big.Size(), small.Size())
	}
	if err := j2.Append(rec("after", 1)); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3, rep3 := openMust(t, dir, Options{})
	defer j3.Close()
	if len(rep3.Records) != 3 {
		t.Fatalf("after compaction + append: %d live records, want 3 (hot, cold, after)", len(rep3.Records))
	}
	if rep3.Records[0].Key != "hot" || !bytes.Equal(rep3.Records[0].Data, rec("hot", 19).Data) {
		t.Errorf("compaction kept %+v, want the last hot record", rep3.Records[0])
	}
}

// The injected kill-mid-write fault must leave a journal that reopens with
// every record before the kill intact, bit-identical.
func TestJournalKillMidWriteRecovery(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		dir := t.TempDir()
		plan := &faultinject.Plan{Seed: seed, JournalKillWrite: 3}
		j, _ := openMust(t, dir, Options{Inject: plan})
		j.Append(rec("a", 1))
		j.Append(rec("b", 1))
		err := j.Append(rec("c", 1))
		if !errors.Is(err, ErrSimulatedCrash) {
			t.Fatalf("seed %d: append 3 err = %v, want ErrSimulatedCrash", seed, err)
		}
		if err := j.Append(rec("d", 1)); !errors.Is(err, ErrSimulatedCrash) {
			t.Fatalf("seed %d: journal accepted an append after dying (err=%v)", seed, err)
		}
		j.Close()

		j2, rep := openMust(t, dir, Options{})
		if len(rep.Records) != 2 {
			t.Fatalf("seed %d: recovered %d records, want 2", seed, len(rep.Records))
		}
		for i, k := range []string{"a", "b"} {
			if rep.Records[i].Key != k || !bytes.Equal(rep.Records[i].Data, rec(k, 1).Data) {
				t.Errorf("seed %d: record %d = %+v, not bit-identical to the original", seed, i, rep.Records[i])
			}
		}
		if rep.Stats.TruncatedBytes == 0 {
			t.Errorf("seed %d: expected a torn tail from the partial write", seed)
		}
		j2.Close()
	}
}

// journal-torn-tail: the record is fully appended, then the crash tears
// bytes back off — recovery keeps the preceding records.
func TestJournalTornTailInjection(t *testing.T) {
	dir := t.TempDir()
	plan := &faultinject.Plan{Seed: 9, JournalTornTail: 2}
	j, _ := openMust(t, dir, Options{Inject: plan})
	j.Append(rec("a", 1))
	if err := j.Append(rec("b", 1)); !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("append 2 err = %v, want ErrSimulatedCrash", err)
	}
	j.Close()

	j2, rep := openMust(t, dir, Options{})
	defer j2.Close()
	if len(rep.Records) != 1 || rep.Records[0].Key != "a" {
		t.Fatalf("recovered %v, want just record a", rep.Records)
	}
	if rep.Stats.TruncatedBytes == 0 {
		t.Error("expected truncated bytes from the torn record")
	}
}

// Concurrent appenders must all land durably, and group commit must not
// issue more fsyncs than appends.
func TestJournalConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	j, _ := openMust(t, dir, Options{})
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := j.Append(rec(fmt.Sprintf("k%02d", i), i)); err != nil {
				t.Errorf("append %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	st := j.Stats()
	if st.Appends != n {
		t.Errorf("appends = %d, want %d", st.Appends, n)
	}
	if st.SyncBatches > st.Appends {
		t.Errorf("sync batches (%d) exceed appends (%d)", st.SyncBatches, st.Appends)
	}
	j.Close()
	j2, rep := openMust(t, dir, Options{})
	defer j2.Close()
	if len(rep.Records) != n {
		t.Errorf("replayed %d records, want %d", len(rep.Records), n)
	}
}

// The record envelope must survive limit-shaped contents.
func TestRecordEncodeDecodeEdgeCases(t *testing.T) {
	cases := []Record{
		{},
		{Kind: "run", Key: "", Data: nil},
		{Kind: "fault", Key: "k", Attempts: 1<<32 - 1, Permanent: true, Data: []byte{0, 1, 2}},
		{Kind: "x", Key: string(bytes.Repeat([]byte("k"), 65535)), Data: bytes.Repeat([]byte{0xAB}, 4096)},
	}
	for i, w := range cases {
		got, err := decodeRecord(encodeRecord(w))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Kind != w.Kind || got.Key != w.Key || got.Attempts != w.Attempts || got.Permanent != w.Permanent || !bytes.Equal(got.Data, w.Data) {
			t.Errorf("case %d: roundtrip %+v -> %+v", i, w, got)
		}
	}
	if _, err := decodeRecord([]byte{5}); err == nil {
		t.Error("truncated envelope decoded without error")
	}
}

// A lock file alone (no journal.log) must open as a fresh journal.
func TestJournalFreshDirLayout(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "campaign")
	j, rep := openMust(t, dir, Options{})
	defer j.Close()
	if len(rep.Records) != 0 {
		t.Fatalf("fresh nested dir replayed %d records", len(rep.Records))
	}
	if _, err := os.Stat(Path(dir)); err != nil {
		t.Fatalf("journal file missing: %v", err)
	}
}

// A contended open must name the holder — the error a worker (or a second
// coordinator) sees has to say who owns the journal, not just "locked".
func TestJournalContendedOpenNamesHolder(t *testing.T) {
	dir := t.TempDir()
	j, _ := openMust(t, dir, Options{})
	defer j.Close()
	_, _, err := Open(dir, Options{})
	if !errors.Is(err, ErrLocked) {
		t.Fatalf("second open: err = %v, want ErrLocked", err)
	}
	want := fmt.Sprintf("pid %d", os.Getpid())
	if !strings.Contains(err.Error(), want) {
		t.Errorf("contended-open error %q does not name the holder %q", err, want)
	}
}
