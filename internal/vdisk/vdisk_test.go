package vdisk

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"
)

func testGeom() Geometry { return DefaultGeometry() }

func newTestDisk(t *testing.T, blocks int64, bs int) (*Disk, *MemStore) {
	t.Helper()
	store, err := NewMemStore(blocks, bs)
	if err != nil {
		t.Fatalf("NewMemStore: %v", err)
	}
	return NewDisk(store, testGeom()), store
}

func TestMemStoreRoundTrip(t *testing.T) {
	store, err := NewMemStore(16, 512)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0xab}, 512)
	if err := store.WriteBlock(7, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if err := store.ReadBlock(7, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read mismatch")
	}
}

func TestMemStoreBounds(t *testing.T) {
	store, _ := NewMemStore(4, 512)
	buf := make([]byte, 512)
	if err := store.ReadBlock(4, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
	if err := store.ReadBlock(-1, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange for negative, got %v", err)
	}
	if err := store.WriteBlock(0, buf[:100]); !errors.Is(err, ErrBadBuffer) {
		t.Fatalf("want ErrBadBuffer, got %v", err)
	}
}

func TestMemStoreClosed(t *testing.T) {
	store, _ := NewMemStore(4, 512)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if err := store.ReadBlock(0, buf); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestMemStoreSnapshotRestore(t *testing.T) {
	store, _ := NewMemStore(8, 512)
	blk := bytes.Repeat([]byte{0x5a}, 512)
	if err := store.WriteBlock(3, blk); err != nil {
		t.Fatal(err)
	}
	snap := store.Snapshot()
	zero := make([]byte, 512)
	if err := store.WriteBlock(3, zero); err != nil {
		t.Fatal(err)
	}
	if err := store.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if err := store.ReadBlock(3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blk) {
		t.Fatal("restore did not bring back contents")
	}
	if err := store.Restore(snap[:10]); err == nil {
		t.Fatal("restore of wrong-size snapshot should fail")
	}
}

func TestFileStorePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.img")
	fsStore, err := CreateFileStore(path, 32, 1024)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0xcd}, 1024)
	if err := fsStore.WriteBlock(9, want); err != nil {
		t.Fatal(err)
	}
	if err := fsStore.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenFileStore(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.NumBlocks() != 32 {
		t.Fatalf("NumBlocks = %d, want 32", reopened.NumBlocks())
	}
	got := make([]byte, 1024)
	if err := reopened.ReadBlock(9, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("persisted block mismatch")
	}
}

func TestFileStoreBadGeometry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.img")
	if _, err := CreateFileStore(path, 0, 1024); err == nil {
		t.Fatal("zero blocks should fail")
	}
	if _, err := OpenFileStore(filepath.Join(t.TempDir(), "missing"), 1024); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestSequentialCheaperThanRandom(t *testing.T) {
	disk, _ := newTestDisk(t, 1<<16, 1024)
	buf := make([]byte, 1024)
	// Prime head position.
	if err := disk.ReadBlock(100, buf); err != nil {
		t.Fatal(err)
	}
	seq := disk.CostOf(101, true)
	rnd := disk.CostOf(40000, true)
	if seq >= rnd {
		t.Fatalf("sequential (%v) should be cheaper than random (%v)", seq, rnd)
	}
	if rnd < disk.Geometry().rotLatency() {
		t.Fatalf("random access %v should pay at least rotational latency %v", rnd, disk.Geometry().rotLatency())
	}
}

func TestReadAheadWindowHit(t *testing.T) {
	disk, _ := newTestDisk(t, 1<<16, 1024)
	buf := make([]byte, 1024)
	if err := disk.ReadBlock(100, buf); err != nil {
		t.Fatal(err)
	}
	// A short forward skip within the prefetch window streams (catch-up
	// transfer), cheaper than a full seek.
	hit := disk.CostOf(105, true)
	miss := disk.CostOf(50000, true)
	if hit >= miss {
		t.Fatalf("window hit (%v) should be cheaper than distant miss (%v)", hit, miss)
	}
}

func TestWriteInvalidatesReadAhead(t *testing.T) {
	disk, _ := newTestDisk(t, 1<<16, 1024)
	buf := make([]byte, 1024)
	if err := disk.ReadBlock(100, buf); err != nil {
		t.Fatal(err)
	}
	if err := disk.WriteBlock(101, buf); err != nil {
		t.Fatal(err)
	}
	st := disk.Stats()
	if st.Writes != 1 || st.Reads != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// After the write, a forward skip must not be treated as a prefetch hit.
	before := disk.Stats().Seeks
	if err := disk.ReadBlock(110, buf); err != nil {
		t.Fatal(err)
	}
	if disk.Stats().Seeks != before+1 {
		t.Fatal("forward skip after write should seek, not hit the window")
	}
}

func TestClockMonotonicAndResettable(t *testing.T) {
	disk, _ := newTestDisk(t, 1024, 1024)
	buf := make([]byte, 1024)
	var last time.Duration
	for i := int64(0); i < 50; i++ {
		if err := disk.ReadBlock(i*13%1024, buf); err != nil {
			t.Fatal(err)
		}
		now := disk.Elapsed()
		if now <= last {
			t.Fatalf("clock not monotonic: %v then %v", last, now)
		}
		last = now
	}
	disk.ResetClock()
	if disk.Elapsed() != 0 {
		t.Fatal("ResetClock did not zero the clock")
	}
	if disk.Stats().Reads != 0 {
		t.Fatal("ResetClock did not zero stats")
	}
}

func TestSeekTimeMonotoneInDistance(t *testing.T) {
	g := testGeom()
	const total = 1 << 20
	var prev time.Duration
	for _, dist := range []int64{1, 100, 10000, 100000, total} {
		st := g.seekTime(dist, total)
		if st < prev {
			t.Fatalf("seekTime(%d) = %v < previous %v", dist, st, prev)
		}
		prev = st
	}
	if g.seekTime(0, total) != 0 {
		t.Fatal("zero distance should cost zero seek")
	}
}

func TestTransferTimeScalesWithBlockSize(t *testing.T) {
	g := testGeom()
	if g.transferTime(2048) <= g.transferTime(512) {
		t.Fatal("larger transfers should take longer")
	}
}

func TestCostOfDoesNotMoveHead(t *testing.T) {
	disk, _ := newTestDisk(t, 4096, 1024)
	buf := make([]byte, 1024)
	if err := disk.ReadBlock(10, buf); err != nil {
		t.Fatal(err)
	}
	c1 := disk.CostOf(2000, true)
	c2 := disk.CostOf(2000, true)
	if c1 != c2 {
		t.Fatalf("CostOf should be side-effect free: %v vs %v", c1, c2)
	}
}

func TestDiskStatsAccounting(t *testing.T) {
	disk, _ := newTestDisk(t, 4096, 512)
	buf := make([]byte, 512)
	for i := int64(0); i < 10; i++ {
		if err := disk.ReadBlock(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 5; i++ {
		if err := disk.WriteBlock(i*100, buf); err != nil {
			t.Fatal(err)
		}
	}
	st := disk.Stats()
	if st.Reads != 10 || st.Writes != 5 {
		t.Fatalf("ops miscounted: %+v", st)
	}
	if st.BytesRead != 10*512 || st.BytesWritten != 5*512 {
		t.Fatalf("bytes miscounted: %+v", st)
	}
	if st.Busy != disk.Elapsed() {
		t.Fatalf("busy %v != elapsed %v", st.Busy, disk.Elapsed())
	}
}

// countSyncs is a store that counts the barriers reaching it.
type countSyncs struct {
	Store
	syncs int
}

func (c *countSyncs) Sync() error { c.syncs++; return nil }

// TestDiskSyncPassesThrough: a barrier on the timing simulator reaches a
// store that supports one, exactly once, and charges no simulated time;
// over a store without Sync it is a no-op.
func TestDiskSyncPassesThrough(t *testing.T) {
	disk, mem := newTestDisk(t, 64, 512)
	if err := disk.Sync(); err != nil {
		t.Fatalf("Sync over a MemStore: %v", err)
	}
	cs := &countSyncs{Store: mem}
	disk = NewDisk(cs, testGeom())
	if err := disk.WriteBlock(3, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	before, st := disk.Elapsed(), disk.Stats()
	if err := disk.Sync(); err != nil {
		t.Fatal(err)
	}
	if cs.syncs != 1 {
		t.Fatalf("store saw %d Syncs, want 1", cs.syncs)
	}
	if disk.Elapsed() != before || disk.Stats() != st {
		t.Fatalf("Sync charged the simulator: %v -> %v, %+v -> %+v", before, disk.Elapsed(), st, disk.Stats())
	}
}

// TestFailedIODoesNotMutateSimulator is the regression test for the timing
// bug where Disk charged the clock, advanced the head and bumped Stats
// before delegating to the store: a rejected request (out of range, bad
// buffer, closed store) must leave the simulator exactly as it was, or
// every experiment that trips an error reports a polluted Elapsed().
func TestFailedIODoesNotMutateSimulator(t *testing.T) {
	disk, store := newTestDisk(t, 64, 512)
	buf := make([]byte, 512)
	// Establish a head position so a failed request could visibly move it.
	if err := disk.ReadBlock(10, buf); err != nil {
		t.Fatal(err)
	}
	elapsed, stats := disk.Elapsed(), disk.Stats()
	costNext := disk.CostOf(11, true)

	fail := func(desc string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: expected error", desc)
		}
		if got := disk.Elapsed(); got != elapsed {
			t.Fatalf("%s charged the clock: %v -> %v", desc, elapsed, got)
		}
		if got := disk.Stats(); got != stats {
			t.Fatalf("%s mutated stats: %+v -> %+v", desc, stats, got)
		}
		if got := disk.CostOf(11, true); got != costNext {
			t.Fatalf("%s moved the head: next-block cost %v -> %v", desc, costNext, got)
		}
	}

	fail("out-of-range read", disk.ReadBlock(64, buf))
	fail("negative write", disk.WriteBlock(-1, buf))
	fail("short-buffer read", disk.ReadBlock(0, buf[:100]))
	fail("short-buffer write", disk.WriteBlock(0, buf[:100]))

	// A closed store rejects everything; the simulator stays untouched.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	fail("read after close", disk.ReadBlock(0, buf))
	fail("write after close", disk.WriteBlock(0, buf))
}

// TestPropertyStoreReadsWhatWasWritten is a property test: for arbitrary
// block/content sequences, the last write to each block is what a read
// returns.
func TestPropertyStoreReadsWhatWasWritten(t *testing.T) {
	const blocks, bs = 64, 256
	f := func(ops []uint16, fill byte) bool {
		store, err := NewMemStore(blocks, bs)
		if err != nil {
			return false
		}
		last := map[int64]byte{}
		for i, op := range ops {
			b := int64(op) % blocks
			v := fill + byte(i)
			buf := bytes.Repeat([]byte{v}, bs)
			if err := store.WriteBlock(b, buf); err != nil {
				return false
			}
			last[b] = v
		}
		for b, v := range last {
			buf := make([]byte, bs)
			if err := store.ReadBlock(b, buf); err != nil {
				return false
			}
			for _, got := range buf {
				if got != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCostAlwaysPositive: every charged request costs at least the
// per-request overhead and the clock never decreases.
func TestPropertyCostAlwaysPositive(t *testing.T) {
	disk, _ := newTestDisk(t, 1<<14, 512)
	buf := make([]byte, 512)
	rng := rand.New(rand.NewSource(7))
	var last time.Duration
	for i := 0; i < 500; i++ {
		b := rng.Int63n(1 << 14)
		var err error
		if rng.Intn(2) == 0 {
			err = disk.ReadBlock(b, buf)
		} else {
			err = disk.WriteBlock(b, buf)
		}
		if err != nil {
			t.Fatal(err)
		}
		now := disk.Elapsed()
		if now-last < disk.Geometry().PerRequest {
			t.Fatalf("request %d cost %v < per-request floor %v", i, now-last, disk.Geometry().PerRequest)
		}
		last = now
	}
}
