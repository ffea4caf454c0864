package vdisk

import (
	"bytes"
	"errors"
	"testing"
)

func newBatchDisk(t *testing.T, blocks int64, bs int) (*Disk, *MemStore) {
	t.Helper()
	store, err := NewMemStore(blocks, bs)
	if err != nil {
		t.Fatal(err)
	}
	return NewDisk(store, DefaultGeometry()), store
}

// TestBatchReadMatchesSerial: ReadBlocks must return byte-identical data to
// per-block ReadBlock calls, for an arbitrarily ordered request list with
// duplicates.
func TestBatchReadMatchesSerial(t *testing.T) {
	disk, _ := newBatchDisk(t, 256, 512)
	for b := int64(0); b < 256; b++ {
		buf := make([]byte, 512)
		for i := range buf {
			buf[i] = byte(b) ^ byte(i*7)
		}
		if err := disk.WriteBlock(b, buf); err != nil {
			t.Fatal(err)
		}
	}
	ns := []int64{250, 3, 77, 3, 0, 255, 128, 129, 130}
	batch := make([][]byte, len(ns))
	serial := make([][]byte, len(ns))
	for i := range ns {
		batch[i] = make([]byte, 512)
		serial[i] = make([]byte, 512)
	}
	if err := disk.ReadBlocks(ns, batch); err != nil {
		t.Fatal(err)
	}
	for i, n := range ns {
		if err := disk.ReadBlock(n, serial[i]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(batch[i], serial[i]) {
			t.Fatalf("block %d: batch read differs from serial read", n)
		}
	}
}

// TestBatchWriteSortedSubmission: an unsorted write batch must be charged in
// ascending order, so a contiguous run earns sequential pricing (SeqHits)
// despite the shuffled request order.
func TestBatchWriteSortedSubmission(t *testing.T) {
	disk, store := newBatchDisk(t, 256, 512)
	ns := []int64{14, 10, 13, 11, 12}
	bufs := make([][]byte, len(ns))
	for i := range ns {
		bufs[i] = bytes.Repeat([]byte{byte(ns[i])}, 512)
	}
	if err := disk.WriteBlocks(ns, bufs); err != nil {
		t.Fatal(err)
	}
	st := disk.Stats()
	if st.Writes != int64(len(ns)) {
		t.Fatalf("Writes = %d, want %d", st.Writes, len(ns))
	}
	// After the first (seek) request, blocks 11..14 continue the run.
	if st.SeqHits < int64(len(ns)-1) {
		t.Fatalf("SeqHits = %d for a contiguous run, want >= %d", st.SeqHits, len(ns)-1)
	}
	for i, n := range ns {
		got := make([]byte, 512)
		if err := store.ReadBlock(n, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bufs[i]) {
			t.Fatalf("block %d holds wrong data after batch write", n)
		}
	}
}

// TestBatchFailedRequestChargesNothing: a batch containing an out-of-range
// block must fail without touching the clock or the statistics.
func TestBatchFailedRequestChargesNothing(t *testing.T) {
	disk, _ := newBatchDisk(t, 64, 512)
	good := make([]byte, 512)
	bad := make([]byte, 512)
	if err := disk.ReadBlocks([]int64{1, 9999}, [][]byte{good, bad}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
	if st := disk.Stats(); st != (Stats{}) {
		t.Fatalf("failed batch mutated stats: %+v", st)
	}
	if disk.Elapsed() != 0 {
		t.Fatalf("failed batch charged %v", disk.Elapsed())
	}
}

// TestBatchLengthMismatch: ns/bufs length disagreement is an error on both
// the Disk methods and the package helpers.
func TestBatchLengthMismatch(t *testing.T) {
	disk, store := newBatchDisk(t, 64, 512)
	buf := make([]byte, 512)
	if err := disk.ReadBlocks([]int64{1, 2}, [][]byte{buf}); !errors.Is(err, ErrBadBuffer) {
		t.Fatalf("ReadBlocks: want ErrBadBuffer, got %v", err)
	}
	if err := WriteBlocks(store, []int64{1}, nil); !errors.Is(err, ErrBadBuffer) {
		t.Fatalf("helper WriteBlocks: want ErrBadBuffer, got %v", err)
	}
}

// TestBatchHelperFallback: the package helpers must serve non-batch devices
// through per-block calls.
func TestBatchHelperFallback(t *testing.T) {
	store, err := NewMemStore(32, 512)
	if err != nil {
		t.Fatal(err)
	}
	// MemStore does not implement BatchDevice; the helper loops.
	want := bytes.Repeat([]byte{0xAB}, 512)
	if err := WriteBlocks(store, []int64{5}, [][]byte{want}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if err := ReadBlocks(store, []int64{5}, [][]byte{got}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("helper fallback round trip failed")
	}
}

// TestEmulateLatencySmoke: emulation mode must not change data or simulated
// accounting; it only adds real sleeps (scaled to nothing here).
func TestEmulateLatencySmoke(t *testing.T) {
	disk, _ := newBatchDisk(t, 64, 512)
	disk.EmulateLatency(1e-9)
	buf := bytes.Repeat([]byte{7}, 512)
	if err := disk.WriteBlock(3, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if err := disk.ReadBlock(3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("emulated round trip mismatch")
	}
	if disk.Stats().Reads != 1 || disk.Stats().Writes != 1 {
		t.Fatalf("emulation skewed stats: %+v", disk.Stats())
	}
	disk.EmulateLatency(-5) // clamps to off, must not panic
}

// TestBatchAccounting: every batch submission bumps the Batch counters once,
// regardless of its length; failed batches charge nothing.
func TestBatchAccounting(t *testing.T) {
	mem, err := NewMemStore(64, 32)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDisk(mem, DefaultGeometry())
	bufs := [][]byte{make([]byte, 32), make([]byte, 32), make([]byte, 32)}
	if err := d.WriteBlocks([]int64{3, 9, 1}, bufs); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadBlocks([]int64{1, 3}, bufs[:2]); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.BatchWrites != 1 || st.BatchReads != 1 {
		t.Fatalf("batch counters = %d writes / %d reads, want 1/1", st.BatchWrites, st.BatchReads)
	}
	if st.Writes != 3 || st.Reads != 2 {
		t.Fatalf("block counters = %d writes / %d reads, want 3/2", st.Writes, st.Reads)
	}
	// A rejected batch (out of range) leaves every counter untouched.
	if err := d.ReadBlocks([]int64{99}, bufs[:1]); err == nil {
		t.Fatal("out-of-range batch accepted")
	}
	if got := d.Stats(); got != st {
		t.Fatalf("failed batch mutated stats: %+v -> %+v", st, got)
	}
}
