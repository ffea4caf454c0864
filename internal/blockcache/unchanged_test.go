package blockcache

import (
	"bytes"
	"math/rand"
	"testing"

	"stegfs/internal/vdisk"
)

// The unchanged-write suite pins the no-op rule of writeLocked: a write of
// the bytes a resident block already holds is absorbed — it neither dirties
// a clean entry nor moves a dirty one's generation — while every write that
// could change the device's image still reaches it.

// TestUnchangedWriteCleanResident: rewriting a clean resident block with its
// own bytes leaves the cache clean and issues no write-back, whether the
// entry became resident by a write or by a miss fetch.
func TestUnchangedWriteCleanResident(t *testing.T) {
	dev := newTraceDev(t, 64, 32)
	c := newCache(t, dev, Options{Capacity: 16})
	defer c.Close()
	written, fetched := blockPayload(32, 0x11), blockPayload(32, 0x22)
	if err := c.WriteBlock(3, written); err != nil {
		t.Fatal(err)
	}
	if err := dev.MemStore.WriteBlock(9, fetched); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	if err := c.ReadBlock(9, buf); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	dev.resetWrites()
	before := c.Stats()

	for _, w := range []struct {
		n    int64
		data []byte
	}{{3, written}, {9, fetched}, {3, written}} {
		if err := c.WriteBlock(w.n, append([]byte(nil), w.data...)); err != nil {
			t.Fatal(err)
		}
		if d := c.Dirty(); d != 0 {
			t.Fatalf("identical rewrite of clean block %d dirtied the cache: Dirty() = %d", w.n, d)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if w := dev.writes(); len(w) != 0 {
		t.Fatalf("identical rewrites reached the device: %v", w)
	}
	st := c.Stats().Sub(before)
	if st.Unchanged != 3 || st.WriteBacks != 0 {
		t.Fatalf("window stats = %+v, want Unchanged 3 and WriteBacks 0", st)
	}
	checkDirtyIndex(t, c)
}

// TestUnchangedWriteDirtyFlushedOnce: an identical rewrite of a dirty block
// keeps it dirty, and the next barrier writes it exactly once.
func TestUnchangedWriteDirtyFlushedOnce(t *testing.T) {
	dev := newTraceDev(t, 64, 32)
	c := newCache(t, dev, Options{Capacity: 16})
	defer c.Close()
	data := blockPayload(32, 0x33)
	for i := 0; i < 3; i++ {
		if err := c.WriteBlock(5, append([]byte(nil), data...)); err != nil {
			t.Fatal(err)
		}
		if d := c.Dirty(); d != 1 {
			t.Fatalf("after write %d: Dirty() = %d, want 1", i, d)
		}
	}
	if u := c.Stats().Unchanged; u != 2 {
		t.Fatalf("Unchanged = %d, want 2", u)
	}
	for i := 0; i < 2; i++ {
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if w := dev.writes(); len(w) != 1 || w[0] != 5 {
		t.Fatalf("device writes = %v, want one write of block 5", w)
	}
	buf := make([]byte, 32)
	if err := dev.MemStore.ReadBlock(5, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("device does not hold the written bytes")
	}
	checkDirtyIndex(t, c)
}

// TestUnchangedWriteDuringFlight: an identical rewrite landing while the
// block's flush is in flight carries the flight's own bytes, so the flight's
// completion leaves the block clean and nothing is written a second time.
func TestUnchangedWriteDuringFlight(t *testing.T) {
	dev := newPipeDev(t, 64, 32)
	dev.gate = make(chan struct{})
	c := newCache(t, dev, Options{Capacity: 32})
	defer c.Close()
	data := blockPayload(32, 0x44)
	for _, n := range []int64{10, 11} {
		if err := c.WriteBlock(n, data); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- c.Flush() }()
	<-dev.entered // the barrier's batch is parked inside the device

	if err := c.WriteBlock(10, append([]byte(nil), data...)); err != nil {
		t.Fatal(err)
	}
	if u := c.Stats().Unchanged; u != 1 {
		t.Fatalf("Unchanged = %d, want 1", u)
	}
	close(dev.gate)
	dev.mu.Lock()
	dev.gate = nil
	dev.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if d := c.Dirty(); d != 0 {
		t.Fatalf("Dirty() = %d after the flight completed, want 0", d)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if b := dev.batchSizes(); len(b) != 1 || b[0] != 2 {
		t.Fatalf("device batches = %v, want one batch of 2", b)
	}
	if wb := c.Stats().WriteBacks; wb != 2 {
		t.Fatalf("WriteBacks = %d, want 2", wb)
	}
	checkDirtyIndex(t, c)
}

// TestUnchangedWriteAfterFailedWriteBack: a block whose write-back failed
// is still dirty, so an identical rewrite must not let it pass as clean —
// the next barrier writes it.
func TestUnchangedWriteAfterFailedWriteBack(t *testing.T) {
	mem, fs, c := newFaultCache(t, 64, 32, Options{Capacity: 16})
	defer c.Close()
	data := blockPayload(32, 0x55)
	if err := c.WriteBlock(7, data); err != nil {
		t.Fatal(err)
	}
	fs.FailNextWrites(7, 1)
	if err := c.Flush(); err == nil {
		t.Fatal("barrier over a failing write-back reported success")
	}
	if d := c.Dirty(); d != 1 {
		t.Fatalf("Dirty() = %d after the failed write-back, want 1", d)
	}
	if err := c.WriteBlock(7, append([]byte(nil), data...)); err != nil {
		t.Fatal(err)
	}
	if d, u := c.Dirty(), c.Stats().Unchanged; d != 1 || u != 1 {
		t.Fatalf("after the identical rewrite: Dirty() = %d, Unchanged = %d; want 1, 1", d, u)
	}
	writes := fs.Writes()
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := fs.Writes() - writes; got != 1 {
		t.Fatalf("barrier applied %d writes, want 1", got)
	}
	buf := make([]byte, 32)
	if err := mem.ReadBlock(7, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("block lost across the failed write-back")
	}
	checkDirtyIndex(t, c)
}

// TestUnchangedWriteNonResident: the cache compares only against bytes it
// holds, so a write of a block that is not resident — never read, or
// evicted — is always written, even when the device already holds it.
func TestUnchangedWriteNonResident(t *testing.T) {
	dev := newTraceDev(t, 64, 32)
	c := newCache(t, dev, Options{Capacity: 4})
	defer c.Close()
	data := blockPayload(32, 0x66)
	if err := dev.MemStore.WriteBlock(1, data); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBlock(1, append([]byte(nil), data...)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Evict block 1 by reading past capacity, then rewrite it.
	buf := make([]byte, 32)
	for n := int64(20); n < 28; n++ {
		if err := c.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WriteBlock(1, append([]byte(nil), data...)); err != nil {
		t.Fatal(err)
	}
	if d := c.Dirty(); d != 1 {
		t.Fatalf("Dirty() = %d for a non-resident write, want 1", d)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if w := dev.writes(); len(w) != 2 || w[0] != 1 || w[1] != 1 {
		t.Fatalf("device writes = %v, want block 1 twice", w)
	}
	if u := c.Stats().Unchanged; u != 0 {
		t.Fatalf("Unchanged = %d, want 0", u)
	}
}

// TestUnchangedWriteRandomOps drives a seeded mix of writes from a small
// payload alphabet (so identical rewrites are common), reads, barriers and
// evictions through a cache with a background flusher. After every barrier,
// and at the end, every clean resident entry must equal the device and the
// device must equal a model of the last write per block.
func TestUnchangedWriteRandomOps(t *testing.T) {
	const blocks, bs = 48, 32
	mem, err := vdisk.NewMemStore(blocks, bs)
	if err != nil {
		t.Fatal(err)
	}
	c := newCache(t, mem, Options{Capacity: 16, WriteBehind: 6, FlushWorkers: 1})
	defer c.Close()
	rng := rand.New(rand.NewSource(28))
	model := make(map[int64][]byte)
	buf := make([]byte, bs)

	checkClean := func(step int) {
		t.Helper()
		got := make([]byte, bs)
		c.mu.Lock()
		defer c.mu.Unlock()
		for n, e := range c.entries {
			if e.dirty {
				continue
			}
			if err := mem.ReadBlock(n, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(e.data, got) {
				t.Fatalf("step %d: clean resident block %d differs from the device", step, n)
			}
		}
	}

	for step := 0; step < 4000; step++ {
		n := rng.Int63n(blocks)
		switch r := rng.Intn(10); {
		case r < 6:
			data := blockPayload(bs, byte(rng.Intn(3)))
			if err := c.WriteBlock(n, data); err != nil {
				t.Fatal(err)
			}
			model[n] = data
		case r < 9:
			if err := c.ReadBlock(n, buf); err != nil {
				t.Fatal(err)
			}
			want := model[n]
			if want == nil {
				want = make([]byte, bs)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("step %d: block %d read back wrong bytes", step, n)
			}
		default:
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			checkClean(step)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	checkClean(-1)
	waitUntil(t, func() bool { return c.FlushInFlight() == 0 })
	checkDirtyIndex(t, c)
	for n, want := range model {
		if err := mem.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("device block %d does not hold its last write", n)
		}
	}
	if c.Stats().Unchanged == 0 {
		t.Fatal("the sequence never exercised an identical rewrite")
	}
}
