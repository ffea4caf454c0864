package blockcache

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"stegfs/internal/vdisk"
)

// traceDev wraps a MemStore and records the order of device-level writes,
// optionally failing requests, so tests can observe write-back behaviour.
type traceDev struct {
	*vdisk.MemStore
	mu         sync.Mutex
	writeOrder []int64
	readErr    error
	writeErr   error
}

func newTraceDev(t *testing.T, blocks int64, bs int) *traceDev {
	t.Helper()
	store, err := vdisk.NewMemStore(blocks, bs)
	if err != nil {
		t.Fatalf("NewMemStore: %v", err)
	}
	return &traceDev{MemStore: store}
}

func (d *traceDev) ReadBlock(n int64, buf []byte) error {
	d.mu.Lock()
	err := d.readErr
	d.mu.Unlock()
	if err != nil {
		return err
	}
	return d.MemStore.ReadBlock(n, buf)
}

func (d *traceDev) WriteBlock(n int64, buf []byte) error {
	d.mu.Lock()
	err := d.writeErr
	if err == nil {
		d.writeOrder = append(d.writeOrder, n)
	}
	d.mu.Unlock()
	if err != nil {
		return err
	}
	return d.MemStore.WriteBlock(n, buf)
}

func (d *traceDev) writes() []int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]int64(nil), d.writeOrder...)
}

func (d *traceDev) resetWrites() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writeOrder = nil
}

func blockPayload(bs int, tag byte) []byte {
	buf := make([]byte, bs)
	for i := range buf {
		buf[i] = tag ^ byte(i)
	}
	return buf
}

func TestAccounting(t *testing.T) {
	const bs = 64
	cases := []struct {
		name     string
		capacity int
		run      func(t *testing.T, c *Cache, dev *traceDev)
		want     Stats
	}{
		{
			name:     "repeat reads hit",
			capacity: 4,
			run: func(t *testing.T, c *Cache, dev *traceDev) {
				buf := make([]byte, bs)
				for i := 0; i < 5; i++ {
					if err := c.ReadBlock(7, buf); err != nil {
						t.Fatal(err)
					}
				}
			},
			want: Stats{Hits: 4, Misses: 1},
		},
		{
			name:     "distinct reads miss",
			capacity: 8,
			run: func(t *testing.T, c *Cache, dev *traceDev) {
				buf := make([]byte, bs)
				for n := int64(0); n < 6; n++ {
					if err := c.ReadBlock(n, buf); err != nil {
						t.Fatal(err)
					}
				}
			},
			want: Stats{Misses: 6},
		},
		{
			name:     "capacity pressure evicts clean blocks",
			capacity: 2,
			run: func(t *testing.T, c *Cache, dev *traceDev) {
				buf := make([]byte, bs)
				for n := int64(0); n < 5; n++ {
					if err := c.ReadBlock(n, buf); err != nil {
						t.Fatal(err)
					}
				}
			},
			want: Stats{Misses: 5, Evictions: 3},
		},
		{
			name:     "dirty eviction writes back",
			capacity: 2,
			run: func(t *testing.T, c *Cache, dev *traceDev) {
				for n := int64(0); n < 4; n++ {
					if err := c.WriteBlock(n, blockPayload(bs, byte(n))); err != nil {
						t.Fatal(err)
					}
				}
			},
			want: Stats{Evictions: 2, WriteBacks: 2},
		},
		{
			name:     "write hit stays cached",
			capacity: 4,
			run: func(t *testing.T, c *Cache, dev *traceDev) {
				for i := 0; i < 3; i++ {
					if err := c.WriteBlock(9, blockPayload(bs, byte(i))); err != nil {
						t.Fatal(err)
					}
				}
				buf := make([]byte, bs)
				if err := c.ReadBlock(9, buf); err != nil {
					t.Fatal(err)
				}
			},
			want: Stats{Hits: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev := newTraceDev(t, 64, bs)
			c := newCache(t, dev, Options{Capacity: tc.capacity})
			tc.run(t, c, dev)
			if got := c.Stats(); got != tc.want {
				t.Errorf("stats = %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestReadYourWrites(t *testing.T) {
	for _, capacity := range []int{1, 3, 64} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			dev := newTraceDev(t, 64, 32)
			c := newCache(t, dev, Options{Capacity: capacity})
			want := make(map[int64][]byte)
			// Overwrite a working set larger than the capacity, twice.
			for round := 0; round < 2; round++ {
				for n := int64(0); n < 10; n++ {
					p := blockPayload(32, byte(n)+byte(round)*17)
					want[n] = p
					if err := c.WriteBlock(n, p); err != nil {
						t.Fatal(err)
					}
				}
			}
			buf := make([]byte, 32)
			for n, p := range want {
				if err := c.ReadBlock(n, buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, p) {
					t.Fatalf("block %d: read-your-writes violated", n)
				}
			}
		})
	}
}

func TestFlushOrdering(t *testing.T) {
	dev := newTraceDev(t, 256, 32)
	c := newCache(t, dev, Options{Capacity: 128})
	// Dirty a scattered set of blocks in descending / shuffled order.
	blocks := []int64{201, 3, 77, 150, 8, 42, 199, 0, 63}
	for _, n := range blocks {
		if err := c.WriteBlock(n, blockPayload(32, byte(n))); err != nil {
			t.Fatal(err)
		}
	}
	dev.resetWrites()
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	got := dev.writes()
	if len(got) != len(blocks) {
		t.Fatalf("flush wrote %d blocks, want %d", len(got), len(blocks))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("write-back order not strictly ascending: %v", got)
		}
	}
	// Everything reached the device with the right contents.
	buf := make([]byte, 32)
	for _, n := range blocks {
		if err := dev.MemStore.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, blockPayload(32, byte(n))) {
			t.Fatalf("block %d content wrong after flush", n)
		}
	}
}

func TestFlushInvariants(t *testing.T) {
	dev := newTraceDev(t, 64, 32)
	c := newCache(t, dev, Options{Capacity: 16})
	for n := int64(0); n < 8; n++ {
		if err := c.WriteBlock(n, blockPayload(32, byte(n))); err != nil {
			t.Fatal(err)
		}
	}
	if d := c.Dirty(); d != 8 {
		t.Fatalf("dirty before flush = %d, want 8", d)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if d := c.Dirty(); d != 0 {
		t.Fatalf("dirty after flush = %d, want 0", d)
	}
	// A second flush is a no-op at the device.
	dev.resetWrites()
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := dev.writes(); len(got) != 0 {
		t.Fatalf("idempotent flush wrote %v", got)
	}
	// Flushed blocks stay resident: re-reads are hits, not device reads.
	pre := c.Stats()
	buf := make([]byte, 32)
	if err := c.ReadBlock(3, buf); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Hits != pre.Hits+1 {
		t.Fatalf("read after flush missed (stats %+v)", got)
	}
	if got := c.Stats().Flushes; got != 2 {
		t.Fatalf("flush count = %d, want 2", got)
	}
}

func TestErrorPropagation(t *testing.T) {
	readErr := errors.New("injected read error")
	writeErr := errors.New("injected write error")

	t.Run("read miss", func(t *testing.T) {
		dev := newTraceDev(t, 16, 32)
		dev.readErr = readErr
		c := newCache(t, dev, Options{Capacity: 4})
		if err := c.ReadBlock(1, make([]byte, 32)); !errors.Is(err, readErr) {
			t.Fatalf("err = %v, want injected", err)
		}
	})
	t.Run("flush", func(t *testing.T) {
		dev := newTraceDev(t, 16, 32)
		c := newCache(t, dev, Options{Capacity: 4})
		if err := c.WriteBlock(1, blockPayload(32, 1)); err != nil {
			t.Fatal(err)
		}
		dev.writeErr = writeErr
		if err := c.Flush(); !errors.Is(err, writeErr) {
			t.Fatalf("err = %v, want injected", err)
		}
		// Data survives the failed flush and lands once the device recovers.
		dev.writeErr = nil
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 32)
		if err := dev.MemStore.ReadBlock(1, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, blockPayload(32, 1)) {
			t.Fatal("dirty block lost across failed flush")
		}
	})
	t.Run("bad buffer", func(t *testing.T) {
		dev := newTraceDev(t, 16, 32)
		c := newCache(t, dev, Options{Capacity: 4})
		if err := c.ReadBlock(0, make([]byte, 16)); !errors.Is(err, vdisk.ErrBadBuffer) {
			t.Fatalf("err = %v, want ErrBadBuffer", err)
		}
		if err := c.WriteBlock(0, make([]byte, 16)); !errors.Is(err, vdisk.ErrBadBuffer) {
			t.Fatalf("err = %v, want ErrBadBuffer", err)
		}
	})
	t.Run("out of range write stays cached-free", func(t *testing.T) {
		dev := newTraceDev(t, 16, 32)
		c := newCache(t, dev, Options{Capacity: 4})
		if err := c.WriteBlock(99, make([]byte, 32)); !errors.Is(err, vdisk.ErrOutOfRange) {
			t.Fatalf("err = %v, want ErrOutOfRange", err)
		}
		if err := c.Flush(); err != nil {
			t.Fatalf("flush after rejected write: %v", err)
		}
	})
}

func TestInvalidate(t *testing.T) {
	dev := newTraceDev(t, 16, 32)
	c := newCache(t, dev, Options{Capacity: 8})
	if err := c.WriteBlock(2, blockPayload(32, 2)); err != nil {
		t.Fatal(err)
	}
	checkDirtyIndex(t, c)
	if err := c.Invalidate(); err != nil {
		t.Fatal(err)
	}
	checkDirtyIndex(t, c)
	buf := make([]byte, 32)
	pre := c.Stats()
	if err := c.ReadBlock(2, buf); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Misses != pre.Misses+1 {
		t.Fatal("read after Invalidate did not go to the device")
	}
	if !bytes.Equal(buf, blockPayload(32, 2)) {
		t.Fatal("dirty data lost by Invalidate")
	}
}

func TestSyncReachesStore(t *testing.T) {
	dev := newTraceDev(t, 16, 32)
	c := newCache(t, dev, Options{Capacity: 8})
	if err := c.WriteBlock(5, blockPayload(32, 5)); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	if err := dev.MemStore.ReadBlock(5, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, blockPayload(32, 5)) {
		t.Fatal("Sync did not push dirty block to the store")
	}
}

// TestConcurrentAccess hammers the cache from several goroutines; run with
// -race. Each goroutine owns a disjoint block range so contents are also
// verifiable.
func TestConcurrentAccess(t *testing.T) {
	dev := newTraceDev(t, 256, 32)
	c := newCache(t, dev, Options{Capacity: 32})
	const workers = 8
	const perWorker = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w * perWorker)
			buf := make([]byte, 32)
			for round := 0; round < 20; round++ {
				for i := int64(0); i < perWorker; i++ {
					n := base + i
					p := blockPayload(32, byte(n)+byte(round))
					if err := c.WriteBlock(n, p); err != nil {
						errs <- err
						return
					}
					if err := c.ReadBlock(n, buf); err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(buf, p) {
						errs <- fmt.Errorf("worker %d block %d torn read", w, n)
						return
					}
				}
				if round%5 == 0 {
					if err := c.Flush(); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Final state on the device matches the last round written.
	buf := make([]byte, 32)
	for n := int64(0); n < workers*perWorker; n++ {
		if err := dev.MemStore.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, blockPayload(32, byte(n)+19)) {
			t.Fatalf("block %d final content wrong", n)
		}
	}
}

// TestElevatorSweepCursor: truncated flush runs must service the dirty
// backlog as one repeating ascending sweep (C-SCAN) — each run picks up
// where the previous one stopped and wraps at the top of the stroke —
// while untruncated (barrier) runs always return the whole backlog in
// ascending order and leave the cursor alone.
func TestElevatorSweepCursor(t *testing.T) {
	dev := newTraceDev(t, 256, 64)
	c := newCache(t, dev, Options{Capacity: 256})
	defer c.Close()
	payload := blockPayload(64, 0x5A)
	for i := 0; i < 100; i++ {
		if err := c.WriteBlock(int64(i), payload); err != nil {
			t.Fatal(err)
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	blocksOf := func(run []*entry) []int64 {
		ns := make([]int64, len(run))
		for i, e := range run {
			ns[i] = e.block
		}
		return ns
	}
	want := func(label string, got []int64, from, n int) {
		t.Helper()
		if len(got) != n {
			t.Fatalf("%s: got %d blocks %v, want %d", label, len(got), got, n)
		}
		for i, b := range got {
			if b != int64((from+i)%100) {
				t.Fatalf("%s: block[%d] = %d, want %d (run %v)", label, i, b, (from+i)%100, got)
			}
		}
	}

	want("run 1", blocksOf(c.dirtyRunLocked(40)), 0, 40)
	want("run 2", blocksOf(c.dirtyRunLocked(40)), 40, 40)
	// Third run reaches the top of the stroke and wraps, servicing 80..99
	// plus the wrapped tail 0..19 — re-sorted ascending so the batch keeps
	// the pipeline's sorted-submission contract.
	wrap := blocksOf(c.dirtyRunLocked(40))
	if len(wrap) != 40 {
		t.Fatalf("run 3 (wrap): got %d blocks %v, want 40", len(wrap), wrap)
	}
	for i, b := range wrap {
		w := int64(i) // 0..19
		if i >= 20 {
			w = int64(i) + 60 // 80..99
		}
		if b != w {
			t.Fatalf("run 3 (wrap): block[%d] = %d, want %d (run %v)", i, b, w, wrap)
		}
	}
	want("run 4", blocksOf(c.dirtyRunLocked(40)), 20, 40)

	// An untruncated run (the barrier path) is the whole backlog ascending,
	// regardless of where the sweep cursor sits.
	want("barrier run", blocksOf(c.dirtyRunLocked(0)), 0, 100)
}

// BenchmarkSyncOneDirty measures one barrier over a full cache holding a
// single dirty block: fill the cache with clean blocks, then each iteration
// writes one resident block and Syncs. The cost should follow the dirty set
// (one block), not the resident set. Wall clock only; not gated.
func BenchmarkSyncOneDirty(b *testing.B) {
	const bs = 1024
	for _, resident := range []int{1024, 16384} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			store, err := vdisk.NewMemStore(int64(resident), bs)
			if err != nil {
				b.Fatal(err)
			}
			c, err := NewWithOptions(store, Options{Capacity: resident})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			buf := make([]byte, bs)
			for n := int64(0); n < int64(resident); n++ {
				if err := c.ReadBlock(n, buf); err != nil {
					b.Fatal(err)
				}
			}
			n := int64(0)
			for b.Loop() {
				if err := c.WriteBlock(n, buf); err != nil {
					b.Fatal(err)
				}
				if err := c.Sync(); err != nil {
					b.Fatal(err)
				}
				n = (n + 1) % int64(resident)
			}
		})
	}
}
