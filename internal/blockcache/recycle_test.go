package blockcache

import (
	"bytes"
	"sync"
	"testing"

	"stegfs/internal/vdisk"
)

// TestMissAtCapacityAllocs pins the recycled miss path: once the cache is
// full, a ReadBlocks of k missing blocks reuses evicted entries, buffers and
// policy nodes, so it allocates only its per-batch bookkeeping (one scratch
// slice, the device buffer list, one fetch slab and one done channel) — the
// same count whether the batch misses 1 block or 64.
func TestMissAtCapacityAllocs(t *testing.T) {
	const capacity, bs, blocks = 256, 32, 1 << 14
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			store, err := vdisk.NewMemStore(blocks, bs)
			if err != nil {
				t.Fatal(err)
			}
			c := newCache(t, store, Options{Capacity: capacity, Policy: policy})
			ns := make([]int64, 64)
			bufs := make([][]byte, 64)
			for i := range bufs {
				bufs[i] = make([]byte, bs)
			}
			// Consecutive batches walk the whole device, a cycle far longer
			// than the cache and 2Q's ghost queue, so every block misses.
			var next int64
			read := func(k int) {
				for i := range k {
					ns[i] = next
					next = (next + 1) % blocks
				}
				if err := c.ReadBlocks(ns[:k], bufs[:k]); err != nil {
					t.Fatal(err)
				}
			}
			for range 4 * capacity / 64 {
				read(64) // fill to capacity and settle the maps
			}
			allocs := make(map[int]float64)
			for _, k := range []int{1, 8, 64} {
				before := c.Stats()
				allocs[k] = testing.AllocsPerRun(100, func() { read(k) })
				d := c.Stats().Sub(before)
				if d.Hits != 0 || d.Misses != d.Evictions {
					t.Fatalf("k=%d: %d hits, %d misses, %d evictions; want every block to miss and evict", k, d.Hits, d.Misses, d.Evictions)
				}
			}
			t.Logf("allocs per ReadBlocks by miss count: %v", allocs)
			if allocs[1] != allocs[8] || allocs[1] != allocs[64] {
				t.Fatalf("allocs per ReadBlocks at capacity depend on the miss count: %v", allocs)
			}
			if allocs[1] > 4 {
				t.Fatalf("allocs per ReadBlocks at capacity = %v, want at most 4", allocs[1])
			}
		})
	}
}

// TestPipelineDrainWithRecycledEntries: a barrier's obligation outlives its
// unlocked flush windows, and an entry it was going to write can meanwhile
// be evicted and recycled for another block. The barrier must still write
// every block that was dirty when it began, with its bytes, and nothing
// else: a recycled entry now dirty with another block belongs to the next
// barrier.
func TestPipelineDrainWithRecycledEntries(t *testing.T) {
	const bs, high = 16, 200
	const dirty = maxFlushRun + high // the first run leaves `high` blocks behind
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			dev := newPipeDev(t, 4*dirty, bs)
			c := newCache(t, dev, Options{Capacity: dirty, Policy: policy})
			defer c.Close()
			// The blocks the first run leaves behind are written first, so
			// they are the oldest and the first evicted under either policy.
			write := func(n int64, tag byte) {
				if err := c.WriteBlock(n, blockPayload(bs, tag)); err != nil {
					t.Error(err)
				}
			}
			for n := int64(maxFlushRun); n < dirty; n++ {
				write(n, byte(n))
			}
			for n := int64(0); n < maxFlushRun; n++ {
				write(n, byte(n))
			}

			dev.gate = make(chan struct{})
			flushed := make(chan error, 1)
			go func() { flushed <- c.Flush() }()
			if got := <-dev.entered; got != maxFlushRun {
				t.Fatalf("first barrier run has %d blocks, want %d", got, maxFlushRun)
			}
			// With the first run parked in the device, miss readers evict
			// the rest of the obligation (writing it back) and writers of
			// fresh blocks take over the freed entries.
			var wg sync.WaitGroup
			for g := range 3 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					buf := make([]byte, bs)
					for i := range int64(high / 2) {
						n := dirty + int64(g)*high + i
						if g == 2 {
							write(n, byte(n)+1)
							continue
						}
						if err := c.ReadBlock(n, buf); err != nil {
							t.Error(err)
						}
					}
				}()
			}
			wg.Wait()
			dev.mu.Lock()
			close(dev.gate)
			dev.gate = nil
			dev.mu.Unlock()
			if err := <-flushed; err != nil {
				t.Fatal(err)
			}

			if c.Stats().Evictions < high {
				t.Fatalf("only %d evictions during the barrier, want the %d blocks it left behind", c.Stats().Evictions, high)
			}
			buf := make([]byte, bs)
			for n := int64(0); n < dirty; n++ {
				if err := dev.MemStore.ReadBlock(n, buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, blockPayload(bs, byte(n))) {
					t.Fatalf("block %d, dirty when the barrier began, is not on the device", n)
				}
			}
			dev.mu.Lock()
			defer dev.mu.Unlock()
			for _, batch := range dev.batches {
				for _, n := range batch {
					if n >= dirty {
						t.Fatalf("barrier wrote block %d, which was not dirty when it began", n)
					}
				}
			}
		})
	}
}

// TestInvalidateRecyclesEntries: Invalidate hands every entry to the free
// list, and the cache refills from it with correct contents.
func TestInvalidateRecyclesEntries(t *testing.T) {
	const bs = 32
	dev := newTraceDev(t, 64, bs)
	c := newCache(t, dev, Options{Capacity: 16})
	for n := int64(0); n < 16; n++ {
		if err := c.WriteBlock(n, blockPayload(bs, byte(n))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Invalidate(); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	free := len(c.free)
	c.mu.Unlock()
	if free != 16 {
		t.Fatalf("free list holds %d entries after Invalidate, want 16", free)
	}
	buf := make([]byte, bs)
	for n := int64(15); n >= 0; n-- {
		if err := c.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, blockPayload(bs, byte(n))) {
			t.Fatalf("block %d read back wrong after Invalidate", n)
		}
	}
	if s := c.Stats(); s.Misses != 16 {
		t.Fatalf("misses = %d after Invalidate, want 16", s.Misses)
	}
}
