package blockcache

import (
	"bytes"
	"errors"
	"testing"

	"stegfs/internal/vdisk"
)

// The pipeline-resume suite pins the contract the fault-tolerance layer
// depends on: a sticky write-back error pauses the pipeline and surfaces at
// the next barrier ONCE — and after that barrier the cache must be fully
// recovered: clean, durable, and with the background pipeline re-armed. The
// fault source is vdisk.FaultStore, so the errors crossing the cache are the
// real sentinel-classified faults the retry/degradation layers see.

func newFaultCache(t *testing.T, blocks int64, bs int, o Options) (*vdisk.MemStore, *vdisk.FaultStore, *Cache) {
	t.Helper()
	mem, err := vdisk.NewMemStore(blocks, bs)
	if err != nil {
		t.Fatal(err)
	}
	fs := vdisk.NewFaultStore(mem, 21)
	c, err := NewWithOptions(fs, o)
	if err != nil {
		t.Fatal(err)
	}
	return mem, fs, c
}

// TestPipelineResumeAfterBackgroundFault: an async write-behind run fails,
// the sticky error surfaces at the next Sync, and the SAME Sync leaves the
// cache clean and durable; the background pipeline then resumes on new work.
func TestPipelineResumeAfterBackgroundFault(t *testing.T) {
	mem, fs, c := newFaultCache(t, 256, 32, Options{Capacity: 128, WriteBehind: 8, FlushWorkers: 2})
	defer c.StopFlushers()

	fs.SetTransientRates(0, 1, 1<<20) // every write fails until disarmed
	for n := int64(0); n < 24; n++ {
		if err := c.WriteBlock(n, blockPayload(32, byte(n))); err != nil {
			t.Fatalf("write-behind failures must stay in the background: %v", err)
		}
	}
	// Wait for the pipeline to have tried and failed at least once.
	waitUntil(t, func() bool { return fs.Stats().WriteFaults > 0 })

	fs.Disarm()
	err := c.Sync()
	if err == nil {
		t.Fatal("first barrier after a background fault must surface the sticky error")
	}
	if !errors.Is(err, vdisk.ErrTransient) {
		t.Fatalf("sticky error lost its fault class: %v", err)
	}

	// Recovery contract: the erroring barrier already did its work.
	if d := c.Dirty(); d != 0 {
		t.Fatalf("cache still has %d dirty blocks after the surfacing barrier", d)
	}
	if err := c.Sync(); err != nil {
		t.Fatalf("second barrier must be clean, got %v", err)
	}
	buf := make([]byte, 32)
	for n := int64(0); n < 24; n++ {
		if err := mem.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, blockPayload(32, byte(n))) {
			t.Fatalf("block %d not durable after recovery", n)
		}
	}

	// The pipeline is re-armed: fresh dirty blocks drain without a barrier.
	before := c.Stats().WriteBehinds
	for n := int64(100); n < 124; n++ {
		if err := c.WriteBlock(n, blockPayload(32, byte(n))); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, func() bool { return c.Stats().WriteBehinds > before })
	waitUntil(t, func() bool { return c.Dirty() < 24 })
	if err := c.Sync(); err != nil {
		t.Fatalf("pipeline did not recover: %v", err)
	}
}

// TestPipelineResumeAfterEvictionFault: failed eviction write-backs pile
// dirty blocks past capacity; after the device heals, one barrier surfaces
// the incident and restores the invariant that the cache can evict again.
func TestPipelineResumeAfterEvictionFault(t *testing.T) {
	mem, fs, c := newFaultCache(t, 64, 32, Options{Capacity: 2})
	fs.SetTransientRates(0, 1, 1<<20)
	for n := int64(0); n < 6; n++ {
		if err := c.WriteBlock(n, blockPayload(32, byte(n))); err != nil {
			t.Fatal(err)
		}
	}
	if d := c.Dirty(); d != 6 {
		t.Fatalf("dirty = %d, want all 6 retained across failed evictions", d)
	}
	checkDirtyIndex(t, c)
	fs.Disarm()
	if err := c.Flush(); !errors.Is(err, vdisk.ErrTransient) {
		t.Fatalf("Flush = %v, want sticky transient fault", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("second Flush = %v, want nil", err)
	}
	checkDirtyIndex(t, c)
	buf := make([]byte, 32)
	for n := int64(0); n < 6; n++ {
		if err := mem.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, blockPayload(32, byte(n))) {
			t.Fatalf("block %d lost across eviction faults", n)
		}
	}
	// Evictions work again: pushing new dirty blocks through a capacity-2
	// cache forces write-backs on the healed device.
	for n := int64(20); n < 26; n++ {
		if err := c.WriteBlock(n, blockPayload(32, byte(n)+7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("post-recovery Flush = %v", err)
	}
	checkDirtyIndex(t, c)
	for n := int64(20); n < 26; n++ {
		if err := mem.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, blockPayload(32, byte(n)+7)) {
			t.Fatalf("block %d wrong after recovery", n)
		}
	}
}

// TestPipelineResumeHardCapNoDeadlock: the dirty hard cap stalls writers
// until the pipeline catches up — but when the pipeline is down with a
// sticky error, writers must NOT wait for progress that cannot come.
func TestPipelineResumeHardCapNoDeadlock(t *testing.T) {
	mem, fs, c := newFaultCache(t, 256, 32, Options{Capacity: 128, WriteBehind: 4, FlushWorkers: 1})
	defer c.StopFlushers()
	fs.SetTransientRates(0, 1, 1<<20)

	done := make(chan error, 1)
	go func() {
		// 32 writes blow far past the 2x high-water hard cap; with the
		// pipeline erroring they must still complete instead of stalling.
		for n := int64(0); n < 32; n++ {
			if err := c.WriteBlock(n, blockPayload(32, byte(n))); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	waitUntil(t, func() bool {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("writer failed: %v", err)
			}
			return true
		default:
			return false
		}
	})

	fs.Disarm()
	if err := c.Sync(); !errors.Is(err, vdisk.ErrTransient) {
		t.Fatalf("Sync = %v, want sticky transient fault", err)
	}
	if err := c.Sync(); err != nil {
		t.Fatalf("second Sync = %v, want nil", err)
	}
	buf := make([]byte, 32)
	for n := int64(0); n < 32; n++ {
		if err := mem.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, blockPayload(32, byte(n))) {
			t.Fatalf("block %d not durable after stalled-writer recovery", n)
		}
	}
}
