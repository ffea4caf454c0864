package blockcache

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"stegfs/internal/vdisk"
)

// waitUntil polls cond until it holds or a generous deadline passes. The
// background flush pipeline is asynchronous, so tests about its steady state
// poll instead of assuming the flusher ran inline.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within deadline")
		}
		time.Sleep(time.Millisecond)
	}
}

// checkDirtyIndex asserts the dirty index holds exactly the resident entries
// whose dirty flag is set, each at the slot it records, and that
// Dirty reports its size. Call it only where no flush is in flight.
func checkDirtyIndex(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	want := 0
	for n, e := range c.entries {
		if !e.dirty {
			continue
		}
		want++
		if e.slot < 0 || e.slot >= len(c.dirty) || c.dirty[e.slot] != e {
			t.Errorf("dirty block %d is not at its recorded slot %d of the dirty index", n, e.slot)
		}
	}
	for i, e := range c.dirty {
		// An entry records one slot, so matching it rules out duplicates.
		switch {
		case e == nil:
			t.Errorf("dirty index slot %d is empty", i)
		case c.entries[e.block] != e || !e.dirty:
			t.Errorf("dirty index holds block %d, which is not a resident dirty entry", e.block)
		case e.slot != i:
			t.Errorf("dirty index slot %d holds block %d, which records slot %d", i, e.block, e.slot)
		}
	}
	if len(c.dirty) != want {
		t.Errorf("dirty index has %d entries, want %d", len(c.dirty), want)
	}
	c.mu.Unlock()
	if d := c.Dirty(); d != want {
		t.Errorf("Dirty() = %d, want %d", d, want)
	}
}

// pipeDev is a BatchDevice test double for the flush pipeline: it records
// every batch submission and a copy of the bytes it carried as the gate
// released it, can park batch writes on a gate, and can fail them.
// Per-block writes (evictions) pass straight through.
type pipeDev struct {
	*vdisk.MemStore
	mu       sync.Mutex
	gate     chan struct{} // nil = ungated; a batch write parks until closed or sent a token
	entered  chan int      // batch length signaled when a batch write arrives
	batches  [][]int64
	payloads [][][]byte // payloads[i]: batch i's buffers, copied once its gate opened
	writeErr error
}

func newPipeDev(t *testing.T, blocks int64, bs int) *pipeDev {
	t.Helper()
	store, err := vdisk.NewMemStore(blocks, bs)
	if err != nil {
		t.Fatal(err)
	}
	return &pipeDev{MemStore: store, entered: make(chan int, 64)}
}

func (d *pipeDev) ReadBlocks(ns []int64, bufs [][]byte) error {
	for i, n := range ns {
		if err := d.MemStore.ReadBlock(n, bufs[i]); err != nil {
			return err
		}
	}
	return nil
}

func (d *pipeDev) WriteBlocks(ns []int64, bufs [][]byte) error {
	d.mu.Lock()
	d.batches = append(d.batches, append([]int64(nil), ns...))
	d.payloads = append(d.payloads, nil)
	idx := len(d.batches) - 1
	gate := d.gate
	failErr := d.writeErr
	d.mu.Unlock()
	select {
	case d.entered <- len(ns):
	default:
	}
	if gate != nil {
		<-gate
	}
	payload := make([][]byte, len(bufs))
	for i, b := range bufs {
		payload[i] = bytes.Clone(b)
	}
	d.mu.Lock()
	d.payloads[idx] = payload
	d.mu.Unlock()
	if failErr != nil {
		return failErr
	}
	for i, n := range ns {
		if err := d.MemStore.WriteBlock(n, bufs[i]); err != nil {
			return err
		}
	}
	return nil
}

func (d *pipeDev) batchSizes() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]int, len(d.batches))
	for i, b := range d.batches {
		out[i] = len(b)
	}
	return out
}

var _ vdisk.BatchDevice = (*pipeDev)(nil)

// TestPipelineBackgroundFlushBatched: crossing the high-water mark must
// trigger the background flusher, which submits sorted multi-block batches
// (not per-block writes) and drains the backlog to half the mark without the
// writer ever issuing a device write itself.
func TestPipelineBackgroundFlushBatched(t *testing.T) {
	dev := newPipeDev(t, 256, 32)
	c := newCache(t, dev, Options{Capacity: 128, WriteBehind: 16, FlushWorkers: 1})
	defer c.Close()
	for n := int64(63); n >= 0; n-- {
		if err := c.WriteBlock(n, blockPayload(32, byte(n))); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, func() bool { return c.FlushInFlight() == 0 && c.Dirty() <= 16 })
	st := c.Stats()
	if st.WriteBehinds == 0 {
		t.Fatal("background write-behind never ran")
	}
	if st.FlushBatches == 0 {
		t.Fatal("no batched flush submissions recorded")
	}
	sizes := dev.batchSizes()
	if len(sizes) == 0 {
		t.Fatal("device saw no batch submissions")
	}
	multi := 0
	for _, s := range sizes {
		if s > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatalf("all %d flush submissions were single-block: %v", len(sizes), sizes)
	}
	// Every batch is sorted ascending.
	dev.mu.Lock()
	for _, b := range dev.batches {
		for i := 1; i < len(b); i++ {
			if b[i-1] >= b[i] {
				t.Fatalf("flush batch not ascending: %v", b)
			}
		}
	}
	dev.mu.Unlock()
	// Flushed blocks stayed resident and correct.
	buf := make([]byte, 32)
	pre := c.Stats()
	for n := int64(0); n < 64; n++ {
		if err := c.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, blockPayload(32, byte(n))) {
			t.Fatalf("block %d wrong after background flush", n)
		}
	}
	if got := c.Stats().Sub(pre); got.Misses != 0 {
		t.Fatalf("background flush evicted blocks: %d misses", got.Misses)
	}
}

// TestPipelineWriteWins: a block re-dirtied while its flush is in flight
// must stay dirty — the racing write wins, the stale staged bytes are
// superseded at the next run, and the barrier leaves the NEW data on the
// device.
func TestPipelineWriteWins(t *testing.T) {
	dev := newPipeDev(t, 64, 32)
	dev.gate = make(chan struct{})
	c := newCache(t, dev, Options{Capacity: 32, WriteBehind: 2, FlushWorkers: 1})
	defer c.Close()
	old := blockPayload(32, 0xAA)
	for _, n := range []int64{10, 11, 12} {
		if err := c.WriteBlock(n, old); err != nil {
			t.Fatal(err)
		}
	}
	<-dev.entered // a flush batch is parked inside the device

	// Re-dirty block 10 while its staged copy is in flight.
	fresh := blockPayload(32, 0x55)
	if err := c.WriteBlock(10, fresh); err != nil {
		t.Fatal(err)
	}
	// Read-your-writes across the in-flight window.
	buf := make([]byte, 32)
	if err := c.ReadBlock(10, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fresh) {
		t.Fatal("read during in-flight flush returned stale data")
	}
	close(dev.gate)
	dev.mu.Lock()
	dev.gate = nil
	dev.mu.Unlock()

	// The completed run must NOT have marked block 10 clean.
	waitUntil(t, func() bool { return c.FlushInFlight() == 0 })
	checkDirtyIndex(t, c)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if d := c.Dirty(); d != 0 {
		t.Fatalf("dirty after barrier = %d, want 0", d)
	}
	checkDirtyIndex(t, c)
	if err := dev.MemStore.ReadBlock(10, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fresh) {
		t.Fatal("device holds stale data: write-wins violated")
	}
}

// TestPipelineFlightWritesStagedBytes: a flight writes its entries' own
// buffers, so a write that changes a block while its flight is parked in the
// device must move the entry onto a spare buffer first. The flight then
// writes the bytes as of staging, reads see the newest bytes, the next
// barrier writes them, and the swapped-out buffer returns to the spare list
// when the flight lands.
func TestPipelineFlightWritesStagedBytes(t *testing.T) {
	dev := newPipeDev(t, 64, 32)
	dev.gate = make(chan struct{})
	c := newCache(t, dev, Options{Capacity: 32, WriteBehind: 2, FlushWorkers: 1})
	defer c.Close()
	staged := blockPayload(32, 0xAA)
	for _, n := range []int64{10, 11, 12} {
		if err := c.WriteBlock(n, staged); err != nil {
			t.Fatal(err)
		}
	}
	<-dev.entered // a write-behind flight is parked inside the device
	dev.mu.Lock()
	parked := dev.batches[0]
	dev.mu.Unlock()
	at := slices.Index(parked, 10)
	if at < 0 {
		t.Fatalf("parked flight %v does not carry block 10", parked)
	}

	pre := c.Stats()
	buf := make([]byte, 32)
	var newest []byte
	for _, tag := range []byte{0x55, 0x66} {
		newest = blockPayload(32, tag)
		if err := c.WriteBlock(10, newest); err != nil {
			t.Fatal(err)
		}
		if err := c.ReadBlock(10, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, newest) {
			t.Fatalf("read of block 10 during its flight = %#x..., want %#x...", buf[0], newest[0])
		}
	}
	// The first change took a spare buffer; the second wrote that spare.
	if got := c.Stats().Sub(pre).FlightRewrites; got != 1 {
		t.Fatalf("FlightRewrites = %d after two changes in one flight, want 1", got)
	}
	c.mu.Lock()
	spares := len(c.spare)
	c.mu.Unlock()
	if spares != 0 {
		t.Fatalf("spare list holds %d buffers while the only swapped one is in the air", spares)
	}

	close(dev.gate)
	dev.mu.Lock()
	dev.gate = nil
	dev.mu.Unlock()
	waitUntil(t, func() bool {
		dev.mu.Lock()
		defer dev.mu.Unlock()
		return dev.payloads[0] != nil
	})
	dev.mu.Lock()
	flown := dev.payloads[0][at]
	dev.mu.Unlock()
	if !bytes.Equal(flown, staged) {
		t.Fatalf("parked flight wrote %#x... for block 10, want the staged %#x...", flown[0], staged[0])
	}
	waitUntil(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.spare) == 1
	})

	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	dev.mu.Lock()
	for i, b := range dev.batches[1:] {
		if j := slices.Index(b, 10); j >= 0 && !bytes.Equal(dev.payloads[i+1][j], newest) {
			t.Errorf("batch %d after the flight wrote %#x... for block 10, want the newest %#x...", i+1, dev.payloads[i+1][j][0], newest[0])
		}
	}
	dev.mu.Unlock()
	if err := dev.MemStore.ReadBlock(10, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, newest) {
		t.Fatal("device does not hold the newest bytes of block 10 after the barrier")
	}
	if d := c.Dirty(); d != 0 {
		t.Fatalf("dirty after barrier = %d, want 0", d)
	}
	c.mu.Lock()
	spares = len(c.spare)
	c.mu.Unlock()
	if spares != 1 {
		t.Fatalf("spare list holds %d buffers after the barrier, want 1", spares)
	}
}

// TestPipelineFlushAllocBytes: staging a run copies no block bytes, so a
// barrier over 1024 dirty blocks allocates bookkeeping only; and the spare
// list that copy-on-write draws from never outgrows the blocks in flight.
func TestPipelineFlushAllocBytes(t *testing.T) {
	t.Run("flush", func(t *testing.T) {
		const blocks, bs = 1024, 1024
		store, err := vdisk.NewMemStore(blocks, bs)
		if err != nil {
			t.Fatal(err)
		}
		c := newCache(t, store, Options{Capacity: blocks})
		defer c.Close()
		for n := int64(0); n < blocks; n++ {
			if err := c.WriteBlock(n, blockPayload(bs, byte(n))); err != nil {
				t.Fatal(err)
			}
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		// The bookkeeping is five pointer- or word-sized slices per block
		// (about 56 bytes a block); copying the run would add bs a block.
		got := after.TotalAlloc - before.TotalAlloc
		if limit := uint64(blocks * bs / 8); got > limit {
			t.Fatalf("Flush of %d dirty %d-byte blocks allocated %d bytes, want <= %d", blocks, bs, got, limit)
		}
		if d := c.Dirty(); d != 0 {
			t.Fatalf("dirty after Flush = %d, want 0", d)
		}
	})

	// Writers rewrite their blocks without pause while one barrier at a
	// time parks its flight in the device; without write-behind and with
	// every block resident, that flight is the only one in the air, so the
	// largest batch is the most blocks ever in flight at once.
	t.Run("spare-bound", func(t *testing.T) {
		const writers, perWriter, bs = 4, 16, 32
		dev := newPipeDev(t, writers*perWriter, bs)
		dev.gate = make(chan struct{})
		c := newCache(t, dev, Options{Capacity: writers * perWriter})
		stop := make(chan struct{})
		last := make([]int, writers)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				buf := make([]byte, bs)
				for round := 0; ; round++ {
					for i := 0; i < perWriter; i++ {
						n := int64(w*perWriter + i)
						p := blockPayload(bs, byte(n)+byte(round))
						if err := c.WriteBlock(n, p); err != nil {
							t.Error(err)
							return
						}
						if err := c.ReadBlock(n, buf); err != nil {
							t.Error(err)
							return
						}
						if !bytes.Equal(buf, p) {
							t.Errorf("writer %d block %d: read-your-writes violated", w, n)
							return
						}
					}
					select {
					case <-stop:
						last[w] = round
						return
					default:
					}
				}
			}(w)
		}
		// A failure must not leave writers allocating under later tests'
		// allocation counts.
		stopWriters := sync.OnceFunc(func() { close(stop); wg.Wait() })
		defer stopWriters()
		maxBatch := 0
		for flight := 0; flight < 50; flight++ {
			waitUntil(t, func() bool { return c.Dirty() > 0 })
			pre := c.Stats().FlightRewrites
			done := make(chan error, 1)
			go func() { done <- c.Flush() }()
			if k := <-dev.entered; k > maxBatch {
				maxBatch = k
			}
			// Let the writers change blocks of the parked flight.
			waitUntil(t, func() bool { return c.Stats().FlightRewrites > pre })
			dev.gate <- struct{}{}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			c.mu.Lock()
			spares := len(c.spare)
			c.mu.Unlock()
			if spares > maxBatch {
				t.Fatalf("after flight %d the spare list holds %d buffers; the largest flight carried %d", flight, spares, maxBatch)
			}
		}
		stopWriters()
		close(dev.gate)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		img := dev.Snapshot()
		for w := 0; w < writers; w++ {
			for i := 0; i < perWriter; i++ {
				n := w*perWriter + i
				if !bytes.Equal(img[n*bs:(n+1)*bs], blockPayload(bs, byte(n)+byte(last[w]))) {
					t.Fatalf("block %d on the device is not writer %d's last write", n, w)
				}
			}
		}
	})
}

// TestPipelineStickyAsyncError: a background flush failure is recorded and
// surfaced exactly once at the next barrier; the data survives and lands
// once the device recovers. While the error is pending the pipeline pauses
// instead of hammering the failing device.
func TestPipelineStickyAsyncError(t *testing.T) {
	injected := errors.New("injected batch write error")
	dev := newPipeDev(t, 64, 32)
	dev.mu.Lock()
	dev.writeErr = injected
	dev.mu.Unlock()
	c := newCache(t, dev, Options{Capacity: 32, WriteBehind: 4, FlushWorkers: 1})
	defer c.Close()
	for n := int64(0); n < 8; n++ {
		if err := c.WriteBlock(n, blockPayload(32, byte(n))); err != nil {
			t.Fatal(err)
		}
	}
	<-dev.entered // the failing background run was submitted
	waitUntil(t, func() bool { return c.FlushInFlight() == 0 })
	attempts := len(dev.batchSizes())
	// Pipeline pauses on the sticky error: no further attempts pile up.
	time.Sleep(20 * time.Millisecond)
	if got := len(dev.batchSizes()); got != attempts {
		t.Fatalf("pipeline kept retrying a failing device: %d -> %d attempts", attempts, got)
	}
	checkDirtyIndex(t, c) // the failed run left its blocks dirty and indexed
	dev.mu.Lock()
	dev.writeErr = nil
	dev.mu.Unlock()
	if err := c.Flush(); !errors.Is(err, injected) {
		t.Fatalf("first barrier = %v, want sticky injected error", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("second barrier = %v, want nil", err)
	}
	checkDirtyIndex(t, c)
	buf := make([]byte, 32)
	for n := int64(0); n < 8; n++ {
		if err := dev.MemStore.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, blockPayload(32, byte(n))) {
			t.Fatalf("block %d lost across failed background flush", n)
		}
	}
}

// TestPipelineBackpressure: writers stall at the hard cap (twice the
// high-water mark) until the flusher makes room, instead of growing the
// dirty backlog without bound.
func TestPipelineBackpressure(t *testing.T) {
	dev := newPipeDev(t, 64, 32)
	dev.gate = make(chan struct{})
	c := newCache(t, dev, Options{Capacity: 32, WriteBehind: 2, FlushWorkers: 1})
	defer c.Close()
	for n := int64(0); n < 3; n++ {
		if err := c.WriteBlock(n, blockPayload(32, byte(n))); err != nil {
			t.Fatal(err)
		}
	}
	<-dev.entered // flusher parked in the device with a staged run

	// dirty is now 3; the next write reaches the hard cap (4) and must wait.
	done := make(chan error, 1)
	go func() { done <- c.WriteBlock(40, blockPayload(32, 40)) }()
	select {
	case err := <-done:
		t.Fatalf("write past the hard cap returned early (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(dev.gate)
	dev.mu.Lock()
	dev.gate = nil
	dev.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().FlushStalls; got == 0 {
		t.Fatal("no back-pressure stall recorded")
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineBarrierDrainsInFlight: Flush must wait for in-flight
// background runs before reporting the cache clean.
func TestPipelineBarrierDrainsInFlight(t *testing.T) {
	dev := newPipeDev(t, 64, 32)
	dev.gate = make(chan struct{})
	c := newCache(t, dev, Options{Capacity: 32, WriteBehind: 2, FlushWorkers: 1})
	defer c.Close()
	for n := int64(0); n < 3; n++ {
		if err := c.WriteBlock(n, blockPayload(32, byte(n))); err != nil {
			t.Fatal(err)
		}
	}
	<-dev.entered
	flushed := make(chan error, 1)
	go func() { flushed <- c.Flush() }()
	select {
	case err := <-flushed:
		t.Fatalf("Flush returned with a run still parked in the device (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(dev.gate)
	dev.mu.Lock()
	dev.gate = nil
	dev.mu.Unlock()
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if d := c.Dirty(); d != 0 {
		t.Fatalf("dirty after barrier = %d, want 0", d)
	}
	buf := make([]byte, 32)
	for n := int64(0); n < 3; n++ {
		if err := dev.MemStore.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, blockPayload(32, byte(n))) {
			t.Fatalf("block %d missing on device after barrier", n)
		}
	}
}

// TestPipelineCloseShutsDownWorkers: Close drains the pipeline, stops the
// pool and leaves the device complete.
func TestPipelineCloseShutsDownWorkers(t *testing.T) {
	dev := newPipeDev(t, 128, 32)
	c := newCache(t, dev, Options{Capacity: 64, WriteBehind: 8, FlushWorkers: 2})
	for n := int64(0); n < 40; n++ {
		if err := c.WriteBlock(n, blockPayload(32, byte(n))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// The store is closed now; inspect the raw image instead of reading.
	img := dev.Snapshot()
	for n := int64(0); n < 40; n++ {
		if !bytes.Equal(img[n*32:(n+1)*32], blockPayload(32, byte(n))) {
			t.Fatalf("block %d not durable after Close", n)
		}
	}
}

// TestPipelineConcurrentStress hammers the async pipeline from concurrent
// writers, readers and barriers; run with -race. Contents are verifiable
// because each goroutine owns a disjoint block range.
func TestPipelineConcurrentStress(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dev := newPipeDev(t, 256, 32)
			c := newCache(t, dev, Options{Capacity: 48, Policy: Policy2Q, WriteBehind: 12, FlushWorkers: workers})
			const writers = 8
			const perWorker = 16
			var wg sync.WaitGroup
			errs := make(chan error, writers)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					base := int64(w * perWorker)
					buf := make([]byte, 32)
					for round := 0; round < 15; round++ {
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
						if round%6 == 0 {
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
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			checkDirtyIndex(t, c)
			if d := c.Dirty(); d != 0 {
				t.Fatalf("dirty after the final barrier = %d, want 0", d)
			}
			img := dev.Snapshot()
			for n := int64(0); n < writers*perWorker; n++ {
				if !bytes.Equal(img[n*32:(n+1)*32], blockPayload(32, byte(n)+14)) {
					t.Fatalf("block %d final content wrong", n)
				}
			}
		})
	}
}

// TestPipelineStopFlushers: StopFlushers drains and terminates the pool
// without closing the device; the cache stays usable afterwards, with
// write-behind stopped so dirty blocks wait for the next barrier.
func TestPipelineStopFlushers(t *testing.T) {
	dev := newPipeDev(t, 128, 32)
	c := newCache(t, dev, Options{Capacity: 64, WriteBehind: 8, FlushWorkers: 2})
	for n := int64(0); n < 20; n++ {
		if err := c.WriteBlock(n, blockPayload(32, byte(n))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.StopFlushers(); err != nil {
		t.Fatal(err)
	}
	if d := c.Dirty(); d != 0 {
		t.Fatalf("dirty after StopFlushers = %d, want 0", d)
	}
	// Still usable: the device is open, and past the high-water mark the
	// writes stay dirty until the barrier.
	for n := int64(40); n < 60; n++ {
		if err := c.WriteBlock(n, blockPayload(32, byte(n))); err != nil {
			t.Fatal(err)
		}
	}
	if d := c.Dirty(); d != 20 {
		t.Fatalf("dirty before the barrier = %d, want all 20", d)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	for n := int64(40); n < 60; n++ {
		if err := dev.MemStore.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, blockPayload(32, byte(n))) {
			t.Fatalf("block %d lost after StopFlushers", n)
		}
	}
}

// TestPipelineBacklogSplitsAcrossWorkers: one oversized write batch must be
// drained as multiple concurrent runs when the pool has more than one
// flusher, not one serialized mega-run.
func TestPipelineBacklogSplitsAcrossWorkers(t *testing.T) {
	dev := newPipeDev(t, 256, 32)
	dev.gate = make(chan struct{})
	c := newCache(t, dev, Options{Capacity: 128, WriteBehind: 8, FlushWorkers: 2})
	defer c.Close()
	ns := make([]int64, 64)
	bufs := make([][]byte, 64)
	for i := range ns {
		ns[i] = int64(i)
		bufs[i] = blockPayload(32, byte(i))
	}
	done := make(chan error, 1)
	go func() { done <- c.WriteBlocks(ns, bufs) }() // stalls at the hard cap until the pool drains
	// Both workers must take a share of the backlog and park in the device
	// concurrently.
	<-dev.entered
	<-dev.entered
	close(dev.gate)
	dev.mu.Lock()
	dev.gate = nil
	dev.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	for _, n := range ns {
		if err := dev.MemStore.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, blockPayload(32, byte(n))) {
			t.Fatalf("block %d wrong after split drain", n)
		}
	}
}
