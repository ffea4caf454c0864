// Package blockcache implements a buffered block cache between the file
// systems and the vdisk device layer.
//
// The ICDE 2003 StegFS evaluation charges every hidden-file header probe,
// p-tree hop and stegdb page touch full mechanical disk cost; hot metadata
// blocks (superblock, bitmap, headers, B-tree interior pages) are re-read on
// every access. Cache wraps any vdisk.Device with a block cache that absorbs
// those repeated reads and batches writes: dirty blocks are held in memory
// and written back in ascending block order, so the flush pass streams over
// the (simulated or real) platter instead of random-seeking.
//
// # Replacement policies
//
// Eviction is delegated to a pluggable Policy. Two are built in:
//
//   - "lru" — classic recency stack. Ideal once capacity covers the working
//     set, but a cyclic scan even one block larger than the cache evicts
//     every entry just before its reuse, collapsing to a 0% hit rate.
//   - "2q" — two-queue (Johnson & Shasha). A small FIFO absorbs one-shot
//     scan blocks; only blocks re-referenced after leaving the FIFO enter
//     the protected LRU, so repeatedly probed metadata survives data-block
//     scans.
//
// Under the StegFS hidden-file workload (long data scans interleaved with
// hot header/p-tree/directory re-reads) 2Q retains the hot metadata at
// capacities far below the total working set, where LRU caches nothing;
// see the A4b ablation in ROADMAP.md. LRU remains the default.
//
// # The flush pipeline
//
// All deferred device writes run through one pipeline: dirty entries are
// collected into runs sorted by block number, marked flush-in-flight, and
// their own buffers are submitted via vdisk.WriteBlocks OUTSIDE the cache
// mutex, so a writer hitting the cache never waits behind the device and
// staging a run copies no block bytes. Write-behind
// (Options.WriteBehind) hands those runs to a bounded pool of background
// flusher goroutines (Options.FlushWorkers); barriers (Flush/Sync/Close/
// Invalidate) drain the in-flight runs and then batch the remainder
// themselves. A block re-dirtied while its flush is in flight stays dirty —
// the write wins and the next run picks up the fresh data — so read-your-
// writes and barrier completeness hold across the unlocked window.
//
// # Recycled entries
//
// Once its resident set has grown, the cache allocates nothing per block: an
// evicted entry goes on a free list with its one-block buffer, and the next
// insert takes it. New entries and buffers come from slabs that grow with
// the resident set, never past the capacity ahead of need. The rule that
// makes reuse safe is that an entry's buffer is only written under c.mu:
// readers copy out of it and writers into it under the lock, and eviction
// write-back runs under the lock. The one buffer read outside the lock is a
// flight's: while a flush run is in the air the device reads its entries'
// buffers, so a write that changes such a block first moves the entry onto
// a spare buffer (copy-on-write, see writeLocked) and the flight keeps the
// old one, which returns to the spare list when the flight lands. Flushing
// entries are pinned — eviction skips them and Invalidate drains first — so
// no buffer the device is reading ever reaches the free list. Code that
// waits across an unlocked window keeps block numbers, not entries, and
// re-resolves them when it holds the lock again, since the entry may hold
// another block by then (see drainLocked).
//
// # Unchanged writes
//
// A write of the bytes a resident block already holds is absorbed: the
// entry is not dirtied and no write-back follows (Stats.Unchanged counts
// them). Callers therefore need no dirty tracking of their own — FS.Sync
// rewrites the whole superblock and bitmap, and stegdb's commit rewrites
// whole pages, yet only the blocks that changed reach the device. The
// on-device image is the same as if every write had been issued, since an
// absorbed write would have stored the bytes already there. A block the
// cache does not hold has nothing to compare against and is always written.
//
// The cache is a write-back cache, so crash consistency is the caller's
// responsibility: callers must Flush (or Sync) before any point where the
// on-device image has to be self-consistent. stegfs.FS does this around its
// superblock/bitmap writes so that data blocks always reach the device
// before the metadata that references them. Write-behind bounds how much
// dirty data those barriers can accumulate without weakening them: the cache
// cannot tell data from metadata and flushes whatever is dirty, but issuing
// any deferred write earlier than its barrier is harmless — stegfs's
// consistency rests solely on the superblock/bitmap being written inside
// Sync after a full Flush, and that ordering is untouched.
package blockcache

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"stegfs/internal/vdisk"
)

// Stats counts cache activity. Counters only ever increase; read a snapshot
// with Cache.Stats. All counters record successful operations only — a
// failed device read or write leaves every counter untouched, so windowed
// ablation stats stay honest under injected faults.
type Stats struct {
	Hits           int64 // reads served from the cache
	Misses         int64 // reads that went to the device
	Evictions      int64 // entries displaced by capacity pressure
	WriteBacks     int64 // dirty blocks written to the device
	Flushes        int64 // explicit Flush/Sync barriers
	WriteBehinds   int64 // write-behind runs triggered by the high-water mark
	FlushBatches   int64 // batched (sorted, multi-block) flush submissions to the device
	FlushStalls    int64 // writers stalled at the hard dirty cap waiting for the flusher
	Unchanged      int64 // block writes absorbed because the resident block already held those bytes
	FlightRewrites int64 // writes that changed a block during its write-back flight and so took a spare buffer (once per flight)
}

// Sub returns s - o counter-wise. Benchmarks snapshot the counters before a
// measurement window and subtract to get windowed stats.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Hits:           s.Hits - o.Hits,
		Misses:         s.Misses - o.Misses,
		Evictions:      s.Evictions - o.Evictions,
		WriteBacks:     s.WriteBacks - o.WriteBacks,
		Flushes:        s.Flushes - o.Flushes,
		WriteBehinds:   s.WriteBehinds - o.WriteBehinds,
		FlushBatches:   s.FlushBatches - o.FlushBatches,
		FlushStalls:    s.FlushStalls - o.FlushStalls,
		Unchanged:      s.Unchanged - o.Unchanged,
		FlightRewrites: s.FlightRewrites - o.FlightRewrites,
	}
}

// HitRate returns the fraction of reads served from the cache.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// entry is one cached block. data always holds exactly one device block.
type entry struct {
	block    int64
	data     []byte
	dirty    bool
	flushing bool   // in a flush run that has not landed; pins the entry
	lent     bool   // data is the buffer that run is writing; a changing write swaps first
	gen      uint64 // bumped on every write; detects re-dirty during a flight
	slot     int    // position in Cache.dirty while dirty
	node     int32  // the policy's handle for this entry while resident
}

// maxFlushRun caps how many blocks one pipeline submission carries, so it
// bounds a device batch's length; barriers loop until clean, so it never
// bounds a drain.
const maxFlushRun = 4096

// maxSpare caps the spare list at one full run's worth of buffers; a landing
// flight's swapped-out buffers beyond it go to the garbage collector. The
// list never holds more buffers than were in flight at once either: a buffer
// joins it only when the flight that wrote it lands, and a swap allocates a
// fresh one only when the list is empty.
const maxSpare = maxFlushRun

// maxFlushWorkers bounds the background flusher pool.
const maxFlushWorkers = 16

// Options configures a Cache built with NewWithOptions.
type Options struct {
	// Capacity is the maximum number of resident blocks; it must be > 0.
	Capacity int
	// Policy names the replacement policy: "lru" (default) or "2q".
	Policy string
	// WriteBehind is the dirty-block high-water mark. When more than this
	// many dirty blocks accumulate, the flush pipeline writes dirty blocks
	// back in ascending block order — lowest block numbers first, so the run
	// streams across the platter — until half the mark remains, without
	// waiting for the next Flush. The runs are issued by background
	// goroutines and the writer returns immediately; writers only stall
	// once twice the mark is dirty (hard cap back-pressure). 0 disables
	// write-behind.
	WriteBehind int
	// FlushWorkers sets the number of background flusher goroutines that
	// service write-behind runs; write-behind always runs on this pool. 0
	// selects the default of 1, and a negative count is rejected. Without
	// WriteBehind no background flusher is started — barriers then own all
	// deferred writes.
	FlushWorkers int
}

// Cache is a block cache over a vdisk.Device with a pluggable replacement
// policy. It implements vdisk.Device itself, so every layer written against
// the device interface (plainfs, stegfs, stegdb's pager via hidden files)
// runs through it unchanged.
//
// Cache is safe for concurrent use.
type Cache struct {
	// c.mu is a pure metadata lock: device I/O must never run under it
	// (enforced by the noio flag). The one deliberate exception — eviction
	// write-back — carries an audited ignore directive at its call site.
	//
	// lockcheck:level 60 volume/cacheMu noio
	mu        sync.Mutex
	bgWake    *sync.Cond // wakes the background flushers (work or shutdown)
	flushDone *sync.Cond // signaled when a flush run completes (barriers, back-pressure)
	dev       vdisk.Device
	cap       int
	highWater int // write-behind high-water mark; 0 = disabled
	workers   int // background flusher goroutines (0 iff write-behind is disabled)
	// lockcheck:guardedby mu
	policy Policy
	// lockcheck:guardedby mu
	entries map[int64]*entry
	// lockcheck:guardedby mu
	free []*entry // evicted entries, buffers included, ready for reuse
	// lockcheck:guardedby mu
	inflight map[int64]*fetch // miss fetches in progress (see ReadBlocks)
	// lockcheck:guardedby mu
	dirty []*entry // every resident dirty entry, staged ones included; e.slot is its index
	// lockcheck:guardedby mu
	staged int // dirty blocks currently flush-in-flight
	// lockcheck:guardedby mu
	spare [][]byte // one-block buffers of landed flights, for writeLocked's swaps; at most maxSpare
	// lockcheck:guardedby mu
	draining bool // write-behind hysteresis: past high water, not yet at low
	// lockcheck:guardedby mu
	closed bool
	wg     sync.WaitGroup
	// lockcheck:guardedby mu
	sweep int64 // elevator cursor: where the next truncated flush run starts
	// lockcheck:guardedby mu
	wbErr error // sticky deferred write-back failure; surfaced at the next barrier
	// lockcheck:guardedby mu
	stats Stats
}

// fetch tracks one block of an in-flight miss batch. Misses release c.mu
// while the device request runs, so concurrent readers can overlap their
// device waits; the fetch record dedups concurrent misses of the same block
// (single-flight) and records whether a write raced the fetch (in which case
// the fetched bytes are stale and must not enter the cache). A batch's
// records come from one slab and share one done channel, closed when the
// whole batch has landed.
type fetch struct {
	done  chan struct{}
	stale bool // a write to this block landed while the fetch was in flight
}

// Entry slabs: an empty free list is refilled with a slab as large as the
// resident set, between minSlab and maxSlab entries, and never reaching past
// the capacity; past it (eviction stalled on a flushing or failing victim)
// slabs are minSlab entries.
const minSlab, maxSlab = 16, 1024

// NewWithOptions wraps dev in a write-back cache configured by o. It fails
// on a capacity <= 0, a negative flusher count or an unknown policy name.
func NewWithOptions(dev vdisk.Device, o Options) (*Cache, error) {
	if o.Capacity <= 0 {
		return nil, fmt.Errorf("blockcache: capacity %d, want > 0", o.Capacity)
	}
	if o.FlushWorkers < 0 {
		return nil, fmt.Errorf("blockcache: %d flush workers, want >= 0", o.FlushWorkers)
	}
	pol, err := NewPolicy(o.Policy, o.Capacity)
	if err != nil {
		return nil, err
	}
	if o.WriteBehind < 0 {
		o.WriteBehind = 0
	}
	workers := o.FlushWorkers
	if workers == 0 {
		workers = 1
	}
	if workers > maxFlushWorkers {
		workers = maxFlushWorkers
	}
	if o.WriteBehind == 0 {
		// Nothing is ever deferred ahead of a barrier without write-behind;
		// keep the pool empty instead of idling goroutines.
		workers = 0
	}
	c := &Cache{
		dev:       dev,
		cap:       o.Capacity,
		highWater: o.WriteBehind,
		workers:   workers,
		policy:    pol,
		entries:   make(map[int64]*entry, o.Capacity),
		inflight:  make(map[int64]*fetch),
	}
	c.bgWake = sync.NewCond(&c.mu)
	c.flushDone = sync.NewCond(&c.mu)
	for i := 0; i < workers; i++ {
		c.wg.Add(1)
		go c.flusher()
	}
	return c, nil
}

// NumBlocks returns the number of blocks on the underlying device.
func (c *Cache) NumBlocks() int64 { return c.dev.NumBlocks() }

// BlockSize returns the block size of the underlying device.
func (c *Cache) BlockSize() int { return c.dev.BlockSize() }

// Stats returns a snapshot of the accumulated counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Dirty returns the number of dirty blocks currently held (blocks whose
// flush is in flight included — they are not durable until it completes).
func (c *Cache) Dirty() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.dirty)
}

// FlushInFlight returns the number of blocks currently staged in the flush
// pipeline. Tests and monitoring use this.
func (c *Cache) FlushInFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.staged
}

// ReadBlock reads block n into buf, serving from the cache when possible;
// it is a one-block ReadBlocks.
func (c *Cache) ReadBlock(n int64, buf []byte) error {
	return c.ReadBlocks([]int64{n}, [][]byte{buf})
}

// WriteBlock stores buf for block n in the cache, deferring the device write
// to the flush pipeline; it is a one-block WriteBlocks.
func (c *Cache) WriteBlock(n int64, buf []byte) error {
	return c.WriteBlocks([]int64{n}, [][]byte{buf})
}

// writeLocked stores buf for block n in the resident set as a dirty block
// (caller holds c.mu). A write of the bytes a resident block already holds
// changes nothing and is absorbed: the entry keeps its dirty state and
// generation, so a clean block issues no write-back. This is exact: a
// clean entry holds what the device holds, a dirty one is written at the
// next barrier anyway, and a flight whose generation still matches carries
// these same bytes, so clearing dirty on its completion stays correct.
//
// writeLocked is the only code that changes a resident entry's bytes, so it
// keeps the flight ownership rule: an entry whose buffer is lent to a flight
// in the air takes a spare buffer before the copy, and the device goes on
// reading the bytes as of staging.
// lockcheck:holds volume/cacheMu
func (c *Cache) writeLocked(n int64, buf []byte) {
	if f, ok := c.inflight[n]; ok {
		// A miss fetch for this block is mid-flight; whatever it read no
		// longer reflects the device's future contents.
		f.stale = true
	}
	if e, ok := c.entries[n]; ok {
		c.policy.Touch(e)
		if bytes.Equal(e.data, buf) {
			c.stats.Unchanged++
			return
		}
		if e.lent {
			e.data = c.spareLocked(len(buf))
			e.lent = false
			c.stats.FlightRewrites++
		}
		copy(e.data, buf)
		e.gen++
		if !e.dirty {
			c.markDirtyLocked(e)
		}
	} else {
		c.insertLocked(n, buf, true)
	}
}

// afterWriteLocked applies the write-behind policy after new dirty data
// landed: past the high-water mark it wakes a background flusher, and it
// stalls the writer only at the hard cap (2x the mark). Once the pool is
// stopped, deferred writes wait for the next barrier. Caller holds c.mu.
// lockcheck:holds volume/cacheMu
func (c *Cache) afterWriteLocked() {
	if c.highWater <= 0 || len(c.dirty) <= c.highWater || c.closed {
		return
	}
	c.bgWake.Signal()
	if len(c.dirty) < 2*c.highWater {
		return
	}
	// Hard cap: the pipeline is more than a full mark behind. Wait for it
	// rather than growing the backlog without bound. A sticky error pauses
	// the pipeline until the next barrier, so don't wait on it then.
	c.stats.FlushStalls++
	for len(c.dirty) >= 2*c.highWater && c.wbErr == nil && !c.closed {
		c.flushDone.Wait()
	}
}

// ReadBlocks implements vdisk.BatchDevice. Hits and misses are partitioned
// under a single lock acquisition; the misses are then fetched from the
// device in one batched request (sorted submission at the device layer)
// while the lock is released, and inserted under a second acquisition.
//
// Releasing the lock lets concurrent misses on distinct blocks overlap at
// the device instead of convoying behind one mutex. Concurrent misses on
// the same block are deduplicated: one caller fetches, the rest wait for it
// and are then served from the cache. A write that lands while a fetch is
// in flight wins — the cached (written) data is returned and the stale
// fetched bytes are discarded, or refetched if the write was already
// flushed and evicted — so read-your-writes holds even across the unlocked
// window.
func (c *Cache) ReadBlocks(ns []int64, bufs [][]byte) error {
	if len(ns) != len(bufs) {
		return fmt.Errorf("%w: %d block numbers, %d buffers", vdisk.ErrBadBuffer, len(ns), len(bufs))
	}
	bs := c.dev.BlockSize()
	for _, b := range bufs {
		if len(b) != bs {
			return fmt.Errorf("%w: %d != %d", vdisk.ErrBadBuffer, len(b), bs)
		}
	}
	// Fast path: serve the resident prefix of the batch under one lock hold
	// with no bookkeeping allocations (the slow path's index slices and
	// single-flight registrations exist only for misses), touching each hit
	// through the entry its one lookup found. A fully resident batch ends
	// here; otherwise the slow path resumes at the first absent block, so
	// the prefix is counted once and the policy sees the same touches, in
	// the same order, as if the slow path had served it.
	c.mu.Lock()
	hit := 0
	for ; hit < len(ns); hit++ {
		e, ok := c.entries[ns[hit]]
		if !ok {
			break
		}
		copy(bufs[hit], e.data)
		c.policy.Touch(e)
	}
	c.stats.Hits += int64(hit)
	c.mu.Unlock()
	if hit == len(ns) {
		return nil
	}

	// One allocation holds the batch's index lists, each with room for
	// every block left: those left to resolve, those this pass fetches,
	// those to retry on the next pass, and the fetched block numbers.
	// Indices are int64 so the block numbers can share it.
	k := len(ns) - hit
	scratch := make([]int64, 4*k)
	remaining, mine, retry := scratch[0:k:k], scratch[k:k:2*k], scratch[2*k:2*k:3*k]
	missNs := scratch[3*k : 3*k : 4*k]
	for i := range remaining {
		remaining[i] = int64(hit + i)
	}
	for len(remaining) > 0 {
		mine, retry, missNs = mine[:0], retry[:0], missNs[:0]
		var waits []chan struct{} // completion signals of other callers' fetches
		var flight []fetch        // this pass's fetch records
		var done chan struct{}

		c.mu.Lock()
		for _, i := range remaining {
			n := ns[i]
			if e, ok := c.entries[n]; ok {
				c.stats.Hits++
				c.policy.Touch(e)
				copy(bufs[i], e.data)
				continue
			}
			if f, ok := c.inflight[n]; ok {
				// Another caller is fetching this block, or this batch is (a
				// duplicate block number; its fetch is closed before the
				// waits below). Resolve it on the next pass.
				retry = append(retry, i)
				waits = append(waits, f.done)
				continue
			}
			if flight == nil {
				// Sized for every block left, so the records never move
				// while c.inflight points into them.
				done = make(chan struct{})
				flight = make([]fetch, 0, len(remaining))
			}
			flight = append(flight, fetch{done: done})
			c.inflight[n] = &flight[len(flight)-1]
			mine = append(mine, i)
			missNs = append(missNs, n)
		}
		c.mu.Unlock()

		if len(mine) > 0 {
			missBufs := make([][]byte, len(mine))
			for j, i := range mine {
				missBufs[j] = bufs[i]
			}
			err := vdisk.ReadBlocks(c.dev, missNs, missBufs)
			c.mu.Lock()
			for j, i := range mine {
				// Only the registrant removes a fetch, so it is still ours.
				n := ns[i]
				delete(c.inflight, n)
				if err != nil {
					continue
				}
				if !flight[j].stale {
					// Only a write inserts a block while its fetch is
					// registered, and it marks the fetch stale first, so
					// the block is still absent.
					c.stats.Misses++
					c.insertLocked(n, bufs[i], false)
					continue
				}
				if e, ok := c.entries[n]; ok {
					// A write raced the fetch and inserted newer data; the
					// cache is authoritative.
					c.stats.Hits++
					c.policy.Touch(e)
					copy(bufs[i], e.data)
					continue
				}
				// Written and already flushed and dropped during the fetch:
				// the bytes read may predate that write. Refetch.
				retry = append(retry, i)
			}
			close(done)
			c.mu.Unlock()
			if err != nil {
				return err
			}
		}
		for _, w := range waits {
			<-w
		}
		remaining, retry = retry, remaining
	}
	return nil
}

// WriteBlocks implements vdisk.BatchDevice: the whole batch is absorbed
// under one lock acquisition and the write-behind policy is applied once at
// the end.
func (c *Cache) WriteBlocks(ns []int64, bufs [][]byte) error {
	if len(ns) != len(bufs) {
		return fmt.Errorf("%w: %d block numbers, %d buffers", vdisk.ErrBadBuffer, len(ns), len(bufs))
	}
	bs := c.dev.BlockSize()
	nb := c.dev.NumBlocks()
	for i, b := range bufs {
		if len(b) != bs {
			return fmt.Errorf("%w: %d != %d", vdisk.ErrBadBuffer, len(b), bs)
		}
		if ns[i] < 0 || ns[i] >= nb {
			return fmt.Errorf("%w: %d (of %d)", vdisk.ErrOutOfRange, ns[i], nb)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, n := range ns {
		c.writeLocked(n, bufs[i])
	}
	c.afterWriteLocked()
	return nil
}

// insertLocked adds a new entry for block n (caller holds c.mu) and evicts
// policy-chosen victims while the cache is over capacity. It inserts before
// it evicts — a policy's victim may depend on the new block (2Q's A1in
// length counts it) — so at capacity the entry comes from the one the
// previous eviction freed.
// lockcheck:holds volume/cacheMu
func (c *Cache) insertLocked(n int64, buf []byte, dirty bool) {
	e := c.newEntryLocked(len(buf))
	*e = entry{block: n, data: e.data}
	copy(e.data, buf)
	c.entries[n] = e
	if dirty {
		c.markDirtyLocked(e)
	}
	c.policy.Insert(e)
	for len(c.entries) > c.cap {
		if !c.evictLocked() {
			break // over capacity until the device (or the pipeline) recovers
		}
	}
}

// newEntryLocked takes an entry with a bs-byte buffer off the free list,
// refilling the list from a fresh slab when it is empty. Caller holds c.mu.
// lockcheck:holds volume/cacheMu
func (c *Cache) newEntryLocked(bs int) *entry {
	if len(c.free) == 0 {
		size := minSlab
		if grown := len(c.entries); grown < c.cap {
			size = min(max(grown, minSlab), maxSlab, c.cap-grown)
		}
		slab := make([]entry, size)
		data := make([]byte, size*bs)
		for i := range slab {
			slab[i].data = data[i*bs : (i+1)*bs : (i+1)*bs]
			c.free = append(c.free, &slab[i])
		}
	}
	e := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	return e
}

// spareLocked takes a one-block buffer off the spare list, allocating one
// when the list is empty. Its bytes are stale; the caller overwrites the
// whole block. Caller holds c.mu.
// lockcheck:holds volume/cacheMu
func (c *Cache) spareLocked(bs int) []byte {
	k := len(c.spare)
	if k == 0 {
		return make([]byte, bs)
	}
	b := c.spare[k-1]
	c.spare[k-1] = nil
	c.spare = c.spare[:k-1]
	return b
}

// evictLocked removes the policy's victim, writing it back first when dirty.
// A victim whose flush is in flight cannot be dropped (the pipeline still
// addresses its entry); it is rotated and eviction reports no progress. A
// write-back failure records a sticky error (surfaced by the next
// Flush/Sync/Close), keeps the victim resident so the data is not lost, and
// returns false.
// lockcheck:holds volume/cacheMu
func (c *Cache) evictLocked() bool {
	victim, ok := c.policy.Victim()
	if !ok {
		return false
	}
	n := victim.block
	if victim.flushing {
		c.policy.Touch(victim)
		return false
	}
	if victim.dirty {
		// lockcheck:ignore audited: eviction write-back keeps the mutex so the victim cannot be re-dirtied mid-write; evictions are rare next to the flush pipeline
		if err := c.dev.WriteBlock(n, victim.data); err != nil {
			if c.wbErr == nil {
				c.wbErr = fmt.Errorf("blockcache: eviction write-back block %d: %w", n, err)
				// A sticky error pauses the pipeline; wake anyone parked on
				// it — the back-pressure wait in afterWriteLocked checks
				// wbErr, and without this broadcast a stalled writer would
				// sleep until some OTHER goroutine reached a barrier.
				c.flushDone.Broadcast()
			}
			c.policy.Touch(victim)
			return false
		}
		c.stats.WriteBacks++
		c.markCleanLocked(victim)
	}
	c.policy.Remove(victim)
	delete(c.entries, n)
	c.free = append(c.free, victim)
	c.stats.Evictions++
	return true
}

// markDirtyLocked sets e dirty and appends it to the dirty index.
// lockcheck:holds volume/cacheMu
func (c *Cache) markDirtyLocked(e *entry) {
	e.dirty = true
	e.slot = len(c.dirty)
	c.dirty = append(c.dirty, e)
}

// markCleanLocked clears e's dirty state and removes it from the dirty
// index in O(1): the last indexed entry moves into e's slot.
// lockcheck:holds volume/cacheMu
func (c *Cache) markCleanLocked(e *entry) {
	last := c.dirty[len(c.dirty)-1]
	last.slot = e.slot
	c.dirty[e.slot] = last
	c.dirty[len(c.dirty)-1] = nil
	c.dirty = c.dirty[:len(c.dirty)-1]
	e.dirty = false
}

// dirtyRunLocked returns up to limit unstaged dirty entries (limit <= 0
// means all, in ascending block order — the barrier path). It walks the
// dirty index, a slice as long as the dirty set, so its cost follows the
// dirty set, not the resident set (nor the largest dirty set ever held, as
// a map's buckets would).
//
// When the limit truncates the backlog, selection is an elevator (C-SCAN):
// the run starts at the first dirty block at or above the sweep cursor left
// by the previous truncated run and wraps to the lowest dirty block if it
// reaches the top of the stroke, advancing the cursor past what it took.
// Successive write-behind runs then service the whole backlog in one
// repeating ascending sweep. Without the cursor every run restarts at the
// lowest dirty block, which both pays a full-stroke seek back per run and
// starves high-numbered blocks while writers keep re-dirtying low ones —
// the starved tail is then flushed by the next Sync barrier itself, which
// is exactly the latency the barrier caller sees. A run that wraps keeps
// the pipeline's ascending-batch contract: the picked set is re-sorted
// before submission (the classic C-SCAN return stroke is one long seek
// either way), and the cursor still advances past the wrapped tail so the
// next run resumes mid-stroke, not at zero.
// lockcheck:holds volume/cacheMu
func (c *Cache) dirtyRunLocked(limit int) []*entry {
	run := make([]*entry, 0, len(c.dirty)-c.staged)
	for _, e := range c.dirty {
		if !e.flushing {
			run = append(run, e)
		}
	}
	slices.SortFunc(run, byBlock)
	if limit <= 0 || len(run) <= limit {
		return run
	}
	cursor := c.sweep
	start := sort.Search(len(run), func(i int) bool { return run[i].block >= cursor })
	if start == len(run) {
		start = 0 // cursor above the highest dirty block: wrap the sweep
	}
	end := min(start+limit, len(run))
	picked := run[start:end:end]
	if rem := limit - len(picked); rem > 0 && start > 0 {
		wrapped := run[:min(rem, start)] // C-SCAN return stroke
		c.sweep = wrapped[len(wrapped)-1].block + 1
		picked = append(picked, wrapped...)
		slices.SortFunc(picked, byBlock)
	} else {
		c.sweep = picked[len(picked)-1].block + 1
	}
	return picked
}

func byBlock(a, b *entry) int { return cmp.Compare(a.block, b.block) }

// minWorkerRun is the smallest backlog share worth waking another flusher
// for — below this, one worker's sorted run beats the extra submissions.
const minWorkerRun = 16

// flushRunLocked picks one write-behind run — unstaged dirty blocks in
// ascending order, sized to bring the dirty count down to lowTarget (0 =
// everything unstaged), bounded by runCap (<= 0 = maxFlushRun) — and pushes
// it through the pipeline via flushEntriesLocked. Caller holds c.mu; the
// lock is held on return.
// lockcheck:holds volume/cacheMu
func (c *Cache) flushRunLocked(lowTarget, runCap int, background bool) error {
	limit := maxFlushRun
	if runCap > 0 && runCap < limit {
		limit = runCap
	}
	if lowTarget > 0 {
		want := len(c.dirty) - lowTarget
		if want <= 0 {
			return nil
		}
		if want < limit {
			limit = want
		}
	}
	run := c.dirtyRunLocked(limit)
	if len(run) == 0 {
		return nil
	}
	return c.flushEntriesLocked(run, background)
}

// flushEntriesLocked is the heart of the flush pipeline: it stages the given
// run of dirty entries — sorted ascending by the caller — by recording their
// block numbers and generations and marking them flush-in-flight with their
// buffers lent to the flight, releases c.mu, submits those buffers to the
// device as one batched write, and completes the run under the lock again.
// Staging allocates no data buffer and copies no block bytes. A block
// re-dirtied while the run was in flight stays dirty (write-wins: its
// entry's generation moved, so the next run writes the fresh data), and the
// write moved it onto a spare buffer, so the buffer the flight wrote returns
// to the spare list.
//
// When background is true a device failure becomes the sticky write-back
// error surfaced at the next barrier; the error is also returned either way
// (barrier callers report it directly). The staged blocks stay dirty and
// resident on failure, so nothing is lost. Caller holds c.mu and guarantees
// every entry is dirty and not already flushing; the lock is held on return.
// lockcheck:holds volume/cacheMu
func (c *Cache) flushEntriesLocked(run []*entry, background bool) error {
	ns := make([]int64, len(run))
	gens := make([]uint64, len(run))
	bufs := make([][]byte, len(run))
	for i, e := range run {
		ns[i] = e.block
		gens[i] = e.gen
		bufs[i] = e.data
		e.flushing = true
		e.lent = true
	}
	c.staged += len(run)
	c.mu.Unlock()

	err := vdisk.WriteBlocks(c.dev, ns, bufs)

	c.mu.Lock()
	for i, e := range run {
		// The entry still holds its block: a flushing entry is pinned, since
		// eviction skips it and Invalidate drains first.
		e.flushing = false
		if e.lent {
			e.lent = false
		} else if len(c.spare) < maxSpare {
			// A write moved e onto a spare mid-flight; the flight's
			// buffer is free again.
			c.spare = append(c.spare, bufs[i])
		}
		if err == nil && e.dirty && e.gen == gens[i] {
			c.markCleanLocked(e)
		}
	}
	c.staged -= len(run)
	if err == nil {
		c.stats.WriteBacks += int64(len(run))
		c.stats.FlushBatches++
	} else {
		err = fmt.Errorf("blockcache: write-back run [%d..%d]: %w", ns[0], ns[len(ns)-1], err)
		if background && c.wbErr == nil {
			c.wbErr = err
		}
	}
	c.flushDone.Broadcast()
	return err
}

// flushNeededLocked reports whether the background pool has write-behind
// work, with hysteresis: a drain STARTS when the high-water mark is crossed
// and keeps going until the backlog reaches half the mark (without the
// hysteresis, capped per-worker runs would park the pool the moment dirty
// dipped just below the mark, leaving the backlog hovering at the mark and
// handing the next barrier a fat serial drain). Unstaged dirty blocks must
// exist, and a sticky error pauses the pipeline (retrying a failing device
// in a tight loop helps nobody; the next barrier clears the error and
// re-arms).
// lockcheck:holds volume/cacheMu
func (c *Cache) flushNeededLocked() bool {
	if c.wbErr != nil || c.highWater <= 0 || len(c.dirty)-c.staged <= 0 {
		return false
	}
	if len(c.dirty) > c.highWater {
		c.draining = true
	} else if len(c.dirty) <= c.highWater/2 {
		c.draining = false
	}
	return c.draining
}

// flusher is one background flush worker. It parks until write-behind work
// appears (or the cache closes) and services one run at a time; multiple
// workers naturally split a backlog because staged entries are excluded from
// each other's runs.
func (c *Cache) flusher() {
	defer c.wg.Done()
	c.mu.Lock()
	for {
		for !c.closed && !c.flushNeededLocked() {
			c.bgWake.Wait()
		}
		if c.closed {
			c.mu.Unlock()
			return
		}
		c.stats.WriteBehinds++
		// Split a large backlog across the pool: cap this run at this
		// worker's share and wake a peer for the remainder, so one oversized
		// write batch drains with pool-wide device overlap instead of one
		// serialized mega-run.
		low := c.highWater / 2
		runCap := 0
		if want := len(c.dirty) - low; c.workers > 1 && want > minWorkerRun {
			runCap = (want + c.workers - 1) / c.workers
			if runCap < minWorkerRun {
				runCap = minWorkerRun
			}
			if want > runCap {
				c.bgWake.Signal()
			}
		}
		_ = c.flushRunLocked(low, runCap, true) // errors go sticky
	}
}

// drainLocked runs the barrier flush. Its obligation is every block dirty
// when the barrier begins: in-flight background runs are drained first
// (write-wins may hand their blocks back still dirty, in which case they are
// the barrier's to write), then the obligation goes out in batched ascending
// runs. A block that is dirtied by a write racing one of the unlocked
// submission windows — including a re-dirty of a block this barrier already
// wrote — belongs to the NEXT barrier, exactly like a write that blocked on
// the mutex behind the old single-hold flush pass; that keeps the barrier
// terminating under sustained concurrent writers instead of chasing them
// forever. The obligation is kept as block numbers and re-resolved under the
// lock after every unlocked window: an entry evicted meanwhile was written
// back first, and may already hold another block from the free list.
// Caller holds c.mu.
// lockcheck:holds volume/cacheMu
func (c *Cache) drainLocked() error {
	c.stats.Flushes++
	for c.staged > 0 {
		c.flushDone.Wait()
	}
	// staged == 0, so this is ALL currently dirty blocks, sorted ascending.
	run := c.dirtyRunLocked(0)
	obligation := make([]int64, len(run))
	for i, e := range run {
		obligation[i] = e.block
	}
	for len(obligation) > 0 {
		run = run[:0]
		rest := obligation[:0] // filtered in place
		waiting := false
		for _, n := range obligation {
			e, ok := c.entries[n]
			switch {
			case !ok || !e.dirty:
				// Already durable (a background run or eviction got there).
			case e.flushing:
				// A background flusher staged it during one of our unlocked
				// windows; wait for that flight and re-examine.
				waiting = true
				rest = append(rest, n)
			case len(run) < maxFlushRun:
				run = append(run, e)
			default:
				rest = append(rest, n)
			}
		}
		obligation = rest
		if len(run) == 0 {
			if !waiting {
				break
			}
			c.flushDone.Wait()
			continue
		}
		if err := c.flushEntriesLocked(run, false); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes every block that is dirty when the barrier begins to the
// device in ascending block order, so the write-back pass streams
// sequentially instead of random-seeking: any background runs still in
// flight are drained first, then the remainder goes out in batched sorted
// runs. Writes racing the flush land in the cache and are covered by the
// NEXT barrier, just as they would have queued behind the flush pass's
// mutex before the pipeline. Cached data stays resident (clean) for future
// reads. If an earlier eviction or write-behind write-back failed, that
// sticky error is returned here (once) even when the retry succeeds, so
// barrier callers learn a deferred write ever failed.
func (c *Cache) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.drainLocked(); err != nil {
		return err
	}
	return c.takeStickyLocked()
}

// takeStickyLocked returns the recorded deferred write-back failure (if any)
// and clears it, so each incident is reported exactly once. Barrier methods
// call this only after completing their real work — a successful flush must
// still sync the device / drop entries before the historical error is
// surfaced. Clearing the error re-arms the background pipeline.
// lockcheck:holds volume/cacheMu
func (c *Cache) takeStickyLocked() error {
	err := c.wbErr
	c.wbErr = nil
	if err != nil {
		c.bgWake.Broadcast()
		c.flushDone.Broadcast()
	}
	return err
}

// Sync flushes all dirty blocks and then syncs the underlying device if it
// supports it (e.g. vdisk.FileStore). A sticky write-back error is reported
// only after the device sync completed, so the durable state is as good as
// it can be even on the error path.
func (c *Cache) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.drainLocked(); err != nil {
		return err
	}
	if s, ok := c.dev.(interface{ Sync() error }); ok {
		if err := s.Sync(); err != nil {
			return err
		}
	}
	return c.takeStickyLocked()
}

// Invalidate drops every cached block and all policy state (resident and
// ghost). Dirty data is flushed first (draining the pipeline), repeating
// until the cache is fully clean so no write racing a drain window is ever
// discarded and no flush flight is in the air when the resident set is
// replaced; the error from that flush is returned. Tests use this to force
// cold reads — under sustained concurrent writers it may keep draining, so
// quiesce first.
func (c *Cache) Invalidate() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if err := c.drainLocked(); err != nil {
			return err
		}
		if len(c.dirty) == 0 {
			break
		}
	}
	for _, e := range c.entries {
		c.free = append(c.free, e)
	}
	clear(c.entries)
	c.policy.Reset()
	return c.takeStickyLocked()
}

var _ vdisk.BatchDevice = (*Cache)(nil)

// StopFlushers drains the flush pipeline and terminates the background
// flusher pool WITHOUT closing the underlying device. Owners that wrap a
// device they do not own (stegfs.FS mounts a caller-provided store) use this
// on teardown so the worker goroutines never outlive the mount. The cache
// stays usable afterwards, but write-behind stops: dirty blocks wait for
// the next barrier.
func (c *Cache) StopFlushers() error {
	c.mu.Lock()
	flushErr := c.drainLocked()
	if flushErr == nil {
		flushErr = c.takeStickyLocked()
	}
	c.closed = true
	c.bgWake.Broadcast()
	c.flushDone.Broadcast()
	c.mu.Unlock()
	c.wg.Wait()
	return flushErr
}

// Close flushes dirty blocks, stops the background flusher pool and closes
// the underlying device if it is closable. The cache must not be used
// afterwards.
func (c *Cache) Close() error {
	flushErr := c.StopFlushers()
	if cl, ok := c.dev.(interface{ Close() error }); ok {
		if err := cl.Close(); err != nil && flushErr == nil {
			flushErr = err
		}
	}
	return flushErr
}

// String summarizes the cache for logs.
func (c *Cache) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("blockcache.Cache{cap=%d policy=%s resident=%d hits=%d misses=%d}",
		c.cap, c.policy.Name(), len(c.entries), c.stats.Hits, c.stats.Misses)
}

var _ vdisk.Device = (*Cache)(nil)
