package stegdb

import (
	"cmp"
	"container/list"
	"slices"
	"sync"
)

// pageEntry is one frame of the in-pager page cache. The latch guards the
// frame contents (buf, valid): shared for readers walking the frame,
// exclusive for writers and for load/flush. The bookkeeping fields (refs, dirty, gen,
// elem) belong to the cache mutex, so eviction and flush can inspect them
// without taking the latch.
type pageEntry struct {
	id int64
	// Latches sit between allocMu and snapMu in the hierarchy; only one
	// frame's latch is ever held at a time. Latched loads/flushes touch the
	// hidden file on purpose, so the class is not noio.
	// lockcheck:level 50 stegdb/latch
	latch sync.RWMutex
	// lockcheck:guardedby latch
	valid bool // buf holds the page's current content
	// lockcheck:guardedby latch
	buf [PageSize]byte
	// base is the page's home image as of the last successful commit,
	// held while the frame is dirty; nil when the frame is clean or its
	// home image is unknown (see commit.go, "Bases").
	// lockcheck:guardedby latch
	base []byte

	// lockcheck:guardedby stegdb/cacheMu
	refs int // pins; >0 keeps the frame out of eviction
	// lockcheck:guardedby stegdb/cacheMu
	dirty bool // content newer than the hidden file
	// lockcheck:guardedby stegdb/cacheMu
	gen uint64 // bumped on every markDirty; write-wins on flush
	// lockcheck:guardedby stegdb/cacheMu
	elem *list.Element // position in the LRU list
}

// pageCache is a small LRU of page frames with per-page latches. The cache
// mutex covers only the map/LRU bookkeeping — never page I/O — so pins are
// cheap and page loads/flushes proceed in parallel on distinct pages.
type pageCache struct {
	// lockcheck:level 80 stegdb/cacheMu noio
	mu sync.Mutex
	// lockcheck:guardedby mu
	cap int
	// lockcheck:guardedby mu
	entries map[int64]*pageEntry
	// lockcheck:guardedby mu
	lru *list.List // front = most recently used; holds *pageEntry
	// lockcheck:guardedby mu
	dirty map[int64]*pageEntry // every frame with dirty set
}

func newPageCache(capacity int) *pageCache {
	if capacity < 16 {
		capacity = 16
	}
	return &pageCache{
		cap:     capacity,
		entries: make(map[int64]*pageEntry),
		lru:     list.New(),
		dirty:   make(map[int64]*pageEntry),
	}
}

func (c *pageCache) setCap(n int) {
	if n < 16 {
		n = 16
	}
	c.mu.Lock()
	c.cap = n
	c.mu.Unlock()
}

// pin returns the frame for page id with its reference count raised,
// creating (empty, invalid) frames on miss and evicting over-capacity
// clean victims. The cache is strictly no-steal: dirty frames never reach
// the hidden file outside a commit, so eviction skips them (the cache may
// run over capacity by the size of the uncommitted working set, which the
// commit bounds by flushing). Callers must unpin the returned entry.
func (c *pageCache) pin(id int64) *pageEntry {
	c.mu.Lock()
	e, ok := c.entries[id]
	if ok {
		e.refs++
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		return e
	}
	e = &pageEntry{id: id, refs: 1}
	e.elem = c.lru.PushFront(e)
	c.entries[id] = e

	// Evict clean, unpinned frames from the LRU tail while over capacity.
	over := c.lru.Len() - c.cap
	if over > 0 {
		var el, prev *list.Element
		for el = c.lru.Back(); el != nil && over > 0; el = prev {
			prev = el.Prev()
			cand := el.Value.(*pageEntry)
			if cand.refs == 0 && !cand.dirty {
				c.removeLocked(cand)
				over--
			}
		}
	}
	c.mu.Unlock()
	return e
}

// removeLocked drops a frame from the map and LRU; caller holds c.mu.
//
// lockcheck:holds stegdb/cacheMu
func (c *pageCache) removeLocked(e *pageEntry) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.id)
}

func (c *pageCache) unpin(e *pageEntry) {
	c.mu.Lock()
	e.refs--
	c.mu.Unlock()
}

// markDirty records that the frame content is newer than the hidden file,
// returning whether the frame was already dirty (so a failed write can
// revert the flag it set without clobbering an earlier writer's). Caller
// holds the frame's exclusive latch.
//
// lockcheck:holds stegdb/latch
func (c *pageCache) markDirty(e *pageEntry) (wasDirty bool) {
	c.mu.Lock()
	wasDirty = e.dirty
	e.dirty = true
	e.gen++
	c.dirty[e.id] = e
	c.mu.Unlock()
	return wasDirty
}

// unmarkDirty reverts a markDirty after the guarded write failed; caller
// holds the frame's exclusive latch and knows no content changed.
//
// lockcheck:holds stegdb/latch
func (c *pageCache) unmarkDirty(e *pageEntry) {
	c.mu.Lock()
	e.dirty = false
	delete(c.dirty, e.id)
	c.mu.Unlock()
}

// gen reads the frame's dirty generation.
func (c *pageCache) gen(e *pageEntry) uint64 {
	c.mu.Lock()
	g := e.gen
	c.mu.Unlock()
	return g
}

// isDirty reads the frame's dirty flag.
func (c *pageCache) isDirty(e *pageEntry) bool {
	c.mu.Lock()
	d := e.dirty
	c.mu.Unlock()
	return d
}

// clearDirty marks the frame clean if no write landed since generation g
// was observed (write-wins: a concurrent re-dirty keeps the flag).
func (c *pageCache) clearDirty(e *pageEntry, g uint64) {
	c.mu.Lock()
	if e.gen == g {
		e.dirty = false
		delete(c.dirty, e.id)
	}
	c.mu.Unlock()
}

// dirtyEntries returns every dirty frame, pinned and sorted by page id.
// It reads the dirty index, so a commit's cut costs O(dirty), not
// O(resident). The caller flushes them and unpins.
func (c *pageCache) dirtyEntries() []*pageEntry {
	c.mu.Lock()
	out := make([]*pageEntry, 0, len(c.dirty))
	for _, e := range c.dirty {
		e.refs++
		out = append(out, e)
	}
	c.mu.Unlock()
	slices.SortFunc(out, func(a, b *pageEntry) int { return cmp.Compare(a.id, b.id) })
	return out
}

// dropClean removes every clean, unpinned frame (cache invalidation for
// benchmarks; dirty or pinned frames survive).
func (c *pageCache) dropClean() {
	c.mu.Lock()
	var el, next *list.Element
	for el = c.lru.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*pageEntry)
		if !e.dirty && e.refs == 0 {
			c.removeLocked(e)
		}
	}
	c.mu.Unlock()
}
