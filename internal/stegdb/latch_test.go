package stegdb

import (
	"fmt"
	"testing"
)

// checkPageDirtyIndex asserts that every partition's page-cache dirty index
// holds exactly the resident frames whose dirty flag is set, each at the
// slot it records. Call it only where no operation or commit is running on
// tab.
func checkPageDirtyIndex(t *testing.T, tab *PartitionedTable) {
	t.Helper()
	for i, part := range tab.parts {
		checkPageCacheDirtyIndex(t, fmt.Sprintf("partition %d", i), part.pg.cache)
	}
}

// checkPageCacheDirtyIndex checks one page cache's dirty index both ways:
// every resident dirty frame sits at its recorded slot, and every slot holds
// a resident dirty frame that records that slot.
func checkPageCacheDirtyIndex(t *testing.T, where string, c *pageCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	want := 0
	for id, e := range c.entries {
		if !e.dirty {
			continue
		}
		want++
		if e.slot < 0 || e.slot >= len(c.dirty) || c.dirty[e.slot] != e {
			t.Errorf("%s: dirty page %d is not at its recorded slot %d of the dirty index", where, id, e.slot)
		}
	}
	for i, e := range c.dirty {
		// A frame records one slot, so matching it rules out duplicates.
		switch {
		case e == nil:
			t.Errorf("%s: dirty index slot %d is empty", where, i)
		case c.entries[e.id] != e || !e.dirty:
			t.Errorf("%s: dirty index holds page %d, which is not a resident dirty frame", where, e.id)
		case e.slot != i:
			t.Errorf("%s: dirty index slot %d holds page %d, which records slot %d", where, i, e.id, e.slot)
		}
	}
	if len(c.dirty) != want {
		t.Errorf("%s: dirty index has %d frames, want %d", where, len(c.dirty), want)
	}
}

// TestStegDBPageCacheDirtyIndex drives the page-cache dirty index through
// each transition directly: a clearDirty with an outdated generation keeps the
// frame indexed, dirtyEntries returns ascending ids each pinned once, and a
// matching clearDirty or an unmarkDirty removes the frame.
func TestStegDBPageCacheDirtyIndex(t *testing.T) {
	c := newPageCache(16)
	frames := map[int64]*pageEntry{}
	for _, id := range []int64{9, 3, 12, 5} {
		e := c.pin(id)
		e.latch.Lock()
		c.markDirty(e)
		e.latch.Unlock()
		c.unpin(e)
		frames[id] = e
	}

	before := c.gen(frames[3])
	frames[3].latch.Lock()
	if !c.markDirty(frames[3]) {
		t.Fatal("markDirty on a dirty frame reported it clean")
	}
	frames[3].latch.Unlock()
	c.clearDirty(frames[3], before) // a write landed since before: keep it
	c.clearDirty(frames[12], c.gen(frames[12]))
	frames[5].latch.Lock()
	c.unmarkDirty(frames[5])
	frames[5].latch.Unlock()

	got := c.dirtyEntries()
	var ids []int64
	for _, e := range got {
		ids = append(ids, e.id)
	}
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 9 {
		t.Fatalf("dirtyEntries ids = %v, want [3 9]", ids)
	}
	c.mu.Lock()
	for _, e := range got {
		if e.refs != 1 {
			t.Errorf("page %d pinned %d times, want 1", e.id, e.refs)
		}
	}
	if len(c.dirty) != 2 || !frames[3].dirty || !frames[9].dirty {
		t.Errorf("dirty index holds %d frames, want pages 3 and 9", len(c.dirty))
	}
	c.mu.Unlock()
	checkPageCacheDirtyIndex(t, "page cache", c)
	for _, e := range got {
		c.unpin(e)
	}
}
