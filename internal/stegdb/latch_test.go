package stegdb

import "testing"

// checkPageDirtyIndex asserts that every partition's page-cache dirty index
// holds exactly the resident frames whose dirty flag is set. Call it only
// where no operation or commit is running on tab.
func checkPageDirtyIndex(t *testing.T, tab *PartitionedTable) {
	t.Helper()
	for i, part := range tab.parts {
		c := part.pg.cache
		c.mu.Lock()
		want := 0
		for id, e := range c.entries {
			if !e.dirty {
				continue
			}
			want++
			if c.dirty[id] != e {
				t.Errorf("partition %d: dirty page %d missing from the dirty index", i, id)
			}
		}
		for id, e := range c.dirty {
			if c.entries[id] != e || !e.dirty {
				t.Errorf("partition %d: dirty index holds page %d, which is not a resident dirty frame", i, id)
			}
		}
		if len(c.dirty) != want {
			t.Errorf("partition %d: dirty index has %d frames, want %d", i, len(c.dirty), want)
		}
		c.mu.Unlock()
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
	if len(c.dirty) != 2 || c.dirty[3] != frames[3] || c.dirty[9] != frames[9] {
		t.Errorf("dirty index = %v, want pages 3 and 9", c.dirty)
	}
	c.mu.Unlock()
	for _, e := range got {
		c.unpin(e)
	}
}
