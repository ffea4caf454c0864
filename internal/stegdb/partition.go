package stegdb

import (
	"fmt"
	"sync"
)

// PartitionedTable is a hidden table, sharded by key hash across N hidden
// files (partitions), each with its own Pager, B-tree, optional hash index
// and journal. Partitioning multiplies the write paths the same way A6's
// distinct-object scaling multiplied file writes: Put/Delete on different
// partitions share no pager, no tree, no commit lock and no journal, so a
// write-heavy workload scales with the partition count instead of
// funneling into one file's allocator and commit pipeline. N = 1 is the
// plain one-file table.
//
// Composition rules:
//   - Put/Delete route by partFor(key) — a mixing hash deliberately
//     distinct from the per-partition shard hash, so shard striping stays
//     uniform within each partition.
//   - Rows/Scan/Range/Check/Snapshot compose across partitions. A
//     cross-partition snapshot pins one epoch per partition atomically:
//     Snapshot briefly excludes writers via snapGate, so no operation is
//     half-landed while the per-partition epochs are pinned, and the
//     merged view is a true point in time.
//   - Sync is a cross-partition group commit: concurrent committers batch
//     into one pipeline run that journals every partition, issues ONE
//     shared pre-barrier, homes every partition, and issues ONE shared
//     post-barrier — two volume barriers per batch regardless of
//     partition count or caller count.
//
// Layout: a one-partition table lives in hidden file "t" (plus its ".wal"
// journal sibling) and its meta page records partition count 0. Partition
// i of an N-partition table lives in "t.p<i>"; each partition's meta page
// records N and its own index, so fsck and Open can discover and validate
// the set from any one member.
type PartitionedTable struct {
	view  View
	parts []*partition
	// layout is the partition count every member's meta page records:
	// 0 for the plain one-file layout.
	layout int64

	// snapGate makes cross-partition snapshots atomic: Put/Delete hold it
	// shared for the operation's duration, Snapshot holds it exclusive
	// while pinning every partition's epoch. Outermost lock of the stegdb
	// hierarchy.
	// lockcheck:level 5 stegdb/snapGate
	snapGate sync.RWMutex

	// gc batches concurrent Sync callers into shared cross-partition
	// commits.
	gc groupCommit
}

// maxPartitions bounds the partition count (also the fsck discovery bound).
const maxPartitions = 64

// partName names partition i of a partitioned table.
func partName(base string, i int) string { return fmt.Sprintf("%s.p%d", base, i) }

// CreatePartitionedTable creates a table sharded across nParts hidden
// files; nParts = 1 creates the plain one-file layout. withHash/nBuckets
// apply to every partition.
func CreatePartitionedTable(view View, name string, nParts int, withHash bool, nBuckets int) (*PartitionedTable, error) {
	if nParts < 1 || nParts > maxPartitions {
		return nil, fmt.Errorf("stegdb: partition count %d out of range [1,%d]", nParts, maxPartitions)
	}
	pt := &PartitionedTable{view: view, parts: make([]*partition, nParts)}
	if nParts == 1 {
		p, err := createPartition(view, name, withHash, nBuckets)
		if err != nil {
			return nil, err
		}
		pt.parts[0] = p
		return pt, nil
	}
	pt.layout = int64(nParts)
	for i := range pt.parts {
		p, err := createPartition(view, partName(name, i), withHash, nBuckets)
		if err != nil {
			return nil, err
		}
		p.pg.setMetaField(metaPartCount, pt.layout)
		p.pg.setMetaField(metaPartIndex, int64(i))
		if err := p.pg.flushMetaNow(); err != nil {
			return nil, err
		}
		pt.parts[i] = p
	}
	return pt, nil
}

// OpenPartitionedTable opens an existing table. The layout is discovered
// from the view: the plain file name if it is there, else name.p0, whose
// meta page gives the partition count; every partition file (name.p0 ..
// name.p<N-1>) must then be visible in the view too. Each member's meta
// is validated against its position.
func OpenPartitionedTable(view View, name string) (*PartitionedTable, error) {
	first := partName(name, 0)
	if _, err := view.Stat(name); err == nil {
		first = name
	}
	p0, err := openPartition(view, first)
	if err != nil {
		return nil, fmt.Errorf("stegdb: open %s: %w", first, err)
	}
	pt := &PartitionedTable{view: view, parts: []*partition{p0}}
	if first != name {
		pt.layout = p0.pg.metaField(metaPartCount)
		if pt.layout < 1 || pt.layout > maxPartitions {
			return nil, fmt.Errorf("stegdb: %s declares %d partitions (max %d)", first, pt.layout, maxPartitions)
		}
		for i := 1; i < int(pt.layout); i++ {
			p, err := openPartition(view, partName(name, i))
			if err != nil {
				return nil, fmt.Errorf("stegdb: open partition %d: %w", i, err)
			}
			pt.parts = append(pt.parts, p)
		}
	}
	if err := pt.checkLayout(); err != nil {
		return nil, err
	}
	return pt, nil
}

// checkLayout verifies that every member's meta page agrees on the layout:
// the same partition count, and its own index.
func (pt *PartitionedTable) checkLayout() error {
	for i, p := range pt.parts {
		if got := p.pg.metaField(metaPartCount); got != pt.layout {
			return fmt.Errorf("stegdb: %s declares %d partitions, expected %d", p.pg.name, got, pt.layout)
		}
		if got := p.pg.metaField(metaPartIndex); got != int64(i) {
			return fmt.Errorf("stegdb: %s declares partition index %d, expected %d", p.pg.name, got, i)
		}
	}
	return nil
}

// Partitions returns the partition count.
func (pt *PartitionedTable) Partitions() int { return len(pt.parts) }

// Files returns the hidden-file names the table occupies, journal siblings
// included — the set fsck must find and verify.
func (pt *PartitionedTable) Files() []string {
	out := make([]string, 0, 2*len(pt.parts))
	for _, p := range pt.parts {
		out = append(out, p.pg.name, p.pg.walName)
	}
	return out
}

// partFor routes a key to its partition. The hash mixes harder than the
// per-partition shard hash (plain FNV-1a) on purpose: the two must not
// correlate, or one partition's keys would pile onto a few shard locks.
func (pt *PartitionedTable) partFor(key []byte) int {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(len(pt.parts)))
}

// Put inserts or replaces a row in the owning partition. The B-tree and
// hash index stay error-consistent: a failed Put leaves the prior row.
func (pt *PartitionedTable) Put(key, val []byte) error {
	pt.snapGate.RLock()
	defer pt.snapGate.RUnlock()
	return pt.parts[pt.partFor(key)].put(key, val)
}

// Delete removes a row from the owning partition, reporting whether it
// existed. A failed Delete reports (false, err) and leaves the row.
func (pt *PartitionedTable) Delete(key []byte) (bool, error) {
	pt.snapGate.RLock()
	defer pt.snapGate.RUnlock()
	return pt.parts[pt.partFor(key)].delete(key)
}

// Get returns the row stored under key (hash-index path when present).
func (pt *PartitionedTable) Get(key []byte) ([]byte, bool, error) {
	return pt.parts[pt.partFor(key)].get(key)
}

// GetOrdered always uses the owning partition's B-tree.
func (pt *PartitionedTable) GetOrdered(key []byte) ([]byte, bool, error) {
	return pt.parts[pt.partFor(key)].tree.Get(key)
}

// Rows sums the per-partition row counters maintained by Put/Delete —
// O(partitions). Check cross-validates them against a full scan.
func (pt *PartitionedTable) Rows() (int64, error) {
	var total int64
	for _, p := range pt.parts {
		total += p.pg.Rows()
	}
	return total, nil
}

// Pages sums the per-partition pager footprints (pages in use).
func (pt *PartitionedTable) Pages() int64 {
	var total int64
	for _, p := range pt.parts {
		total += p.pg.NumPages()
	}
	return total
}

// SetPageCacheSize sets every partition pager's page cache capacity.
func (pt *PartitionedTable) SetPageCacheSize(frames int) {
	for _, p := range pt.parts {
		p.pg.SetPageCacheSize(frames)
	}
}

// InvalidatePageCache commits the table (one group commit across every
// partition) and drops every partition pager's unpinned clean frames, so
// later reads go back through the hidden files. Benchmarks use it to
// restore a cold-cache state between measurement windows; frames
// re-dirtied by concurrent writers after the commit stay cached.
func (pt *PartitionedTable) InvalidatePageCache() error {
	if err := pt.Sync(); err != nil {
		return err
	}
	for _, p := range pt.parts {
		p.pg.cache.dropClean()
	}
	return nil
}

// PartitionedSnapshot is a point-in-time view across every partition: one
// pinned TreeSnapshot per partition, all taken with writers excluded, so
// the merged state is a single instant of the logical table.
type PartitionedSnapshot struct {
	pt    *PartitionedTable
	snaps []*TreeSnapshot
}

// Snapshot pins one epoch per partition atomically (writers excluded for
// the instant of the pinning, not for the life of the snapshot). A single
// pager pins its epoch and meta atomically on its own, so a one-partition
// snapshot skips the gate and never waits for a writer.
func (pt *PartitionedTable) Snapshot() *PartitionedSnapshot {
	if len(pt.parts) == 1 {
		return &PartitionedSnapshot{pt: pt, snaps: []*TreeSnapshot{pt.parts[0].tree.Snapshot()}}
	}
	pt.snapGate.Lock()
	snaps := make([]*TreeSnapshot, len(pt.parts))
	for i, p := range pt.parts {
		snaps[i] = p.tree.Snapshot()
	}
	pt.snapGate.Unlock()
	return &PartitionedSnapshot{pt: pt, snaps: snaps}
}

// Close releases every partition's pinned snapshot.
func (s *PartitionedSnapshot) Close() {
	for _, ts := range s.snaps {
		ts.Close()
	}
}

// Rows sums the per-partition row counters as of the snapshot.
func (s *PartitionedSnapshot) Rows() int64 {
	var total int64
	for _, ts := range s.snaps {
		total += ts.Rows()
	}
	return total
}

// Get returns the value stored under key as of the snapshot.
func (s *PartitionedSnapshot) Get(key []byte) ([]byte, bool, error) {
	return s.snaps[s.pt.partFor(key)].Get(key)
}

// Scan visits every row of every partition in global key order.
func (s *PartitionedSnapshot) Scan(fn func(key, val []byte) bool) error {
	return s.Range(nil, nil, fn)
}

// Range visits rows with lo <= key < hi in global key order: a k-way merge
// of the per-partition leaf chains (linear min over <= maxPartitions
// iterators per step — partitions are few, keys are many). As with
// TreeSnapshot.Range, key and val alias page buffers and are valid only
// until fn returns.
func (s *PartitionedSnapshot) Range(lo, hi []byte, fn func(key, val []byte) bool) error {
	return mergeRange(s.snaps, lo, hi, fn)
}

// mergeRange is the k-way merge behind both Range methods, one treeIter per
// snapshot. Every iterator is closed on every return.
func mergeRange(snaps []*TreeSnapshot, lo, hi []byte, fn func(key, val []byte) bool) error {
	iters := make([]treeIter, len(snaps))
	defer func() {
		for i := range iters {
			iters[i].close()
		}
	}()
	for i, ts := range snaps {
		if err := iters[i].seek(ts, lo, hi); err != nil {
			return err
		}
	}
	for {
		min := -1
		for i := range iters {
			if !iters[i].done() && (min < 0 || string(iters[i].key()) < string(iters[min].key())) {
				min = i
			}
		}
		if min < 0 || !fn(iters[min].key(), iters[min].val()) {
			return nil
		}
		if err := iters[min].next(); err != nil {
			return err
		}
	}
}

// Scan visits every row in global key order from a fresh snapshot: the
// scan sees the table exactly as of its start and never blocks writers.
// key and val are valid only until fn returns; fn copies what it keeps.
func (pt *PartitionedTable) Scan(fn func(key, val []byte) bool) error {
	s := pt.Snapshot()
	defer s.Close()
	return s.Scan(fn)
}

// Range visits rows with lo <= key < hi (nil bounds are open) in global
// key order from a fresh snapshot. The B-link leaf chains make this a seek
// to lo plus a bounded walk per partition, not a filtered full scan. key
// and val are valid only until fn returns; fn copies what it keeps.
func (pt *PartitionedTable) Range(lo, hi []byte, fn func(key, val []byte) bool) error {
	s := pt.Snapshot()
	defer s.Close()
	return s.Range(lo, hi, fn)
}

// Check verifies, against one snapshot, that each member's meta agrees on
// the layout, and that every partition is internally consistent and holds
// only keys the routing hash assigns it.
func (pt *PartitionedTable) Check() error {
	if err := pt.checkLayout(); err != nil {
		return err
	}
	s := pt.Snapshot()
	defer s.Close()
	for i, p := range pt.parts {
		if err := p.check(s.snaps[i], func(k []byte) bool { return pt.partFor(k) == i }); err != nil {
			return fmt.Errorf("stegdb: partition %d: %w", i, err)
		}
	}
	return nil
}

// Sync commits every partition as one batch. Concurrent callers are group
// committed: each batch journals all partitions, issues one shared
// journal barrier, homes all partitions, and issues one shared home
// barrier.
func (pt *PartitionedTable) Sync() error {
	return pt.gc.do(func() error {
		pgs := make([]*Pager, len(pt.parts))
		for i, p := range pt.parts {
			pgs[i] = p.pg
		}
		return commit(pt.view, pgs)
	})
}

// Close is the shutdown path: one final cross-partition commit.
func (pt *PartitionedTable) Close() error { return pt.Sync() }

// CheckAny opens and checks the named table in either layout, adopting
// each constituent hidden file into the view via adopt (e.g.
// (*stegfs.HiddenView).Adopt, which derives per-file keys from the view's
// deterministic key schedule): the plain file name if it adopts, else
// name.p0, name.p1, ... for as long as they adopt; OpenPartitionedTable
// then validates the set. It returns the names of every hidden file
// adopted — journal siblings included when present — so callers like
// stegfsck can verify each one's block-level integrity too.
func CheckAny(view View, adopt func(name string) error, name string) ([]string, error) {
	var files []string
	adoptFile := func(f string) error {
		if err := adopt(f); err != nil {
			return err
		}
		files = append(files, f)
		if adopt(f+walSuffix) == nil {
			files = append(files, f+walSuffix)
		}
		return nil
	}
	if adoptFile(name) != nil {
		if err := adoptFile(partName(name, 0)); err != nil {
			return nil, fmt.Errorf("stegdb: table %q not found as plain file or partition 0: %w", name, err)
		}
		for i := 1; i < maxPartitions; i++ {
			if adoptFile(partName(name, i)) != nil {
				break
			}
		}
	}
	pt, err := OpenPartitionedTable(view, name)
	if err != nil {
		return files, err
	}
	return files, pt.Check()
}
