package stegdb

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// PartitionedTable is a hidden table, sharded by key hash across N hidden
// files (partitions), each with its own Pager and B-link tree.
// Partitioning multiplies the write paths the same way A6's distinct-object
// scaling multiplied file writes: Put/Delete on different partitions share
// no pager, no tree and no latch, so a write-heavy workload scales with the
// partition count instead of funneling into one file's allocator. N = 1 is
// the plain table: the same type and layout with one partition.
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
//     into one pipeline run that writes ONE journal holding every
//     partition's records, issues ONE shared pre-barrier, homes every
//     partition, and issues ONE shared post-barrier — one journal write
//     and two volume barriers per batch regardless of partition count or
//     caller count. The table commits as a whole: a crash leaves every
//     partition at the old epoch or every partition at the new one.
//
// Layout: for every N >= 1, partition i lives in hidden file "t.p<i>",
// and the table's one journal in "t.wal" (commit.go). Each partition's
// meta page records N and its own index, so fsck and Open can discover
// and validate the set from its first member: a table occupies exactly
// N + 1 hidden files.
type PartitionedTable struct {
	view  View
	parts []*BTree // one tree per partition, each in its own Pager
	wal   string   // the journal file every commit goes through

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
// files, plus its journal file. withHash and nBuckets are accepted and
// ignored: every lookup goes through the tree.
func CreatePartitionedTable(view View, name string, nParts int, withHash bool, nBuckets int) (*PartitionedTable, error) {
	if nParts < 1 || nParts > maxPartitions {
		return nil, fmt.Errorf("stegdb: partition count %d out of range [1,%d]", nParts, maxPartitions)
	}
	pt := &PartitionedTable{view: view, parts: make([]*BTree, nParts), wal: name + walSuffix}
	for i := range pt.parts {
		pg, err := createPager(view, partName(name, i), nParts, i)
		if err != nil {
			return nil, err
		}
		pt.parts[i] = NewBTree(pg)
	}
	// An all-zero journal header has no magic, so it never replays.
	if err := view.Create(pt.wal, make([]byte, PageSize)); err != nil {
		return nil, fmt.Errorf("stegdb: create journal: %w", err)
	}
	return pt, nil
}

// OpenPartitionedTable opens an existing table. Its first member, name.p0,
// is read first: its magic must be this format's (a table of the format
// before it is refused by name, and left as it is) and its meta page gives
// the partition count N. Every member file (name.p0 .. name.p<N-1>) and
// the journal name.wal must be visible in the view.
//
// Crash recovery runs next: the journal is replayed into the member files,
// and one barrier makes the replay durable, before the members' meta
// pages are read. A commit never changes a member's magic or partition
// count, so the first read sees the same values before and after the
// replay. Each member's meta is then validated against its position.
func OpenPartitionedTable(view View, name string) (*PartitionedTable, error) {
	first := partName(name, 0)
	var meta [metaPartCount + 8]byte
	if _, err := view.ReadAt(first, meta[:], 0); err != nil {
		return nil, fmt.Errorf("stegdb: open %s: %w", first, err)
	}
	if err := checkMagic(first, meta[:8]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint64(meta[metaPartCount:])
	if n < 1 || n > maxPartitions {
		return nil, fmt.Errorf("stegdb: %s declares %d partitions (max %d)", first, n, maxPartitions)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = partName(name, i)
	}
	pt := &PartitionedTable{view: view, wal: name + walSuffix}
	replayed, err := replayJournal(view, pt.wal, names)
	if err != nil {
		return nil, fmt.Errorf("stegdb: recover %s: %w", name, err)
	}
	if replayed {
		if err := view.Sync(); err != nil {
			return nil, fmt.Errorf("stegdb: barrier after recovery: %w", err)
		}
	}
	for _, part := range names {
		pg, err := openPager(view, part)
		if err != nil {
			return nil, fmt.Errorf("stegdb: open %s: %w", part, err)
		}
		pt.parts = append(pt.parts, NewBTree(pg))
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
		if got := p.pg.metaField(metaPartCount); got != int64(len(pt.parts)) {
			return fmt.Errorf("stegdb: %s declares %d partitions, expected %d", p.pg.name, got, len(pt.parts))
		}
		if got := p.pg.metaField(metaPartIndex); got != int64(i) {
			return fmt.Errorf("stegdb: %s declares partition index %d, expected %d", p.pg.name, got, i)
		}
	}
	return nil
}

// Partitions returns the partition count.
func (pt *PartitionedTable) Partitions() int { return len(pt.parts) }

// Files returns the hidden-file names the table occupies: every member
// in order, then the journal — the set fsck must find and verify.
func (pt *PartitionedTable) Files() []string {
	out := make([]string, 0, len(pt.parts)+1)
	for _, p := range pt.parts {
		out = append(out, p.pg.name)
	}
	return append(out, pt.wal)
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

// Put inserts or replaces a row in the owning partition. A failed Put
// leaves the prior row.
func (pt *PartitionedTable) Put(key, val []byte) error {
	pt.snapGate.RLock()
	defer pt.snapGate.RUnlock()
	return pt.parts[pt.partFor(key)].Put(key, val)
}

// Delete removes a row from the owning partition, reporting whether it
// existed. A failed Delete reports (false, err) and leaves the row.
func (pt *PartitionedTable) Delete(key []byte) (bool, error) {
	pt.snapGate.RLock()
	defer pt.snapGate.RUnlock()
	return pt.parts[pt.partFor(key)].Delete(key)
}

// Get returns the row stored under key, from the owning partition's tree.
func (pt *PartitionedTable) Get(key []byte) ([]byte, bool, error) {
	return pt.parts[pt.partFor(key)].Get(key)
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
// pinned pager Snapshot per partition, all taken with writers excluded, so
// the merged state is a single instant of the logical table.
type PartitionedSnapshot struct {
	pt    *PartitionedTable
	snaps []*Snapshot
}

// Snapshot pins one epoch per partition atomically (writers excluded for
// the instant of the pinning, not for the life of the snapshot). A single
// pager pins its epoch and meta atomically on its own, so a one-partition
// snapshot skips the gate and never waits for a writer.
func (pt *PartitionedTable) Snapshot() *PartitionedSnapshot {
	if len(pt.parts) == 1 {
		return &PartitionedSnapshot{pt: pt, snaps: []*Snapshot{pt.parts[0].pg.BeginSnapshot()}}
	}
	pt.snapGate.Lock()
	snaps := make([]*Snapshot, len(pt.parts))
	for i, p := range pt.parts {
		snaps[i] = p.pg.BeginSnapshot()
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
		total += ts.rows
	}
	return total
}

// Get returns the value stored under key as of the snapshot.
func (s *PartitionedSnapshot) Get(key []byte) ([]byte, bool, error) {
	ts := s.snaps[s.pt.partFor(key)]
	return getFrom(ts.pg, ts, ts.btreeRoot, key)
}

// Scan visits every row of every partition in global key order.
func (s *PartitionedSnapshot) Scan(fn func(key, val []byte) bool) error {
	return s.Range(nil, nil, fn)
}

// Range visits rows with lo <= key < hi in global key order: a k-way merge
// of the per-partition leaf chains (linear min over <= maxPartitions
// iterators per step — partitions are few, keys are many). key and val
// alias pooled page buffers and are valid only until fn returns, so fn
// must copy what it keeps.
func (s *PartitionedSnapshot) Range(lo, hi []byte, fn func(key, val []byte) bool) error {
	return mergeRange(s.snaps, lo, hi, fn)
}

// mergeRange is the k-way merge behind Range and Check's row scan, one
// treeIter per snapshot. Every iterator is closed on every return.
func mergeRange(snaps []*Snapshot, lo, hi []byte, fn func(key, val []byte) bool) error {
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
// the layout, and that every partition's tree is structurally sound
// (checkTree), counts its rows right and holds only keys the routing hash
// assigns it.
func (pt *PartitionedTable) Check() error {
	if err := pt.checkLayout(); err != nil {
		return err
	}
	s := pt.Snapshot()
	defer s.Close()
	for i := range pt.parts {
		if err := checkTree(s.snaps[i], func(k []byte) bool { return pt.partFor(k) == i }); err != nil {
			return fmt.Errorf("stegdb: partition %d: %w", i, err)
		}
	}
	return nil
}

// Sync commits every partition as one batch. Concurrent callers are group
// committed: each batch writes one journal holding all partitions'
// records, issues one shared journal barrier, homes all partitions, and
// issues one shared home barrier.
func (pt *PartitionedTable) Sync() error {
	return pt.gc.do(func() error {
		pgs := make([]*Pager, len(pt.parts))
		for i, p := range pt.parts {
			pgs[i] = p.pg
		}
		return commit(pt.view, pt.wal, pgs)
	})
}

// Close is the shutdown path: one final cross-partition commit.
func (pt *PartitionedTable) Close() error { return pt.Sync() }

// CheckAny opens and checks the named table, adopting each of its hidden
// files into the view via adopt (e.g. (*stegfs.HiddenView).Adopt, which
// derives per-file keys from the view's deterministic key schedule):
// name.p0, name.p1, ... for as long as they adopt, then the journal
// name.wal, which must adopt too; OpenPartitionedTable then validates the
// set. It returns the names of every hidden file adopted, so callers like
// stegfsck can verify each one's block-level integrity too. A table of the
// one-file layout before SGDB0002 is the hidden file name with no name.p0;
// it is reported by its magic (checkMagic), read without changing a byte.
func CheckAny(view View, adopt func(name string) error, name string) ([]string, error) {
	var files []string
	for i := 0; i < maxPartitions; i++ {
		part := partName(name, i)
		if err := adopt(part); err != nil {
			if i > 0 {
				break
			}
			var magic [8]byte
			if adopt(name) == nil {
				if _, rerr := view.ReadAt(name, magic[:], 0); rerr == nil {
					if merr := checkMagic(name, magic[:]); merr != nil {
						return nil, merr
					}
				}
			}
			return nil, fmt.Errorf("stegdb: table %q not found: %w", name, err)
		}
		files = append(files, part)
	}
	wal := name + walSuffix
	if err := adopt(wal); err != nil {
		return files, fmt.Errorf("stegdb: table %q has no journal %s: %w", name, wal, err)
	}
	files = append(files, wal)
	pt, err := OpenPartitionedTable(view, name)
	if err != nil {
		return files, err
	}
	return files, pt.Check()
}
