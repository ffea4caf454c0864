package stegdb

import (
	"fmt"
	"sync"
)

// partition is one hidden file's share of a table: its rows live in a
// B-link tree (ordered access, range scans, point lookups), stored in one
// deniable hidden file.
//
// Concurrency: put/delete serialize per key via nKeyShards shard locks, so
// the undo a failed split-Put runs (BTree.Put) restores exactly the row
// that Put replaced, while distinct keys proceed in parallel (limited below
// by the tree latches). Gets never block behind writers: the tree path is
// latch-free.
type partition struct {
	pg   *Pager
	tree *BTree
	// Per-key shards; one shard per operation.
	// lockcheck:level 10 stegdb/shard
	shards [nKeyShards]sync.Mutex
}

// nKeyShards is the put/delete key striping factor.
const nKeyShards = 64

// createPartition creates the named hidden file (plus its journal) holding
// an empty partition.
func createPartition(view View, name string) (*partition, error) {
	pg, err := CreatePager(view, name)
	if err != nil {
		return nil, err
	}
	return &partition{pg: pg, tree: NewBTree(pg)}, nil
}

// openPartition opens an existing partition file, replaying its journal.
// A hash index an older version stored beside the tree is dropped: the tree
// holds every row, and clearing metaHashRoot (persisted by the next commit)
// keeps an older binary from serving the index's now stale values.
func openPartition(view View, name string) (*partition, error) {
	pg, err := OpenPager(view, name)
	if err != nil {
		return nil, err
	}
	if pg.metaField(metaHashRoot) != nilPage {
		pg.setMetaField(metaHashRoot, nilPage)
	}
	return &partition{pg: pg, tree: NewBTree(pg)}, nil
}

// shardFor hashes the key (FNV-1a) onto a shard lock.
//
// lockcheck:returns stegdb/shard
func (p *partition) shardFor(key []byte) *sync.Mutex {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return &p.shards[h%nKeyShards]
}

// put inserts or replaces a row; a failed put leaves the prior row.
func (p *partition) put(key, val []byte) error {
	sh := p.shardFor(key)
	sh.Lock()
	defer sh.Unlock()
	return p.tree.Put(key, val)
}

// delete removes a row, reporting whether it existed; a failed delete
// reports (false, err) and leaves the row.
func (p *partition) delete(key []byte) (bool, error) {
	sh := p.shardFor(key)
	sh.Lock()
	defer sh.Unlock()
	return p.tree.Delete(key)
}

// check verifies the partition against its snapshot s in one scan: every
// row is one owns accepts, and the O(1) row counter agrees with the scan
// count.
func (p *partition) check(s *TreeSnapshot, owns func(key []byte) bool) error {
	var scanned int64
	var misrouted int
	err := s.Scan(func(k, v []byte) bool {
		scanned++
		if !owns(k) {
			misrouted++
		}
		return true
	})
	if err != nil {
		return err
	}
	if misrouted > 0 {
		return fmt.Errorf("stegdb: %d misrouted keys", misrouted)
	}
	if rows := s.Rows(); rows != scanned {
		return fmt.Errorf("stegdb: row counter %d != scanned rows %d", rows, scanned)
	}
	return nil
}
