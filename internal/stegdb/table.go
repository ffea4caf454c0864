package stegdb

import (
	"errors"
	"fmt"
	"sync"
)

// partition is one hidden file's share of a table: rows live in a B-tree
// (ordered access, range scans) with an optional hash index for O(1) point
// lookups — the three structures the paper's future work names (tables,
// B-trees, hash indices), all stored in one deniable hidden file.
//
// Concurrency: put/delete serialize per key via nKeyShards shard locks, so
// the B-tree and hash index stay mutually consistent for any one key while
// distinct keys proceed in parallel (limited below by the tree latches).
// Gets never block behind writers: the hash path stripes by bucket, the
// tree path is latch-free.
type partition struct {
	pg   *Pager
	tree *BTree
	hash *HashIndex // nil without a hash index
	// Per-key shards; one shard per operation.
	// lockcheck:level 10 stegdb/shard
	shards [nKeyShards]sync.Mutex
}

// nKeyShards is the put/delete key striping factor.
const nKeyShards = 64

// createPartition creates the named hidden file (plus its journal) holding
// an empty partition. withHash adds the hash index (nBuckets buckets).
func createPartition(view View, name string, withHash bool, nBuckets int) (*partition, error) {
	pg, err := CreatePager(view, name)
	if err != nil {
		return nil, err
	}
	p := &partition{pg: pg, tree: NewBTree(pg)}
	if withHash {
		if p.hash, err = NewHashIndex(pg, nBuckets); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// openPartition opens an existing partition file, replaying its journal.
func openPartition(view View, name string) (*partition, error) {
	pg, err := OpenPager(view, name)
	if err != nil {
		return nil, err
	}
	p := &partition{pg: pg, tree: NewBTree(pg)}
	if pg.metaField(metaHashRoot) != nilPage {
		if p.hash, err = NewHashIndex(pg, 0); err != nil {
			return nil, err
		}
	}
	return p, nil
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

// put inserts or replaces a row. The B-tree and hash index are kept
// error-consistent: if the hash insert fails after the tree insert
// succeeded, the tree change is rolled back before the error returns.
func (p *partition) put(key, val []byte) error {
	sh := p.shardFor(key)
	sh.Lock()
	defer sh.Unlock()
	prev, existed, err := p.tree.PutEx(key, val)
	if err != nil {
		return err
	}
	if p.hash != nil {
		if err := p.hash.Put(key, val); err != nil {
			var rerr error
			if existed {
				_, _, rerr = p.tree.PutEx(key, prev)
			} else {
				_, _, rerr = p.tree.DeleteEx(key)
			}
			if rerr != nil {
				return errors.Join(err, fmt.Errorf("stegdb: rollback failed: %w", rerr))
			}
			return err
		}
	}
	return nil
}

// get returns the row stored under key: the O(1) hash path when there is a
// hash index, otherwise the B-tree.
func (p *partition) get(key []byte) ([]byte, bool, error) {
	if p.hash != nil {
		return p.hash.Get(key)
	}
	return p.tree.Get(key)
}

// delete removes a row, reporting whether it existed. Error-consistent like
// put: if the hash delete fails after the tree delete succeeded, the row is
// restored and (false, err) returned — the delete did not happen. The hash
// index is probed even when the tree had no row, repairing any orphaned
// hash entry from an earlier partial failure.
func (p *partition) delete(key []byte) (bool, error) {
	sh := p.shardFor(key)
	sh.Lock()
	defer sh.Unlock()
	prev, found, err := p.tree.DeleteEx(key)
	if err != nil {
		return false, err
	}
	if p.hash != nil {
		if _, err := p.hash.Delete(key); err != nil {
			if found {
				if _, _, rerr := p.tree.PutEx(key, prev); rerr != nil {
					return false, errors.Join(err, fmt.Errorf("stegdb: rollback failed: %w", rerr))
				}
			}
			return false, err
		}
	}
	return found, nil
}

// check verifies the partition against its snapshot s in one scan: every
// B-tree row is one owns accepts and resolves through the hash index (when
// present) with the same value, the hash entry count matches the tree row
// count, and the O(1) row counter agrees with the scan count.
func (p *partition) check(s *TreeSnapshot, owns func(key []byte) bool) error {
	var scanned int64
	var missed, misrouted int
	err := s.Scan(func(k, v []byte) bool {
		scanned++
		if !owns(k) {
			misrouted++
		}
		if p.hash != nil {
			hv, ok, err := p.hash.Get(k)
			if err != nil || !ok || string(hv) != string(v) {
				missed++
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	if misrouted > 0 {
		return fmt.Errorf("stegdb: %d misrouted keys", misrouted)
	}
	if missed > 0 {
		return fmt.Errorf("stegdb: %d rows missing or stale in hash index", missed)
	}
	if rows := s.Rows(); rows != scanned {
		return fmt.Errorf("stegdb: row counter %d != scanned rows %d", rows, scanned)
	}
	if p.hash != nil {
		hc, err := p.hash.Count()
		if err != nil {
			return err
		}
		if hc != scanned {
			return fmt.Errorf("stegdb: hash index holds %d entries, tree holds %d rows", hc, scanned)
		}
	}
	return nil
}
