package stegfs

import (
	"encoding/binary"
	"fmt"

	"stegfs/internal/sgcrypto"
)

// dummyFAK derives the access key of dummy file i from the volume key. The
// system must be able to relocate its dummies, so their keys are derived
// from state stored in the superblock — exactly the weakness the paper
// concedes ("dummy files are maintained by StegFS and could be vulnerable to
// an attacker with administrator privileges"), which is why abandoned blocks
// exist as a second, untraceable layer of cover.
func (fs *FS) dummyFAK(i int) []byte {
	var buf [40]byte
	copy(buf[:32], fs.sb.volKey[:])
	binary.BigEndian.PutUint64(buf[32:], uint64(i))
	sig := sgcrypto.Signature("stegfs.dummy.fak", buf[:])
	return sig[:]
}

// dummyPhys returns the physical name of dummy file i.
func dummyPhys(i int) string { return fmt.Sprintf("%s%d", physDummy, i) }

// dummyPayload builds random-looking content of the given size for a dummy.
// The nonce comes from the allocator's lock-free auxiliary generator, so no
// lock is needed.
func (fs *FS) dummyPayload(i int, size int64) []byte {
	var seed [48]byte
	copy(seed[:32], fs.sb.volKey[:])
	binary.BigEndian.PutUint64(seed[32:], uint64(i))
	binary.BigEndian.PutUint64(seed[40:], uint64(fs.alloc.Int63()))
	out := make([]byte, size)
	sgcrypto.NewRandomFiller(seed[:]).Fill(out)
	return out
}

// dummySize draws a size uniformly in [0.5, 1.5] x DummyAvgSize, at least
// one block.
func (fs *FS) dummySize() int64 {
	avg := fs.params.DummyAvgSize
	if avg <= 0 {
		return int64(fs.dev.BlockSize())
	}
	lo := avg / 2
	size := lo + fs.alloc.Int63n(avg+1)
	if size < int64(fs.dev.BlockSize()) {
		size = int64(fs.dev.BlockSize())
	}
	return size
}

// createDummies populates the NDummy dummy hidden files at format time.
func (fs *FS) createDummies() error {
	for i := 0; i < fs.params.NDummy; i++ {
		payload := fs.dummyPayload(i, fs.dummySize())
		if _, err := fs.createHidden(dummyPhys(i), fs.dummyFAK(i), FlagDummy, payload); err != nil {
			return fmt.Errorf("dummy %d: %w", i, err)
		}
	}
	return nil
}

// TickDummies performs one round of dummy-file maintenance: every dummy is
// rewritten with fresh content and a resampled size, churning the bitmap so
// that "an observer [cannot deduce] that blocks allocated between successive
// snapshots of the bitmap that do not belong to any plain files must hold
// hidden data" (§3.1). Each dummy is refreshed under its own object lock, so
// a maintenance tick never stalls readers of unrelated hidden files.
func (fs *FS) TickDummies() error {
	for i := 0; i < fs.params.NDummy; i++ {
		if err := fs.tickDummy(i); err != nil {
			return err
		}
	}
	return nil
}

func (fs *FS) tickDummy(i int) error {
	r, err := fs.open(dummyPhys(i), fs.dummyFAK(i), true)
	if err != nil {
		return fmt.Errorf("dummy %d lost: %w", i, err)
	}
	defer fs.release(r)
	payload := fs.dummyPayload(i, fs.dummySize())
	if err := fs.rewriteHidden(r, payload); err != nil {
		return fmt.Errorf("dummy %d refresh: %w", i, err)
	}
	// Rotate the internal free pool so the tick is visible in the
	// bitmap even when the resize was absorbed by the pool — the whole
	// point of dummies is to churn allocations between snapshots. The old
	// pool blocks are released only AFTER the header no longer references
	// them on disk: freeing first would let a concurrent writer claim a
	// block the still-persisted header lists, and the next tick's free loop
	// would then liberate that other object's live data.
	oldPool := r.hdr.free
	r.hdr.free = nil
	fs.poolTopUp(r)
	if err := fs.flushHeader(r); err != nil {
		// Disk still shows the old pool; release the fresh blocks and keep
		// the old list in memory so ownership stays single either way.
		fs.alloc.FreeBatch(r.hdr.free)
		r.hdr.free = oldPool
		return fmt.Errorf("dummy %d pool rotate: %w", i, err)
	}
	fs.alloc.FreeBatch(oldPool)
	return nil
}

// DummyBlocks reports how many blocks the dummy files currently occupy
// (header + data + pointer + pooled blocks). Space-utilization accounting
// uses this.
func (fs *FS) DummyBlocks() (int64, error) {
	var total int64
	for i := 0; i < fs.params.NDummy; i++ {
		r, err := fs.open(dummyPhys(i), fs.dummyFAK(i), false)
		if err != nil {
			return 0, err
		}
		blocks, err := fs.hiddenBlocks(r)
		fs.release(r)
		if err != nil {
			return 0, err
		}
		total += int64(len(blocks))
	}
	return total, nil
}

// AbandonedCount returns the number of blocks abandoned at format time.
func (fs *FS) AbandonedCount() int64 { return int64(fs.sb.nAbandoned) }
