// Package stegrand implements the second steganographic scheme of Anderson,
// Needham and Shamir — hidden files written to absolute disk addresses given
// by a pseudorandom process — with the k-fold replication the paper's
// StegRand baseline uses to reduce data loss (Table 4; an implementation of
// this scheme was the McDonald/Kuhn Linux StegFS, reference [13]).
//
// Because the scheme deliberately keeps no central record of which blocks
// are occupied, a write may land on and destroy another hidden file's block.
// Replication delays but cannot eliminate the loss: once every replica of
// some block has been overwritten, that file is gone (fsapi.ErrCorrupt).
// Reads must "hunt for an intact replicate when the primary copy of a file
// is found to be corrupted" (§5.3), paying extra I/Os.
package stegrand

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"stegfs/internal/fsapi"
	"stegfs/internal/sgcrypto"
	"stegfs/internal/vdisk"
)

// Config parameterizes the scheme.
type Config struct {
	// Replication is the number of copies of each block (paper's
	// recommendation for the performance experiments: 4).
	Replication int
	// Seed namespaces the address chains of this volume.
	Seed int64
}

// DefaultConfig mirrors the paper's performance-experiment setting.
func DefaultConfig() Config { return Config{Replication: 4, Seed: 1} }

// owner identifies which (file, replica, block index) most recently wrote a
// physical block. The real scheme detects stale blocks with embedded
// checksums; tracking ownership explicitly charges the same I/O without
// re-deriving hashes.
type owner struct {
	fileID  int
	replica int
	idx     int64
}

// fileState is the bookkeeping for one hidden file.
type fileState struct {
	id      int
	name    string
	size    int64
	nblocks int64
	// addrs[r][i] is the physical block of replica r of logical block i.
	addrs [][]int64
	// alive[i] counts intact replicas of logical block i.
	alive []int
	// corrupt is set when any logical block has zero intact replicas.
	corrupt bool
}

// FS is a mounted StegRand volume.
type FS struct {
	mu     sync.Mutex
	dev    vdisk.Device
	cfg    Config
	files  map[string]*fileState
	byID   map[int]*fileState
	owners map[int64]owner
	nextID int
}

// Format initializes dev (writing random patterns across it) and mounts the
// scheme.
func Format(dev vdisk.Device, cfg Config) (*FS, error) {
	if cfg.Replication <= 0 {
		return nil, fmt.Errorf("stegrand: replication %d must be positive", cfg.Replication)
	}
	var seed [8]byte
	binary.BigEndian.PutUint64(seed[:], uint64(cfg.Seed))
	filler := sgcrypto.NewRandomFiller(seed[:])
	buf := make([]byte, dev.BlockSize())
	for b := int64(0); b < dev.NumBlocks(); b++ {
		filler.Fill(buf)
		if err := dev.WriteBlock(b, buf); err != nil {
			return nil, err
		}
	}
	return &FS{
		dev:    dev,
		cfg:    cfg,
		files:  make(map[string]*fileState),
		byID:   make(map[int]*fileState),
		owners: make(map[int64]owner),
	}, nil
}

// SchemeName implements fsapi.FileSystem.
func (fs *FS) SchemeName() string { return "StegRand" }

// replicaAddrs derives the pseudorandom address sequence of one replica: a
// hash chain seeded from the file name, the volume seed and the replica
// number, exactly the "absolute disk addresses given by some pseudo-random
// process" of the original scheme.
func (fs *FS) replicaAddrs(name string, replica int, n int64) []int64 {
	seed := make([]byte, 0, len(name)+17)
	seed = append(seed, name...)
	var tail [17]byte
	binary.BigEndian.PutUint64(tail[:8], uint64(fs.cfg.Seed))
	binary.BigEndian.PutUint64(tail[8:16], uint64(replica))
	tail[16] = 0x5a
	seed = append(seed, tail[:]...)
	// Addresses avoid block 0 (reserved) by mapping into [1, NumBlocks).
	gen := sgcrypto.NewPRBG(seed, fs.dev.NumBlocks()-1)
	out := make([]int64, n)
	for i := range out {
		out[i] = 1 + gen.Next()
	}
	return out
}

// claim records that (f, replica, idx) now owns physical block b,
// decrementing the previous owner's replica count. It returns the file that
// became corrupt as a result, if any.
func (fs *FS) claim(f *fileState, replica int, idx int64, b int64) *fileState {
	var victim *fileState
	if prev, ok := fs.owners[b]; ok {
		if pf := fs.byID[prev.fileID]; pf != nil {
			// The previous owner's copy is destroyed — unless it is the very
			// slot being rewritten.
			if !(prev.fileID == f.id && prev.replica == replica && prev.idx == idx) {
				pf.alive[prev.idx]--
				if pf.alive[prev.idx] == 0 && !pf.corrupt {
					pf.corrupt = true
					victim = pf
				}
			}
		}
	}
	fs.owners[b] = owner{fileID: f.id, replica: replica, idx: idx}
	return victim
}

// Create implements fsapi.FileSystem. Creating a file can corrupt earlier
// files; the create itself succeeds (the scheme cannot even know).
func (fs *FS) Create(name string, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; ok {
		return fmt.Errorf("%w: %q", fsapi.ErrExists, name)
	}
	bs := int64(fs.dev.BlockSize())
	n := (int64(len(data)) + bs - 1) / bs
	f := &fileState{
		id:      fs.nextID,
		name:    name,
		size:    int64(len(data)),
		nblocks: n,
		addrs:   make([][]int64, fs.cfg.Replication),
		alive:   make([]int, n),
	}
	fs.nextID++
	for r := 0; r < fs.cfg.Replication; r++ {
		f.addrs[r] = fs.replicaAddrs(name, r, n)
	}
	fs.files[name] = f
	fs.byID[f.id] = f
	return fs.writeAllReplicas(f, data)
}

// writeAllReplicas writes every replica of every block of f.
func (fs *FS) writeAllReplicas(f *fileState, data []byte) error {
	buf := make([]byte, fs.dev.BlockSize())
	for i := range f.alive {
		f.alive[i] = 0
	}
	for idx := int64(0); idx < f.nblocks; idx++ {
		fsapi.FillBlock(buf, data, int(idx))
		for r := 0; r < fs.cfg.Replication; r++ {
			b := f.addrs[r][idx]
			fs.claim(f, r, idx, b)
			if err := fs.dev.WriteBlock(b, buf); err != nil {
				return err
			}
		}
		// Count live replicas after all writes of this index: a later
		// replica of the same index can overwrite an earlier one.
		live := 0
		for r := 0; r < fs.cfg.Replication; r++ {
			if o, ok := fs.owners[f.addrs[r][idx]]; ok && o.fileID == f.id && o.idx == idx {
				live++
			}
		}
		f.alive[idx] = live
		if live == 0 {
			f.corrupt = true
		}
	}
	return nil
}

// Read implements fsapi.FileSystem. For each block it tries replicas in
// order, paying one block read per attempt, until an intact copy is found.
func (fs *FS) Read(name string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", fsapi.ErrNotFound, name)
	}
	bs := fs.dev.BlockSize()
	out := make([]byte, f.nblocks*int64(bs))
	buf := make([]byte, bs)
	for idx := int64(0); idx < f.nblocks; idx++ {
		if err := fs.readBlockHunting(f, idx, buf); err != nil {
			return nil, err
		}
		copy(out[idx*int64(bs):], buf)
	}
	return out[:f.size], nil
}

// readBlockHunting reads logical block idx of f into buf, hunting through
// replicas. Every attempted replica costs a device read.
func (fs *FS) readBlockHunting(f *fileState, idx int64, buf []byte) error {
	for r := 0; r < fs.cfg.Replication; r++ {
		b := f.addrs[r][idx]
		if err := fs.dev.ReadBlock(b, buf); err != nil {
			return err
		}
		if o, ok := fs.owners[b]; ok && o.fileID == f.id && o.replica == r && o.idx == idx {
			return nil
		}
		// Stale copy (would fail its checksum): keep hunting.
	}
	return fmt.Errorf("%w: %q block %d: all %d replicas overwritten", fsapi.ErrCorrupt, f.name, idx, fs.cfg.Replication)
}

// Write implements fsapi.FileSystem: all replicas of all blocks are
// rewritten ("the write access times are much worse because all the
// replicates must be updated", §5.3).
func (fs *FS) Write(name string, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("%w: %q", fsapi.ErrNotFound, name)
	}
	bs := int64(fs.dev.BlockSize())
	n := (int64(len(data)) + bs - 1) / bs
	if n != f.nblocks {
		// Regenerate the address chains for the new length.
		f.nblocks = n
		f.alive = make([]int, n)
		for r := 0; r < fs.cfg.Replication; r++ {
			f.addrs[r] = fs.replicaAddrs(name, r, n)
		}
	}
	f.size = int64(len(data))
	f.corrupt = false
	return fs.writeAllReplicas(f, data)
}

// Delete implements fsapi.FileSystem: the blocks are simply disowned (the
// scheme has no bitmap to clear).
func (fs *FS) Delete(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("%w: %q", fsapi.ErrNotFound, name)
	}
	for r := range f.addrs {
		for idx, b := range f.addrs[r] {
			if o, ok := fs.owners[b]; ok && o.fileID == f.id && o.replica == r && o.idx == int64(idx) {
				delete(fs.owners, b)
			}
		}
	}
	delete(fs.files, name)
	delete(fs.byID, f.id)
	return nil
}

// Stat implements fsapi.FileSystem.
func (fs *FS) Stat(name string) (fsapi.FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return fsapi.FileInfo{}, fmt.Errorf("%w: %q", fsapi.ErrNotFound, name)
	}
	return fsapi.FileInfo{Name: name, Size: f.size, Blocks: f.nblocks}, nil
}

// Corrupt reports whether the named file has lost all replicas of any block.
func (fs *FS) Corrupt(name string) (bool, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return false, fmt.Errorf("%w: %q", fsapi.ErrNotFound, name)
	}
	return f.corrupt, nil
}

// AnyCorrupt reports whether any file on the volume is unrecoverable.
func (fs *FS) AnyCorrupt() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, f := range fs.files {
		if f.corrupt {
			return true
		}
	}
	return false
}

// ReadCursor implements fsapi.CursorFS: each Step reads the next logical
// block, hunting replicas as needed. Unlike the whole-file Read, a cursor
// tolerates unrecoverable blocks: the reader has already paid the I/O for
// every replica before discovering the loss, which is the cost the paper's
// access-time experiments measure.
func (fs *FS) ReadCursor(name string) (fsapi.Cursor, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", fsapi.ErrNotFound, name)
	}
	buf := make([]byte, fs.dev.BlockSize())
	return fsapi.NewCursor(int(f.nblocks), func(i int) error {
		fs.mu.Lock()
		defer fs.mu.Unlock()
		if err := fs.checkCursor(f, i); err != nil {
			return err
		}
		err := fs.readBlockHunting(f, int64(i), buf)
		if errors.Is(err, fsapi.ErrCorrupt) {
			return nil // a lost block: every replica was read, nothing intact
		}
		return err
	}), nil
}

// WriteCursor implements fsapi.CursorFS (same-shape overwrite): each Step
// rewrites all replicas of the next logical block.
func (fs *FS) WriteCursor(name string, data []byte) (fsapi.Cursor, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", fsapi.ErrNotFound, name)
	}
	bs := int64(fs.dev.BlockSize())
	if (int64(len(data))+bs-1)/bs != f.nblocks {
		return nil, fmt.Errorf("stegrand: write cursor size mismatch")
	}
	f.size = int64(len(data))
	buf := make([]byte, bs)
	return fsapi.NewCursor(int(f.nblocks), func(i int) error {
		fsapi.FillBlock(buf, data, i)
		fs.mu.Lock()
		defer fs.mu.Unlock()
		if err := fs.checkCursor(f, i); err != nil {
			return err
		}
		for r := 0; r < fs.cfg.Replication; r++ {
			b := f.addrs[r][i]
			fs.claim(f, r, int64(i), b)
			if err := fs.dev.WriteBlock(b, buf); err != nil {
				return err
			}
		}
		return nil
	}), nil
}

// checkCursor reports whether block i of f still exists: a whole-file Write
// between two Steps may have shortened f. Caller holds fs.mu.
func (fs *FS) checkCursor(f *fileState, i int) error {
	if int64(i) >= f.nblocks {
		return fmt.Errorf("stegrand: %q shortened to %d blocks under its cursor", f.name, f.nblocks)
	}
	return nil
}

var _ fsapi.CursorFS = (*FS)(nil)
