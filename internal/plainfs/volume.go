package plainfs

import (
	"fmt"
	"math/rand"
	"sync"

	"stegfs/internal/alloc"
	"stegfs/internal/bitmapvec"
	"stegfs/internal/fsapi"
	"stegfs/internal/ptree"
	"stegfs/internal/vdisk"
)

// Policy selects how data blocks are placed on the volume.
type Policy int

// Allocation policies.
const (
	// Contiguous places each file in one contiguous run of blocks — the
	// CleanDisk baseline ("files are loaded onto a freshly formatted disk
	// volume and occupy contiguous blocks").
	Contiguous Policy = iota
	// Fragmented breaks each file into fixed-size contiguous fragments
	// scattered across the volume — the FragDisk baseline ("simulated by
	// breaking each file into fragments of 8 blocks").
	Fragmented
	// Random scatters every block uniformly across the free space, the way
	// StegFS allocates both its plain and hidden data.
	Random
)

// String names the policy for logs and bench labels.
func (p Policy) String() string {
	switch p {
	case Contiguous:
		return "contiguous"
	case Fragmented:
		return "fragmented"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config parameterizes a plain volume.
type Config struct {
	Policy     Policy
	FragBlocks int   // fragment length for Fragmented (paper default: 8)
	MaxFiles   int   // capacity of the central directory
	Seed       int64 // seed for the allocation RNG (Random and Fragmented placement)

	// Alloc, when non-nil, routes all Random-policy block allocation and
	// every free through the shared sharded allocator instead of the raw
	// bitmap. StegFS passes its volume allocator here, so plain-file
	// mutators no longer need the outer file system's allocation lock —
	// they contend with hidden-file writers only when their blocks land in
	// the same allocation group. Requires Policy == Random (the contiguous
	// baselines scan the raw bitmap).
	Alloc *alloc.Allocator
}

// DefaultConfig returns a plain-volume configuration matching the paper's
// workload defaults (up to 1024 files, 8-block fragments).
func DefaultConfig(policy Policy) Config {
	return Config{Policy: policy, FragBlocks: 8, MaxFiles: 1024, Seed: 1}
}

// Volume is a mounted plain filesystem, always embedded in an outer file
// system (nativefs or StegFS) that owns the superblock and the bitmap; the
// volume shares that bitmap, so plain and hidden allocations never collide.
type Volume struct {
	// One big mutex per mounted plain volume; it sits below the allocation
	// group locks, which its mutators take through the shared allocator, and
	// above the stegfs freeze gate: stegfs.Backup walks the plain directory
	// with the gate held exclusively.
	//
	// lockcheck:level 45 volume/plainMu
	mu  sync.Mutex
	dev vdisk.Device
	bm  *bitmapvec.Bitmap
	cfg Config

	inodeStart  int64 // first block of the inode table
	inodeBlocks int64 // length of the inode table in blocks
	dataStart   int64 // first allocatable data block

	// lockcheck:guardedby mu
	rng *rand.Rand
	// lockcheck:guardedby mu
	byName map[string]int // name -> inode slot
	// lockcheck:guardedby mu
	nodes []*inode // slot -> inode (cache of the whole table)
}

// inodesPerBlock returns how many inode records fit in one device block.
func inodesPerBlock(dev vdisk.Device) int64 {
	n := int64(dev.BlockSize() / InodeSize)
	if n < 1 {
		n = 1
	}
	return n
}

// InodeBlocksFor returns the number of blocks a central directory with
// maxFiles entries occupies on dev.
func InodeBlocksFor(dev vdisk.Device, maxFiles int) int64 {
	per := inodesPerBlock(dev)
	return (int64(maxFiles) + per - 1) / per
}

// Layout returns the region boundaries shared by the volumes that embed a
// plain file system (nativefs and StegFS): the superblock in block 0, then
// the allocation bitmap, the central directory of maxFiles entries, and the
// data region from dataStart on.
func Layout(dev vdisk.Device, maxFiles int) (bmStart, bmLen, inoStart, inoLen, dataStart int64) {
	bs := int64(dev.BlockSize())
	bmStart = 1
	bmLen = (int64(bitmapvec.MarshaledLen(dev.NumBlocks())) + bs - 1) / bs
	inoStart = bmStart + bmLen
	inoLen = InodeBlocksFor(dev, maxFiles)
	dataStart = inoStart + inoLen
	return
}

// NewEmbedded mounts a plain volume inside an outer file system. The caller
// provides the shared bitmap (with all metadata regions already marked) and
// the inode-table placement; data blocks are allocated from the shared
// bitmap at or after dataStart.
func NewEmbedded(dev vdisk.Device, bm *bitmapvec.Bitmap, inodeStart, inodeBlocks, dataStart int64, cfg Config) (*Volume, error) {
	v := &Volume{
		dev:         dev,
		bm:          bm,
		cfg:         cfg,
		inodeStart:  inodeStart,
		inodeBlocks: inodeBlocks,
		dataStart:   dataStart,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		byName:      make(map[string]int),
	}
	if cfg.Policy == Fragmented && cfg.FragBlocks <= 0 {
		return nil, fmt.Errorf("plainfs: fragmented policy needs FragBlocks > 0")
	}
	if cfg.Alloc != nil && cfg.Policy != Random {
		return nil, fmt.Errorf("plainfs: shared allocator requires the random policy, got %v", cfg.Policy)
	}
	if err := v.loadInodes(); err != nil {
		return nil, err
	}
	return v, nil
}

// loadInodes reads the whole central directory into memory and indexes it.
// lockcheck:holds volume/plainMu
func (v *Volume) loadInodes() error {
	per := inodesPerBlock(v.dev)
	capacity := v.inodeBlocks * per
	if int64(v.cfg.MaxFiles) > capacity {
		v.cfg.MaxFiles = int(capacity)
	}
	v.nodes = make([]*inode, v.cfg.MaxFiles)
	buf := make([]byte, v.dev.BlockSize())
	for slot := 0; slot < v.cfg.MaxFiles; slot++ {
		blk := v.inodeStart + int64(slot)/per
		if int64(slot)%per == 0 {
			if err := v.dev.ReadBlock(blk, buf); err != nil {
				return fmt.Errorf("plainfs: read inode block %d: %w", blk, err)
			}
		}
		off := (int64(slot) % per) * InodeSize
		in, err := decodeInode(buf[off : off+InodeSize])
		if err != nil {
			return err
		}
		v.nodes[slot] = in
		if in.used {
			v.byName[in.name] = slot
		}
	}
	return nil
}

// flushInode writes one inode slot back to the device.
// lockcheck:holds volume/plainMu
func (v *Volume) flushInode(slot int) error {
	per := inodesPerBlock(v.dev)
	blk := v.inodeStart + int64(slot)/per
	buf := make([]byte, v.dev.BlockSize())
	if err := v.dev.ReadBlock(blk, buf); err != nil {
		return fmt.Errorf("plainfs: read inode block %d: %w", blk, err)
	}
	off := (int64(slot) % per) * InodeSize
	if err := encodeInode(v.nodes[slot], buf[off:off+InodeSize]); err != nil {
		return err
	}
	if err := v.dev.WriteBlock(blk, buf); err != nil {
		return fmt.Errorf("plainfs: write inode block %d: %w", blk, err)
	}
	return nil
}

// SchemeName implements fsapi.FileSystem.
func (v *Volume) SchemeName() string { return "plainfs-" + v.cfg.Policy.String() }

// Bitmap exposes the allocation bitmap (shared with the outer FS when
// embedded).
func (v *Volume) Bitmap() *bitmapvec.Bitmap { return v.bm }

// Device exposes the underlying block device.
func (v *Volume) Device() vdisk.Device { return v.dev }

// blocksFor returns how many data blocks a payload of size bytes needs.
func (v *Volume) blocksFor(size int) int64 {
	bs := int64(v.dev.BlockSize())
	return (int64(size) + bs - 1) / bs
}

// allocData allocates n data blocks under the configured policy.
// lockcheck:holds volume/plainMu
func (v *Volume) allocData(n int64) ([]int64, error) {
	switch v.cfg.Policy {
	case Contiguous:
		start, err := v.bm.AllocContiguous(n)
		if err != nil {
			return nil, fsapi.ErrNoSpace
		}
		out := make([]int64, n)
		for i := range out {
			out[i] = start + int64(i)
		}
		return out, nil
	case Fragmented:
		// Fragments land at random positions: a well-used disk's free space
		// is scattered, which is exactly what FragDisk models.
		frag := int64(v.cfg.FragBlocks)
		out := make([]int64, 0, n)
		for rem := n; rem > 0; {
			run := frag
			if rem < run {
				run = rem
			}
			start, err := v.bm.AllocContiguousAt(v.rng, run)
			if err != nil {
				v.freeBlocks(out)
				return nil, fsapi.ErrNoSpace
			}
			for i := int64(0); i < run; i++ {
				out = append(out, start+i)
			}
			rem -= run
		}
		return out, nil
	case Random:
		out := make([]int64, 0, n)
		for i := int64(0); i < n; i++ {
			b, err := v.allocRandom()
			if err != nil {
				v.freeBlocks(out)
				return nil, fsapi.ErrNoSpace
			}
			out = append(out, b)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("plainfs: unknown policy %v", v.cfg.Policy)
	}
}

// allocRandom draws one uniformly random free block, through the shared
// sharded allocator when the volume is embedded under one.
// lockcheck:holds volume/plainMu
func (v *Volume) allocRandom() (int64, error) {
	if v.cfg.Alloc != nil {
		b, err := v.cfg.Alloc.Alloc()
		if err != nil {
			return 0, fsapi.ErrNoSpace
		}
		return b, nil
	}
	b, err := v.bm.AllocRandomFree(v.rng)
	if err != nil {
		return 0, fsapi.ErrNoSpace
	}
	return b, nil
}

// allocMeta allocates one block for indirect pointers.
// lockcheck:holds volume/plainMu
func (v *Volume) allocMeta() (int64, error) {
	if v.cfg.Policy == Random {
		return v.allocRandom()
	}
	b, err := v.bm.AllocFirstFree(v.dataStart)
	if err != nil {
		return 0, fsapi.ErrNoSpace
	}
	return b, nil
}

// freeBlocks returns a set of blocks to the free space — through the shared
// allocator's group-aware batch free when embedded, so a large plain delete
// locks each allocation group once instead of once per block.
func (v *Volume) freeBlocks(blocks []int64) {
	if v.cfg.Alloc != nil {
		v.cfg.Alloc.FreeBatch(blocks)
		return
	}
	for _, b := range blocks {
		v.freeBlock(b)
	}
}

// freeBlock returns one block, through the shared allocator when embedded.
func (v *Volume) freeBlock(b int64) {
	if v.cfg.Alloc != nil {
		v.cfg.Alloc.Free(b)
		return
	}
	_ = v.bm.Clear(b)
}

// Create implements fsapi.FileSystem.
func (v *Volume) Create(name string, data []byte) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.createLocked(name, data)
}

// lockcheck:holds volume/plainMu
func (v *Volume) createLocked(name string, data []byte) error {
	if _, ok := v.byName[name]; ok {
		return fmt.Errorf("%w: %q", fsapi.ErrExists, name)
	}
	slot := -1
	for i, in := range v.nodes {
		if !in.used {
			slot = i
			break
		}
	}
	if slot < 0 {
		return fmt.Errorf("%w: central directory full", fsapi.ErrNoSpace)
	}
	n := v.blocksFor(len(data))
	blocks, err := v.allocData(n)
	if err != nil {
		return err
	}
	if err := v.writeData(blocks, data); err != nil {
		v.freeBlocks(blocks)
		return err
	}
	root, meta, err := ptree.Write(rawIO{v.dev}, v.allocMeta, NumDirect, blocks)
	if err != nil {
		v.freeBlocks(blocks)
		v.freeBlocks(meta)
		return err
	}
	in := &inode{used: true, name: name, size: int64(len(data)), nblocks: n, root: root}
	v.nodes[slot] = in
	if err := v.flushInode(slot); err != nil {
		v.freeBlocks(blocks)
		v.freeBlocks(meta)
		v.nodes[slot] = &inode{root: ptree.NewRoot(NumDirect)}
		return err
	}
	v.byName[name] = slot
	return nil
}

// writeData writes data across the given blocks, zero-padding the tail.
func (v *Volume) writeData(blocks []int64, data []byte) error {
	buf := make([]byte, v.dev.BlockSize())
	for i, b := range blocks {
		fsapi.FillBlock(buf, data, i)
		if err := v.dev.WriteBlock(b, buf); err != nil {
			return err
		}
	}
	return nil
}

// Read implements fsapi.FileSystem.
func (v *Volume) Read(name string) ([]byte, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	in, err := v.lookup(name)
	if err != nil {
		return nil, err
	}
	blocks, err := ptree.Read(rawIO{v.dev}, in.root, in.nblocks)
	if err != nil {
		return nil, err
	}
	bs := v.dev.BlockSize()
	out := make([]byte, in.nblocks*int64(bs))
	buf := make([]byte, bs)
	for i, b := range blocks {
		if err := v.dev.ReadBlock(b, buf); err != nil {
			return nil, err
		}
		copy(out[i*bs:], buf)
	}
	return out[:in.size], nil
}

// Write implements fsapi.FileSystem: it replaces the contents of name.
// When the new payload needs the same number of blocks the file is updated
// in place; otherwise the old blocks are freed and new ones allocated.
func (v *Volume) Write(name string, data []byte) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	slot, ok := v.byName[name]
	if !ok {
		return fmt.Errorf("%w: %q", fsapi.ErrNotFound, name)
	}
	in := v.nodes[slot]
	n := v.blocksFor(len(data))
	if n == in.nblocks {
		blocks, err := ptree.Read(rawIO{v.dev}, in.root, in.nblocks)
		if err != nil {
			return err
		}
		if err := v.writeData(blocks, data); err != nil {
			return err
		}
		in.size = int64(len(data))
		return v.flushInode(slot)
	}
	if err := v.deleteLocked(name); err != nil {
		return err
	}
	return v.createLocked(name, data)
}

// Delete implements fsapi.FileSystem.
func (v *Volume) Delete(name string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.deleteLocked(name)
}

// lockcheck:holds volume/plainMu
func (v *Volume) deleteLocked(name string) error {
	slot, ok := v.byName[name]
	if !ok {
		return fmt.Errorf("%w: %q", fsapi.ErrNotFound, name)
	}
	in := v.nodes[slot]
	blocks, err := ptree.Read(rawIO{v.dev}, in.root, in.nblocks)
	if err != nil {
		return err
	}
	if err := ptree.Free(rawIO{v.dev}, in.root, in.nblocks, v.freeBlock); err != nil {
		return err
	}
	v.freeBlocks(blocks)
	v.nodes[slot] = &inode{root: ptree.NewRoot(NumDirect)}
	delete(v.byName, name)
	return v.flushInode(slot)
}

// Stat implements fsapi.FileSystem.
func (v *Volume) Stat(name string) (fsapi.FileInfo, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	in, err := v.lookup(name)
	if err != nil {
		return fsapi.FileInfo{}, err
	}
	return fsapi.FileInfo{Name: in.name, Size: in.size, Blocks: in.nblocks}, nil
}

// lockcheck:holds volume/plainMu
func (v *Volume) lookup(name string) (*inode, error) {
	slot, ok := v.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", fsapi.ErrNotFound, name)
	}
	return v.nodes[slot], nil
}

// Names returns the names of all files in the central directory. The
// adversary tooling uses this: plain files are, by design, fully visible.
func (v *Volume) Names() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]string, 0, len(v.byName))
	for n := range v.byName {
		out = append(out, n)
	}
	return out
}

// ReferencedBlocks returns every block reachable from the central directory:
// all plain files' data and indirect blocks. StegFS backup uses this to
// exclude plain-file space from the raw image (paper §3.3).
func (v *Volume) ReferencedBlocks() (map[int64]bool, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[int64]bool)
	for _, in := range v.nodes {
		if !in.used {
			continue
		}
		blocks, err := ptree.Read(rawIO{v.dev}, in.root, in.nblocks)
		if err != nil {
			return nil, err
		}
		for _, b := range blocks {
			out[b] = true
		}
		meta, err := ptree.MetaBlocks(rawIO{v.dev}, in.root, in.nblocks)
		if err != nil {
			return nil, err
		}
		for _, b := range meta {
			out[b] = true
		}
	}
	return out, nil
}

// rawIO adapts a vdisk.Device to ptree.BlockIO without encryption.
type rawIO struct{ dev vdisk.Device }

func (r rawIO) ReadBlock(n int64, buf []byte) error  { return r.dev.ReadBlock(n, buf) }
func (r rawIO) WriteBlock(n int64, buf []byte) error { return r.dev.WriteBlock(n, buf) }
func (r rawIO) BlockSize() int                       { return r.dev.BlockSize() }

var _ fsapi.FileSystem = (*Volume)(nil)
