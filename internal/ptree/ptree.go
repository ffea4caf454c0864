// Package ptree implements the inode pointer tree shared by plain files and
// hidden files: a fixed number of direct block pointers followed by one
// single-indirect and one double-indirect pointer, as in classic Unix inodes
// (the paper models its central directory "after the inode table in Unix",
// and each hidden file carries "a link to an inode table that indexes all
// the data blocks in the file").
//
// The tree is written through a BlockIO, so the same code serves both sides:
// plain inodes write raw pointer blocks, while hidden files pass an
// encrypting BlockIO so their inode-table blocks are indistinguishable from
// random data on disk.
package ptree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
)

// NilBlock is the pointer value meaning "no block". Block 0 always holds a
// superblock in every scheme in this repository, so it can never be a data
// or pointer block.
const NilBlock int64 = 0

// BlockIO is the minimal block access the tree needs. Implementations may
// encrypt transparently.
type BlockIO interface {
	ReadBlock(n int64, buf []byte) error
	WriteBlock(n int64, buf []byte) error
	BlockSize() int
}

// BatchBlockIO is a BlockIO that can service many blocks in one request
// (mirroring vdisk.BatchDevice). When the IO offers it, Read fetches all the
// L1 indirect blocks of a double-indirect tree in a single batched request
// instead of one device round trip per pointer block.
type BatchBlockIO interface {
	BlockIO
	ReadBlocks(ns []int64, bufs [][]byte) error
}

// AllocFunc returns a fresh block to hold pointer (indirect) data.
type AllocFunc func() (int64, error)

// FreeFunc releases a pointer block.
type FreeFunc func(int64)

// PtrSize is the on-disk width of one block pointer, big-endian: an entry
// of a pointer block, and a slot of a Root as Put lays it out.
const PtrSize = 8

// Root is the pointer set stored inside an inode or hidden-file header.
type Root struct {
	Direct []int64 // len fixed by the owner's on-disk format
	Single int64   // single-indirect pointer block (NilBlock if unused)
	Double int64   // double-indirect pointer block (NilBlock if unused)
}

// Put encodes r at the start of buf: its direct pointers, then Single and
// Double, PtrSize bytes each. It returns the length written,
// (len(r.Direct)+2)*PtrSize.
func (r Root) Put(buf []byte) int {
	for i, p := range r.Direct {
		binary.BigEndian.PutUint64(buf[i*PtrSize:], uint64(p))
	}
	off := len(r.Direct) * PtrSize
	binary.BigEndian.PutUint64(buf[off:], uint64(r.Single))
	binary.BigEndian.PutUint64(buf[off+PtrSize:], uint64(r.Double))
	return off + 2*PtrSize
}

// Get decodes a root of nDirect direct slots laid out by Put at the start
// of buf, reusing r.Direct's capacity, and returns the length read.
func (r *Root) Get(buf []byte, nDirect int) int {
	r.Direct = slices.Grow(r.Direct[:0], nDirect)[:nDirect]
	for i := range r.Direct {
		r.Direct[i] = int64(binary.BigEndian.Uint64(buf[i*PtrSize:]))
	}
	off := nDirect * PtrSize
	r.Single = int64(binary.BigEndian.Uint64(buf[off:]))
	r.Double = int64(binary.BigEndian.Uint64(buf[off+PtrSize:]))
	return off + 2*PtrSize
}

// NewRoot returns an empty root with nDirect direct slots, all NilBlock (0).
func NewRoot(nDirect int) Root { return Root{Direct: make([]int64, nDirect)} }

// ErrTooLarge reports a file that exceeds the addressable range of the tree.
var ErrTooLarge = errors.New("ptree: file exceeds maximum addressable size")

// MaxBlocks returns the number of data blocks addressable with nDirect
// direct pointers and the given block size.
func MaxBlocks(nDirect, blockSize int) int64 {
	ppb := int64(blockSize / PtrSize)
	return int64(nDirect) + ppb + ppb*ppb
}

// ptrsPerBlock returns how many pointers fit in one block.
func ptrsPerBlock(io BlockIO) int64 { return int64(io.BlockSize() / PtrSize) }

// Write stores the data-block list under a root, allocating indirect blocks
// with alloc as needed. It returns the root and the list of indirect blocks
// it allocated (the owner must account for them, e.g. mark them in a bitmap
// or report them in Stat).
func Write(io BlockIO, alloc AllocFunc, nDirect int, blocks []int64) (Root, []int64, error) {
	root := NewRoot(nDirect)
	var meta []int64
	n := len(blocks)
	if int64(n) > MaxBlocks(nDirect, io.BlockSize()) {
		return root, nil, fmt.Errorf("%w: %d blocks", ErrTooLarge, n)
	}

	// Direct pointers.
	for i := 0; i < nDirect && i < n; i++ {
		root.Direct[i] = blocks[i]
	}
	if n <= nDirect {
		return root, meta, nil
	}
	rest := blocks[nDirect:]
	ppb := ptrsPerBlock(io)

	// Single indirect.
	cnt := int64(len(rest))
	if cnt > ppb {
		cnt = ppb
	}
	sb, err := writePtrBlock(io, alloc, rest[:cnt])
	if err != nil {
		if sb != NilBlock {
			meta = append(meta, sb)
		}
		return root, meta, err
	}
	root.Single = sb
	meta = append(meta, sb)
	rest = rest[cnt:]
	if len(rest) == 0 {
		return root, meta, nil
	}

	// Double indirect.
	var l1 []int64
	for len(rest) > 0 {
		cnt = int64(len(rest))
		if cnt > ppb {
			cnt = ppb
		}
		ib, err := writePtrBlock(io, alloc, rest[:cnt])
		if err != nil {
			if ib != NilBlock {
				meta = append(meta, ib)
			}
			return root, meta, err
		}
		meta = append(meta, ib)
		l1 = append(l1, ib)
		rest = rest[cnt:]
	}
	if int64(len(l1)) > ppb {
		return root, meta, fmt.Errorf("%w: needs %d L1 pointers", ErrTooLarge, len(l1))
	}
	db, err := writePtrBlock(io, alloc, l1)
	if err != nil {
		if db != NilBlock {
			meta = append(meta, db)
		}
		return root, meta, err
	}
	root.Double = db
	meta = append(meta, db)
	return root, meta, nil
}

// writePtrBlock allocates a block and writes the pointers into it (remaining
// slots are NilBlock). On a write failure the already-allocated block is
// returned alongside the error so the caller can report it in meta — error
// paths free the meta list, and a block dropped here would leak for the
// volume's lifetime.
func writePtrBlock(io BlockIO, alloc AllocFunc, ptrs []int64) (int64, error) {
	b, err := alloc()
	if err != nil {
		return NilBlock, err
	}
	buf := make([]byte, io.BlockSize())
	for i, p := range ptrs {
		binary.BigEndian.PutUint64(buf[i*PtrSize:], uint64(p))
	}
	if err := io.WriteBlock(b, buf); err != nil {
		return b, err
	}
	return b, nil
}

// ptrScratch is the staging a pointer-tree read works in: raw holds the
// pointer blocks, bufs views it one block each, and ns lists the L1 blocks
// a double-indirect read fetches.
type ptrScratch struct {
	raw  []byte
	bufs [][]byte
	ns   []int64
}

// ptrBufPool recycles ptrScratch values, so traversing a tree allocates
// nothing once warm.
var ptrBufPool = sync.Pool{New: func() any { return new(ptrScratch) }}

// views sizes raw to n blocks of bs bytes and returns one view per block.
func (s *ptrScratch) views(n, bs int) [][]byte {
	if cap(s.raw) < n*bs {
		s.raw = make([]byte, n*bs)
	}
	s.bufs = s.bufs[:0]
	for i := 0; i < n; i++ {
		s.bufs = append(s.bufs, s.raw[i*bs:(i+1)*bs])
	}
	return s.bufs
}

// readPtrBlock appends pointers [from, to) of pointer block b to dst,
// stopping at the first NilBlock.
func readPtrBlock(io BlockIO, b, from, to int64, dst []int64) ([]int64, error) {
	s := ptrBufPool.Get().(*ptrScratch)
	defer ptrBufPool.Put(s)
	buf := s.views(1, io.BlockSize())[0]
	if err := io.ReadBlock(b, buf); err != nil {
		return dst, err
	}
	from = min(max(from, 0), int64(len(buf)/PtrSize))
	return parsePtrs(buf[from*PtrSize:], to-from, dst), nil
}

// parsePtrs decodes up to max pointers from the start of buf, stopping at
// the first NilBlock, appending them to dst.
func parsePtrs(buf []byte, max int64, dst []int64) []int64 {
	for i := int64(0); i < max && i < int64(len(buf)/PtrSize); i++ {
		p := int64(binary.BigEndian.Uint64(buf[i*PtrSize:]))
		if p == NilBlock {
			break
		}
		dst = append(dst, p)
	}
	return dst
}

// Read returns the data-block list of a file with nBlocks blocks stored
// under root.
func Read(io BlockIO, root Root, nBlocks int64) ([]int64, error) {
	return ReadInto(io, root, nBlocks, 0, nBlocks, nil)
}

// ReadInto appends to dst[:0] the pointers of data blocks [from, to) of a
// file with nBlocks blocks stored under root, and returns the (possibly
// regrown) slice. It opens only the pointer blocks that cover the range: a
// 4 KiB span deep in a large file costs the double-indirect block and one
// or two L1 blocks, not the whole tree. Several L1 blocks are fetched in
// one batched request when the IO offers one, so the full range [0,
// nBlocks) issues exactly the requests a whole-tree walk does. Scratch
// comes from an internal pool — a warm caller passing an adequately sized
// dst triggers no allocation at all.
func ReadInto(io BlockIO, root Root, nBlocks, from, to int64, dst []int64) ([]int64, error) {
	if nBlocks < 0 {
		return nil, fmt.Errorf("ptree: negative block count %d", nBlocks)
	}
	if from < 0 || from > to || to > nBlocks {
		return nil, fmt.Errorf("ptree: range [%d,%d) outside a file of %d blocks", from, to, nBlocks)
	}
	out := dst[:0]
	nd, ppb := int64(len(root.Direct)), ptrsPerBlock(io)
	for i := from; i < min(to, nd); i++ {
		out = append(out, root.Direct[i])
	}
	var err error
	if lo, hi := max(from, nd), min(to, nd+ppb); lo < hi {
		if root.Single == NilBlock {
			return nil, errors.New("ptree: missing single-indirect block")
		}
		if out, err = readPtrBlock(io, root.Single, lo-nd, hi-nd, out); err != nil {
			return nil, err
		}
	}
	if lo := max(from, nd+ppb); lo < to {
		if root.Double == NilBlock {
			return nil, errors.New("ptree: missing double-indirect block")
		}
		if out, err = readDouble(io, root.Double, lo-nd-ppb, to-nd-ppb, out); err != nil {
			return nil, err
		}
	}
	if int64(len(out)) != to-from {
		return nil, fmt.Errorf("ptree: found %d of %d blocks", len(out), to-from)
	}
	return out, nil
}

// readDouble appends the pointers [lo, hi) of the double-indirect region
// under block dbl: one read of dbl, then one read of the L1 blocks the
// range touches, batched when there are several and the IO can.
func readDouble(io BlockIO, dbl, lo, hi int64, out []int64) ([]int64, error) {
	bs, ppb := io.BlockSize(), ptrsPerBlock(io)
	s := ptrBufPool.Get().(*ptrScratch)
	defer ptrBufPool.Put(s)
	first := lo / ppb
	var err error
	if s.ns, err = readPtrBlock(io, dbl, first, (hi-1)/ppb+1, s.ns[:0]); err != nil {
		return out, err
	}
	bufs := s.views(len(s.ns), bs)
	if bio, ok := io.(BatchBlockIO); ok && len(s.ns) > 1 {
		err = bio.ReadBlocks(s.ns, bufs)
	} else {
		for i := 0; i < len(s.ns) && err == nil; i++ {
			err = io.ReadBlock(s.ns[i], bufs[i])
		}
	}
	if err != nil {
		return out, err
	}
	for i, buf := range bufs {
		base := (first + int64(i)) * ppb
		a := max(lo-base, 0)
		out = parsePtrs(buf[a*PtrSize:], min(hi-base, ppb)-a, out)
	}
	return out, nil
}

// MetaBlocks returns the indirect blocks reachable from root for a file of
// nBlocks data blocks (in read order), so owners can free or image them.
func MetaBlocks(io BlockIO, root Root, nBlocks int64) ([]int64, error) {
	var out []int64
	nd := int64(len(root.Direct))
	if nBlocks <= nd {
		return out, nil
	}
	if root.Single == NilBlock {
		return nil, errors.New("ptree: missing single-indirect block")
	}
	out = append(out, root.Single)
	rem := nBlocks - nd - ptrsPerBlock(io)
	if rem <= 0 {
		return out, nil
	}
	if root.Double == NilBlock {
		return nil, errors.New("ptree: missing double-indirect block")
	}
	out, err := readPtrBlock(io, root.Double, 0, ptrsPerBlock(io), out)
	if err != nil {
		return nil, err
	}
	out = append(out, root.Double)
	return out, nil
}

// Free releases all indirect blocks of the tree via free. Data blocks are
// the owner's responsibility.
func Free(io BlockIO, root Root, nBlocks int64, free FreeFunc) error {
	meta, err := MetaBlocks(io, root, nBlocks)
	if err != nil {
		return err
	}
	for _, b := range meta {
		free(b)
	}
	return nil
}
