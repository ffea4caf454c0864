package stegfs

import (
	"fmt"
	"io"

	"stegfs/internal/ptree"
)

// Random-access I/O on hidden files. The DBMS extension (internal/stegdb,
// the future work of §6) needs page-granular reads and writes inside a
// hidden file without rewriting it wholesale; these methods perform sealed
// in-place block I/O through the file's inode table, batched into one
// vectored device submission per call.

// ReadAt reads len(p) bytes from the named hidden file starting at offset
// off. It returns io.EOF semantics like os.File.ReadAt: a short read at the
// end of the file reports io.EOF.
func (v *HiddenView) ReadAt(name string, p []byte, off int64) (int, error) {
	r, err := v.openShared(name)
	if err != nil {
		return 0, err
	}
	defer v.fs.release(r)
	if off < 0 {
		return 0, fmt.Errorf("stegfs: negative offset %d", off)
	}
	if off >= r.hdr.size {
		return 0, io.EOF
	}
	end := off + int64(len(p))
	if end > r.hdr.size {
		end = r.hdr.size
	}
	n, err := v.fs.rwHidden(r, p[:end-off], off, false)
	if err != nil {
		return n, err
	}
	if int64(n) < int64(len(p)) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt writes p into the named hidden file at offset off, in place. The
// write must lie within the file's current size; use Resize to grow first.
func (v *HiddenView) WriteAt(name string, p []byte, off int64) (int, error) {
	r, err := v.openExclusive(name)
	if err != nil {
		return 0, err
	}
	defer v.fs.release(r)
	if off < 0 || off+int64(len(p)) > r.hdr.size {
		return 0, fmt.Errorf("stegfs: write [%d,%d) outside file of %d bytes (Resize first)",
			off, off+int64(len(p)), r.hdr.size)
	}
	return v.fs.rwHidden(r, p, off, true)
}

// rwHidden performs a sealed partial read or write across the file's data
// blocks, with read-modify-write on partially covered edge blocks. The
// spanned blocks are staged in one buffer and submitted as a single vectored
// request (reads: one batch in; writes: edge blocks batched in, then the
// whole span batched out). The caller holds the object's lock — shared for
// reads, exclusive for writes.
func (fs *FS) rwHidden(r *hiddenRef, p []byte, off int64, write bool) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	bs := int64(fs.dev.BlockSize())
	io_ := r.io(fs.dev)
	blocks, err := ptree.ReadInto(io_, r.hdr.root, r.hdr.nblocks, r.blockList)
	if err != nil {
		return 0, err
	}
	r.blockList = blocks
	first := off / bs
	last := (off + int64(len(p)) - 1) / bs
	if last >= int64(len(blocks)) {
		return 0, fmt.Errorf("stegfs: offset %d beyond mapped blocks", off+int64(len(p))-1)
	}
	span := blocks[first : last+1]
	// The span stages in the ref's reusable arena: with a warm cache the
	// whole read path — lock, header reload, tree walk, batched read,
	// in-place open — then runs without a single heap allocation.
	need := int(int64(len(span)) * bs)
	if cap(r.staging) < need {
		r.staging = make([]byte, need)
	}
	staging := r.staging[:need]
	bufs := r.spanViews(staging, len(span), int(bs))
	inOff := off - first*bs // offset of p[0] within the staging area

	if !write {
		if err := io_.ReadBlocks(span, bufs); err != nil {
			return 0, err
		}
		copy(p, staging[inOff:])
		return len(p), nil
	}

	// Read-modify-write: only partially covered edge blocks need their old
	// contents fetched.
	var edgeNs []int64
	var edgeBufs [][]byte
	if inOff != 0 {
		edgeNs = append(edgeNs, span[0])
		edgeBufs = append(edgeBufs, bufs[0])
	}
	if tail := inOff + int64(len(p)); tail != int64(len(span))*bs && (len(edgeNs) == 0 || span[len(span)-1] != edgeNs[0]) {
		edgeNs = append(edgeNs, span[len(span)-1])
		edgeBufs = append(edgeBufs, bufs[len(span)-1])
	}
	if err := io_.ReadBlocks(edgeNs, edgeBufs); err != nil {
		return 0, err
	}
	copy(staging[inOff:], p)
	if err := io_.WriteBlocks(span, bufs); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Resize grows or shrinks the named hidden file to newSize bytes, preserving
// the common prefix of the contents. Growth appends zero bytes.
func (v *HiddenView) Resize(name string, newSize int64) error {
	if newSize < 0 {
		return fmt.Errorf("stegfs: negative size %d", newSize)
	}
	r, err := v.openExclusive(name)
	if err != nil {
		return err
	}
	defer v.fs.release(r)
	if newSize == r.hdr.size {
		return nil
	}
	bs := int64(v.fs.dev.BlockSize())
	newBlocks := (newSize + bs - 1) / bs
	if newBlocks == r.hdr.nblocks {
		// Same shape: only the logical size changes. Zero the now-exposed
		// tail when growing within the last block.
		if newSize > r.hdr.size {
			zeroFrom := r.hdr.size
			zeroLen := newSize - r.hdr.size
			z := make([]byte, zeroLen)
			old := r.hdr.size
			r.hdr.size = newSize
			if _, err := v.fs.rwHidden(r, z, zeroFrom, true); err != nil {
				r.hdr.size = old
				return err
			}
		}
		r.hdr.size = newSize
		return v.fs.flushHeader(r)
	}
	// Shape change: preserve the prefix, rewrite.
	keep := r.hdr.size
	if newSize < keep {
		keep = newSize
	}
	prefix := make([]byte, keep)
	if keep > 0 {
		if _, err := v.fs.rwHidden(r, prefix, 0, false); err != nil {
			return err
		}
	}
	data := make([]byte, newSize)
	copy(data, prefix)
	return v.fs.rewriteHidden(r, data)
}
