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
	r, err := v.open(name, false)
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
	r, err := v.open(name, true)
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

// rwHidden reads or writes p at offset off of an open hidden object: it maps
// only the pointer blocks covering the span, then moves p with moveSpan. The
// caller holds the object's lock — shared for reads, exclusive for writes.
func (fs *FS) rwHidden(r *hiddenRef, p []byte, off int64, write bool) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	bs := int64(fs.dev.BlockSize())
	first := off / bs
	last := (off + int64(len(p)) - 1) / bs
	if last >= r.hdr.nblocks {
		return 0, fmt.Errorf("stegfs: offset %d beyond mapped blocks", off+int64(len(p))-1)
	}
	span, err := ptree.ReadInto(r.io(fs.dev), r.hdr.root, r.hdr.nblocks, first, last+1, r.blockList)
	if err != nil {
		return 0, err
	}
	r.blockList = span
	if err := fs.moveSpan(r, span, p, off-first*bs, r.hdr.size-first*bs, write); err != nil {
		return 0, err
	}
	return len(p), nil
}

// moveSpan is the one path hidden payload bytes take between a caller's
// buffer and the sealed data blocks: it reads or writes p across blocks in
// one vectored request per direction. p starts inOff bytes into blocks[0],
// and eof is the file size counted from the same point. Blocks p covers
// whole alias p, so they are opened into it or sealed from it without a
// staging copy; only the partially covered edge blocks, at most two, are
// staged in the ref. Bytes of the last block past eof are not file content:
// a write reads a staged edge back first only when it holds content outside
// p, and zero-fills it otherwise. A failed payload write degrades the mount
// (see observe). Once the ref's buffers have grown, moveSpan allocates
// nothing. The caller holds the object's lock.
func (fs *FS) moveSpan(r *hiddenRef, blocks []int64, p []byte, inOff, eof int64, write bool) error {
	bs := int64(fs.dev.BlockSize())
	end := inOff + int64(len(p))
	if cap(r.spanBufs) < len(blocks) {
		r.spanBufs = make([][]byte, len(blocks))
	}
	bufs := r.spanBufs[:len(blocks)]
	// Drop the views of p, so a pooled ref does not pin the caller's buffer.
	defer clear(bufs)
	var staged [2]int // indexes of the staged edges in blocks
	nStaged, nRead := 0, 0
	for i := range blocks {
		lo, hi := int64(i)*bs, int64(i+1)*bs
		if lo >= inOff && hi <= end {
			bufs[i] = p[lo-inOff : hi-inOff]
			continue
		}
		if int64(cap(r.edges[nStaged])) < bs {
			r.edges[nStaged] = make([]byte, bs)
		}
		edge := r.edges[nStaged][:bs]
		bufs[i], staged[nStaged] = edge, i
		nStaged++
		switch {
		case !write:
		case lo < inOff || end < min(hi, eof):
			r.edgeNs[nRead], r.edgeBufs[nRead] = blocks[i], edge
			nRead++
		default:
			clear(edge)
		}
	}
	io := r.io(fs.dev)
	if !write {
		if err := io.ReadBlocks(blocks, bufs); err != nil {
			return err
		}
	} else if err := io.ReadBlocks(r.edgeNs[:nRead], r.edgeBufs[:nRead]); err != nil {
		return err
	}
	for _, i := range staged[:nStaged] {
		lo := int64(i) * bs
		from, to := max(lo, inOff), min(lo+bs, end)
		if write {
			copy(bufs[i][from-lo:], p[from-inOff:to-inOff])
		} else {
			copy(p[from-inOff:to-inOff], bufs[i][from-lo:])
		}
	}
	if !write {
		return nil
	}
	return fs.observe(io.WriteBlocks(blocks, bufs))
}

// Resize grows or shrinks the named hidden file to newSize bytes, preserving
// the common prefix of the contents. Growth appends zero bytes.
func (v *HiddenView) Resize(name string, newSize int64) error {
	if newSize < 0 {
		return fmt.Errorf("stegfs: negative size %d", newSize)
	}
	r, err := v.open(name, true)
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
		if old := r.hdr.size; newSize > old {
			r.hdr.size = newSize
			if _, err := v.fs.rwHidden(r, make([]byte, newSize-old), old, true); err != nil {
				return err
			}
		}
		r.hdr.size = newSize
		return v.fs.flushHeader(r)
	}
	// Shape change: read the kept prefix straight into the new payload.
	data := make([]byte, newSize)
	if _, err := v.fs.rwHidden(r, data[:min(newSize, r.hdr.size)], 0, false); err != nil {
		return err
	}
	return v.fs.rewriteHidden(r, data)
}
