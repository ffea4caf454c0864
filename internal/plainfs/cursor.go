package plainfs

import (
	"fmt"

	"stegfs/internal/fsapi"
	"stegfs/internal/ptree"
)

// ReadCursor implements fsapi.CursorFS: a block-by-block read of name, one
// data block per Step.
func (v *Volume) ReadCursor(name string) (fsapi.Cursor, error) {
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
	buf := make([]byte, v.dev.BlockSize())
	return fsapi.NewCursor(len(blocks), func(i int) error {
		return v.dev.ReadBlock(blocks[i], buf)
	}), nil
}

// WriteCursor implements fsapi.CursorFS: a block-by-block in-place overwrite
// of name with data. The payload must need the same number of blocks as the
// file currently occupies (the benchmark workloads rewrite like-sized
// content, as the paper's write experiments do).
func (v *Volume) WriteCursor(name string, data []byte) (fsapi.Cursor, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	slot, ok := v.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", fsapi.ErrNotFound, name)
	}
	in := v.nodes[slot]
	if v.blocksFor(len(data)) != in.nblocks {
		return nil, fmt.Errorf("plainfs: write cursor size mismatch: %d blocks vs %d", v.blocksFor(len(data)), in.nblocks)
	}
	blocks, err := ptree.Read(rawIO{v.dev}, in.root, in.nblocks)
	if err != nil {
		return nil, err
	}
	in.size = int64(len(data))
	if err := v.flushInode(slot); err != nil {
		return nil, err
	}
	buf := make([]byte, v.dev.BlockSize())
	return fsapi.NewCursor(len(blocks), func(i int) error {
		fsapi.FillBlock(buf, data, i)
		return v.dev.WriteBlock(blocks[i], buf)
	}), nil
}

var _ fsapi.CursorFS = (*Volume)(nil)
