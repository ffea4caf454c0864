// Package plainfs implements the plain-file machinery: a central directory
// of Unix-style inodes plus data blocks placed by a pluggable allocation
// policy. It serves three roles in the reproduction:
//
//   - the plain-file side of StegFS (paper §3.1: "all the plain files are
//     accessed through the central directory, which is modeled after the
//     inode table in Unix");
//   - the CleanDisk baseline (contiguous allocation on a fresh volume);
//   - the FragDisk baseline (files broken into fragments of 8 blocks,
//     paper §5.1).
package plainfs

import (
	"encoding/binary"
	"fmt"

	"stegfs/internal/ptree"
)

// InodeSize is the fixed on-disk size of one inode record.
const InodeSize = 512

// NumDirect is the number of direct block pointers per inode.
const NumDirect = 24

// maxNameLen is the longest file name an inode can store inline.
const maxNameLen = 246

// inode is the in-memory form of one central-directory entry.
type inode struct {
	used    bool
	name    string
	size    int64
	nblocks int64
	root    ptree.Root
}

// encodeInode serializes an inode into a 512-byte record.
//
// Layout: flag(1) nameLen(2) name(246) size(8) nblocks(8) direct(24*8)
// single(8) double(8), zero padding to 512.
func encodeInode(in *inode, buf []byte) error {
	if len(buf) < InodeSize {
		return fmt.Errorf("plainfs: inode buffer too small (%d)", len(buf))
	}
	for i := range buf[:InodeSize] {
		buf[i] = 0
	}
	if !in.used {
		return nil
	}
	if len(in.name) > maxNameLen {
		return fmt.Errorf("plainfs: name too long (%d > %d)", len(in.name), maxNameLen)
	}
	buf[0] = 1
	binary.BigEndian.PutUint16(buf[1:], uint16(len(in.name)))
	copy(buf[3:3+maxNameLen], in.name)
	off := 3 + maxNameLen
	binary.BigEndian.PutUint64(buf[off:], uint64(in.size))
	binary.BigEndian.PutUint64(buf[off+8:], uint64(in.nblocks))
	off += 16
	if len(in.root.Direct) != NumDirect {
		return fmt.Errorf("plainfs: inode root has %d direct slots, want %d", len(in.root.Direct), NumDirect)
	}
	in.root.Put(buf[off:])
	return nil
}

// decodeInode parses a 512-byte record into an inode.
func decodeInode(buf []byte) (*inode, error) {
	if len(buf) < InodeSize {
		return nil, fmt.Errorf("plainfs: inode buffer too small (%d)", len(buf))
	}
	in := &inode{root: ptree.NewRoot(NumDirect)}
	if buf[0] == 0 {
		return in, nil
	}
	in.used = true
	nameLen := int(binary.BigEndian.Uint16(buf[1:]))
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("plainfs: corrupt inode: name length %d", nameLen)
	}
	in.name = string(buf[3 : 3+nameLen])
	off := 3 + maxNameLen
	in.size = int64(binary.BigEndian.Uint64(buf[off:]))
	in.nblocks = int64(binary.BigEndian.Uint64(buf[off+8:]))
	in.root.Get(buf[off+16:], NumDirect)
	return in, nil
}
