// Package nativefs provides the two native-file-system baselines of the
// paper's evaluation (Table 4):
//
//   - CleanDisk — a freshly defragmented volume where every file occupies
//     contiguous blocks; the best case any protection scheme can aim for.
//   - FragDisk — a well-used volume where each file is broken into
//     fragments of 8 blocks scattered across the disk.
//
// Both are complete standalone file systems (superblock, persisted
// allocation bitmap, central directory of inodes) built on plainfs with the
// corresponding allocation policy.
package nativefs

import (
	"encoding/binary"
	"fmt"

	"stegfs/internal/bitmapvec"
	"stegfs/internal/fsapi"
	"stegfs/internal/plainfs"
	"stegfs/internal/vdisk"
)

// magic identifies a nativefs superblock.
const magic = "NATIVE01"

// FragBlocks is the fragment length of the FragDisk baseline (paper §5.1).
const FragBlocks = 8

// FS is a mounted native volume.
type FS struct {
	dev     vdisk.Device
	vol     *plainfs.Volume
	bm      *bitmapvec.Bitmap
	name    string
	bmStart int64
	bmLen   int64
}

// Format initializes dev as a native volume and mounts it. clean selects the
// CleanDisk (contiguous) layout; otherwise FragDisk (8-block fragments).
func Format(dev vdisk.Device, clean bool, maxFiles int, seed int64) (*FS, error) {
	_, _, inoStart, inoLen, dataStart := plainfs.Layout(dev, maxFiles)
	if dataStart >= dev.NumBlocks() {
		return nil, fmt.Errorf("nativefs: volume too small (%d blocks, metadata needs %d)", dev.NumBlocks(), dataStart)
	}
	bm := bitmapvec.New(dev.NumBlocks())
	for i := int64(0); i < dataStart; i++ {
		if err := bm.Set(i); err != nil {
			return nil, err
		}
	}
	// Zero the inode region so mounts see empty slots.
	zero := make([]byte, dev.BlockSize())
	for b := inoStart; b < inoStart+inoLen; b++ {
		if err := dev.WriteBlock(b, zero); err != nil {
			return nil, err
		}
	}
	fs, err := mountPrepared(dev, bm, clean, maxFiles, seed)
	if err != nil {
		return nil, err
	}
	if err := fs.writeSuper(clean, maxFiles); err != nil {
		return nil, err
	}
	if err := fs.Sync(); err != nil {
		return nil, err
	}
	return fs, nil
}

// writeSuper serializes the superblock into block 0.
func (f *FS) writeSuper(clean bool, maxFiles int) error {
	buf := make([]byte, f.dev.BlockSize())
	copy(buf, magic)
	if clean {
		buf[8] = 1
	}
	binary.BigEndian.PutUint64(buf[9:], uint64(maxFiles))
	return f.dev.WriteBlock(0, buf)
}

// Mount opens an already-formatted native volume.
func Mount(dev vdisk.Device, seed int64) (*FS, error) {
	buf := make([]byte, dev.BlockSize())
	if err := dev.ReadBlock(0, buf); err != nil {
		return nil, err
	}
	if string(buf[:8]) != magic {
		return nil, fmt.Errorf("nativefs: bad superblock magic %q", buf[:8])
	}
	clean := buf[8] == 1
	maxFiles := int(binary.BigEndian.Uint64(buf[9:]))
	bmStart, bmLen, _, _, _ := plainfs.Layout(dev, maxFiles)
	raw := make([]byte, bmLen*int64(dev.BlockSize()))
	for i := int64(0); i < bmLen; i++ {
		if err := dev.ReadBlock(bmStart+i, raw[i*int64(dev.BlockSize()):(i+1)*int64(dev.BlockSize())]); err != nil {
			return nil, err
		}
	}
	bm, err := bitmapvec.Unmarshal(dev.NumBlocks(), raw)
	if err != nil {
		return nil, err
	}
	return mountPrepared(dev, bm, clean, maxFiles, seed)
}

// mountPrepared wires up the plainfs volume over an in-memory bitmap.
func mountPrepared(dev vdisk.Device, bm *bitmapvec.Bitmap, clean bool, maxFiles int, seed int64) (*FS, error) {
	bmStart, bmLen, inoStart, inoLen, dataStart := plainfs.Layout(dev, maxFiles)
	cfg := plainfs.Config{Policy: plainfs.Fragmented, FragBlocks: FragBlocks, MaxFiles: maxFiles, Seed: seed}
	name := "FragDisk"
	if clean {
		cfg.Policy = plainfs.Contiguous
		name = "CleanDisk"
	}
	vol, err := plainfs.NewEmbedded(dev, bm, inoStart, inoLen, dataStart, cfg)
	if err != nil {
		return nil, err
	}
	return &FS{dev: dev, vol: vol, bm: bm, name: name, bmStart: bmStart, bmLen: bmLen}, nil
}

// Sync persists the allocation bitmap to its on-volume region.
func (f *FS) Sync() error {
	raw := f.bm.Marshal()
	buf := make([]byte, f.dev.BlockSize())
	for i := int64(0); i < f.bmLen; i++ {
		fsapi.FillBlock(buf, raw, int(i))
		if err := f.dev.WriteBlock(f.bmStart+i, buf); err != nil {
			return err
		}
	}
	return nil
}

// SchemeName implements fsapi.FileSystem.
func (f *FS) SchemeName() string { return f.name }

// Create implements fsapi.FileSystem.
func (f *FS) Create(name string, data []byte) error { return f.vol.Create(name, data) }

// Read implements fsapi.FileSystem.
func (f *FS) Read(name string) ([]byte, error) { return f.vol.Read(name) }

// Write implements fsapi.FileSystem.
func (f *FS) Write(name string, data []byte) error { return f.vol.Write(name, data) }

// Delete implements fsapi.FileSystem.
func (f *FS) Delete(name string) error { return f.vol.Delete(name) }

// Stat implements fsapi.FileSystem.
func (f *FS) Stat(name string) (fsapi.FileInfo, error) { return f.vol.Stat(name) }

// ReadCursor implements fsapi.CursorFS.
func (f *FS) ReadCursor(name string) (fsapi.Cursor, error) { return f.vol.ReadCursor(name) }

// WriteCursor implements fsapi.CursorFS.
func (f *FS) WriteCursor(name string, data []byte) (fsapi.Cursor, error) {
	return f.vol.WriteCursor(name, data)
}

// Bitmap exposes the allocation bitmap for inspection in tests.
func (f *FS) Bitmap() *bitmapvec.Bitmap { return f.bm }

var _ fsapi.CursorFS = (*FS)(nil)
