package stegfs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"stegfs/internal/alloc"
	"stegfs/internal/bitmapvec"
	"stegfs/internal/vdisk"
)

// backupMagic identifies a StegFS backup stream.
const backupMagic = "SGBK0001"

// Backup implements steg_backup (§3.3): it writes a snapshot of the volume
// to w. Hidden data cannot be enumerated (the system does not hold the
// FAKs), so the snapshot saves the raw image of every block that is
// allocated in the bitmap but does not belong to any plain file — that
// covers abandoned blocks, dummy files, hidden files and their internal
// free pools. Plain files are backed up by name and content, so they can be
// reconstructed at new addresses.
func (fs *FS) Backup(w io.Writer) error {
	// Quiesce the volume: the freeze gate drains every in-flight mutator —
	// hidden-object operations hold it through their object locks, plain
	// mutators around their calls — and blocks new ones, so the imaged
	// blocks, the bitmap and the plain files form one consistent snapshot.
	// The exclusive gate hold also serializes the metadata read against Sync.
	fs.objs.Freeze()
	defer fs.objs.Unfreeze()
	bm := fs.alloc.Snapshot()

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(backupMagic); err != nil {
		return err
	}
	bs := fs.dev.BlockSize()

	// Superblock.
	buf := make([]byte, bs)
	if err := encodeSuper(fs.sb, buf); err != nil {
		return err
	}
	if err := writeBlob(bw, buf); err != nil {
		return err
	}

	// Bitmap.
	if err := writeBlob(bw, bm.Marshal()); err != nil {
		return err
	}

	// Raw image of allocated-but-not-plain blocks.
	plainBlocks, err := fs.plain.ReferencedBlocks()
	if err != nil {
		return err
	}
	var imaged []int64
	for b := int64(fs.sb.dataStart); b < fs.dev.NumBlocks(); b++ {
		if bm.Test(b) && !plainBlocks[b] {
			imaged = append(imaged, b)
		}
	}
	var n8 [8]byte
	binary.BigEndian.PutUint64(n8[:], uint64(len(imaged)))
	if _, err := bw.Write(n8[:]); err != nil {
		return err
	}
	for _, b := range imaged {
		binary.BigEndian.PutUint64(n8[:], uint64(b))
		if _, err := bw.Write(n8[:]); err != nil {
			return err
		}
		if err := fs.dev.ReadBlock(b, buf); err != nil {
			return err
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}

	// Plain files by content.
	names := fs.plain.Names()
	sort.Strings(names)
	binary.BigEndian.PutUint64(n8[:], uint64(len(names)))
	if _, err := bw.Write(n8[:]); err != nil {
		return err
	}
	for _, name := range names {
		data, err := fs.plain.Read(name)
		if err != nil {
			return err
		}
		if err := writeBlob(bw, []byte(name)); err != nil {
			return err
		}
		if err := writeBlob(bw, data); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeBlob writes a length-prefixed byte slice.
func writeBlob(w io.Writer, b []byte) error {
	var n8 [8]byte
	binary.BigEndian.PutUint64(n8[:], uint64(len(b)))
	if _, err := w.Write(n8[:]); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// readBlob reads a length-prefixed byte slice, refusing absurd lengths.
func readBlob(r io.Reader, limit int64) ([]byte, error) {
	var n8 [8]byte
	if _, err := io.ReadFull(r, n8[:]); err != nil {
		return nil, err
	}
	n := int64(binary.BigEndian.Uint64(n8[:]))
	if n < 0 || n > limit {
		return nil, fmt.Errorf("stegfs: backup blob length %d exceeds limit %d", n, limit)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// Recover implements steg_recovery (§3.3): it rebuilds a damaged volume on
// dev from a backup stream. Abandoned and hidden blocks are restored to
// their original addresses first (their internal inode tables cannot be
// relocated), then the plain files are reconstructed, possibly at new
// addresses. It returns the recovered, mounted file system.
func Recover(dev vdisk.Device, rd io.Reader) (*FS, error) {
	r := bufio.NewReader(rd)
	magic := make([]byte, len(backupMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, err
	}
	if string(magic) != backupMagic {
		return nil, fmt.Errorf("stegfs: not a StegFS backup (magic %q)", magic)
	}
	volBytes := dev.NumBlocks() * int64(dev.BlockSize())

	sbBuf, err := readBlob(r, volBytes)
	if err != nil {
		return nil, err
	}
	sb, err := decodeSuper(sbBuf)
	if err != nil {
		return nil, err
	}
	if int64(sb.numBlocks) != dev.NumBlocks() || int(sb.blockSize) != dev.BlockSize() {
		return nil, fmt.Errorf("stegfs: backup geometry %dx%d does not match device %dx%d",
			sb.numBlocks, sb.blockSize, dev.NumBlocks(), dev.BlockSize())
	}
	if _, err := readBlob(r, volBytes); err != nil { // stored bitmap; rebuilt below
		return nil, err
	}

	// Restore the imaged blocks to their original addresses and mark them.
	bm := bitmapvec.New(dev.NumBlocks())
	for b := int64(0); b < int64(sb.dataStart); b++ {
		if err := bm.Set(b); err != nil {
			return nil, err
		}
	}
	var n8 [8]byte
	if _, err := io.ReadFull(r, n8[:]); err != nil {
		return nil, err
	}
	nImaged := int64(binary.BigEndian.Uint64(n8[:]))
	if nImaged < 0 || nImaged > dev.NumBlocks() {
		return nil, fmt.Errorf("stegfs: backup images %d blocks on a %d-block device", nImaged, dev.NumBlocks())
	}
	buf := make([]byte, dev.BlockSize())
	for i := int64(0); i < nImaged; i++ {
		if _, err := io.ReadFull(r, n8[:]); err != nil {
			return nil, err
		}
		b := int64(binary.BigEndian.Uint64(n8[:]))
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		if err := dev.WriteBlock(b, buf); err != nil {
			return nil, err
		}
		if err := bm.Set(b); err != nil {
			return nil, err
		}
	}

	// Reset the central directory, then rebuild plain files at (possibly)
	// new addresses.
	zero := make([]byte, dev.BlockSize())
	for b := int64(sb.inoStart); b < int64(sb.inoStart)+int64(sb.inoLen); b++ {
		if err := dev.WriteBlock(b, zero); err != nil {
			return nil, err
		}
	}
	al, err := alloc.New(bm, int64(sb.dataStart), 0, sb.seed+3)
	if err != nil {
		return nil, err
	}
	fs, err := newFS(dev, nil, nil, sb, sb.params(), bm, al)
	if err != nil {
		return nil, err
	}

	if _, err := io.ReadFull(r, n8[:]); err != nil {
		return nil, err
	}
	nPlain := int64(binary.BigEndian.Uint64(n8[:]))
	if nPlain < 0 || nPlain > int64(sb.maxPlain) {
		return nil, fmt.Errorf("stegfs: backup holds %d plain files, volume allows %d", nPlain, sb.maxPlain)
	}
	for i := int64(0); i < nPlain; i++ {
		name, err := readBlob(r, volBytes)
		if err != nil {
			return nil, err
		}
		data, err := readBlob(r, volBytes)
		if err != nil {
			return nil, err
		}
		if err := fs.plain.Create(string(name), data); err != nil {
			return nil, fmt.Errorf("stegfs: restoring plain file %q: %w", name, err)
		}
	}
	if err := fs.Sync(); err != nil {
		return nil, err
	}
	return fs, nil
}
