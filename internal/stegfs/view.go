package stegfs

import (
	"fmt"
	"sync"

	"stegfs/internal/fsapi"
	"stegfs/internal/ptree"
	"stegfs/internal/sgcrypto"
)

// HiddenView adapts hidden-file access to the common fsapi interfaces so the
// benchmark harness can drive StegFS's hidden files exactly like the other
// schemes. The view plays the role of a logged-in user: it remembers the
// FAKs of the files it created (in memory only — nothing identifying leaks
// to the volume).
//
// A HiddenView is safe for concurrent use: the FAK map has its own lock, and
// file operations take the underlying per-object locks, so reads of distinct
// files through one view (or many views) run in parallel.
type HiddenView struct {
	fs  *FS
	uid string
	// The FAK map lock is self-contained: it is never held across a call
	// into FS (every method copies what it needs and releases first), but
	// it may be taken while a namespace op holds nsMu, so it sits between
	// nsMu and the gate.
	//
	// lockcheck:level 15 volume/viewMu
	mu sync.RWMutex // guards faks
	// lockcheck:guardedby mu
	faks map[string]*viewFile
}

// viewFile is a view's per-name handle: the FAK plus the derived values
// every open needs — the physical name (a string concatenation) and the
// header signature (a hash) — computed once at Create/Adopt time so the hot
// open path neither concatenates nor hashes.
type viewFile struct {
	fak  []byte
	phys string
	sig  [sgcrypto.SignatureLen]byte
}

// NewHiddenView creates a benchmarking/user view bound to a user id.
func (fs *FS) NewHiddenView(uid string) *HiddenView {
	return &HiddenView{fs: fs, uid: uid, faks: make(map[string]*viewFile)}
}

// SchemeName implements fsapi.FileSystem.
func (v *HiddenView) SchemeName() string { return "StegFS" }

func (v *HiddenView) phys(name string) string { return v.uid + "/" + name }

// newViewFile builds the handle for a name/FAK pair.
func (v *HiddenView) newViewFile(name string, fak []byte) *viewFile {
	phys := v.phys(name)
	return &viewFile{fak: fak, phys: phys, sig: sgcrypto.Signature(phys, fak)}
}

// fileFor returns the remembered handle for name.
func (v *HiddenView) fileFor(name string) (*viewFile, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	vf, ok := v.faks[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", fsapi.ErrNotFound, name)
	}
	return vf, nil
}

// fakFor returns the remembered FAK for name.
func (v *HiddenView) fakFor(name string) ([]byte, error) {
	vf, err := v.fileFor(name)
	if err != nil {
		return nil, err
	}
	return vf.fak, nil
}

// open opens the named file with its object lock held, exclusive or shared.
func (v *HiddenView) open(name string, exclusive bool) (*hiddenRef, error) {
	vf, err := v.fileFor(name)
	if err != nil {
		return nil, err
	}
	return v.fs.openSig(vf.phys, vf.fak, vf.sig, exclusive)
}

// Create stores a hidden file with a fresh random FAK.
func (v *HiddenView) Create(name string, data []byte) error {
	v.mu.Lock()
	if _, ok := v.faks[name]; ok {
		v.mu.Unlock()
		return fmt.Errorf("%w: %q", fsapi.ErrExists, name)
	}
	v.mu.Unlock()
	var fak []byte
	if v.fs.params.DeterministicKeys {
		fak = deriveViewFAK(v.fs.sb, v.uid, name)
	} else {
		var err error
		if fak, err = sgcrypto.NewFAK(); err != nil {
			return err
		}
	}
	if _, err := v.fs.createHidden(v.phys(name), fak, FlagFile, data); err != nil {
		return err
	}
	v.mu.Lock()
	v.faks[name] = v.newViewFile(name, fak)
	v.mu.Unlock()
	return nil
}

// Adopt registers an existing hidden file created by an earlier view with
// the same uid on a DeterministicKeys volume (the FAK is re-derived and the
// header verified). Views on normal volumes must use AdoptWithFAK.
func (v *HiddenView) Adopt(name string) error {
	if !v.fs.params.DeterministicKeys {
		return fmt.Errorf("stegfs: Adopt requires DeterministicKeys; use AdoptWithFAK")
	}
	return v.AdoptWithFAK(name, deriveViewFAK(v.fs.sb, v.uid, name))
}

// AdoptWithFAK registers an existing hidden file under its file access key,
// verifying that the header can be located.
func (v *HiddenView) AdoptWithFAK(name string, fak []byte) error {
	pr, err := v.fs.probeHeader(v.phys(name), fak)
	if err != nil {
		return err
	}
	putRef(pr)
	v.mu.Lock()
	v.faks[name] = v.newViewFile(name, append([]byte(nil), fak...))
	v.mu.Unlock()
	return nil
}

// Read returns a hidden file's contents.
func (v *HiddenView) Read(name string) ([]byte, error) {
	r, err := v.open(name, false)
	if err != nil {
		return nil, err
	}
	defer v.fs.release(r)
	return v.fs.readHidden(r)
}

// Write replaces a hidden file's contents.
func (v *HiddenView) Write(name string, data []byte) error {
	r, err := v.open(name, true)
	if err != nil {
		return err
	}
	defer v.fs.release(r)
	return v.fs.rewriteHidden(r, data)
}

// Delete removes a hidden file.
func (v *HiddenView) Delete(name string) error {
	r, err := v.open(name, true)
	if err != nil {
		return err
	}
	v.fs.destroyHidden(r)
	v.fs.release(r)
	v.mu.Lock()
	delete(v.faks, name)
	v.mu.Unlock()
	return nil
}

// Sync flushes the volume (and any mounted cache) so every write made
// through this view has reached the device.
func (v *HiddenView) Sync() error { return v.fs.Sync() }

// Close is the view's shutdown path: it syncs the volume — flushing dirty
// cached blocks ahead of the superblock/bitmap write — and forgets the FAKs
// held in memory. The hidden files remain on the volume, reachable by a new
// view via Adopt/AdoptWithFAK.
func (v *HiddenView) Close() error {
	err := v.fs.Sync()
	v.mu.Lock()
	v.faks = make(map[string]*viewFile)
	v.mu.Unlock()
	return err
}

// Stat describes a hidden file.
func (v *HiddenView) Stat(name string) (fsapi.FileInfo, error) {
	r, err := v.open(name, false)
	if err != nil {
		return fsapi.FileInfo{}, err
	}
	defer v.fs.release(r)
	return fsapi.FileInfo{Name: name, Size: r.hdr.size, Blocks: r.hdr.nblocks}, nil
}

// BlocksOf returns the named file's data blocks and the full set of blocks
// it occupies (header + data + pointer + pooled free blocks). The adversary
// experiments use the data blocks as attack ground truth.
func (v *HiddenView) BlocksOf(name string) (data, all []int64, err error) {
	r, err := v.open(name, false)
	if err != nil {
		return nil, nil, err
	}
	defer v.fs.release(r)
	data, err = ptree.Read(r.io(v.fs.dev), r.hdr.root, r.hdr.nblocks)
	if err != nil {
		return nil, nil, err
	}
	all, err = v.fs.hiddenBlocks(r)
	if err != nil {
		return nil, nil, err
	}
	return data, all, nil
}

// ReadCursor implements fsapi.CursorFS: each Step reads and opens one data
// block, as the real system would ("data blocks ... are decrypted
// on-the-fly during retrieval", §4). The header probe happens here, so the
// steps are pure data-block I/O — matching the paper's model where the
// header is located once at open time. The cursor holds no locks between
// Steps; it belongs to one goroutine.
func (v *HiddenView) ReadCursor(name string) (fsapi.Cursor, error) {
	r, err := v.open(name, false)
	if err != nil {
		return nil, err
	}
	defer v.fs.release(r)
	blocks, err := ptree.Read(r.io(v.fs.dev), r.hdr.root, r.hdr.nblocks)
	if err != nil {
		return nil, err
	}
	// The cursor outlives the ref (released on return), so it gets its own
	// encIO rather than the ref's pooled one. The sealer itself is shared
	// and concurrency-safe.
	cio := &encIO{dev: v.fs.dev, sealer: r.sealer}
	buf := make([]byte, v.fs.dev.BlockSize())
	return fsapi.NewCursor(len(blocks), func(i int) error {
		return cio.ReadBlock(blocks[i], buf)
	}), nil
}

// WriteCursor implements fsapi.CursorFS for an in-place like-shaped
// overwrite: each Step seals and writes one data block.
func (v *HiddenView) WriteCursor(name string, data []byte) (fsapi.Cursor, error) {
	r, err := v.open(name, true)
	if err != nil {
		return nil, err
	}
	defer v.fs.release(r)
	bs := int64(v.fs.dev.BlockSize())
	if (int64(len(data))+bs-1)/bs != r.hdr.nblocks {
		return nil, fmt.Errorf("stegfs: write cursor size mismatch")
	}
	blocks, err := ptree.Read(r.io(v.fs.dev), r.hdr.root, r.hdr.nblocks)
	if err != nil {
		return nil, err
	}
	r.hdr.size = int64(len(data))
	if err := v.fs.flushHeader(r); err != nil {
		return nil, err
	}
	cio := &encIO{dev: v.fs.dev, sealer: r.sealer}
	buf := make([]byte, bs)
	return fsapi.NewCursor(len(blocks), func(i int) error {
		fsapi.FillBlock(buf, data, i)
		return cio.WriteBlock(blocks[i], buf)
	}), nil
}

var _ fsapi.CursorFS = (*HiddenView)(nil)
