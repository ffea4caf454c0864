package stegfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"

	"stegfs/internal/fsapi"
	"stegfs/internal/ptree"
	"stegfs/internal/sgcrypto"
	"stegfs/internal/vdisk"
)

// hdrNumDirect is the number of direct data pointers in a hidden header.
const hdrNumDirect = 24

// hdrMagic follows the signature inside a decrypted header; it is redundant
// with the signature (which identifies the header as ours) and exists as a
// cheap self-check for corruption diagnostics.
var hdrMagic = [4]byte{'S', 'G', 'H', '1'}

// hdrCRCOff / hdrBodyOff delimit the header content checksum: a CRC32 of
// everything after the checksum field. The signature only proves the block
// belongs to (name, key) — it says nothing about the fields, and the CTR
// seal is malleable, so a media bit flip in size/nblocks/pointers would
// otherwise decode cleanly and send readers chasing garbage. The CRC makes
// post-decrypt corruption a detectable error instead.
const (
	hdrCRCOff  = 37
	hdrBodyOff = 41
)

// hdrFixedLen is the length of the fixed part of a hidden header:
// sig(32) magic(4) flags(1) crc(4) pad(3) size(8) nblocks(8)
// direct(24*8) single(8) double(8) freeCount(2).
const hdrFixedLen = 32 + 4 + 1 + 4 + 3 + 8 + 8 + (hdrNumDirect+2)*ptree.PtrSize + 2

// header is the in-memory form of a hidden object's header block (Figure 2:
// signature, link to inode table, free-blocks list).
type header struct {
	sig     [sgcrypto.SignatureLen]byte
	flags   byte
	size    int64
	nblocks int64
	root    ptree.Root
	free    []int64 // internal pool of free blocks held by this file
}

// freeCapacity returns how many free-pool entries fit in a header block.
func freeCapacity(blockSize int) int { return (blockSize - hdrFixedLen) / 8 }

// encodeHeader serializes h into a block-size buffer (plaintext; the caller
// seals it).
func encodeHeader(h *header, buf []byte) error {
	if len(buf) < hdrFixedLen {
		return fmt.Errorf("stegfs: block size %d too small for header (%d)", len(buf), hdrFixedLen)
	}
	if len(h.free) > freeCapacity(len(buf)) {
		return fmt.Errorf("stegfs: free pool %d exceeds header capacity %d", len(h.free), freeCapacity(len(buf)))
	}
	for i := range buf {
		buf[i] = 0
	}
	copy(buf, h.sig[:])
	copy(buf[32:], hdrMagic[:])
	buf[36] = h.flags
	off := 44
	binary.BigEndian.PutUint64(buf[off:], uint64(h.size))
	binary.BigEndian.PutUint64(buf[off+8:], uint64(h.nblocks))
	off += 16
	if len(h.root.Direct) != hdrNumDirect {
		return fmt.Errorf("stegfs: header root has %d direct slots, want %d", len(h.root.Direct), hdrNumDirect)
	}
	off += h.root.Put(buf[off:])
	binary.BigEndian.PutUint16(buf[off:], uint16(len(h.free)))
	off += 2
	for i, b := range h.free {
		binary.BigEndian.PutUint64(buf[off+i*8:], uint64(b))
	}
	binary.BigEndian.PutUint32(buf[hdrCRCOff:], crc32.ChecksumIEEE(buf[hdrBodyOff:]))
	return nil
}

// decodeHeader parses a decrypted header block. It returns false when the
// signature does not match (the block belongs to something else or is free
// space).
func decodeHeader(buf []byte, wantSig [sgcrypto.SignatureLen]byte) (*header, bool, error) {
	h := &header{}
	ok, err := decodeHeaderInto(buf, wantSig, h)
	if !ok || err != nil {
		return nil, ok, err
	}
	return h, true, nil
}

// decodeHeaderInto is decodeHeader reusing h's backing storage (the direct
// pointer and free-pool slices grow once and are re-sliced thereafter), so a
// pooled ref re-reads its header without allocating.
func decodeHeaderInto(buf []byte, wantSig [sgcrypto.SignatureLen]byte, h *header) (bool, error) {
	if len(buf) < hdrFixedLen {
		return false, fmt.Errorf("stegfs: header buffer too small")
	}
	if !bytes.Equal(buf[:32], wantSig[:]) {
		return false, nil
	}
	if !bytes.Equal(buf[32:36], hdrMagic[:]) {
		// Signature matched but magic did not: a 2^-256 accident or real
		// corruption. Report it loudly.
		return false, fmt.Errorf("stegfs: header signature match with corrupt magic")
	}
	if got := crc32.ChecksumIEEE(buf[hdrBodyOff:]); got != binary.BigEndian.Uint32(buf[hdrCRCOff:]) {
		return false, fmt.Errorf("stegfs: header content checksum mismatch")
	}
	copy(h.sig[:], buf[:32])
	h.flags = buf[36]
	off := 44
	h.size = int64(binary.BigEndian.Uint64(buf[off:]))
	h.nblocks = int64(binary.BigEndian.Uint64(buf[off+8:]))
	off += 16 + h.root.Get(buf[off+16:], hdrNumDirect)
	n := int(binary.BigEndian.Uint16(buf[off:]))
	off += 2
	if n > freeCapacity(len(buf)) {
		return false, fmt.Errorf("stegfs: corrupt header: free count %d", n)
	}
	h.free = slices.Grow(h.free[:0], n)[:n]
	for i := 0; i < n; i++ {
		h.free[i] = int64(binary.BigEndian.Uint64(buf[off+i*8:]))
	}
	return true, nil
}

// --- Sealed block I/O --------------------------------------------------------

// encIO is a ptree.BlockIO view of the device that transparently seals and
// opens blocks with a hidden object's sealer, so everything a hidden object
// writes is indistinguishable from random bytes on disk. It also implements
// ptree.BatchBlockIO: a batch goes to the device as one sorted submission
// and is sealed or opened one block at a time. The ciphertext staging
// buffer is reused across calls, so steady-state writes allocate nothing
// per block.
//
// An encIO is bound to one operation on one hidden object; it is not safe
// for concurrent use (the sealer is, but the scratch buffer is not).
type encIO struct {
	dev     vdisk.Device
	sealer  *sgcrypto.Sealer
	scratch []byte   // reused ciphertext staging for writes
	ctBufs  [][]byte // reused block views over scratch
}

func (e *encIO) BlockSize() int { return e.dev.BlockSize() }

func (e *encIO) ReadBlock(n int64, buf []byte) error {
	if err := e.dev.ReadBlock(n, buf); err != nil {
		return err
	}
	return e.sealer.Open(n, buf, buf)
}

func (e *encIO) WriteBlock(n int64, buf []byte) error {
	if cap(e.scratch) < len(buf) {
		e.scratch = make([]byte, len(buf))
	}
	ct := e.scratch[:len(buf)]
	if err := e.sealer.Seal(n, ct, buf); err != nil {
		return err
	}
	return e.dev.WriteBlock(n, ct)
}

// ReadBlocks fetches the batch in one sorted device submission and decrypts
// the blocks in place.
func (e *encIO) ReadBlocks(ns []int64, bufs [][]byte) error {
	if err := vdisk.ReadBlocks(e.dev, ns, bufs); err != nil {
		return err
	}
	for i, n := range ns {
		if err := e.sealer.Open(n, bufs[i], bufs[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteBlocks seals the batch into the reused staging area and submits one
// sorted device write.
func (e *encIO) WriteBlocks(ns []int64, bufs [][]byte) error {
	if len(ns) != len(bufs) {
		return fmt.Errorf("%w: %d block numbers, %d buffers", vdisk.ErrBadBuffer, len(ns), len(bufs))
	}
	bs := e.dev.BlockSize()
	if cap(e.scratch) < len(ns)*bs {
		e.scratch = make([]byte, len(ns)*bs)
	}
	if cap(e.ctBufs) < len(ns) {
		e.ctBufs = make([][]byte, len(ns))
	}
	cts := e.ctBufs[:len(ns)]
	for i, n := range ns {
		cts[i] = e.scratch[i*bs : (i+1)*bs]
		if err := e.sealer.Seal(n, cts[i], bufs[i]); err != nil {
			return err
		}
	}
	return vdisk.WriteBlocks(e.dev, ns, cts)
}

var _ ptree.BatchBlockIO = (*encIO)(nil)

// hiddenRef is an open handle to a located hidden object. Refs come from a
// pool and carry every piece of per-operation scratch the data path needs
// (header storage, sealed-I/O adapter, block list, staged edge blocks), so a
// steady-state cached read allocates nothing. The storage is reused the
// moment release returns the ref — callers must not retain the ref, r.hdr,
// or anything r.io returned past release.
type hiddenRef struct {
	physName  string
	fak       []byte
	sealer    *sgcrypto.Sealer
	headerBlk int64
	sig       [sgcrypto.SignatureLen]byte // header signature (== hdr.sig once decoded)
	hdr       *header
	exclusive bool // lock mode held on fs.objs (set by open/createHidden)

	// Reusable per-operation storage, retained across pool round trips.
	hdrStore  header    // backing store for hdr
	hdrBuf    []byte    // header-block read/write scratch
	enc       encIO     // the adapter r.io returns
	blockList []int64   // ptree.ReadInto destination
	spanBufs  [][]byte  // moveSpan's per-block buffers
	edges     [2][]byte // moveSpan's staged partial edge blocks
	edgeNs    [2]int64  // moveSpan's edge read batch
	edgeBufs  [2][]byte
}

var refPool = sync.Pool{New: func() any { return new(hiddenRef) }}

// getRef returns a pooled ref with its identity fields cleared and its
// scratch storage intact.
func getRef() *hiddenRef {
	r := refPool.Get().(*hiddenRef)
	r.physName, r.fak, r.sealer = "", nil, nil
	r.headerBlk = 0
	r.sig = [sgcrypto.SignatureLen]byte{}
	r.hdr = nil
	r.exclusive = false
	return r
}

func putRef(r *hiddenRef) {
	r.enc.dev, r.enc.sealer = nil, nil
	refPool.Put(r)
}

// io returns the ref's embedded sealed-I/O adapter, bound to dev. Anything
// that must outlive the ref (cursors) builds its own encIO instead.
func (r *hiddenRef) io(dev vdisk.Device) *encIO {
	r.enc.dev = dev
	r.enc.sealer = r.sealer
	return &r.enc
}

// blockBuf returns the ref's reusable block-size scratch buffer.
func (r *hiddenRef) blockBuf(bs int) []byte {
	if cap(r.hdrBuf) < bs {
		r.hdrBuf = make([]byte, bs)
	}
	r.hdrBuf = r.hdrBuf[:bs]
	return r.hdrBuf
}

// --- Locating, opening and creating headers ----------------------------------

// probeHeader runs the pseudorandom block-number generator and returns the
// first candidate holding a matching signature (retrieval mode), mirroring
// §3.1: "looks for the first block number that is marked as assigned in the
// bitmap and contains a matching file signature". The probe takes no FS-
// level lock: each bitmap test locks only the candidate's allocation group
// for an instant, so any number of probes — and writers to unrelated
// objects — run in parallel. The returned ref carries a header snapshot
// that is only trustworthy while no writer runs; callers that need a stable
// view go through open, which re-reads the header under the object lock.
func (fs *FS) probeHeader(physName string, fak []byte) (*hiddenRef, error) {
	sealer, err := sgcrypto.NewSealer(physName, fak)
	if err != nil {
		return nil, err
	}
	want := sgcrypto.Signature(physName, fak)
	gen := sgcrypto.NewPRBG(sgcrypto.HeaderSeed(physName, fak), fs.dev.NumBlocks())
	r := getRef()
	r.physName, r.fak, r.sealer, r.sig = physName, fak, sealer, want
	freeSeen := 0
	for i := 0; i < fs.params.MaxHeaderProbes; i++ {
		cand := gen.Next()
		if !fs.alloc.Test(cand) {
			// Free block: cannot be the header. A header always lands on the
			// first creation-time-free candidate, so after enough free
			// candidates with no match the object does not exist (each one
			// would have to have been allocated at creation and freed since).
			// The probe is lock-free, so a block another object frees and
			// re-allocates mid-churn can flicker free for an instant;
			// re-testing keeps such transients from counting toward the stop
			// (an existing object's header block itself is stably allocated
			// for its whole lifetime, so a flickering candidate is never the
			// header we seek and can be skipped without counting).
			if fs.alloc.Test(cand) {
				continue
			}
			freeSeen++
			if freeSeen >= fs.params.FreeProbeStop {
				break
			}
			continue
		}
		ok, err := fs.readHeader(r, cand)
		if err != nil {
			putRef(r)
			return nil, err
		}
		if ok {
			fs.sealers.add(want, sealer, cand)
			return r, nil
		}
	}
	putRef(r)
	return nil, fmt.Errorf("%w: hidden object %q", fsapi.ErrNotFound, physName)
}

// readHeader reads and opens block blk and decodes it as r's header. On a
// signature match it points r.hdr at the decoded header and records blk as
// r's header block; a mismatch reports false and leaves r as it was.
func (fs *FS) readHeader(r *hiddenRef, blk int64) (bool, error) {
	buf := r.blockBuf(fs.dev.BlockSize())
	if err := fs.dev.ReadBlock(blk, buf); err != nil {
		return false, err
	}
	if err := r.sealer.Open(blk, buf, buf); err != nil {
		return false, err
	}
	ok, err := decodeHeaderInto(buf, r.sig, &r.hdrStore)
	if ok && err == nil {
		r.hdr, r.headerBlk = &r.hdrStore, blk
	}
	return ok, err
}

// reloadHeader re-reads the object's header block. Called with the object
// lock held, it upgrades a probe-time snapshot to the current state (the
// object may have been rewritten — or deleted, reported as ErrNotFound —
// between the probe and the lock acquisition).
func (fs *FS) reloadHeader(r *hiddenRef) error {
	ok, err := fs.readHeader(r, r.headerBlk)
	if err == nil && !ok {
		err = fmt.Errorf("%w: hidden object %q", fsapi.ErrNotFound, r.physName)
	}
	return err
}

// open locates (physName, fak) and returns a ref holding the object's lock —
// exclusive for callers that will mutate it, shared otherwise — with a
// current header. Release with fs.release.
func (fs *FS) open(physName string, fak []byte, exclusive bool) (*hiddenRef, error) {
	return fs.openSig(physName, fak, sgcrypto.Signature(physName, fak), exclusive)
}

// openSig is open for callers that already hold the object's header
// signature (views precompute it per name), saving the hash on the hot
// path. The sealer cache turns the common case into a single sealed header
// read: a cached (sealer, header block) hint skips both the key derivation
// and the pseudorandom probe chain. The hint is verified under the object
// lock — reloadHeader re-checks the embedded signature — and a stale hint
// (object deleted, or re-created at a different block) falls back to the
// full probe.
func (fs *FS) openSig(physName string, fak []byte, sig [sgcrypto.SignatureLen]byte, exclusive bool) (*hiddenRef, error) {
	if exclusive {
		// Exclusive opens exist to mutate; a degraded mount refuses them
		// up front (reads — shared opens — keep serving).
		if err := fs.checkWritable(); err != nil {
			return nil, err
		}
	}
	var r *hiddenRef
	var err error
	sealer, hb, hinted := fs.sealers.get(sig)
	if hinted {
		r = getRef()
		r.physName, r.fak, r.sealer, r.headerBlk, r.sig = physName, fak, sealer, hb, sig
	} else if r, err = fs.probeHeader(physName, fak); err != nil {
		return nil, err
	}
	for {
		r.exclusive = exclusive
		if exclusive {
			fs.objs.Lock(r.headerBlk)
		} else {
			fs.objs.RLock(r.headerBlk)
		}
		if err = fs.reloadHeader(r); err == nil {
			return r, nil
		}
		fs.release(r)
		if !hinted {
			return nil, err
		}
		fs.sealers.drop(sig)
		if !errors.Is(err, fsapi.ErrNotFound) {
			return nil, err
		}
		// Not-found on a hint only means the hint was stale; the full probe
		// is the authority.
		hinted = false
		if r, err = fs.probeHeader(physName, fak); err != nil {
			return nil, err
		}
	}
}

// release drops the object lock taken by open and returns the ref to the
// pool — the caller must not touch r (or anything it handed out: r.hdr, r.io
// results, ptree.ReadInto lists) afterwards.
//
// lockcheck:release volume/objLock
// lockcheck:release volume/gate shared
func (fs *FS) release(r *hiddenRef) {
	if r.exclusive {
		fs.objs.Unlock(r.headerBlk)
	} else {
		fs.objs.RUnlock(r.headerBlk)
	}
	putRef(r)
}

// allocHeaderBlock runs the generator in creation mode: the first candidate
// that is free in the bitmap becomes the header block. Each candidate is
// claimed with an atomic per-group test-and-set, so two concurrent creates
// of different names racing down overlapping chains can never both win one
// block; same-name creates are serialized by the caller's name stripe.
func (fs *FS) allocHeaderBlock(physName string, fak []byte) (int64, error) {
	gen := sgcrypto.NewPRBG(sgcrypto.HeaderSeed(physName, fak), fs.dev.NumBlocks())
	for i := 0; i < fs.params.MaxHeaderProbes; i++ {
		cand := gen.Next()
		if fs.alloc.TryAlloc(cand) {
			return cand, nil
		}
	}
	return 0, fmt.Errorf("%w: no free header block within %d probes", fsapi.ErrNoSpace, fs.params.MaxHeaderProbes)
}

// --- Free-pool management (§3.1) --------------------------------------------

// The pool operations below mutate r.hdr.free, which is guarded by the
// object's exclusive lock (held by every caller); volume allocation goes
// through the sharded allocator, which synchronizes internally per group.
// No FS-level lock is involved, so writers to distinct hidden objects top
// up, drain and return their pools fully in parallel.

// poolTake removes and returns a random block from the object's internal
// free pool, topping the pool up from the file system when it falls below
// FreeMin. When the pool is empty it allocates directly from the volume.
func (fs *FS) poolTake(r *hiddenRef) (int64, error) {
	h := r.hdr
	if len(h.free) == 0 {
		b, err := fs.alloc.Alloc()
		if err != nil {
			return 0, fsapi.ErrNoSpace
		}
		return b, nil
	}
	i := fs.alloc.Intn(len(h.free))
	b := h.free[i]
	h.free[i] = h.free[len(h.free)-1]
	h.free = h.free[:len(h.free)-1]
	if len(h.free) < fs.params.FreeMin {
		fs.poolTopUp(r)
	}
	return b, nil
}

// poolTopUp refills the pool to FreeMax with random free blocks. Shortfalls
// are tolerated (the volume may simply be full).
func (fs *FS) poolTopUp(r *hiddenRef) {
	capHdr := freeCapacity(fs.dev.BlockSize())
	target := fs.params.FreeMax
	if target > capHdr {
		target = capHdr
	}
	for len(r.hdr.free) < target {
		b, err := fs.alloc.Alloc()
		if err != nil {
			return
		}
		r.hdr.free = append(r.hdr.free, b)
	}
}

// poolGive returns a freed block to the pool; once the pool exceeds FreeMax
// the block goes back to the file system instead (§3.1 truncation rule).
func (fs *FS) poolGive(r *hiddenRef, b int64) {
	capHdr := freeCapacity(fs.dev.BlockSize())
	limit := fs.params.FreeMax
	if limit > capHdr {
		limit = capHdr
	}
	if len(r.hdr.free) < limit {
		r.hdr.free = append(r.hdr.free, b)
		return
	}
	fs.alloc.Free(b)
}

// poolAlloc adapts poolTake to a ptree.AllocFunc (pointer blocks are few).
func (fs *FS) poolAlloc(r *hiddenRef) ptree.AllocFunc {
	return func() (int64, error) { return fs.poolTake(r) }
}

// --- Hidden object CRUD ------------------------------------------------------

// createHidden stores a new hidden object. It is self-locking: the existence
// probe, the header-block allocation and the initial header flush happen
// under the physical name's stripe mutex, so two concurrent creates for the
// same (name, key) serialize there — the second one's probe finds the first
// one's flushed header — while creates of different names proceed in
// parallel (their candidate-block claims are already atomic per allocation
// group). The bulk data write then runs under the new object's exclusive
// lock only; pool interactions go straight to the sharded allocator.
func (fs *FS) createHidden(physName string, fak []byte, flags byte, data []byte) (*hiddenRef, error) {
	if err := fs.checkWritable(); err != nil {
		return nil, err
	}
	sealer, err := sgcrypto.NewSealer(physName, fak)
	if err != nil {
		return nil, err
	}
	// Gate before the stripe, matching Freeze's order: the gate hold taken
	// here is what later lets the fresh object be locked while the stripe is
	// still held without ever waiting on the gate (see lockTable.EnterGate).
	fs.objs.EnterGate()
	stripe := fs.createStripe(physName)
	stripe.Lock()
	if pr, err := fs.probeHeader(physName, fak); err == nil {
		putRef(pr)
		stripe.Unlock()
		fs.objs.ExitGate()
		return nil, fmt.Errorf("%w: hidden object %q", fsapi.ErrExists, physName)
	}
	hb, err := fs.allocHeaderBlock(physName, fak)
	if err != nil {
		stripe.Unlock()
		fs.objs.ExitGate()
		return nil, err
	}
	// Create-refs are handed to the caller and never released through
	// fs.release, so they are built outside the pool.
	r := &hiddenRef{physName: physName, fak: fak, sealer: sealer, headerBlk: hb, exclusive: true}
	r.sig = sgcrypto.Signature(physName, fak)
	r.hdrStore = header{
		sig:   r.sig,
		flags: flags,
		root:  ptree.NewRoot(hdrNumDirect),
	}
	r.hdr = &r.hdrStore
	// "When a hidden file is created, StegFS straightaway allocates several
	// blocks to the file" — seed the internal free pool.
	fs.poolTopUp(r)
	// Lock the fresh object BEFORE the header becomes findable: probes are
	// lock-free, so flushing first would open a window where another party
	// holding the FAK probes the empty header, takes the object lock ahead
	// of the creator and reads zero-length content that never logically
	// existed. The gate is already held (EnterGate above, Freeze's order),
	// and the acquisition cannot deadlock: the only possible holder of this
	// block's lock is a deleter still tearing down a previous object that
	// used the same block, and its progress needs none of the locks held
	// here (deleters take neither name stripes nor the gate exclusively).
	// lockcheck:ignore audited inversion (see lockTable doc): the gate was pre-taken via EnterGate in hierarchy order, and the only possible holder of this fresh block's lock is a deleter whose progress needs none of the locks held here
	fs.objs.LockGateHeld(hb)
	// Flush the (still empty) header before the stripe drops: from this
	// instant a probe for the same (name, key) finds the object instead of
	// minting a second header — and then blocks on the object lock taken
	// above until the content is in place.
	if err := fs.flushHeader(r); err != nil {
		fs.alloc.FreeBatch(append(append([]int64(nil), r.hdr.free...), hb))
		stripe.Unlock()
		fs.objs.Unlock(hb) // also returns the gate hold from EnterGate
		return nil, err
	}
	stripe.Unlock()
	defer fs.objs.Unlock(hb)

	if err := fs.writeHiddenData(r, data); err != nil {
		fs.destroyHidden(r)
		return nil, err
	}
	// The data write may have drained the pool; the created file must end
	// up holding its free blocks (Figure 2: the header carries a persistent
	// free-blocks list), or bitmap-snapshot deltas would expose exactly the
	// data blocks.
	fs.poolTopUp(r)
	if err := fs.flushHeader(r); err != nil {
		fs.destroyHidden(r)
		return nil, err
	}
	fs.sealers.add(r.sig, sealer, hb)
	return r, nil
}

// releaseFailedWrite returns blocks claimed for a failed write. Some of
// them were drawn from the object's internal pool, which the last
// flushHeader persisted as owned — volume-freeing those directly would
// double-own them (free in the bitmap AND listed in the on-disk free list;
// a stale-header destroy would later liberate whoever re-allocated them).
// So the drained header is flushed first, and the blocks go back to the
// volume only once no on-disk state references them. If that flush itself
// fails the blocks stay allocated — a bounded leak, never double ownership.
// The caller holds the object's exclusive lock.
func (fs *FS) releaseFailedWrite(r *hiddenRef, blocks []int64) {
	if err := fs.flushHeader(r); err != nil {
		return
	}
	fs.alloc.FreeBatch(blocks)
}

// writeHiddenData allocates blocks (via the pool and the sharded allocator)
// and writes the payload and its pointer tree with vectored sealed I/O. It
// fills in r.hdr.{size,nblocks,root}. The caller holds the object's
// exclusive lock.
func (fs *FS) writeHiddenData(r *hiddenRef, data []byte) error {
	bs := fs.dev.BlockSize()
	n := (int64(len(data)) + int64(bs) - 1) / int64(bs)
	blocks := make([]int64, 0, n)
	for i := int64(0); i < n; i++ {
		b, err := fs.poolTake(r)
		if err != nil {
			fs.releaseFailedWrite(r, blocks)
			return err
		}
		blocks = append(blocks, b)
	}

	if err := fs.moveSpan(r, blocks, data, 0, int64(len(data)), true); err != nil {
		fs.releaseFailedWrite(r, blocks)
		return err
	}
	root, meta, err := ptree.Write(r.io(fs.dev), fs.poolAlloc(r), hdrNumDirect, blocks)
	if err != nil {
		// ptree.Write reports the pointer blocks it had already claimed;
		// release them along with the data blocks or a failed large write
		// leaks every indirect block it managed to allocate.
		fs.releaseFailedWrite(r, append(blocks, meta...))
		return fs.observe(err)
	}
	r.hdr.root = root
	r.hdr.size = int64(len(data))
	r.hdr.nblocks = n
	return nil
}

// flushHeader seals and writes the header block.
func (fs *FS) flushHeader(r *hiddenRef) error {
	buf := r.blockBuf(fs.dev.BlockSize())
	if err := encodeHeader(r.hdr, buf); err != nil {
		return err
	}
	// Header writes are the durability chokepoint for every hidden mutation;
	// a device-class failure here degrades the mount (see health.go).
	return fs.observe(r.io(fs.dev).WriteBlock(r.headerBlk, buf))
}

// readHidden returns the full payload of an open hidden object. The caller
// holds the object's lock (shared suffices).
func (fs *FS) readHidden(r *hiddenRef) ([]byte, error) {
	out := make([]byte, r.hdr.size)
	if _, err := fs.rwHidden(r, out, 0, false); err != nil {
		return nil, err
	}
	return out, nil
}

// rewriteHidden replaces the payload of an open hidden object. Same-shape
// payloads are updated in place; otherwise old blocks are released through
// the pool and fresh ones allocated. The caller holds the object's exclusive
// lock.
func (fs *FS) rewriteHidden(r *hiddenRef, data []byte) error {
	bs := int64(fs.dev.BlockSize())
	if (int64(len(data))+bs-1)/bs == r.hdr.nblocks {
		r.hdr.size = int64(len(data))
		if _, err := fs.rwHidden(r, data, 0, true); err != nil {
			return err
		}
		return fs.flushHeader(r)
	}
	io := r.io(fs.dev)
	staged, err := ptree.Read(io, r.hdr.root, r.hdr.nblocks)
	if err != nil {
		return err
	}
	// Stage the release of the old data and pointer blocks: they go back to
	// the pool only after the replacement payload AND the header referencing
	// it are durably in place (the same ordering fix as tickDummy's pool
	// rotation). Freeing first would let a concurrent writer claim a block
	// the still-persisted old header tree references, and a later
	// stale-header destroy would liberate that writer's live data. The
	// trade-off is that a reshaping rewrite transiently holds both the old
	// and the new blocks — and, on failure, leaves the old payload intact
	// and readable instead of half-released.
	if err := ptree.Free(io, r.hdr.root, r.hdr.nblocks, func(b int64) { staged = append(staged, b) }); err != nil {
		return err
	}
	err = fs.writeHiddenData(r, data)
	recycled := false
	if errors.Is(err, fsapi.ErrNoSpace) {
		// The volume cannot hold old and new payload simultaneously. Fall
		// back to the recycle-first ordering: release the old blocks into
		// the pool and retry, letting the write reuse them. This narrows
		// the staged path's failure-isolation (a retry that ALSO fails
		// mid-write leaves the on-disk header referencing recycled blocks,
		// the pre-sharding behavior) but a nearly-full volume must be able
		// to rewrite — deleting a directory entry goes through this very
		// path, and refusing would wedge the volume with no way to free
		// space.
		recycled = true
		for _, b := range staged {
			fs.poolGive(r, b)
		}
		err = fs.writeHiddenData(r, data)
	}
	if err != nil {
		return err
	}
	if err := fs.flushHeader(r); err != nil {
		return err
	}
	if !recycled {
		prevPool := len(r.hdr.free)
		for _, b := range staged {
			fs.poolGive(r, b)
		}
		// Persist the refilled pool (Figure 2: the header carries the free
		// list) — best effort: the rewrite itself is already durable
		// (payload and the header referencing it flushed above), so a
		// failure here must not fail the operation, or callers like
		// CreateHidden's rollback would destroy an object whose directory
		// entry is live on disk.
		if ferr := fs.flushHeader(r); ferr != nil {
			// The refilled pool lives only in this transient ref — a
			// reopen re-reads the header from disk — so an unpersisted
			// pool would leak the staged blocks outright once the ref is
			// dropped. The successful flush above left them unreferenced
			// on disk, so reverting the in-memory pool and returning them
			// to the volume is safe: no on-disk state lists them, and the
			// batch free is a no-op for the overflow blocks poolGive already
			// released.
			r.hdr.free = r.hdr.free[:prevPool]
			fs.alloc.FreeBatch(staged)
		}
	}
	return nil
}

// destroyHidden frees everything the object holds: data blocks, pointer
// blocks, pooled free blocks and the header itself. The caller holds the
// object's exclusive lock; the blocks return to their allocation groups.
func (fs *FS) destroyHidden(r *hiddenRef) {
	// Forget the open-state hint first: after the free below the header
	// block can be recycled by a new object, and a lingering hint would
	// send every subsequent open through a wasted stale-header read.
	fs.sealers.drop(r.sig)
	io := r.io(fs.dev)
	var victims []int64
	if r.hdr != nil && r.hdr.nblocks > 0 {
		if blocks, err := ptree.Read(io, r.hdr.root, r.hdr.nblocks); err == nil {
			victims = append(victims, blocks...)
		}
		if meta, err := ptree.MetaBlocks(io, r.hdr.root, r.hdr.nblocks); err == nil {
			victims = append(victims, meta...)
		}
	}
	if r.hdr != nil {
		victims = append(victims, r.hdr.free...)
	}
	// Scrub the header ciphertext BEFORE the block is freed: probes are
	// lock-free, so a freed-then-reallocated-but-not-yet-written header
	// block would otherwise keep presenting the deleted object's intact
	// header — a second deleter could "find" the object and liberate
	// blocks their new owner already claimed. After the scrub a stale
	// probe reads random bytes and fails the signature check. Best
	// effort: on a scrub write error the block is freed anyway (the
	// window then matches the pre-scrub behavior).
	_ = writeRandomBlock(fs.dev, r.headerBlk)
	victims = append(victims, r.headerBlk)
	// One group-aware batch free: victims are sorted by allocation group and
	// each touched group is cleared under a single lock hold, so a large
	// delete stops hammering the group mutexes block by block.
	fs.alloc.FreeBatch(victims)
}

// destroyByRef tears down the object behind a ref whose lock is NOT held:
// it takes the exclusive object lock, refreshes the header (the ref's
// snapshot may be stale — destroying with a stale header could free blocks
// the object no longer owns) and destroys the object. An object that is
// already gone (not-found on reload) counts as success: the work is done.
// This is the one shared teardown path for rollbacks and deletes — it
// needs no probe, so it cannot spuriously miss under concurrent churn.
func (fs *FS) destroyByRef(r *hiddenRef) error {
	fs.objs.Lock(r.headerBlk)
	err := fs.reloadHeader(r)
	if err == nil {
		fs.destroyHidden(r)
	}
	fs.objs.Unlock(r.headerBlk)
	if err != nil && !errors.Is(err, fsapi.ErrNotFound) {
		return err
	}
	return nil
}

// hiddenBlocks returns every block an open hidden object occupies: header,
// data, pointer blocks and pooled free blocks. Backup images these. The
// caller holds the object's lock (shared suffices).
func (fs *FS) hiddenBlocks(r *hiddenRef) ([]int64, error) {
	io := r.io(fs.dev)
	out := []int64{r.headerBlk}
	blocks, err := ptree.Read(io, r.hdr.root, r.hdr.nblocks)
	if err != nil {
		return nil, err
	}
	out = append(out, blocks...)
	meta, err := ptree.MetaBlocks(io, r.hdr.root, r.hdr.nblocks)
	if err != nil {
		return nil, err
	}
	out = append(out, meta...)
	out = append(out, r.hdr.free...)
	return out, nil
}
