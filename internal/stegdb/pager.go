// Package stegdb implements the paper's stated future work (§6): "we are
// investigating how database tables, hash indices and B-trees can be hidden
// effectively" — database structures stored entirely inside StegFS hidden
// files, so their very existence is deniable.
//
// The package provides a page store (Pager) over a hidden file, a B-tree
// and a bucket-chain hash index over the pager, and one table type,
// PartitionedTable, combining them in each of N >= 1 hidden files (N = 1 is
// the plain one-file table). Everything an adversary can observe is the
// same encrypted, unlisted blocks as any other hidden file; even the fact
// that a database exists is hidden behind the (name, key) pair.
//
// Concurrency: the pager is safe for concurrent use. Pages live in a small
// no-steal write-back cache with per-page latches (shared for reads,
// exclusive for writes), the meta page has its own mutex, and
// AllocPage/FreePage are atomic against concurrent allocators. Structural
// writers run in parallel over the B-link tree (btree.go); readers that
// must not block behind writers take copy-on-write snapshots
// (BeginSnapshot) pinned at an epoch; see snapshot.go. Durability point:
// WritePage is write-back — dirty pages reach the hidden file only at
// Sync/Close, which commits through a physical redo journal (commit.go):
// journal + header, barrier, home writes, barrier. Crash recovery replays a
// CRC-valid journal at OpenPager, so the on-device state is always exactly
// some committed epoch (old-or-new, never a mix). Lock order inside the
// package, outermost first: PartitionedTable snapGate → per-partition key
// shards → Pager commit locks → tree latches → HashIndex stripes →
// HashIndex.dirMu → BTree rootMu → Pager.allocMu → page latches →
// Pager.snapMu → Pager.metaMu → the pageCache mutex. This order is not just
// prose: each lock carries a lockcheck:level annotation in the stegdb
// domain and cmd/lockcheck enforces it in CI — see docs/ANALYSIS.md for the
// grammar and the level map, and docs/STEGDB.md for the protocols that rely
// on it.
package stegdb

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sync"

	"stegfs/internal/fsapi"
)

// PageSize is the fixed database page size. It is independent of the volume
// block size; the pager maps pages onto hidden-file offsets.
const PageSize = 4096

// pagerMagic marks page 0 of a database file.
const pagerMagic = "SGDB0001"

// metaLayout (page 0): magic(8) numPages(8) freeHead(8) btreeRoot(8)
// hashRoot(8) rows(8) commitEpoch(8) partCount(8) partIndex(8).
// commitEpoch is stamped into the journaled meta image at each commit;
// partCount/partIndex are zero for plain tables and identify the shard for
// partitioned ones (partition.go).
const (
	metaNumPages    = 8
	metaFreeHead    = 16
	metaBTreeRoot   = 24
	metaHashRoot    = 32
	metaRows        = 40
	metaCommitEpoch = 48
	metaPartCount   = 56
	metaPartIndex   = 64
)

// nilPage is the null page id (page 0 is the meta page, never allocatable).
const nilPage int64 = 0

// defaultPageCacheSize is the default number of page frames the in-pager
// cache holds (4 KB each). Hot directory/root pages are served from here
// without re-reading through the hidden file.
const defaultPageCacheSize = 1024

// View is the slice of stegfs.HiddenView the pager needs. Production code
// passes a *stegfs.HiddenView; tests substitute error-injecting wrappers to
// exercise partial-failure paths.
type View interface {
	// lockcheck:io
	Create(name string, data []byte) error
	// lockcheck:io
	ReadAt(name string, p []byte, off int64) (int, error)
	// lockcheck:io
	WriteAt(name string, p []byte, off int64) (int, error)
	// lockcheck:io
	Resize(name string, newSize int64) error
	// lockcheck:io
	Stat(name string) (fsapi.FileInfo, error)
	// lockcheck:io
	Sync() error
}

// Pager provides page-granular storage inside one hidden file, with a
// free-list for recycling, amortized-doubling growth, and a physical redo
// journal (a sibling hidden file, name + ".wal") making every Sync an
// atomic commit.
type Pager struct {
	view View
	name string

	// walName is the sibling journal file every commit goes through.
	walName string

	// commitMu serializes the commit pipeline of this pager (journal write
	// through home writes). It is held across hidden-file I/O by design and
	// is multi: a partitioned table's group commit holds the commit locks
	// of all its partitions at once, always in partition order.
	// lockcheck:level 15 stegdb/commitMu multi
	commitMu sync.Mutex

	// metaMu guards the meta page buffer and its dirty flag. It is the
	// innermost leveled mutex of the package hierarchy bar the page-cache
	// mutex; flushMetaNow deliberately writes the hidden file while
	// holding it (the meta page must not change mid-write), so it is not
	// noio.
	// lockcheck:level 70 stegdb/metaMu
	metaMu sync.Mutex
	// lockcheck:guardedby metaMu
	meta [PageSize]byte
	// lockcheck:guardedby metaMu
	metaDirty bool
	// lockcheck:guardedby metaMu
	metaGen uint64 // bumped on every setMeta; write-wins on commit

	// allocMu serializes AllocPage/FreePage so free-list updates, file
	// growth and the numPages counter stay atomic under concurrency. It
	// sits above the latches/snapMu/metaMu it takes, and is not noio:
	// AllocPage stats and grows the hidden file under it by design.
	// lockcheck:level 40 stegdb/allocMu
	allocMu sync.Mutex

	cache *pageCache

	// snapMu guards the snapshot machinery: the epoch counter, the set of
	// active snapshots, per-page last-write epochs and saved page versions.
	// lockcheck:level 60 stegdb/snapMu
	snapMu sync.Mutex
	// lockcheck:guardedby snapMu
	epoch int64
	// lockcheck:guardedby snapMu
	nextSnapID int64
	// lockcheck:guardedby snapMu
	snaps map[int64]int64 // snapshot id -> pinned epoch
	// lockcheck:guardedby snapMu
	maxSnapEpoch int64 // max over snaps (0 when none)
	// lockcheck:guardedby snapMu
	liveEpoch map[int64]int64 // page id -> epoch of its last write
	// lockcheck:guardedby snapMu
	versions map[int64][]pageVersion
}

func newPager(view View, name string) *Pager {
	return &Pager{
		view:      view,
		name:      name,
		walName:   name + walSuffix,
		cache:     newPageCache(defaultPageCacheSize),
		epoch:     1,
		snaps:     make(map[int64]int64),
		liveEpoch: make(map[int64]int64),
		versions:  make(map[int64][]pageVersion),
	}
}

// CreatePager creates the named hidden file (plus its journal sibling) and
// initializes an empty database in it. The file starts with capacity for a
// handful of pages and doubles as needed.
func CreatePager(view View, name string) (*Pager, error) {
	if err := view.Create(name, make([]byte, 8*PageSize)); err != nil {
		return nil, err
	}
	p := newPager(view, name)
	// An all-zero journal header has no magic, so it never replays.
	if err := view.Create(p.walName, make([]byte, PageSize)); err != nil {
		return nil, fmt.Errorf("stegdb: create journal: %w", err)
	}
	// lockcheck:ignore the pager has not been published yet; CreatePager has it to itself
	copy(p.meta[:], pagerMagic)
	// lockcheck:ignore the pager has not been published yet; CreatePager has it to itself
	p.setMeta(metaNumPages, 1) // the meta page itself
	if err := p.flushMetaNow(); err != nil {
		return nil, err
	}
	return p, nil
}

// OpenPager opens an existing database file, first replaying the sibling
// journal if it holds a complete commit (crash recovery). The journal file
// must be readable through view (adopt name + ".wal" alongside name): every
// commit goes through it, so a database without one cannot be opened.
func OpenPager(view View, name string) (*Pager, error) {
	p := newPager(view, name)
	if err := p.recoverWAL(); err != nil {
		return nil, err
	}
	// lockcheck:ignore the pager has not been published yet; OpenPager has it to itself
	if _, err := view.ReadAt(name, p.meta[:], 0); err != nil {
		return nil, fmt.Errorf("stegdb: read meta page: %w", err)
	}
	// lockcheck:ignore the pager has not been published yet; OpenPager has it to itself
	if string(p.meta[:8]) != pagerMagic {
		return nil, errors.New("stegdb: not a stegdb file (bad magic)")
	}
	return p, nil
}

// getMeta/setMeta access the meta buffer; callers hold metaMu (or have the
// pager to themselves, as in CreatePager/OpenPager, which carry audited
// lockcheck:ignore annotations for exactly that reason).
//
// lockcheck:holds stegdb/metaMu
func (p *Pager) getMeta(off int) int64 { return int64(binary.BigEndian.Uint64(p.meta[off:])) }

// lockcheck:holds stegdb/metaMu
func (p *Pager) setMeta(off int, v int64) {
	binary.BigEndian.PutUint64(p.meta[off:], uint64(v))
	p.metaDirty = true
	p.metaGen++
}

// metaField returns one meta page field under the meta mutex.
func (p *Pager) metaField(off int) int64 {
	p.metaMu.Lock()
	defer p.metaMu.Unlock()
	return p.getMeta(off)
}

// setMetaField updates one meta page field. The change is write-back: it
// reaches the device at the next Sync.
func (p *Pager) setMetaField(off int, v int64) {
	p.metaMu.Lock()
	p.setMeta(off, v)
	p.metaMu.Unlock()
}

// flushMetaNow persists page 0 immediately.
func (p *Pager) flushMetaNow() error {
	p.metaMu.Lock()
	defer p.metaMu.Unlock()
	if _, err := p.view.WriteAt(p.name, p.meta[:], 0); err != nil {
		return err
	}
	p.metaDirty = false
	return nil
}

// NumPages returns the number of pages in use (including the meta page).
func (p *Pager) NumPages() int64 { return p.metaField(metaNumPages) }

// Rows returns the persistent row counter: the number of keys in the
// B-tree, maintained by its leaf writes.
func (p *Pager) Rows() int64 { return p.metaField(metaRows) }

// SetPageCacheSize adjusts the page cache capacity (frames of PageSize
// bytes). Shrinking takes effect as later pins evict clean unpinned
// frames; dirty frames stay cached until the next commit (no-steal).
func (p *Pager) SetPageCacheSize(n int) { p.cache.setCap(n) }

// ReadPage reads page id into buf (len PageSize).
func (p *Pager) ReadPage(id int64, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("stegdb: page buffer %d != %d", len(buf), PageSize)
	}
	if id <= nilPage || id >= p.NumPages() {
		return fmt.Errorf("stegdb: page %d out of range [1,%d)", id, p.NumPages())
	}
	e := p.cache.pin(id)
	defer p.cache.unpin(e)
	if err := p.ensureLoaded(e); err != nil {
		return err
	}
	e.latch.RLock()
	copy(buf, e.buf[:])
	e.latch.RUnlock()
	return nil
}

// ensureLoaded fills e.buf from the hidden file if the frame is empty.
func (p *Pager) ensureLoaded(e *pageEntry) error {
	e.latch.RLock()
	ok := e.valid
	e.latch.RUnlock()
	if ok {
		return nil
	}
	e.latch.Lock()
	defer e.latch.Unlock()
	if e.valid {
		return nil
	}
	if _, err := p.view.ReadAt(p.name, e.buf[:], e.id*PageSize); err != nil {
		return err
	}
	e.valid = true
	return nil
}

// WritePage writes buf (len PageSize) to page id. The write is write-back:
// the frame is marked dirty and reaches the hidden file at the next commit
// (Sync/Close). If a snapshot could still see the page's previous content,
// that content is saved as a copy-on-write version first.
//
// The frame is marked dirty BEFORE the epoch stamp inside
// saveVersionLocked: a commit pins its epoch under snapMu, so a write
// stamped at or before that epoch must already be visible to the commit's
// dirty-list capture — the reverse order could journal a cut that silently
// misses this page.
func (p *Pager) WritePage(id int64, buf []byte) error { return p.writePage(id, buf, 0) }

// writePage is WritePage that also adds rows to the row counter, at the
// same snapshot epoch as the page write (see saveVersionLocked).
func (p *Pager) writePage(id int64, buf []byte, rows int64) error {
	if len(buf) != PageSize {
		return fmt.Errorf("stegdb: page buffer %d != %d", len(buf), PageSize)
	}
	if id <= nilPage || id >= p.NumPages() {
		return fmt.Errorf("stegdb: page %d out of range [1,%d)", id, p.NumPages())
	}
	e := p.cache.pin(id)
	defer p.cache.unpin(e)
	e.latch.Lock()
	defer e.latch.Unlock()
	wasDirty := p.cache.markDirty(e)
	if err := p.saveVersionLocked(e, rows); err != nil {
		if !wasDirty {
			p.cache.unmarkDirty(e)
		}
		return err
	}
	copy(e.buf[:], buf)
	e.valid = true
	return nil
}

// AllocPage returns a zeroed page, reusing the free list when possible.
// Atomic against concurrent allocators and frees.
func (p *Pager) AllocPage() (int64, error) {
	p.allocMu.Lock()
	defer p.allocMu.Unlock()
	if head := p.metaField(metaFreeHead); head != nilPage {
		buf := make([]byte, PageSize)
		if err := p.ReadPage(head, buf); err != nil {
			return 0, err
		}
		next := int64(binary.BigEndian.Uint64(buf))
		p.setMetaField(metaFreeHead, next)
		zero := make([]byte, PageSize)
		if err := p.WritePage(head, zero); err != nil {
			return 0, err
		}
		return head, nil
	}
	id := p.metaField(metaNumPages)
	// Grow the backing hidden file when the next page would not fit.
	fi, err := p.view.Stat(p.name)
	if err != nil {
		return 0, err
	}
	if (id+1)*PageSize > fi.Size {
		newSize := fi.Size * 2
		if newSize < (id+1)*PageSize {
			newSize = (id + 1) * PageSize
		}
		if err := p.view.Resize(p.name, newSize); err != nil {
			return 0, err
		}
	}
	p.setMetaField(metaNumPages, id+1)
	return id, nil
}

// FreePage returns a page to the free list. Atomic against concurrent
// allocators.
func (p *Pager) FreePage(id int64) error {
	if id <= nilPage || id >= p.NumPages() {
		return fmt.Errorf("stegdb: freeing page %d out of range", id)
	}
	p.allocMu.Lock()
	defer p.allocMu.Unlock()
	buf := make([]byte, PageSize)
	binary.BigEndian.PutUint64(buf, uint64(p.metaField(metaFreeHead)))
	if err := p.WritePage(id, buf); err != nil {
		return err
	}
	p.setMetaField(metaFreeHead, id)
	return nil
}

// Sync is the durability barrier and commit point: it journals a
// consistent cut of the dirty pages plus the meta page, barriers, writes
// everything home, and barriers again. After a torn crash anywhere inside,
// recovery at OpenPager leaves the database at exactly the old or the new
// epoch. Concurrent callers serialize on the commit lock; tables batch
// theirs into group commits (PartitionedTable.Sync).
func (p *Pager) Sync() error { return commit(p.view, []*Pager{p}) }

// bumpEpoch opens a new epoch after a commit, so snapshots taken afterwards
// are pinned at a post-commit boundary.
func (p *Pager) bumpEpoch() {
	p.snapMu.Lock()
	p.epoch++
	p.snapMu.Unlock()
}

// Close is the database shutdown path: everything durable on the device.
func (p *Pager) Close() error { return p.Sync() }
