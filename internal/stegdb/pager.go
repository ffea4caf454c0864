// Package stegdb implements the paper's stated future work (§6): "we are
// investigating how database tables, hash indices and B-trees can be hidden
// effectively" — database structures stored entirely inside StegFS hidden
// files, so their very existence is deniable.
//
// The package provides a page store (Pager) over a hidden file, a B-link
// tree over the pager (BTree: rows, per-key shards, splits and their
// separator posts), and one table type, PartitionedTable, keeping one
// tree in each of N >= 1 hidden files plus one journal file.
// The tree serves every lookup; each row is stored once. Everything an
// adversary can observe is the same encrypted, unlisted blocks as any other
// hidden file; even the fact that a database exists is hidden behind the
// (name, key) pair.
//
// Concurrency: the pager is safe for concurrent use. Pages live in a small
// no-steal write-back cache with per-page latches (shared for reads,
// exclusive for writes), the meta page has its own mutex, and AllocPage is
// atomic against concurrent allocators. Structural writers run in parallel
// over the B-link tree (btree.go); readers that
// must not block behind writers take copy-on-write snapshots
// (BeginSnapshot) pinned at an epoch; see snapshot.go. Durability point:
// page writes are write-back — dirty pages reach the hidden file only when
// their table commits (PartitionedTable.Sync/Close) through its physical
// redo journal (commit.go): journal + header, barrier, home writes,
// barrier. Crash recovery replays a CRC-valid journal at open, so the
// on-device state is always exactly some committed epoch (old-or-new,
// never a mix). Lock order inside the package, outermost first:
// PartitionedTable snapGate → BTree key shards → Pager commit locks →
// tree latches → BTree rootMu → Pager.allocMu → page latches →
// Pager.snapMu → Pager.metaMu → the pageCache mutex. This order is not
// just prose: each lock carries a lockcheck:level annotation in the stegdb
// domain and cmd/lockcheck enforces it in CI — see docs/ANALYSIS.md for the
// grammar and the level map, and docs/STEGDB.md for the protocols that rely
// on it.
package stegdb

import (
	"encoding/binary"
	"fmt"

	"sync"

	"stegfs/internal/fsapi"
)

// PageSize is the fixed database page size. It is independent of the volume
// block size; the pager maps pages onto hidden-file offsets.
const PageSize = 4096

// pagerMagic marks page 0 of a database file. The magic never changes
// after createPager writes it, so a table's format can be read before its
// journal is replayed. pagerMagicV1 marks the format before it, whose
// layouts and journals this code does not read: such tables are refused
// by that name (checkMagic).
const (
	pagerMagic   = "SGDB0002"
	pagerMagicV1 = "SGDB0001"
)

// metaLayout (page 0): magic(8) numPages(8) freeHead(8) btreeRoot(8)
// hashRoot(8) rows(8) commitEpoch(8) partCount(8) partIndex(8).
// partCount (N >= 1) and partIndex identify the member within its table
// (partition.go). freeHead, hashRoot and commitEpoch are reserved and
// always zero: pages are never freed, there is no hash index, and nothing
// stamps a commit epoch, so a commit that changes no meta field leaves
// page 0 alone.
const (
	metaNumPages  = 8
	_             = 16 // freeHead, reserved
	metaBTreeRoot = 24
	_             = 32 // hashRoot, reserved
	metaRows      = 40
	_             = 48 // commitEpoch, reserved
	metaPartCount = 56
	metaPartIndex = 64
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

// Pager provides page-granular storage inside one hidden file, with
// amortized-doubling growth (pages are never freed). It commits only as a
// member of its table, whose one journal file makes every commit atomic
// (commit.go).
type Pager struct {
	view View
	name string

	// commitMu serializes the commit pipeline of this pager (journal write
	// through home writes). It is held across hidden-file I/O by design and
	// is multi: a partitioned table's group commit holds the commit locks
	// of all its partitions at once, always in partition order.
	// lockcheck:level 15 stegdb/commitMu multi
	commitMu sync.Mutex
	// metaBase is page 0's home image as of the last successful commit
	// (nil before the first one, and after a failed one): the base the
	// next commit's meta record is cut against (commit.go).
	// lockcheck:guardedby commitMu
	metaBase []byte

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

	// allocMu serializes AllocPage so file growth and the numPages counter
	// stay atomic under concurrency. It sits above the metaMu it takes, and
	// is not noio: AllocPage stats and grows the hidden file under it by
	// design.
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
		cache:     newPageCache(defaultPageCacheSize),
		epoch:     1,
		snaps:     make(map[int64]int64),
		liveEpoch: make(map[int64]int64),
		versions:  make(map[int64][]pageVersion),
	}
}

// createPager creates the named hidden file and initializes an empty
// database in it, member index of a table of parts members. The file
// starts with capacity for a handful of pages and doubles as needed.
func createPager(view View, name string, parts, index int) (*Pager, error) {
	if err := view.Create(name, make([]byte, 8*PageSize)); err != nil {
		return nil, err
	}
	p := newPager(view, name)
	// lockcheck:ignore the pager has not been published yet; createPager has it to itself
	copy(p.meta[:], pagerMagic)
	// lockcheck:ignore the pager has not been published yet; createPager has it to itself
	p.setMeta(metaNumPages, 1) // the meta page itself
	// lockcheck:ignore the pager has not been published yet; createPager has it to itself
	p.setMeta(metaPartCount, int64(parts))
	// lockcheck:ignore the pager has not been published yet; createPager has it to itself
	p.setMeta(metaPartIndex, int64(index))
	if err := p.flushMetaNow(); err != nil {
		return nil, err
	}
	return p, nil
}

// openPager reads the meta page of a database file whose table's journal
// has already been recovered.
func openPager(view View, name string) (*Pager, error) {
	p := newPager(view, name)
	// lockcheck:ignore the pager has not been published yet; openPager has it to itself
	if _, err := view.ReadAt(name, p.meta[:], 0); err != nil {
		return nil, fmt.Errorf("stegdb: read meta page of %s: %w", name, err)
	}
	// lockcheck:ignore the pager has not been published yet; openPager has it to itself
	if err := checkMagic(name, p.meta[:8]); err != nil {
		return nil, err
	}
	return p, nil
}

// checkMagic accepts the magic of a database file of this format. A file
// of the format before it is refused by that format's name.
func checkMagic(name string, magic []byte) error {
	switch string(magic) {
	case pagerMagic:
		return nil
	case pagerMagicV1:
		return fmt.Errorf("stegdb: %s is in the older %s format, which this version does not open", name, pagerMagicV1)
	}
	return fmt.Errorf("stegdb: %s is not a stegdb file (bad magic)", name)
}

// getMeta/setMeta access the meta buffer; callers hold metaMu (or have the
// pager to themselves, as in createPager/openPager, which carry audited
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
// reaches the device at the next commit.
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

// readLatch pins page id, loads it if needed, read-latches its frame and
// returns the image a reader at snapshot s sees (imageAt; nil s: the live
// frame). The image stays valid, and must not be written, until the
// caller hands e to readUnlatch; it holds no other page's latch and does
// no I/O in between. On error nothing is held.
//
// lockcheck:acquire stegdb/latch shared
func (p *Pager) readLatch(id int64, s *Snapshot) (img []byte, e *pageEntry, err error) {
	var n int64
	if s != nil {
		n = s.numPages
	} else {
		n = p.NumPages()
	}
	if id <= nilPage || id >= n {
		return nil, nil, fmt.Errorf("stegdb: page %d out of range [1,%d)", id, n)
	}
	e = p.cache.pin(id)
	e.latch.RLock()
	if !e.valid { // load the empty frame from the hidden file
		e.latch.RUnlock()
		e.latch.Lock()
		if !e.valid {
			_, err = p.view.ReadAt(p.name, e.buf[:], e.id*PageSize)
			e.valid = err == nil
		}
		e.latch.Unlock()
		e.latch.RLock()
	}
	if err == nil {
		if img, _, err = p.imageAt(e, s); err == nil {
			return img, e, nil
		}
	}
	p.readUnlatch(e)
	return nil, nil, err
}

// readUnlatch ends a readLatch: it unlatches and unpins e.
//
// lockcheck:release stegdb/latch shared
func (p *Pager) readUnlatch(e *pageEntry) {
	e.latch.RUnlock()
	p.cache.unpin(e)
}

// imageAt returns the image of the latched frame e that a reader at
// snapshot s sees: the live frame when s is nil or the page's last write
// is stamped at or before s's epoch, else the newest saved version at or
// before it. live reports which. Every page read — live, snapshot and a
// commit's capture — decides here. Saved versions are never written, so
// one stays valid after snapMu is released.
//
// lockcheck:holds stegdb/latch shared
func (p *Pager) imageAt(e *pageEntry, s *Snapshot) (img []byte, live bool, err error) {
	if s == nil {
		return e.buf[:], true, nil
	}
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	if p.liveEpoch[e.id] <= s.epoch {
		return e.buf[:], true, nil
	}
	// Versions are appended in epoch order.
	vs := p.versions[e.id]
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].epoch <= s.epoch {
			return vs[i].data, false, nil
		}
	}
	return nil, false, fmt.Errorf("stegdb: page %d lost its version as of epoch %d", e.id, s.epoch)
}

// writePage writes buf (len PageSize) to page id and adds rows to the row
// counter, at the same snapshot epoch (see saveVersionLocked). The write is
// write-back: the frame is marked dirty and reaches the hidden file at the
// next commit (its table's Sync/Close). If a snapshot could still see the
// page's previous content, that content is saved as a copy-on-write
// version first.
//
// The frame is marked dirty BEFORE the epoch stamp inside
// saveVersionLocked: a commit pins its epoch under snapMu, so a write
// stamped at or before that epoch must already be visible to the commit's
// dirty-list capture — the reverse order could journal a cut that silently
// misses this page.
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
	if !wasDirty && e.valid {
		// Clean→dirty: the frame holds the page's home image, which the
		// next commit's record is cut against (commit.go).
		e.base = make([]byte, PageSize)
		copy(e.base, e.buf[:])
	}
	copy(e.buf[:], buf)
	e.valid = true
	return nil
}

// AllocPage returns a fresh page at the end of the file, growing the file
// when needed. Atomic against concurrent allocators.
func (p *Pager) AllocPage() (int64, error) {
	p.allocMu.Lock()
	defer p.allocMu.Unlock()
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

// bumpEpoch opens a new epoch after a commit, so snapshots taken afterwards
// are pinned at a post-commit boundary.
func (p *Pager) bumpEpoch() {
	p.snapMu.Lock()
	p.epoch++
	p.snapMu.Unlock()
}
