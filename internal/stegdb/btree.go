package stegdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// BTree is a B-link tree (Lehman-Yao) over a Pager with variable-length
// byte-string keys and values, kept fully inside hidden pages. Deletions are
// simple removals (no eager rebalancing): pages may run underfull, which
// costs space, not correctness — the trade the original paper's DBMS
// direction also faces, since merging pages changes the allocation picture
// an intruder sees.
//
// Concurrency: every node carries a right-sibling pointer and a high key,
// and a split writes the new right sibling BEFORE the shrunken left half.
// Any prefix of the write sequence is therefore a consistent tree: a reader
// (or a pinned snapshot) that lands on a node whose range has moved simply
// follows the right link. That single invariant buys all three properties
// the package needs:
//
//   - Writers into disjoint subtrees proceed in parallel. A writer descends
//     latch-free, then holds at most two per-page tree latches (hand over
//     hand, moving right) while it modifies a node, so Put/Delete on
//     different leaves never serialize against each other.
//   - Readers are latch-free. Get and Range move right by high key and never
//     block behind a writer's descent.
//   - Snapshots need no tree lock at all. BeginSnapshot pins an epoch and
//     the meta page atomically; every page pointer a snapshot can follow
//     leads to content written before the pin (split ordering), so splits
//     in flight are invisible to it.
//
// Put and Delete also serialize per key on one of nKeyShards shard locks,
// so the undo a failed split-Put runs restores exactly the row that Put
// replaced; distinct keys proceed in parallel, limited below by the tree
// latches.
//
// The tree never frees pages: an emptied leaf stays in place (reachable,
// zero entries) so no snapshot or concurrent descent can ever chase a right
// link into a recycled page. Space is reclaimed only by dropping the table.
type BTree struct {
	pg      *Pager
	latches *treeLatches

	// Per-key shards; one shard per Put or Delete.
	// lockcheck:level 10 stegdb/shard
	shards [nKeyShards]sync.Mutex

	// rootMu serializes root growth (and first-root creation): the check
	// "is this node still the root?" and the swap to a taller root must be
	// atomic. It is never held together with a tree latch.
	// lockcheck:level 35 stegdb/rootMu
	rootMu sync.Mutex
}

// nKeyShards is the Put/Delete key striping factor.
const nKeyShards = 64

// MaxEntry bounds key+value length, so no record is longer than 10+MaxEntry
// bytes (a separator with a MaxEntry-byte key) and no high key longer than
// MaxEntry. editPage.split cuts after the record that reaches half of the
// record bytes, which keeps both halves sound (TestSplitBounds computes
// the bounds from the constants): each half fits its page, and an
// over-full page holds more than PageSize-nodeHdr-8-MaxEntry = 3306 record
// bytes, over four longest records, so at least two records lie right of
// the cut. An internal page with fewer than 3 separators is never over-full.
const MaxEntry = 768

// A page is the header, the high key, and nkeys records sorted by key:
// leaf entries [klen u16][vlen u16][key][val], or, after an internal
// page's children[0] (u64), separators [klen u16][key][child u64], each
// child the subtree from its key up. The bytes past the last record are
// zero.
const (
	nodeHdr      = 14 // type(1) + level(1) + nkeys(2) + right(8) + hklen(2)
	nodeLeaf     = 1
	nodeInternal = 2
)

// NewBTree opens the tree rooted in the pager's meta (creating an empty
// tree if none exists).
func NewBTree(pg *Pager) *BTree { return &BTree{pg: pg, latches: newTreeLatches()} }

func (t *BTree) root() int64 { return t.pg.metaField(metaBTreeRoot) }

func (t *BTree) setRoot(id int64) { t.pg.setMetaField(metaBTreeRoot, id) }

// --- per-page tree latches ----------------------------------------------------

// treeLatches hands out one exclusive latch per tree page, so structural
// writers on distinct pages proceed in parallel. Entries are
// reference-counted and reclaimed when the last holder releases, keeping
// the table proportional to the number of pages being written, not to the
// tree size. Writers hold at most two latches at once, always acquiring
// rightward (latch coupling while moving right), so the same-class nesting
// can never cycle.
type treeLatches struct {
	// mu is deliberately unleveled: it guards only the map and freelist, is
	// held for a few map operations, and never wraps another acquisition.
	mu sync.Mutex
	// lockcheck:guardedby mu
	m map[int64]*treeLatch
	// lockcheck:guardedby mu
	free []*treeLatch
}

// treeLatchFreelistCap bounds the reclaimed-entry freelist.
const treeLatchFreelistCap = 64

type treeLatch struct {
	refs int
	// lockcheck:level 20 stegdb/treelatch multi
	mu sync.Mutex
}

func newTreeLatches() *treeLatches {
	return &treeLatches{m: make(map[int64]*treeLatch)}
}

// lock latches tree page id exclusively. Callers may hold one other tree
// latch — only ever the left sibling's (rightward coupling).
// lockcheck:acquire stegdb/treelatch
func (t *treeLatches) lock(id int64) {
	t.mu.Lock()
	l, ok := t.m[id]
	if !ok {
		if n := len(t.free); n > 0 {
			l = t.free[n-1]
			t.free[n-1] = nil
			t.free = t.free[:n-1]
		} else {
			l = &treeLatch{}
		}
		t.m[id] = l
	}
	l.refs++
	t.mu.Unlock()
	l.mu.Lock()
}

// unlock releases the latch on page id, reclaiming the entry when the last
// holder is gone (waiters take their reference before blocking, so zero
// references means quiescent).
// lockcheck:release stegdb/treelatch
func (t *treeLatches) unlock(id int64) {
	t.mu.Lock()
	l := t.m[id]
	t.mu.Unlock()
	l.mu.Unlock()
	t.mu.Lock()
	l.refs--
	if l.refs == 0 {
		delete(t.m, id)
		if len(t.free) < treeLatchFreelistCap {
			t.free = append(t.free, l)
		}
	}
	t.mu.Unlock()
}

// --- page format --------------------------------------------------------------

var errCorruptPage = errors.New("stegdb: corrupt page entry")

// kvCursor walks the remaining entries of a page in place: leaf entries
// [klen u16][vlen u16][key][val], or, with sep set, internal
// separators [klen u16][key][child u64], whose val is the child pointer.
type kvCursor struct {
	buf  []byte
	off  int
	left int
	sep  bool
}

// next returns the following entry (ok false once the page is exhausted).
// key and val alias the page, capacity-capped so an append never writes
// into it.
func (c *kvCursor) next() (key, val []byte, ok bool, err error) {
	if c.left <= 0 {
		return nil, nil, false, nil
	}
	hdr, vl := 4, 8
	if c.sep {
		hdr = 2
	} else if c.off+4 <= len(c.buf) {
		vl = int(binary.BigEndian.Uint16(c.buf[c.off+2:]))
	}
	if c.off+hdr <= len(c.buf) {
		k := c.off + hdr
		v := k + int(binary.BigEndian.Uint16(c.buf[c.off:]))
		if e := v + vl; e <= len(c.buf) {
			c.off, c.left = e, c.left-1
			return c.buf[k:v:v], c.buf[v:e:e], true, nil
		}
	}
	c.left = 0
	return nil, nil, false, errCorruptPage
}

// seek advances past every entry whose key sorts before key, returning the
// first remaining entry (ok false when none is left).
func (c *kvCursor) seek(key []byte) (k, v []byte, ok bool, err error) {
	for {
		if k, v, ok, err = c.next(); !ok || bytes.Compare(k, key) >= 0 {
			return k, v, ok, err
		}
	}
}

// nodeView is a B-link page read in place: the one parser of the page
// format. Read paths walk the latched frame with it; writers and the
// iterator parse their private copies with it. Bounds are checked against
// the page length, so a corrupt page is an error, never a panic.
type nodeView struct {
	leaf    bool
	level   uint8
	right   int64
	high    []byte   // aliases the page; nil = +inf
	entries kvCursor // leaf entries, or separators after children[0]
}

func parseNode(buf []byte) (nodeView, error) {
	if len(buf) < nodeHdr {
		return nodeView{}, fmt.Errorf("stegdb: node page too short (%d bytes)", len(buf))
	}
	first := nodeHdr + int(binary.BigEndian.Uint16(buf[12:]))
	if first > len(buf) {
		return nodeView{}, fmt.Errorf("stegdb: corrupt node header (high key)")
	}
	v := nodeView{leaf: buf[0] == nodeLeaf, level: buf[1], right: int64(binary.BigEndian.Uint64(buf[4:]))}
	if first > nodeHdr {
		v.high = buf[nodeHdr:first:first]
	}
	if !v.leaf {
		if first += 8; buf[0] != nodeInternal {
			return nodeView{}, fmt.Errorf("stegdb: unknown node type %d", buf[0])
		} else if first > len(buf) {
			return nodeView{}, fmt.Errorf("stegdb: corrupt internal page")
		}
	}
	v.entries = kvCursor{buf: buf, off: first, left: int(binary.BigEndian.Uint16(buf[2:])), sep: !v.leaf}
	return v, nil
}

// readNode read-latches page id as snapshot s sees it (nil: the live
// page) and parses it in place. v aliases the frame until the caller
// hands e to pg.readUnlatch; on error nothing is held.
//
// lockcheck:acquire stegdb/latch shared
func readNode(pg *Pager, s *Snapshot, id int64) (v nodeView, e *pageEntry, err error) {
	img, e, err := pg.readLatch(id, s)
	if err == nil {
		if v, err = parseNode(img); err != nil {
			pg.readUnlatch(e)
		}
	}
	return v, e, err
}

// child0 is an internal node's leftmost child.
func (v *nodeView) child0() int64 {
	return int64(binary.BigEndian.Uint64(v.entries.buf[v.entries.off-8:]))
}

// child returns the child of an internal node owning key: the child right
// of the last separator <= key, read on the encoded page. A nil key
// picks children[0].
func (v *nodeView) child(key []byte) (int64, error) {
	id, c := v.child0(), v.entries
	for key != nil {
		k, ptr, ok, err := c.next()
		if !ok || bytes.Compare(key, k) < 0 {
			return id, err
		}
		id = int64(binary.BigEndian.Uint64(ptr))
	}
	return id, nil
}

// covers reports whether key falls below a node's high key (move right
// otherwise).
func covers(high, key []byte) bool { return high == nil || bytes.Compare(key, high) < 0 }

// --- reads --------------------------------------------------------------------

// getFrom looks key up in place in the tree rooted at id as snapshot s
// sees it (nil: the live tree), copying out only the value it returns.
func getFrom(pg *Pager, s *Snapshot, id int64, key []byte) ([]byte, bool, error) {
	if id == nilPage {
		return nil, false, nil
	}
	_, leaf, e, err := seekLevel(pg, s, id, key, 0)
	if err != nil {
		return nil, false, err
	}
	defer pg.readUnlatch(e)
	k, val, ok, err := leaf.entries.seek(key)
	if !ok || err != nil || !bytes.Equal(k, key) {
		return nil, false, err
	}
	return append([]byte(nil), val...), true, nil
}

// seekLevel descends in place from page id to the node at level (0 =
// leaf) owning key (nil: the leftmost), moving right past splits. It
// latches one page at a time and returns the node it lands on still
// latched, for the caller to hand e to pg.readUnlatch; on error nothing
// is held.
//
// lockcheck:acquire stegdb/latch shared
func seekLevel(pg *Pager, s *Snapshot, id int64, key []byte, level uint8) (int64, nodeView, *pageEntry, error) {
	for {
		v, e, err := readNode(pg, s, id)
		switch {
		case err != nil:
			return 0, v, nil, err
		case !covers(v.high, key):
			id = v.right
		case v.level == level && v.leaf == (level == 0):
			return id, v, e, nil
		case v.leaf || v.level < level:
			err = fmt.Errorf("stegdb: btree level %d unreachable from root", level)
		default:
			id, err = v.child(key)
		}
		pg.readUnlatch(e)
		if err != nil {
			return 0, nodeView{}, nil, err
		}
	}
}

// treeIter is a pull iterator over one snapshot's [lo, hi) range: descend
// toward lo, then follow the leaf chain rightward until hi. It walks a
// copy of each leaf's in-range rows in a pooled image, not the frame:
// Range hands key() and val() to a callback that may write to the same
// table, so no latch may be held across it. Both Range methods k-way-merge
// one per snapshot (mergeRange). done() true means exhausted, and the
// image is back in the pool; key()/val() alias the image, valid only until
// next().
type treeIter struct {
	s     *Snapshot
	p     *editPage // nil once done
	right int64     // the next leaf to visit; nilPage once hi was reached
	c     kvCursor
	k, v  []byte
	hi    []byte
}

// seek positions it at the first key >= lo of the snapshot.
func (it *treeIter) seek(s *Snapshot, lo, hi []byte) error {
	if *it = (treeIter{s: s, hi: hi}); s.btreeRoot == nilPage {
		return nil
	}
	it.p = editPool.Get().(*editPage)
	_, leaf, e, err := seekLevel(s.pg, s, s.btreeRoot, lo, 0)
	if err != nil {
		it.close()
		return err
	}
	it.keep(leaf, e, lo)
	return it.settle(lo)
}

// keep copies the rows of the latched leaf v with lo <= key < hi into the
// iterator's image, at their page offsets, unlatches the leaf and walks
// on in the copy. It scans the frame in place to find that span, so a
// Range pays for the rows it serves, not for the page. A key >= hi ends
// the iterator at this leaf: no right sibling is visited. A corrupt entry
// keeps the rest of the page from the span's start, so the copy's cursor
// meets it where the frame's did and settle reports it.
//
// lockcheck:release stegdb/latch shared
func (it *treeIter) keep(v nodeView, e *pageEntry, lo []byte) {
	from, c, rows := v.entries, v.entries, 0
	end, right := from.off, v.right
scan:
	for {
		k, _, ok, err := c.next()
		switch {
		case err != nil:
			end, rows = len(c.buf), from.left
			break scan
		case !ok:
			break scan
		case bytes.Compare(k, lo) < 0:
			from, end = c, c.off
		case it.hi != nil && bytes.Compare(k, it.hi) >= 0:
			right = nilPage
			break scan
		default:
			end, rows = c.off, rows+1
		}
	}
	copy(it.p.buf[from.off:end], v.entries.buf[from.off:end])
	it.s.pg.readUnlatch(e)
	it.right, it.c = right, from
	it.c.buf, it.c.left = it.p.buf[:len(v.entries.buf)], rows
}

// settle moves to the next kept row, crossing to right siblings (kept
// from lo on) past exhausted leaves. It closes the iterator once the rows
// in range run out, at the end of the leaf chain and on error.
func (it *treeIter) settle(lo []byte) error {
	for {
		k, v, ok, err := it.c.next()
		switch {
		case ok:
			it.k, it.v = k, v
			return nil
		case err != nil || it.right == nilPage:
			it.close()
			return err
		}
		leaf, e, err := readNode(it.s.pg, it.s, it.right)
		if err != nil {
			it.close()
			return err
		}
		it.keep(leaf, e, lo)
	}
}

// close returns the image to the pool; the iterator is done afterwards.
func (it *treeIter) close() {
	if it.p != nil {
		editPool.Put(it.p)
	}
	*it = treeIter{}
}

func (it *treeIter) done() bool  { return it.p == nil }
func (it *treeIter) key() []byte { return it.k }
func (it *treeIter) val() []byte { return it.v }

// next advances to the following key.
func (it *treeIter) next() error { return it.settle(nil) }

// --- operations ----------------------------------------------------------------

// Get returns the value stored under key, or (nil, false). The read is
// latch-free: it descends the live tree moving right past in-flight splits,
// never blocking behind a writer.
func (t *BTree) Get(key []byte) ([]byte, bool, error) {
	return getFrom(t.pg, nil, t.root(), key)
}

// shardFor hashes the key (FNV-1a) onto a shard lock.
//
// lockcheck:returns stegdb/shard
func (t *BTree) shardFor(key []byte) *sync.Mutex {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return &t.shards[h%nKeyShards]
}

// Put inserts or replaces key -> val.
//
// Failure atomicity: the leaf store is the commit point. Every error before
// it leaves the tree untouched; an error after it (a failed ancestor
// separator insert) triggers an exact undo of the leaf change before the
// error returns, so a failed Put always leaves the table at its prior
// state. Completed splits are kept either way — a B-link tree is consistent
// with or without the parent pointer, since searches reach the new sibling
// through the right link. The undo restores the row this Put replaced; the
// key's shard, held for the whole Put, keeps any other Put or Delete of the
// key from landing in between.
func (t *BTree) Put(key, val []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("stegdb: empty key")
	}
	if len(key)+len(val) > MaxEntry {
		return fmt.Errorf("stegdb: entry %d bytes exceeds max %d", len(key)+len(val), MaxEntry)
	}
	sh := t.shardFor(key)
	sh.Lock()
	defer sh.Unlock()
	if err := t.ensureRoot(); err != nil {
		return err
	}
	id, p, err := t.lockOwner(key, 0)
	if err != nil {
		return err
	}
	off, old := p.find(key)
	var prev []byte // the value replaced, kept only for a splitting Put's undo
	rows := int64(1)
	if old > 0 {
		vlen := int(binary.BigEndian.Uint16(p.buf[off+2:]))
		if rows = 0; p.end-old+4+len(key)+len(val) > PageSize {
			prev = append([]byte{}, p.buf[off+old-vlen:off+old]...)
		}
	}
	p.setLeaf(off, old, key, val)
	sep, rightID, level, err := t.splitStore(id, p, rows)
	if err != nil || sep == nil {
		return err
	}
	if err := t.postSep(sep, rightID, level); err != nil {
		if uerr := t.undoLeafChange(key, prev); uerr != nil {
			return errors.Join(err, fmt.Errorf("stegdb: put rollback failed: %w", uerr))
		}
		return err
	}
	return nil
}

// ensureRoot creates an empty leaf root under rootMu if the tree is empty.
func (t *BTree) ensureRoot() error {
	if t.root() != nilPage {
		return nil
	}
	t.rootMu.Lock()
	defer t.rootMu.Unlock()
	if t.root() != nilPage {
		return nil
	}
	id, err := t.pg.AllocPage()
	if err != nil {
		return err
	}
	leaf := make([]byte, PageSize)
	leaf[0] = nodeLeaf
	if err := t.pg.writePage(id, leaf, 0); err != nil {
		return err
	}
	t.setRoot(id)
	return nil
}

// lockOwner latches the node at level that currently owns key: it
// descends latch-free from the root, latches the node it lands on,
// re-reads it into a private image, and moves right (latch coupling) while
// key is at or beyond the node's high key — nodes only ever shed range to
// the right. On success the caller holds the latch on the returned id and
// the image, which release gives back; on error no latch is held.
// lockcheck:acquire stegdb/treelatch
func (t *BTree) lockOwner(key []byte, level uint8) (int64, *editPage, error) {
	id, _, e, err := seekLevel(t.pg, nil, t.root(), key, level)
	if err != nil {
		return 0, nil, err
	}
	t.pg.readUnlatch(e)
	p := editPool.Get().(*editPage)
	t.latches.lock(id)
	for {
		img, e, err := t.pg.readLatch(id, nil)
		var v nodeView
		if err == nil {
			v, err = p.read(img)
			t.pg.readUnlatch(e)
		}
		if err != nil {
			t.release(id, p)
			return 0, nil, err
		}
		if covers(v.high, key) {
			return id, p, nil
		}
		next := v.right
		t.latches.lock(next)
		t.latches.unlock(id)
		id = next
	}
}

// release unlatches page id and returns its image to the pool.
// lockcheck:release stegdb/treelatch
func (t *BTree) release(id int64, p *editPage) {
	t.latches.unlock(id)
	editPool.Put(p)
}

// write stores image p as page id, adding rows to the row counter in the
// same step (+1 or -1 for a leaf write that inserts or removes a key, else
// 0): the pager applies both at one snapshot epoch, so no snapshot or
// commit cut sees one without the other.
func (t *BTree) write(id int64, p *editPage, rows int64) error {
	if p.end > PageSize {
		return fmt.Errorf("stegdb: %d-byte node overflows its page", p.end)
	}
	return t.pg.writePage(id, p.buf[:PageSize], rows)
}

// splitStore writes the edited image p of latched page id and releases
// the page; an over-full image is first cut in two (editPage.split), and
// the separator, the new right sibling and their level are returned for
// postSep (sep is nil when p fits). Write order is the B-link commit
// protocol: the new right sibling is stored first (it is unreachable until
// the left half's right pointer lands), then the shrunken left half — the
// moment the left store succeeds the split is committed and every key
// stays reachable through the right link. An error before the left store
// leaves the tree unchanged (at worst one leaked free page).
// lockcheck:release stegdb/treelatch
func (t *BTree) splitStore(id int64, p *editPage, rows int64) (sep []byte, rightID int64, level uint8, err error) {
	defer t.release(id, p)
	if p.end <= PageSize {
		return nil, nilPage, 0, t.write(id, p, rows)
	}
	if rightID, err = t.pg.AllocPage(); err != nil {
		return nil, nilPage, 0, err
	}
	r := editPool.Get().(*editPage)
	defer editPool.Put(r)
	sep = p.split(r, rightID)
	if err := t.write(rightID, r, 0); err != nil {
		return nil, nilPage, 0, err
	}
	if err := t.write(id, p, rows); err != nil {
		return nil, nilPage, 0, err
	}
	return sep, rightID, p.buf[1], nil
}

// postSep inserts the separator sep of a split at level, which points at
// the new right sibling rightID, into the level above, splitting that
// parent in turn when it overflows. Each parent is found afresh from the
// current root, so the ascent needs no record of the descent; a root still
// at level grows first (growRoot). A separator already in the parent came
// with a root grown over the level's chain and is skipped: a node's low
// bound never changes, so it already points at rightID.
func (t *BTree) postSep(sep []byte, rightID int64, level uint8) error {
	for sep != nil {
		if err := t.growRoot(level); err != nil {
			return err
		}
		id, p, err := t.lockOwner(sep, level+1)
		if err != nil {
			return err
		}
		off, found := p.find(sep)
		if found > 0 {
			t.release(id, p)
			return nil
		}
		putSep(p.splice(off, 0, 10+len(sep)), sep, rightID)
		if sep, rightID, level, err = t.splitStore(id, p, 0); err != nil {
			return err
		}
	}
	return nil
}

// growRoot makes the tree one level taller if its root is still at level
// below. The new root's children are the root's whole level chain, its
// separators their high keys: a split root gives the classic two-child
// root, and a longer chain is what a failed growth or two racing first
// splits leave. The chain is cut where the new root would overflow its
// page: like a node whose post failed, a node past the cut has no
// downlink but stays reachable by its left neighbour's right link.
func (t *BTree) growRoot(below uint8) error {
	t.rootMu.Lock()
	defer t.rootMu.Unlock()
	id := t.root()
	v, e, err := readNode(t.pg, nil, id)
	if err != nil {
		return err
	}
	if v.level != below {
		t.pg.readUnlatch(e)
		return nil
	}
	root := make([]byte, PageSize)
	root[0], root[1] = nodeInternal, below+1
	binary.BigEndian.PutUint64(root[nodeHdr:], uint64(id))
	off, n := nodeHdr+8, 0
	for ; v.right != nilPage && off+10+len(v.high) <= PageSize; n++ {
		off += putSep(root[off:], v.high, v.right)
		next := v.right
		t.pg.readUnlatch(e)
		if v, e, err = readNode(t.pg, nil, next); err != nil {
			return err
		}
	}
	t.pg.readUnlatch(e)
	binary.BigEndian.PutUint16(root[2:], uint16(n))
	newRoot, err := t.pg.AllocPage()
	if err != nil {
		return err
	}
	if err := t.pg.writePage(newRoot, root, 0); err != nil {
		return err
	}
	t.setRoot(newRoot)
	return nil
}

// undoLeafChange reverses a committed leaf mutation after a later step of
// the same Put failed, restoring the exact prior row state: the value prev
// the Put replaced, or no row when prev is nil.
func (t *BTree) undoLeafChange(key, prev []byte) error {
	id, p, err := t.lockOwner(key, 0)
	if err != nil {
		return err
	}
	defer t.release(id, p)
	off, old := p.find(key)
	switch {
	case old == 0:
		return fmt.Errorf("stegdb: undo lost key %q", key)
	case prev != nil:
		p.setLeaf(off, old, key, prev)
		return t.write(id, p, 0)
	}
	p.splice(off, old, 0)
	return t.write(id, p, -1)
}

// Delete removes key if present, reporting whether it was found. Pages are
// not rebalanced or freed; an emptied leaf stays in place so concurrent
// descents and snapshots never chase a link into a recycled page. A failed
// Delete reports (false, err) and leaves the tree untouched: the single
// leaf store is its only mutation.
func (t *BTree) Delete(key []byte) (bool, error) {
	sh := t.shardFor(key)
	sh.Lock()
	defer sh.Unlock()
	if t.root() == nilPage {
		return false, nil
	}
	id, p, err := t.lockOwner(key, 0)
	if err != nil {
		return false, err
	}
	defer t.release(id, p)
	off, old := p.find(key)
	if old == 0 {
		return false, nil
	}
	p.splice(off, old, 0)
	if err := t.write(id, p, -1); err != nil {
		return false, err
	}
	return true, nil
}

// --- writers' page images -----------------------------------------------------

// editPage is a writer's private copy of a latched page, which it edits in
// place and writes back whole. The buffer has room past PageSize for the
// largest record (a separator with a MaxEntry-byte key), so an edit can
// leave an over-full image for splitStore to cut in two. The bytes past
// end are zero, as on a written page.
type editPage struct {
	buf [PageSize + 10 + MaxEntry]byte
	end int // offset past the last record
}

// editPool recycles writers' page images, so an edit that fits its page
// allocates nothing.
var editPool = sync.Pool{New: func() any { return new(editPage) }}

// read copies the page image img into p, checking that every record
// parses.
func (p *editPage) read(img []byte) (nodeView, error) {
	v, err := parseNode(p.buf[:copy(p.buf[:], img)])
	if err != nil {
		return v, err
	}
	c := v.entries
	for {
		if _, _, ok, err := c.next(); err != nil {
			return v, err
		} else if !ok {
			break
		}
	}
	p.end = c.off
	clear(p.buf[p.end:])
	return v, nil
}

// records walks p's records in place.
func (p *editPage) records() kvCursor {
	v, _ := parseNode(p.buf[:p.end]) // checked by read, and kept valid by every edit
	return v.entries
}

// find returns the offset where key's record is or would go, and the
// length of the record there if it holds key (0 when key is absent).
func (p *editPage) find(key []byte) (off, n int) {
	c := p.records()
	for {
		off = c.off
		k, _, ok, _ := c.next()
		cmp := bytes.Compare(k, key)
		if !ok || cmp > 0 {
			return off, 0
		} else if cmp == 0 {
			return off, c.off - off
		}
	}
}

// splice replaces the old-byte record at off (0: none) with room for an
// n-byte one (0: none), which it returns for the caller to fill. It moves
// the tail, zeroes the bytes it frees and keeps nkeys the record count.
func (p *editPage) splice(off, old, n int) []byte {
	end := p.end + n - old
	copy(p.buf[off+n:end], p.buf[off+old:p.end])
	if end < p.end {
		clear(p.buf[end:p.end])
	}
	p.end = end
	nkeys := binary.BigEndian.Uint16(p.buf[2:])
	if old == 0 {
		nkeys++
	}
	if n == 0 {
		nkeys--
	}
	binary.BigEndian.PutUint16(p.buf[2:], nkeys)
	return p.buf[off : off+n]
}

// setLeaf puts the leaf record of key and val in place of the old-byte
// record at off.
func (p *editPage) setLeaf(off, old int, key, val []byte) {
	rec := p.splice(off, old, 4+len(key)+len(val))
	binary.BigEndian.PutUint16(rec, uint16(len(key)))
	binary.BigEndian.PutUint16(rec[2:], uint16(len(val)))
	copy(rec[4+copy(rec[4:], key):], val)
}

// putSep writes the separator record of key and child at rec, returning
// its length.
func putSep(rec, key []byte, child int64) int {
	binary.BigEndian.PutUint16(rec, uint16(len(key)))
	n := 2 + copy(rec[2:], key)
	binary.BigEndian.PutUint64(rec[n:], uint64(child))
	return n + 8
}

// split cuts the over-full image p in two by record byte lengths. The cut
// falls after the first record that reaches half of the record bytes,
// which leaves at least two records right of it (see MaxEntry). A leaf's
// right half starts with the record at the cut,
// whose key is the separator; an internal page promotes that record's key
// and makes its child the right half's children[0]. The right half, built
// in r, takes p's high key and right link; p keeps the left half, with the
// returned separator as high key and rightID as right link.
func (p *editPage) split(r *editPage, rightID int64) []byte {
	leaf, n := p.buf[0] == nodeLeaf, int(binary.BigEndian.Uint16(p.buf[2:]))
	c := p.records()
	first, mid := c.off, 0
	for ; (c.off-first)*2 < p.end-first; mid++ {
		c.next()
	}
	off := c.off
	k, _, _, _ := c.next()
	sep := bytes.Clone(k)
	from, right := off, n-mid
	if !leaf {
		from, right = c.off-8, n-mid-1
	}
	hi := nodeHdr + int(binary.BigEndian.Uint16(p.buf[12:])) // past the high key
	r.end = copy(r.buf[:], p.buf[:hi])
	r.end += copy(r.buf[r.end:], p.buf[from:p.end])
	clear(r.buf[r.end:])
	binary.BigEndian.PutUint16(r.buf[2:], uint16(right))
	end := nodeHdr + len(sep) + copy(p.buf[nodeHdr+len(sep):], p.buf[hi:off])
	copy(p.buf[nodeHdr:], sep)
	clear(p.buf[end:p.end])
	p.end = end
	binary.BigEndian.PutUint16(p.buf[2:], uint16(mid))
	binary.BigEndian.PutUint64(p.buf[4:], uint64(rightID))
	binary.BigEndian.PutUint16(p.buf[12:], uint16(len(sep)))
	return sep
}

// --- checking ------------------------------------------------------------------

// downlink is a child pointer with the low bound its parent gives it: the
// separator left of it, or for an internal node's leftmost child the
// node's own low bound (nil = -inf).
type downlink struct {
	low   []byte
	child int64
}

// checkTree verifies the tree as of snapshot s. Each level, walked once
// from its leftmost node, must be a chain of nodes of that level whose
// high keys strictly ascend and end in +inf, and the downlinks of the
// level above must reach into it in chain order, each at a node whose
// left neighbour's high key is its low bound. A chain node without a
// downlink (a failed post leaves one) is legal. Then every row must be one
// owns accepts, and the row counter must match a full scan.
func checkTree(s *Snapshot, owns func(key []byte) bool) error {
	for level, above := -1, []downlink{{child: s.btreeRoot}}; s.btreeRoot != nilPage; level-- {
		var below []downlink
		var low []byte // the left neighbour's high key
		next := 0      // the first downlink of above not yet met
		for id := above[0].child; id != nilPage; {
			v, e, err := readNode(s.pg, s, id)
			if err != nil {
				return err
			}
			if level < 0 {
				level = int(v.level)
			}
			switch {
			case int(v.level) != level || v.leaf != (level == 0):
				err = fmt.Errorf("stegdb: page %d of level %d is in the level-%d chain", id, v.level, level)
			case (v.high == nil) != (v.right == nilPage):
				err = fmt.Errorf("stegdb: page %d: high key and right link disagree", id)
			case low != nil && v.high != nil && bytes.Compare(v.high, low) <= 0:
				err = fmt.Errorf("stegdb: level %d: high keys out of order at page %d", level, id)
			case next < len(above) && above[next].child == id:
				if !bytes.Equal(above[next].low, low) {
					err = fmt.Errorf("stegdb: level %d: separator %q points at page %d, right of high key %q", level, above[next].low, id, low)
				}
				next++
			}
			if !v.leaf && err == nil {
				below = append(below, downlink{low, v.child0()})
				var k, ptr []byte
				for ok, c := true, v.entries; ok; {
					if k, ptr, ok, err = c.next(); ok {
						below = append(below, downlink{bytes.Clone(k), int64(binary.BigEndian.Uint64(ptr))})
					}
				}
			}
			low, id = bytes.Clone(v.high), v.right
			s.pg.readUnlatch(e)
			if err != nil {
				return err
			}
		}
		if next < len(above) {
			return fmt.Errorf("stegdb: level %d: downlink to page %d is out of chain order or off the chain", level, above[next].child)
		}
		if level == 0 {
			break
		}
		above = below
	}
	var scanned, misrouted int64
	err := mergeRange([]*Snapshot{s}, nil, nil, func(k, v []byte) bool {
		scanned++
		if !owns(k) {
			misrouted++
		}
		return true
	})
	switch {
	case err != nil:
		return err
	case misrouted > 0:
		return fmt.Errorf("stegdb: %d misrouted keys", misrouted)
	case s.rows != scanned:
		return fmt.Errorf("stegdb: row counter %d != scanned rows %d", s.rows, scanned)
	}
	return nil
}
