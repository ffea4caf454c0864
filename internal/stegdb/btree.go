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
//   - Readers are latch-free. Get/Scan move right by high key and never
//     block behind a writer's descent.
//   - Snapshots need no tree lock at all. BeginSnapshot pins an epoch and
//     the meta page atomically; every page pointer a snapshot can follow
//     leads to content written before the pin (split ordering), so splits
//     in flight are invisible to it.
//
// The tree never frees pages: an emptied leaf stays in place (reachable,
// zero entries) so no snapshot or concurrent descent can ever chase a right
// link into a recycled page. Space is reclaimed only by dropping the table.
type BTree struct {
	pg      *Pager
	latches *treeLatches

	// rootMu serializes root growth (and first-root creation): the check
	// "is this node still the root?" and the swap to a taller root must be
	// atomic. It is never held together with a tree latch.
	// lockcheck:level 35 stegdb/rootMu
	rootMu sync.Mutex
}

// MaxEntry bounds key+value length. The bound keeps every split half
// encodable: a post-split node holds at least one max-size entry, a
// separator-length high key and the 22-byte fixed header, and the split
// point can overshoot the byte midpoint by one max-size entry, so the worst
// half is nodeHdr + MaxEntry (high key) + T/2 + (4+MaxEntry) bytes with
// T <= PageSize + (4+MaxEntry); MaxEntry = 768 keeps that under PageSize.
const MaxEntry = 768

const (
	nodeHdr      = 14 // type(1) + level(1) + nkeys(2) + right(8) + hklen(2)
	nodeLeaf     = 1
	nodeInternal = 2
)

// kv is one leaf entry.
type kv struct {
	key, val []byte
}

// node is the in-memory form of a B-link tree page.
type node struct {
	leaf  bool
	level uint8  // 0 = leaf, parents count up; the root is the highest level
	right int64  // right sibling at the same level (nilPage = rightmost)
	high  []byte // exclusive upper bound of this node's range (nil = +inf)

	entries  []kv     // leaf: key/value pairs, sorted
	keys     [][]byte // internal: separator keys, sorted
	children []int64  // internal: len(keys)+1 child pages
}

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

// --- node codec --------------------------------------------------------------

func encodeNode(n *node, buf []byte) error {
	for i := range buf {
		buf[i] = 0
	}
	if n.leaf {
		buf[0] = nodeLeaf
	} else {
		buf[0] = nodeInternal
	}
	buf[1] = n.level
	count := len(n.entries)
	if !n.leaf {
		count = len(n.keys)
	}
	binary.BigEndian.PutUint16(buf[2:], uint16(count))
	binary.BigEndian.PutUint64(buf[4:], uint64(n.right))
	binary.BigEndian.PutUint16(buf[12:], uint16(len(n.high)))
	off := nodeHdr
	if off+len(n.high) > PageSize {
		return fmt.Errorf("stegdb: high key overflow during encode")
	}
	copy(buf[off:], n.high)
	off += len(n.high)
	if n.leaf {
		for _, e := range n.entries {
			need := 4 + len(e.key) + len(e.val)
			if off+need > PageSize {
				return fmt.Errorf("stegdb: leaf overflow during encode (%d entries)", len(n.entries))
			}
			binary.BigEndian.PutUint16(buf[off:], uint16(len(e.key)))
			binary.BigEndian.PutUint16(buf[off+2:], uint16(len(e.val)))
			off += 4
			copy(buf[off:], e.key)
			off += len(e.key)
			copy(buf[off:], e.val)
			off += len(e.val)
		}
		return nil
	}
	if off+8 > PageSize {
		return fmt.Errorf("stegdb: internal overflow during encode")
	}
	binary.BigEndian.PutUint64(buf[off:], uint64(n.children[0]))
	off += 8
	for i, k := range n.keys {
		need := 2 + len(k) + 8
		if off+need > PageSize {
			return fmt.Errorf("stegdb: internal overflow during encode (%d keys)", len(n.keys))
		}
		binary.BigEndian.PutUint16(buf[off:], uint16(len(k)))
		off += 2
		copy(buf[off:], k)
		off += len(k)
		binary.BigEndian.PutUint64(buf[off:], uint64(n.children[i+1]))
		off += 8
	}
	return nil
}

// pagePool recycles the PageSize buffers the read paths walk pages in, so a
// warm Get, descent or Range allocates only what it returns.
var pagePool = sync.Pool{New: func() any { return new([PageSize]byte) }}

var errCorruptPage = errors.New("stegdb: corrupt page entry")

// kvCursor walks the remaining entries of a page in place: leaf and bucket
// entries [klen u16][vlen u16][key][val], or, with sep set, internal
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

// all returns the remaining entries, leaving c where it is.
func (c kvCursor) all() ([]kv, error) {
	out := make([]kv, 0, min(c.left, len(c.buf)/4))
	for {
		k, v, ok, err := c.next()
		if !ok {
			return out, err
		}
		out = append(out, kv{key: k, val: v})
	}
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

// nodeView is a B-link page read in place: the one parser of the node
// format. Read paths walk it without copying; decodeNode copies a page out
// through it for writers. Bounds are checked against the page length, so
// a corrupt page is an error, never a panic.
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

// readNode reads page id into buf and parses it in place.
func readNode(r pageReader, id int64, buf *[PageSize]byte) (nodeView, error) {
	if err := r.ReadPage(id, buf[:]); err != nil {
		return nodeView{}, err
	}
	return parseNode(buf[:])
}

// child0 is an internal node's leftmost child.
func (v *nodeView) child0() int64 {
	return int64(binary.BigEndian.Uint64(v.entries.buf[v.entries.off-8:]))
}

// child returns the child of an internal node owning key: the child right
// of the last separator <= key (childIndex on the encoded page). A nil key
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

// decodeNode copies a page out into the writers' node form, parsing it with
// the in-place accessors. Keys and values share one private copy of buf.
func decodeNode(buf []byte) (*node, error) {
	v, err := parseNode(bytes.Clone(buf))
	if err != nil {
		return nil, err
	}
	n := &node{leaf: v.leaf, level: v.level, right: v.right, high: v.high}
	if n.entries, err = v.entries.all(); err != nil || n.leaf {
		return n, err
	}
	n.keys, n.children = make([][]byte, len(n.entries)), make([]int64, len(n.entries)+1)
	n.children[0] = v.child0()
	for i, e := range n.entries {
		n.keys[i], n.children[i+1] = e.key, int64(binary.BigEndian.Uint64(e.val))
	}
	n.entries = nil
	return n, nil
}

// encodedSize returns the byte size the node needs.
func (n *node) encodedSize() int {
	size := nodeHdr + len(n.high)
	if n.leaf {
		for _, e := range n.entries {
			size += 4 + len(e.key) + len(e.val)
		}
		return size
	}
	size += 8
	for _, k := range n.keys {
		size += 2 + len(k) + 8
	}
	return size
}

// pageReader is the read side shared by the live pager and snapshots, so
// one descent/scan implementation serves both.
type pageReader interface {
	ReadPage(id int64, buf []byte) error
}

// load reads and decodes page id for a writer.
func (t *BTree) load(id int64) (*node, error) {
	buf := pagePool.Get().(*[PageSize]byte)
	defer pagePool.Put(buf)
	if err := t.pg.ReadPage(id, buf[:]); err != nil {
		return nil, err
	}
	return decodeNode(buf[:])
}

// store writes node n to page id. rows is the change the write makes to
// the tree's key count (+1 or -1 for a leaf store that inserts or removes
// a key, else 0); the pager applies it to the row counter atomically with
// the page write, so no snapshot or commit cut sees one without the other.
func (t *BTree) store(id int64, n *node, rows int64) error {
	buf := pagePool.Get().(*[PageSize]byte)
	defer pagePool.Put(buf)
	if err := encodeNode(n, buf[:]); err != nil {
		return err
	}
	return t.pg.writePage(id, buf[:], rows)
}

// covers reports whether key falls below a node's high key (move right
// otherwise).
func covers(high, key []byte) bool { return high == nil || bytes.Compare(key, high) < 0 }

// --- snapshot reads ----------------------------------------------------------

// TreeSnapshot is a point-in-time read-only view of the tree: the root and
// every page are frozen at the snapshot's epoch. Close it when done.
type TreeSnapshot struct {
	s    *Snapshot
	root int64
}

// Snapshot pins the tree at the current instant. No tree lock is needed:
// BeginSnapshot pins the epoch and the meta page atomically, and the
// B-link write ordering (right sibling before left half before parent)
// guarantees every page pointer reachable from the pinned root leads to
// content written before the pin. Reads through the snapshot never block
// writers.
func (t *BTree) Snapshot() *TreeSnapshot {
	s := t.pg.BeginSnapshot()
	return &TreeSnapshot{s: s, root: s.BTreeRoot()}
}

// Close releases the snapshot's pinned page versions.
func (ts *TreeSnapshot) Close() { ts.s.Close() }

// Rows returns the table row counter as of the snapshot.
func (ts *TreeSnapshot) Rows() int64 { return ts.s.RowsAtSnapshot() }

// Get returns the value stored under key as of the snapshot.
func (ts *TreeSnapshot) Get(key []byte) ([]byte, bool, error) {
	return getFrom(ts.s, ts.root, key)
}

// Scan visits every key/value pair in key order as of the snapshot.
func (ts *TreeSnapshot) Scan(fn func(key, val []byte) bool) error {
	return ts.Range(nil, nil, fn)
}

// Range visits pairs with lo <= key < hi in key order as of the snapshot
// (nil bounds are open). The B-link leaf chain makes this a seek plus a
// bounded walk, not a full scan. key and val alias a pooled page buffer:
// they are valid only until fn returns, so fn must copy what it keeps.
func (ts *TreeSnapshot) Range(lo, hi []byte, fn func(key, val []byte) bool) error {
	return mergeRange([]*TreeSnapshot{ts}, lo, hi, fn)
}

// getFrom looks key up in place, copying out only the value it returns.
func getFrom(r pageReader, id int64, key []byte) ([]byte, bool, error) {
	if id == nilPage {
		return nil, false, nil
	}
	buf := pagePool.Get().(*[PageSize]byte)
	defer pagePool.Put(buf)
	_, leaf, err := seekLevel(r, id, key, 0, buf, nil)
	if err != nil {
		return nil, false, err
	}
	k, val, ok, err := leaf.entries.seek(key)
	if !ok || err != nil || !bytes.Equal(k, key) {
		return nil, false, err
	}
	return append([]byte(nil), val...), true, nil
}

// seekLevel descends in place in buf from page id to the node at level
// (0 = leaf) owning key (nil: the leftmost), moving right past splits.
// stack, when non-nil, collects the internal node taken at each level.
func seekLevel(r pageReader, id int64, key []byte, level uint8, buf *[PageSize]byte, stack *[]int64) (int64, nodeView, error) {
	for {
		v, err := readNode(r, id, buf)
		switch {
		case err != nil:
			return 0, v, err
		case !covers(v.high, key):
			id = v.right
		case v.level == level && v.leaf == (level == 0):
			return id, v, nil
		case v.leaf || v.level < level:
			return 0, v, fmt.Errorf("stegdb: btree level %d unreachable from root", level)
		default:
			if stack != nil {
				*stack = append(*stack, id)
			}
			if id, err = v.child(key); err != nil {
				return 0, v, err
			}
		}
	}
}

// treeIter is a pull iterator over one snapshot's [lo, hi) range: descend
// toward lo, then follow the leaf chain rightward until hi, walking each
// leaf in place in a pooled page buffer. Both Range methods k-way-merge one
// per snapshot (mergeRange). done() true means exhausted, and the buffer is
// back in the pool; key()/val() alias the buffer, valid only until next().
type treeIter struct {
	r     pageReader
	buf   *[PageSize]byte // nil once done
	right int64           // the current leaf's right sibling
	c     kvCursor
	k, v  []byte
	hi    []byte
}

// seek positions it at the first key >= lo of the snapshot.
func (it *treeIter) seek(ts *TreeSnapshot, lo, hi []byte) error {
	if *it = (treeIter{r: ts.s, hi: hi}); ts.root == nilPage {
		return nil
	}
	it.buf = pagePool.Get().(*[PageSize]byte)
	_, leaf, err := seekLevel(it.r, ts.root, lo, 0, it.buf, nil)
	if err != nil {
		it.close()
		return err
	}
	it.right, it.c = leaf.right, leaf.entries
	return it.settle(lo)
}

// settle moves to the first entry >= lo, crossing to right siblings past
// exhausted leaves. It closes the iterator at hi, at the end of the leaf
// chain and on error.
func (it *treeIter) settle(lo []byte) error {
	for {
		k, v, ok, err := it.c.seek(lo)
		switch {
		case ok && (it.hi == nil || bytes.Compare(k, it.hi) < 0):
			it.k, it.v = k, v
			return nil
		case ok || err != nil || it.right == nilPage:
			it.close()
			return err
		}
		leaf, err := readNode(it.r, it.right, it.buf)
		if err != nil {
			it.close()
			return err
		}
		it.right, it.c = leaf.right, leaf.entries
	}
}

// close returns the buffer to the pool; the iterator is done afterwards.
func (it *treeIter) close() {
	if it.buf != nil {
		pagePool.Put(it.buf)
	}
	*it = treeIter{}
}

func (it *treeIter) done() bool  { return it.buf == nil }
func (it *treeIter) key() []byte { return it.k }
func (it *treeIter) val() []byte { return it.v }

// next advances to the following key.
func (it *treeIter) next() error { return it.settle(nil) }

// --- operations ----------------------------------------------------------------

// Get returns the value stored under key, or (nil, false). The read is
// latch-free: it descends the live tree moving right past in-flight splits,
// never blocking behind a writer.
func (t *BTree) Get(key []byte) ([]byte, bool, error) {
	return getFrom(t.pg, t.root(), key)
}

// childIndex returns the child slot for key: the number of separators <= key.
func childIndex(keys [][]byte, key []byte) int {
	i := 0
	for i < len(keys) && bytes.Compare(key, keys[i]) >= 0 {
		i++
	}
	return i
}

// Put inserts or replaces key -> val.
func (t *BTree) Put(key, val []byte) error {
	_, _, err := t.PutEx(key, val)
	return err
}

// putResult carries the replaced value out of the leaf apply step.
type putResult struct {
	prev    []byte
	existed bool
}

// PutEx inserts or replaces key -> val and reports the previous value (and
// whether one existed) so callers can undo the operation exactly.
//
// Failure atomicity: the leaf store is the commit point. Every error before
// it leaves the tree untouched; an error after it (a failed ancestor
// separator insert) triggers an exact undo of the leaf change before the
// error returns, so a failed PutEx always leaves the table at its prior
// state. Completed splits are kept either way — a B-link tree is consistent
// with or without the parent pointer, since searches reach the new sibling
// through the right link.
func (t *BTree) PutEx(key, val []byte) (prev []byte, existed bool, err error) {
	if len(key) == 0 {
		return nil, false, fmt.Errorf("stegdb: empty key")
	}
	if len(key)+len(val) > MaxEntry {
		return nil, false, fmt.Errorf("stegdb: entry %d bytes exceeds max %d", len(key)+len(val), MaxEntry)
	}
	rootID, err := t.ensureRoot()
	if err != nil {
		return nil, false, err
	}
	stack, leafID, err := descendToLeaf(t.pg, rootID, key)
	if err != nil {
		return nil, false, err
	}
	id, n, err := t.lockNodeForKey(leafID, key)
	if err != nil {
		t.latches.unlock(id)
		return nil, false, err
	}
	var res putResult
	rows := int64(1)
	pos := 0
	for pos < len(n.entries) && bytes.Compare(n.entries[pos].key, key) < 0 {
		pos++
	}
	if pos < len(n.entries) && bytes.Equal(n.entries[pos].key, key) {
		res.prev = append([]byte(nil), n.entries[pos].val...)
		res.existed = true
		rows = 0
		n.entries[pos].val = val
	} else {
		n.entries = append(n.entries, kv{})
		copy(n.entries[pos+1:], n.entries[pos:])
		n.entries[pos] = kv{key: key, val: val}
	}
	if n.encodedSize() <= PageSize {
		err := t.store(id, n, rows)
		t.latches.unlock(id)
		return res.prev, res.existed, err
	}
	sep, rightID, level, serr := t.splitStore(id, n, rows)
	t.latches.unlock(id)
	if serr != nil {
		return nil, false, serr
	}
	if err := t.insertSepChain(stack, sep, rightID, id, level); err != nil {
		if uerr := t.undoLeafChange(key, res); uerr != nil {
			return nil, false, errors.Join(err, fmt.Errorf("stegdb: put rollback failed: %w", uerr))
		}
		return nil, false, err
	}
	return res.prev, res.existed, nil
}

// ensureRoot returns the root page, creating an empty leaf root under
// rootMu if the tree is empty.
func (t *BTree) ensureRoot() (int64, error) {
	if id := t.root(); id != nilPage {
		return id, nil
	}
	t.rootMu.Lock()
	defer t.rootMu.Unlock()
	if id := t.root(); id != nilPage {
		return id, nil
	}
	id, err := t.pg.AllocPage()
	if err != nil {
		return 0, err
	}
	if err := t.store(id, &node{leaf: true}, 0); err != nil {
		return 0, err
	}
	t.setRoot(id)
	return id, nil
}

// descendToLeaf walks from rootID to the leaf owning key without latches,
// recording one ancestor per level (the rightmost node visited at that
// level) for the ascent after a split. Stale entries are fine: nodes only
// ever shed range to the right, and the ascent re-finds the exact parent by
// moving right under its latch.
func descendToLeaf(r pageReader, rootID int64, key []byte) (stack []int64, leafID int64, err error) {
	buf := pagePool.Get().(*[PageSize]byte)
	defer pagePool.Put(buf)
	leafID, _, err = seekLevel(r, rootID, key, 0, buf, &stack)
	return stack, leafID, err
}

// lockNodeForKey latches the node that currently owns key's range in
// start's level chain: latch start, re-read, and move right (latch
// coupling) while key is at or beyond the node's high key. On success the
// latch on the returned id is held; on error it is too — the caller always
// unlocks the returned id.
// lockcheck:acquire stegdb/treelatch
func (t *BTree) lockNodeForKey(start int64, key []byte) (int64, *node, error) {
	id := start
	t.latches.lock(id)
	for {
		n, err := t.load(id)
		if err != nil {
			return id, nil, err
		}
		if covers(n.high, key) {
			return id, n, nil
		}
		next := n.right
		t.latches.lock(next)
		t.latches.unlock(id)
		id = next
	}
}

// splitStore divides the latched, overflowing node in two. Write order is
// the B-link commit protocol: the new right sibling is stored first (it is
// unreachable until the left half's right pointer lands), then the shrunken
// left half — the moment the left store succeeds the split is committed and
// every key stays reachable through the right link. An error before the
// left store leaves the tree unchanged (at worst one leaked free page).
// The caller holds the node's tree latch.
// lockcheck:holds stegdb/treelatch
func (t *BTree) splitStore(id int64, n *node, rows int64) (sep []byte, rightID int64, level uint8, err error) {
	rightID, err = t.pg.AllocPage()
	if err != nil {
		return nil, nilPage, 0, err
	}
	right := &node{leaf: n.leaf, level: n.level, right: n.right, high: n.high}
	if n.leaf {
		mid := splitPointLeaf(n.entries)
		right.entries = append([]kv(nil), n.entries[mid:]...)
		sep = append([]byte(nil), n.entries[mid].key...)
		n.entries = n.entries[:mid]
	} else {
		mid := splitPointInternal(n.keys)
		sep = append([]byte(nil), n.keys[mid]...)
		right.keys = append([][]byte(nil), n.keys[mid+1:]...)
		right.children = append([]int64(nil), n.children[mid+1:]...)
		n.keys = n.keys[:mid]
		n.children = n.children[:mid+1]
	}
	n.right = rightID
	n.high = sep
	if err := t.store(rightID, right, 0); err != nil {
		return nil, nilPage, 0, err
	}
	if err := t.store(id, n, rows); err != nil {
		return nil, nilPage, 0, err
	}
	return sep, rightID, n.level, nil
}

// insertSepChain walks back up the ancestor stack inserting the separator
// produced by a split, splitting ancestors in turn as needed. When the
// stack runs out the tree grows a new root (or, if another writer grew it
// first, the insert re-descends to the right level).
func (t *BTree) insertSepChain(stack []int64, sep []byte, rightID, leftID int64, level uint8) error {
	for {
		var start int64
		if len(stack) > 0 {
			start = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		} else {
			grown, id, err := t.growOrFindParent(leftID, sep, rightID, level)
			if err != nil || grown {
				return err
			}
			start = id
		}
		id, n, err := t.lockNodeForKey(start, sep)
		if err != nil {
			t.latches.unlock(id)
			return err
		}
		ci := childIndex(n.keys, sep)
		n.keys = append(n.keys, nil)
		copy(n.keys[ci+1:], n.keys[ci:])
		n.keys[ci] = sep
		n.children = append(n.children, nilPage)
		copy(n.children[ci+2:], n.children[ci+1:])
		n.children[ci+1] = rightID
		if n.encodedSize() <= PageSize {
			err := t.store(id, n, 0)
			t.latches.unlock(id)
			return err
		}
		nsep, nright, lvl, err := t.splitStore(id, n, 0)
		t.latches.unlock(id)
		if err != nil {
			return err
		}
		sep, rightID, leftID, level = nsep, nright, id, lvl
	}
}

// growOrFindParent handles a split that exhausted the ancestor stack: if
// the split node is still the root, grow the tree by one level; otherwise
// another writer grew it first and the separator belongs in the (now
// existing) level above — find it.
func (t *BTree) growOrFindParent(leftID int64, sep []byte, rightID int64, level uint8) (grown bool, parent int64, err error) {
	t.rootMu.Lock()
	if t.root() == leftID {
		defer t.rootMu.Unlock()
		newRoot, err := t.pg.AllocPage()
		if err != nil {
			return false, 0, err
		}
		rn := &node{
			level:    level + 1,
			keys:     [][]byte{append([]byte(nil), sep...)},
			children: []int64{leftID, rightID},
		}
		if err := t.store(newRoot, rn, 0); err != nil {
			return false, 0, err
		}
		t.setRoot(newRoot)
		return true, 0, nil
	}
	t.rootMu.Unlock()
	id, err := t.findAtLevel(sep, level+1)
	return false, id, err
}

// findAtLevel descends the live tree to the node owning key at the given
// level (used after a concurrent root growth stole the ascent's target).
func (t *BTree) findAtLevel(key []byte, level uint8) (int64, error) {
	buf := pagePool.Get().(*[PageSize]byte)
	defer pagePool.Put(buf)
	id, _, err := seekLevel(t.pg, t.root(), key, level, buf, nil)
	return id, err
}

// undoLeafChange reverses a committed leaf mutation after a later step of
// the same Put failed, restoring the exact prior row state.
func (t *BTree) undoLeafChange(key []byte, res putResult) error {
	_, leafID, err := descendToLeaf(t.pg, t.root(), key)
	if err != nil {
		return err
	}
	id, n, err := t.lockNodeForKey(leafID, key)
	if err != nil {
		t.latches.unlock(id)
		return err
	}
	defer t.latches.unlock(id)
	for i, e := range n.entries {
		if bytes.Equal(e.key, key) {
			rows := int64(0)
			if res.existed {
				n.entries[i].val = res.prev
			} else {
				n.entries = append(n.entries[:i], n.entries[i+1:]...)
				rows = -1
			}
			return t.store(id, n, rows)
		}
	}
	return fmt.Errorf("stegdb: undo lost key %q", key)
}

// splitPointLeaf finds the entry index closest to half the encoded size.
func splitPointLeaf(entries []kv) int {
	total := 0
	for _, e := range entries {
		total += 4 + len(e.key) + len(e.val)
	}
	acc := 0
	for i, e := range entries {
		acc += 4 + len(e.key) + len(e.val)
		if acc*2 >= total {
			if i+1 >= len(entries) {
				return len(entries) - 1
			}
			return i + 1
		}
	}
	return len(entries) / 2
}

// splitPointInternal picks the promoted-key index balancing the two halves
// by encoded byte size (a count split can overfill one half when key sizes
// are skewed).
func splitPointInternal(keys [][]byte) int {
	if len(keys) < 3 {
		return len(keys) / 2
	}
	total := 0
	for _, k := range keys {
		total += 10 + len(k)
	}
	acc := 0
	for i, k := range keys {
		acc += 10 + len(k)
		if acc*2 >= total {
			m := i + 1
			if m > len(keys)-2 {
				m = len(keys) - 2
			}
			return m
		}
	}
	return len(keys) / 2
}

// Delete removes key if present, reporting whether it was found. Pages are
// not rebalanced or freed; an emptied leaf stays in place so concurrent
// descents and snapshots never chase a link into a recycled page.
func (t *BTree) Delete(key []byte) (bool, error) {
	_, found, err := t.DeleteEx(key)
	return found, err
}

// DeleteEx removes key and reports the removed value, so callers can undo
// the deletion exactly. A failed DeleteEx leaves the tree untouched (the
// single leaf store is the only mutation).
func (t *BTree) DeleteEx(key []byte) (prev []byte, found bool, err error) {
	rootID := t.root()
	if rootID == nilPage {
		return nil, false, nil
	}
	_, leafID, err := descendToLeaf(t.pg, rootID, key)
	if err != nil {
		return nil, false, err
	}
	id, n, err := t.lockNodeForKey(leafID, key)
	if err != nil {
		t.latches.unlock(id)
		return nil, false, err
	}
	defer t.latches.unlock(id)
	for i, e := range n.entries {
		if bytes.Equal(e.key, key) {
			prev = append([]byte(nil), e.val...)
			n.entries = append(n.entries[:i], n.entries[i+1:]...)
			if err := t.store(id, n, -1); err != nil {
				return nil, false, err
			}
			return prev, true, nil
		}
	}
	return nil, false, nil
}

// Scan visits every key/value pair in key order, reading from a snapshot so
// concurrent writers are neither blocked nor observed mid-operation. fn
// returning false stops the scan early; key and val are valid only until
// fn returns.
func (t *BTree) Scan(fn func(key, val []byte) bool) error {
	s := t.Snapshot()
	defer s.Close()
	return s.Scan(fn)
}

// Height returns the tree height (0 = empty).
func (t *BTree) Height() (int, error) {
	s := t.Snapshot()
	defer s.Close()
	if s.root == nilPage {
		return 0, nil
	}
	buf := pagePool.Get().(*[PageSize]byte)
	defer pagePool.Put(buf)
	v, err := readNode(s.s, s.root, buf)
	if err != nil {
		return 0, err
	}
	return int(v.level) + 1, nil
}
