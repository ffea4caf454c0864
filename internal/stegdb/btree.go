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

func decodeNode(buf []byte) (*node, error) {
	n := &node{level: buf[1]}
	count := int(binary.BigEndian.Uint16(buf[2:]))
	n.right = int64(binary.BigEndian.Uint64(buf[4:]))
	hklen := int(binary.BigEndian.Uint16(buf[12:]))
	off := nodeHdr
	if off+hklen > PageSize {
		return nil, fmt.Errorf("stegdb: corrupt node header (high key)")
	}
	if hklen > 0 {
		n.high = append([]byte(nil), buf[off:off+hklen]...)
	}
	off += hklen
	switch buf[0] {
	case nodeLeaf:
		n.leaf = true
		for i := 0; i < count; i++ {
			if off+4 > PageSize {
				return nil, fmt.Errorf("stegdb: corrupt leaf page")
			}
			kl := int(binary.BigEndian.Uint16(buf[off:]))
			vl := int(binary.BigEndian.Uint16(buf[off+2:]))
			off += 4
			if off+kl+vl > PageSize {
				return nil, fmt.Errorf("stegdb: corrupt leaf entry")
			}
			e := kv{
				key: append([]byte(nil), buf[off:off+kl]...),
				val: append([]byte(nil), buf[off+kl:off+kl+vl]...),
			}
			off += kl + vl
			n.entries = append(n.entries, e)
		}
	case nodeInternal:
		if off+8 > PageSize {
			return nil, fmt.Errorf("stegdb: corrupt internal page")
		}
		n.children = append(n.children, int64(binary.BigEndian.Uint64(buf[off:])))
		off += 8
		for i := 0; i < count; i++ {
			if off+2 > PageSize {
				return nil, fmt.Errorf("stegdb: corrupt internal page")
			}
			kl := int(binary.BigEndian.Uint16(buf[off:]))
			off += 2
			if off+kl+8 > PageSize {
				return nil, fmt.Errorf("stegdb: corrupt internal entry")
			}
			n.keys = append(n.keys, append([]byte(nil), buf[off:off+kl]...))
			off += kl
			n.children = append(n.children, int64(binary.BigEndian.Uint64(buf[off:])))
			off += 8
		}
	default:
		return nil, fmt.Errorf("stegdb: unknown node type %d", buf[0])
	}
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

func loadNode(r pageReader, id int64) (*node, error) {
	buf := make([]byte, PageSize)
	if err := r.ReadPage(id, buf); err != nil {
		return nil, err
	}
	return decodeNode(buf)
}

func (t *BTree) load(id int64) (*node, error) { return loadNode(t.pg, id) }

// store writes node n to page id. rows is the change the write makes to
// the tree's key count (+1 or -1 for a leaf store that inserts or removes
// a key, else 0); the pager applies it to the row counter atomically with
// the page write, so no snapshot or commit cut sees one without the other.
func (t *BTree) store(id int64, n *node, rows int64) error {
	buf := make([]byte, PageSize)
	if err := encodeNode(n, buf); err != nil {
		return err
	}
	return t.pg.writePage(id, buf, rows)
}

// covers reports whether key falls inside n's range (move right otherwise).
func (n *node) covers(key []byte) bool {
	return n.high == nil || bytes.Compare(key, n.high) < 0
}

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
// bounded walk, not a full scan.
func (ts *TreeSnapshot) Range(lo, hi []byte, fn func(key, val []byte) bool) error {
	it, err := ts.iter(lo, hi)
	if err != nil {
		return err
	}
	for !it.done() {
		if !fn(it.key(), it.val()) {
			return nil
		}
		if err := it.next(); err != nil {
			return err
		}
	}
	return nil
}

func getFrom(r pageReader, id int64, key []byte) ([]byte, bool, error) {
	for id != nilPage {
		n, err := loadNode(r, id)
		if err != nil {
			return nil, false, err
		}
		if !n.covers(key) {
			id = n.right
			continue
		}
		if n.leaf {
			for _, e := range n.entries {
				if bytes.Equal(e.key, key) {
					return e.val, true, nil
				}
			}
			return nil, false, nil
		}
		id = n.children[childIndex(n.keys, key)]
	}
	return nil, false, nil
}

// treeIter is a pull iterator over one snapshot's [lo, hi) range: descend
// toward lo, then follow the leaf chain rightward until hi. Range loops
// over one; partitioned tables k-way-merge one per partition into a single
// ordered stream. done() true means exhausted; key()/val() are valid only
// while !done().
type treeIter struct {
	r        pageReader
	cur      *node
	idx      int
	hi       []byte
	finished bool
}

// iter positions a new iterator at the first key >= lo of the snapshot.
func (ts *TreeSnapshot) iter(lo, hi []byte) (*treeIter, error) {
	it := &treeIter{r: ts.s, hi: hi}
	if ts.root == nilPage {
		it.finished = true
		return it, nil
	}
	id := ts.root
	for {
		n, err := loadNode(it.r, id)
		if err != nil {
			return nil, err
		}
		if lo != nil && !n.covers(lo) {
			id = n.right
			continue
		}
		if n.leaf {
			it.cur = n
			break
		}
		if lo == nil {
			id = n.children[0]
		} else {
			id = n.children[childIndex(n.keys, lo)]
		}
	}
	for it.idx < len(it.cur.entries) && lo != nil && bytes.Compare(it.cur.entries[it.idx].key, lo) < 0 {
		it.idx++
	}
	return it, it.settle()
}

// settle advances past exhausted leaves and enforces the hi bound.
func (it *treeIter) settle() error {
	for !it.finished {
		if it.idx < len(it.cur.entries) {
			if it.hi != nil && bytes.Compare(it.cur.entries[it.idx].key, it.hi) >= 0 {
				it.finished = true
			}
			return nil
		}
		if it.cur.right == nilPage {
			it.finished = true
			return nil
		}
		n, err := loadNode(it.r, it.cur.right)
		if err != nil {
			return err
		}
		it.cur, it.idx = n, 0
	}
	return nil
}

func (it *treeIter) done() bool  { return it.finished }
func (it *treeIter) key() []byte { return it.cur.entries[it.idx].key }
func (it *treeIter) val() []byte { return it.cur.entries[it.idx].val }

// next advances to the following key.
func (it *treeIter) next() error {
	it.idx++
	return it.settle()
}

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
	id := rootID
	for {
		n, err := loadNode(r, id)
		if err != nil {
			return nil, 0, err
		}
		if !n.covers(key) {
			id = n.right
			continue
		}
		if n.leaf {
			return stack, id, nil
		}
		stack = append(stack, id)
		id = n.children[childIndex(n.keys, key)]
	}
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
		if n.covers(key) {
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
	id := t.root()
	for {
		n, err := t.load(id)
		if err != nil {
			return 0, err
		}
		if !n.covers(key) {
			id = n.right
			continue
		}
		if n.level == level {
			return id, nil
		}
		if n.leaf || n.level < level {
			return 0, fmt.Errorf("stegdb: btree level %d unreachable from root", level)
		}
		id = n.children[childIndex(n.keys, key)]
	}
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
// returning false stops the scan early.
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
	n, err := loadNode(s.s, s.root)
	if err != nil {
		return 0, err
	}
	return int(n.level) + 1, nil
}
