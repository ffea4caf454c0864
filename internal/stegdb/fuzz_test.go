package stegdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"slices"
	"testing"

	"stegfs/internal/fsapi"
)

// --- the reference page codec -------------------------------------------------

// node is a B-link page decoded into Go slices: the reference the page
// editor (editPage) is checked against, and the form tests inspect and
// hand-edit pages in (loadNode, storeNode).
type node struct {
	leaf  bool
	level uint8  // 0 = leaf, parents count up; the root is the highest level
	right int64  // right sibling at the same level (nilPage = rightmost)
	high  []byte // exclusive upper bound of this node's range (nil = +inf)

	entries  []kv     // leaf: key/value pairs, sorted
	keys     [][]byte // internal: separator keys, sorted
	children []int64  // internal: len(keys)+1 child pages
}

// kv is one leaf entry.
type kv struct {
	key, val []byte
}

func encodeNode(n *node, buf []byte) error {
	if size := n.encodedSize(); size > len(buf) {
		return fmt.Errorf("stegdb: %d-byte node overflows its page", size)
	}
	clear(buf)
	buf[0], buf[1] = nodeInternal, n.level
	count := len(n.keys)
	if n.leaf {
		buf[0], count = nodeLeaf, len(n.entries)
	}
	binary.BigEndian.PutUint16(buf[2:], uint16(count))
	binary.BigEndian.PutUint64(buf[4:], uint64(n.right))
	binary.BigEndian.PutUint16(buf[12:], uint16(len(n.high)))
	off := nodeHdr + copy(buf[nodeHdr:], n.high)
	if n.leaf {
		for _, e := range n.entries {
			binary.BigEndian.PutUint16(buf[off:], uint16(len(e.key)))
			binary.BigEndian.PutUint16(buf[off+2:], uint16(len(e.val)))
			off += 4 + copy(buf[off+4:], e.key)
			off += copy(buf[off:], e.val)
		}
		return nil
	}
	binary.BigEndian.PutUint64(buf[off:], uint64(n.children[0]))
	off += 8
	for i, k := range n.keys {
		binary.BigEndian.PutUint16(buf[off:], uint16(len(k)))
		off += 2 + copy(buf[off+2:], k)
		binary.BigEndian.PutUint64(buf[off:], uint64(n.children[i+1]))
		off += 8
	}
	return nil
}

// decodeNode copies a page out into a node, parsing it with the in-place
// accessors. Keys and values share one private copy of buf.
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

// readPage returns a copy of the live page id of pg.
func readPage(pg *Pager, id int64) ([]byte, error) {
	img, e, err := pg.readLatch(id, nil)
	if err != nil {
		return nil, err
	}
	defer pg.readUnlatch(e)
	return bytes.Clone(img), nil
}

// loadNode reads and decodes page id of tree t.
func loadNode(t *BTree, id int64) (*node, error) {
	buf, err := readPage(t.pg, id)
	if err != nil {
		return nil, err
	}
	return decodeNode(buf)
}

// storeNode encodes n and writes it to page id of tree t.
func storeNode(t *BTree, id int64, n *node) error {
	buf := make([]byte, PageSize)
	if err := encodeNode(n, buf); err != nil {
		return err
	}
	return t.pg.writePage(id, buf, 0)
}

// findEntry returns the position of key among a leaf's sorted entries.
func (n *node) findEntry(key []byte) (int, bool) {
	return slices.BinarySearchFunc(n.entries, key, func(e kv, k []byte) int { return bytes.Compare(e.key, k) })
}

// splitNode is the reference split of an over-full node, as writers split
// decoded nodes: n keeps the left half, with high key sep and right link
// rightID, and the right half takes n's old high key and right link.
func splitNode(n *node, rightID int64) (right *node, sep []byte) {
	right = &node{leaf: n.leaf, level: n.level, right: n.right, high: n.high}
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
	return right, sep
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

// junkEdit returns an image full of junk, as a pooled one may be.
func junkEdit() *editPage {
	p := new(editPage)
	for i := range p.buf {
		p.buf[i] = 0xa5
	}
	return p
}

// editOf returns an editor image of n's encoding.
func editOf(t *testing.T, n *node) *editPage {
	t.Helper()
	page := make([]byte, PageSize)
	if err := encodeNode(n, page); err != nil {
		t.Fatal(err)
	}
	p := junkEdit()
	if _, err := p.read(page); err != nil {
		t.Fatal(err)
	}
	return p
}

// samePage fails the test unless image p holds exactly n's encoding, with
// zeros past it.
func samePage(t *testing.T, what string, n *node, p *editPage) {
	t.Helper()
	want := make([]byte, len(p.buf))
	if err := encodeNode(n, want[:PageSize]); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if p.end != n.encodedSize() || !bytes.Equal(p.buf[:], want) {
		t.Fatalf("%s: the edited image (end %d) is not the reference encoding (%d bytes)", what, p.end, n.encodedSize())
	}
}

// checkEdit compares image p with the reference node n after an edit.
// When n fits its page, p must hold its encoding; otherwise both are split,
// and the halves and separators must agree. It returns the node and image
// to go on editing: the right halves if right is set.
func checkEdit(t *testing.T, n *node, p *editPage, right bool) (*node, *editPage) {
	t.Helper()
	if n.encodedSize() <= PageSize {
		samePage(t, "page", n, p)
		return n, p
	}
	const rightID = 77
	rn, sep := splitNode(n, rightID)
	r := junkEdit()
	if got := p.split(r, rightID); !bytes.Equal(got, sep) {
		t.Fatalf("split separator %q, reference %q", got, sep)
	}
	samePage(t, "left half", n, p)
	samePage(t, "right half", rn, r)
	if right {
		return rn, r
	}
	return n, p
}

// FuzzPageEdit checks the writers' in-place page editor against the
// reference codec. The script drives a leaf and an internal page, three
// bytes an op (the op, a key byte, a value byte): leaf inserts and
// replaces, leaf deletes, and separator inserts, each applied to an
// editPage and to a node. After every op the image must be the node's
// encoding byte for byte; an over-full pair must split into identical
// halves (bit 2 of the op picks the half to go on with). Then a root is
// grown over a leaf chain whose high keys are the leaf's keys, and must be
// the encoding of the root node that chain gives, cut where it would
// overflow its page; the chain's high keys are the keys left in both
// pages.
func FuzzPageEdit(f *testing.F) {
	script := func(n int, op func(i int) (byte, byte, byte)) []byte {
		var s []byte
		for i := range n {
			a, b, c := op(i)
			s = append(s, a, b, c)
		}
		return s
	}
	f.Add([]byte{})
	f.Add([]byte{0, 8, 5, 0, 0, 5, 0, 16, 5, 2, 8, 0, 0, 0, 9, 3, 17, 1, 3, 9, 2, 3, 17, 3})
	f.Add(script(60, func(i int) (byte, byte, byte) { return 0, byte(i * 37), 255 }))                      // leaf splits, going left
	f.Add(script(60, func(i int) (byte, byte, byte) { return 4, byte(i * 37), byte(100 + i) }))            // leaf splits, going right
	f.Add(script(40, func(i int) (byte, byte, byte) { return 3, byte(i*53 + 200), byte(i) }))              // internal splits
	f.Add(script(40, func(i int) (byte, byte, byte) { return 7, byte(i*29 + 128), byte(i) }))              // internal splits, going right
	f.Add(script(90, func(i int) (byte, byte, byte) { return byte(i % 3), byte(i % 24 * 8), 200 }))        // replace, delete, reinsert
	f.Add(script(32, func(i int) (byte, byte, byte) { return byte(i%2) * 3, byte(32 + i/2 + i%2*32), 0 })) // the grown root is cut
	f.Add([]byte{3, 248, 1, 3, 240, 2, 3, 232, 3, 3, 224, 4, 3, 216, 5, 3, 176, 6, 0, 7, 0, 0, 15, 0})     // pages filled to the byte
	f.Fuzz(func(t *testing.T, script []byte) {
		leaf, inner := &node{leaf: true}, &node{level: 1, children: []int64{100}}
		el, ei := editOf(t, leaf), editOf(t, inner)
		for ; len(script) >= 3; script = script[3:] {
			op, kb, vb := script[0], script[1], script[2]
			key := bytes.Repeat([]byte{'a' + kb%8}, 1+int(kb/8)*24)
			off, old := el.find(key)
			i, found := leaf.findEntry(key)
			if op%4 == 3 {
				off, old = ei.find(key)
				i, found = slices.BinarySearchFunc(inner.keys, key, bytes.Compare)
			}
			if found != (old > 0) {
				t.Fatalf("key %q: editor finds it %v, reference %v", key, old > 0, found)
			}
			switch op % 4 {
			case 0, 1:
				val := bytes.Repeat([]byte{vb}, min(int(vb)*3, MaxEntry-len(key)))
				if found {
					leaf.entries[i].val = val
				} else {
					leaf.entries = slices.Insert(leaf.entries, i, kv{key: key, val: val})
				}
				el.setLeaf(off, old, key, val)
			case 2:
				if found {
					leaf.entries = slices.Delete(leaf.entries, i, i+1)
					el.splice(off, old, 0)
				}
			case 3:
				if !found {
					inner.keys = slices.Insert(inner.keys, i, key)
					inner.children = slices.Insert(inner.children, i+1, 200+int64(vb))
					putSep(ei.splice(off, 0, 10+len(key)), key, 200+int64(vb))
				}
				inner, ei = checkEdit(t, inner, ei, op&4 != 0)
				continue
			}
			leaf, el = checkEdit(t, leaf, el, op&4 != 0)
		}
		highs := slices.Clone(inner.keys)
		for _, e := range leaf.entries {
			highs = append(highs, e.key)
		}
		slices.SortFunc(highs, bytes.Compare)
		highs = slices.CompactFunc(highs, bytes.Equal)
		checkGrowRoot(t, highs[:min(len(highs), 100)])
	})
}

// TestSplitBounds computes from PageSize, nodeHdr and MaxEntry the two
// bounds editPage.split relies on, in place of clamping its cut: the
// cut, after the record that reaches half of the record bytes, leaves the
// right half at least two records (so a leaf's right half is not empty and
// each internal half keeps a separator), and both halves fit their pages.
func TestSplitBounds(t *testing.T) {
	longest := 10 + MaxEntry // a separator with a MaxEntry-byte key
	// A half holds at most (total-1)/2 record bytes plus the record that
	// reaches half of total.
	maxHalf := func(total int) int { return (total-1)/2 + longest }
	// An over-full page with a MaxEntry-byte high key holds the fewest
	// record bytes; the right half gets the least of them.
	fewest := PageSize - nodeHdr - 8 - MaxEntry + 1
	if right := fewest - maxHalf(fewest); right <= longest {
		t.Errorf("a split's right half may hold %d record bytes, one record of up to %d", right, longest)
	}
	// An edit adds at most one record to a page that fit, so an over-full
	// page holds at most PageSize+longest-nodeHdr record bytes.
	most := PageSize + longest - nodeHdr
	if half := nodeHdr + 8 + MaxEntry + maxHalf(most); half > PageSize {
		t.Errorf("a split half may need %d bytes, more than the %d-byte page", half, PageSize)
	}
}

// checkGrowRoot builds a leaf chain with high keys highs in a fresh tree, grows a root over it, and checks the root page against
// the reference encoding. The chain starts at the empty leaf root
// ensureRoot writes, which is checked first.
func checkGrowRoot(t *testing.T, highs [][]byte) {
	t.Helper()
	tree := NewBTree(newTestPager(t, &memView{files: map[string][]byte{}}, "g"))
	if err := tree.ensureRoot(); err != nil {
		t.Fatal(err)
	}
	samePageAt(t, "ensureRoot's leaf", tree, &node{leaf: true})
	ids := []int64{tree.root()}
	for range highs {
		id, err := tree.pg.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	want, cut := &node{level: 1, children: ids[:1]}, false
	for i, id := range ids {
		chain := &node{leaf: true}
		if i < len(highs) {
			chain.high, chain.right = highs[i], ids[i+1]
			if cut = cut || want.encodedSize()+10+len(chain.high) > PageSize; !cut {
				want.keys, want.children = append(want.keys, chain.high), append(want.children, chain.right)
			}
		}
		if err := storeNode(tree, id, chain); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.growRoot(0); err != nil {
		t.Fatal(err)
	}
	samePageAt(t, "grown root", tree, want)
}

// samePageAt fails the test unless tree's root page is exactly n's
// encoding.
func samePageAt(t *testing.T, what string, tree *BTree, n *node) {
	t.Helper()
	want := make([]byte, PageSize)
	got, err := readPage(tree.pg, tree.root())
	if err != nil {
		t.Fatal(err)
	}
	if err := encodeNode(n, want); err != nil || !bytes.Equal(got, want) {
		gotNode, _ := decodeNode(got)
		t.Fatalf("%s is %+v, want %+v (err %v)", what, gotNode, n, err)
	}
}

// FuzzNodeInPlace is the differential check of the in-place read path. Each
// input yields two pages: the raw bytes (mostly corrupt), and a valid node
// built from them — sorted, distinct keys cut from the input, as a leaf or
// an internal node. On every page the in-place accessors must never panic,
// and a writer's page read (editPage.read, a full in-place walk) fails
// exactly when decodeNode does. On pages
// with sorted keys, the lookup, child choice and leaf iteration the read
// paths run must match decodeNode followed by a linear scan.
func FuzzNodeInPlace(f *testing.F) {
	f.Add([]byte("\x03abc\x01d\x02ef\x04ghij\x00\x02mn"), []byte("ef"), true)
	f.Add([]byte("\x03abc\x01d\x02ef\x04ghij\x00\x02mn"), []byte("e"), false)
	f.Add([]byte{nodeLeaf, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 'a', 'b'}, []byte("a"), true)
	f.Add([]byte{nodeInternal, 1, 0xff, 0xff}, []byte{}, false)
	f.Add([]byte{nodeLeaf, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 'a', 'b', 0xee, 0xee}, []byte("a"), true) // bytes past the records
	f.Fuzz(func(t *testing.T, data, probe []byte, leaf bool) {
		page := make([]byte, PageSize) // the pager hands the parsers whole pages
		copy(page, data)
		checkNodeInPlace(t, page, probe)
		if valid, ok := nodeFromBytes(data, leaf); ok {
			clear(page)
			if err := encodeNode(valid, page); err == nil {
				checkNodeInPlace(t, page, probe)
			}
		}
	})
}

// nodeFromBytes cuts sorted, distinct keys out of data (each a length byte
// then up to 15 bytes) and builds a leaf, with the next bytes as values,
// or an internal node with arbitrary child pointers.
func nodeFromBytes(data []byte, leaf bool) (*node, bool) {
	var keys [][]byte
	for len(data) > 0 {
		l := min(int(data[0]%16), len(data)-1)
		keys, data = append(keys, data[1:1+l]), data[1+l:]
	}
	slices.SortFunc(keys, bytes.Compare)
	keys = slices.CompactFunc(keys, bytes.Equal)
	if len(keys) < 2 {
		return nil, false
	}
	n := &node{leaf: leaf, right: 7, high: keys[len(keys)-1]}
	keys = keys[:len(keys)-1]
	for i, k := range keys {
		if leaf {
			n.entries = append(n.entries, kv{key: k, val: k[:i%(len(k)+1)]})
		} else {
			n.keys = append(n.keys, k)
		}
	}
	if !leaf {
		n.level = 1
		for i := 0; i <= len(keys); i++ {
			n.children = append(n.children, int64(100+i))
		}
	}
	return n, true
}

func checkNodeInPlace(t *testing.T, page, probe []byte) {
	n, derr := decodeNode(page)
	var p editPage
	v, err := p.read(page)
	if (err != nil) != (derr != nil) {
		t.Fatalf("writer's page read err %v, decodeNode err %v", err, derr)
	}
	if err == nil {
		samePage(t, "writer's image", n, &p) // bytes past the records dropped, as re-encoding drops them
	}
	if err != nil {
		// Corrupt: the partial walks the read paths run must not panic.
		if v, perr := parseNode(page); perr == nil {
			if v.leaf {
				c := v.entries
				c.seek(probe)
			} else {
				v.child(probe)
			}
		}
		return
	}
	if !bytes.Equal(v.high, n.high) || (v.high == nil) != (n.high == nil) || v.right != n.right || v.level != n.level {
		t.Fatalf("header: in place high %q right %d level %d, decoded %q %d %d", v.high, v.right, v.level, n.high, n.right, n.level)
	}
	keys := n.keys
	if n.leaf {
		keys = nil
		for _, e := range n.entries {
			keys = append(keys, e.key)
		}
	}
	if !slices.IsSortedFunc(keys, bytes.Compare) || len(slices.CompactFunc(slices.Clone(keys), bytes.Equal)) != len(keys) {
		return // decodes, but no B-link page is unsorted: nothing to compare
	}
	if !n.leaf {
		got, err := v.child(probe)
		if want := n.children[childIndex(n.keys, probe)]; err != nil || got != want {
			t.Fatalf("child(%q) = %d, %v; linear scan picks %d", probe, got, err, want)
		}
		return
	}
	// Leaf: seek then iterate to the end, against the linear scan.
	i := 0
	for i < len(n.entries) && bytes.Compare(n.entries[i].key, probe) < 0 {
		i++
	}
	c := v.entries
	k, val, ok, err := c.seek(probe)
	for ; i < len(n.entries); i++ {
		if err != nil || !ok || !bytes.Equal(k, n.entries[i].key) || !bytes.Equal(val, n.entries[i].val) {
			t.Fatalf("entry %d after seek(%q): in place %q=%q ok=%v err=%v, decoded %q=%q",
				i, probe, k, val, ok, err, n.entries[i].key, n.entries[i].val)
		}
		k, val, ok, err = c.next()
	}
	if ok || err != nil {
		t.Fatalf("in-place walk past the last entry: ok=%v err=%v", ok, err)
	}
}

// memView is a map-backed View with no volume underneath, so a fuzz
// iteration costs microseconds. Resize refuses sizes past memViewMax, as a
// full volume would.
type memView struct{ files map[string][]byte }

const memViewMax = 1 << 20

func (v *memView) Create(name string, data []byte) error {
	if _, ok := v.files[name]; ok {
		return fsapi.ErrExists
	}
	v.files[name] = append([]byte(nil), data...)
	return nil
}

func (v *memView) ReadAt(name string, p []byte, off int64) (int, error) {
	f, ok := v.files[name]
	if !ok {
		return 0, fsapi.ErrNotFound
	}
	if off >= int64(len(f)) {
		return 0, io.EOF
	}
	if n := copy(p, f[off:]); n < len(p) {
		return n, io.EOF
	}
	return len(p), nil
}

func (v *memView) WriteAt(name string, p []byte, off int64) (int, error) {
	f, ok := v.files[name]
	if !ok {
		return 0, fsapi.ErrNotFound
	}
	if off < 0 || off+int64(len(p)) > int64(len(f)) {
		return 0, fmt.Errorf("write [%d,%d) outside file of %d bytes", off, off+int64(len(p)), len(f))
	}
	return copy(f[off:], p), nil
}

func (v *memView) Resize(name string, size int64) error {
	f, ok := v.files[name]
	if !ok {
		return fsapi.ErrNotFound
	}
	if size > memViewMax {
		return fsapi.ErrNoSpace
	}
	if size <= int64(len(f)) {
		v.files[name] = f[:size]
	} else {
		v.files[name] = append(f, make([]byte, size-int64(len(f)))...)
	}
	return nil
}

func (v *memView) Stat(name string) (fsapi.FileInfo, error) {
	f, ok := v.files[name]
	if !ok {
		return fsapi.FileInfo{}, fsapi.ErrNotFound
	}
	return fsapi.FileInfo{Name: name, Size: int64(len(f))}, nil
}

func (v *memView) Sync() error { return nil }

// groupJournal lays out a journal of members members holding recs, as
// writeJournal does.
func groupJournal(epoch int64, members int, recs []walRecord) []byte {
	j := make([]byte, walHdrEnd)
	for _, r := range recs {
		j = binary.BigEndian.AppendUint32(j, uint32(r.member))
		j = binary.BigEndian.AppendUint64(j, uint64(r.id))
		j = binary.BigEndian.AppendUint32(j, uint32(r.off))
		j = binary.BigEndian.AppendUint32(j, uint32(len(r.data)))
		j = append(j, r.data...)
	}
	copy(j, walMagic)
	binary.BigEndian.PutUint64(j[walHdrEpoch:], uint64(epoch))
	binary.BigEndian.PutUint64(j[walHdrCount:], uint64(len(recs)))
	binary.BigEndian.PutUint64(j[walHdrLen:], uint64(len(j)-walHdrEnd))
	binary.BigEndian.PutUint64(j[walHdrMembers:], uint64(members))
	sealJournal(j)
	return j
}

// sealJournal recomputes a journal's body and header CRCs in place; a body
// shorter than the header claims keeps its old CRC.
func sealJournal(j []byte) {
	if len(j) < walHdrEnd {
		return
	}
	if jlen := binary.BigEndian.Uint64(j[walHdrLen:]); jlen <= uint64(len(j)-walHdrEnd) {
		binary.BigEndian.PutUint64(j[walHdrJCRC:], crc64.Checksum(j[walHdrEnd:walHdrEnd+jlen], walCRCTable))
	}
	binary.BigEndian.PutUint64(j[walHdrHCRC:], crc64.Checksum(j[:walHdrHCRC], walCRCTable))
}

// replayOracle applies a journal found in table's journal file to the
// member files home the way recovery must: every record's bytes at
// id*PageSize+off of its member's file, in journal order, each file grown
// to its highest page first. It parses the journal independently of
// parseJournal and fails the test on a journal no valid replay could come
// from.
func replayOracle(t testing.TB, table string, home map[string][]byte, journal []byte) map[string][]byte {
	t.Helper()
	type rec struct {
		file string
		id   int64
		off  int
		data []byte
	}
	count := int(binary.BigEndian.Uint64(journal[walHdrCount:]))
	var recs []rec
	body := journal[walHdrEnd:]
	for i := 0; i < count; i++ {
		if len(body) < 20 {
			t.Fatalf("record %d of a replayed journal overruns it", i)
		}
		r := rec{file: partName(table, int(binary.BigEndian.Uint32(body)))}
		r.id = int64(binary.BigEndian.Uint64(body[4:]))
		r.off = int(binary.BigEndian.Uint32(body[12:]))
		n := int(binary.BigEndian.Uint32(body[16:]))
		if r.off+n > PageSize || n > len(body)-20 {
			t.Fatalf("record %d of a replayed journal does not fit: [%d,+%d)", i, r.off, n)
		}
		r.data = body[20 : 20+n]
		body = body[20+n:]
		recs = append(recs, r)
	}
	want := map[string][]byte{}
	for name, img := range home {
		want[name] = append([]byte(nil), img...)
	}
	for _, r := range recs {
		f, ok := want[r.file]
		if !ok || r.id < 0 {
			t.Fatalf("replayed a record of page %d of %s", r.id, r.file)
		}
		if end := (r.id + 1) * PageSize; end > int64(len(f)) {
			want[r.file] = append(f, make([]byte, end-int64(len(f)))...)
		}
	}
	for _, r := range recs {
		copy(want[r.file][r.id*PageSize+int64(r.off):], r.data)
	}
	return want
}

// zeroGrown reports whether got is img, possibly followed by zero bytes:
// a file that a replay grew but never wrote.
func zeroGrown(got, img []byte) bool {
	return len(got) >= len(img) && bytes.Equal(got[:len(img)], img) && !slices.ContainsFunc(got[len(img):], func(b byte) bool { return b != 0 })
}

// FuzzRecoverWAL feeds crash recovery arbitrary journals, found where a
// two-partition table keeps its journal. Each is either rejected with
// every member file untouched (or, when recovery fails, only grown by zero
// bytes: a replay pre-grows every file before it writes any), or replayed
// in full: every record's bytes land at id*PageSize+off of its member's
// file, in journal order. A partial replay fails the target. A journal
// whose header names a member count other than the table's is never
// replayed and leaves every member byte-identical. fixCRC re-seals the
// fuzzed header and body CRCs, so the fuzzer also reaches the checks that
// run after them.
func FuzzRecoverWAL(f *testing.F) {
	// A real two-partition table with two commits: the member files as the
	// first left them, which the journals replay into, and the second
	// commit's journal as the seed. The second round rewrites every row
	// and inserts one, so both members have records and one meta page
	// changes.
	const parts = 2
	mv := &memView{files: map[string][]byte{}}
	tab, err := CreatePartitionedTable(mv, "db", parts, false, 0)
	if err != nil {
		f.Fatal(err)
	}
	names := []string{partName("db", 0), partName("db", 1)}
	home := map[string][]byte{}
	for round := 0; round < 2; round++ {
		for _, name := range names {
			home[name] = append([]byte(nil), mv.files[name]...)
		}
		for i := 0; i < 20+round; i++ {
			if err := tab.Put(u64key(i), []byte(fmt.Sprintf("row-%d-%d", i, round))); err != nil {
				f.Fatal(err)
			}
		}
		if err := tab.Sync(); err != nil {
			f.Fatal(err)
		}
	}
	wal := mv.files["db.wal"]
	// Replaying the seed must turn the first commit's member files into the
	// second's.
	for name, img := range replayOracle(f, "db", home, wal) {
		if !bytes.Equal(img, mv.files[name]) {
			f.Fatalf("the seed journal does not replay the first commit's %s into the second's", name)
		}
	}
	valid := wal[:walHdrEnd+binary.BigEndian.Uint64(wal[walHdrLen:])]
	if string(valid[:8]) != walMagic || binary.BigEndian.Uint64(valid[walHdrCount:]) < 2 ||
		binary.BigEndian.Uint64(valid[walHdrMembers:]) != parts {
		f.Fatalf("seed journal %q holds %d records of %d members, want a journal of 2 or more records",
			valid[:8], binary.BigEndian.Uint64(valid[walHdrCount:]), binary.BigEndian.Uint64(valid[walHdrMembers:]))
	}
	recs, err := parseJournal(valid[walHdrEnd:], int(binary.BigEndian.Uint64(valid[walHdrCount:])), parts)
	if err != nil {
		f.Fatal(err)
	}
	var members [parts]int
	meta := false
	for _, r := range recs {
		members[r.member]++
		meta = meta || r.id == 0
	}
	if members[0] == 0 || members[1] == 0 || !meta {
		f.Fatalf("seed journal holds %v records per member (meta page: %v), want records of both and a meta page", members, meta)
	}
	edit := func(j []byte, fn func(j []byte)) []byte {
		j = append([]byte(nil), j...)
		fn(j)
		return j
	}
	f.Add(valid, true)
	f.Add(valid, false)
	f.Add(valid[:walHdrEnd], true)
	f.Add(valid[:len(valid)-1], true) // body shorter than the header claims
	f.Add(edit(valid, func(j []byte) {
		binary.BigEndian.PutUint64(j[walHdrCount:], walMaxRecords)
		binary.BigEndian.PutUint64(j[walHdrLen:], walMaxRecords*walRecHdr)
	}), true)
	f.Add(edit(valid, func(j []byte) { // replay past memViewMax
		binary.BigEndian.PutUint64(j[walHdrEnd+4:], 1<<19)
	}), true)
	f.Add(edit(valid, func(j []byte) { // a range running off its page
		binary.BigEndian.PutUint32(j[walHdrEnd+12:], PageSize-1)
	}), true)
	f.Add(edit(valid, func(j []byte) { // records that do not fill the body
		binary.BigEndian.PutUint64(j[walHdrCount:], 1)
	}), true)
	f.Add(edit(valid, func(j []byte) { // a record naming no member
		binary.BigEndian.PutUint32(j[walHdrEnd:], parts)
	}), true)
	for _, n := range []uint64{0, 1, parts + 1, maxPartitions + 1} { // member counts the table does not have
		f.Add(edit(valid, func(j []byte) { binary.BigEndian.PutUint64(j[walHdrMembers:], n) }), true)
	}
	// A complete commit of a three-member table, found on this two-member
	// one: a record names the third member. It must be refused with no
	// member touched.
	foreign := groupJournal(2, parts+1, append(slices.Clone(recs), walRecord{member: parts, id: 1, data: []byte("third")}))
	v := &memView{files: map[string][]byte{"db.wal": foreign}}
	for name, img := range home {
		v.files[name] = append([]byte(nil), img...)
	}
	if replayed, err := replayJournal(v, "db.wal", names); replayed || err == nil {
		f.Fatalf("a three-member journal on a two-member table: replayed %v, err %v; want a refusal", replayed, err)
	}
	for name, img := range home {
		if !bytes.Equal(v.files[name], img) {
			f.Fatalf("refusing a three-member journal changed %s", name)
		}
	}
	f.Add(foreign, true)
	for _, magic := range []string{"SGWL0002", "SGWL0001"} { // journal formats this version does not replay
		f.Add(edit(valid, func(j []byte) { copy(j, magic) }), true)
	}
	f.Add(edit(valid, func(j []byte) { // a negative page id
		binary.BigEndian.PutUint64(j[walHdrEnd+4:], 1<<63)
	}), true)
	f.Add(edit(valid[:walHdrEnd], func(j []byte) { // a commit of no records
		binary.BigEndian.PutUint64(j[walHdrCount:], 0)
		binary.BigEndian.PutUint64(j[walHdrLen:], 0)
	}), true)
	// A torn header, and the journal file as a commit left it, page-padded.
	f.Add(edit(valid, func(j []byte) { j[walHdrEpoch]++ }), false)
	f.Add(wal, true)
	f.Add(edit(valid, func(j []byte) { // a record's length running past the body
		binary.BigEndian.PutUint32(j[walHdrEnd+16:], 1<<31)
	}), true)
	var p1 []walRecord
	for _, r := range recs {
		if r.member == 1 {
			p1 = append(p1, r)
		}
	}
	f.Add(groupJournal(2, parts, p1), true) // records of one member only
	grow := int64(len(home[names[1]])/PageSize + 3)
	f.Add(groupJournal(2, parts, []walRecord{{member: 1, id: grow, off: 100, data: []byte("past the end")}}), true)
	f.Add([]byte{}, false)

	f.Fuzz(func(t *testing.T, input []byte, fixCRC bool) {
		journal := append([]byte(nil), input...)
		if fixCRC {
			sealJournal(journal)
		}
		v := &memView{files: map[string][]byte{"db.wal": journal}}
		for name, img := range home {
			v.files[name] = append([]byte(nil), img...)
		}
		replayed, err := replayJournal(v, "db.wal", names)
		untouched := true
		for name, img := range home {
			if err != nil {
				// A replay that fails growing a later member may leave
				// the earlier ones grown.
				untouched = untouched && zeroGrown(v.files[name], img)
			} else {
				untouched = untouched && bytes.Equal(v.files[name], img)
			}
		}
		foreign := len(journal) >= walHdrEnd && binary.BigEndian.Uint64(journal[walHdrMembers:]) != parts
		switch {
		case err != nil && !untouched:
			t.Fatalf("recovery failed (%v) after changing a member file", err)
		case !replayed && !untouched:
			t.Fatal("recovery replayed no journal but changed a member file")
		case foreign && replayed:
			t.Fatal("recovery replayed a journal of another member count")
		case foreign:
			for name, img := range home {
				if !bytes.Equal(v.files[name], img) {
					t.Fatalf("refusing a journal of another member count changed %s", name)
				}
			}
			return
		case !replayed:
			return // rejected
		}
		// Replayed: every member must be exactly the full replay.
		for name, img := range replayOracle(t, "db", home, journal) {
			if !bytes.Equal(v.files[name], img) {
				t.Fatalf("%s is neither untouched nor the full replay of the journal", name)
			}
		}
	})
}

// FuzzJournalRange pins changedRange, which decides every byte a commit
// journals and homes: for any base and image, writing img[lo:hi] at lo into
// the base gives the image, the range is tight (its end bytes differ), and
// it is empty exactly when the two are equal.
func FuzzJournalRange(f *testing.F) {
	page := bytes.Repeat([]byte("stegdb page "), 40) // several 64-byte chunks
	f.Add(page, page)
	f.Add(page, append(append([]byte(nil), page[:100]...), make([]byte, len(page)-100)...))
	f.Add([]byte{1, 2, 3}, []byte{1, 9, 3})
	f.Add([]byte{}, []byte{7})
	f.Fuzz(func(t *testing.T, base, img []byte) {
		if len(base) < len(img) {
			base = append(base, make([]byte, len(img)-len(base))...)
		}
		base = base[:len(img)]
		lo, hi := changedRange(base, img)
		if lo < 0 || lo > hi || hi > len(img) {
			t.Fatalf("range [%d,%d) outside a %d-byte page", lo, hi, len(img))
		}
		if (lo == hi) != bytes.Equal(base, img) {
			t.Fatalf("empty range %v, but base and image equal %v", lo == hi, bytes.Equal(base, img))
		}
		if lo < hi && (base[lo] == img[lo] || base[hi-1] == img[hi-1]) {
			t.Fatalf("range [%d,%d) is not tight", lo, hi)
		}
		got := append([]byte(nil), base...)
		copy(got[lo:], img[lo:hi])
		if !bytes.Equal(got, img) {
			t.Fatalf("base with img[%d:%d] written back is not the image", lo, hi)
		}
		if lo, hi := changedRange(nil, img); lo != 0 || hi != len(img) {
			t.Fatalf("no base gave [%d,%d), want the whole page", lo, hi)
		}
	})
}

// childIndex is the linear-scan oracle for nodeView.child: the child slot
// for key is the number of separators <= key.
func childIndex(keys [][]byte, key []byte) int {
	i := 0
	for i < len(keys) && bytes.Compare(key, keys[i]) >= 0 {
		i++
	}
	return i
}
