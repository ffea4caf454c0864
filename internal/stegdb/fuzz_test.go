package stegdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"reflect"
	"slices"
	"testing"

	"stegfs/internal/fsapi"
)

// FuzzDecodeBucket drives the bucket-chain codec's corruption paths: an
// adversarially mangled page must never panic the decoder, and anything it
// accepts must survive an encode/decode round trip.
func FuzzDecodeBucket(f *testing.F) {
	valid := make([]byte, PageSize)
	if err := encodeBucket(&bucketPage{
		next:    7,
		entries: []kv{{key: []byte("key-a"), val: []byte("val-a")}, {key: []byte("k"), val: nil}},
	}, valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:bucketHdr])  // header only, zero entries claimed? (count=2, truncated)
	f.Add(valid[:PageSize/2]) // truncated mid-entries
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	lying := make([]byte, PageSize)
	binary.BigEndian.PutUint16(lying[8:], 0xffff) // claims 65535 entries
	f.Add(lying)
	huge := make([]byte, bucketHdr+4)
	binary.BigEndian.PutUint16(huge[8:], 1)
	binary.BigEndian.PutUint16(huge[bucketHdr:], 0xffff) // klen past the page
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		bp, err := decodeBucket(data)
		// The in-place walk every chain lookup runs must agree with the
		// copy-out: the same entries in order, or an error where it errs.
		var walked []kv
		next, c, werr := parseBucket(data)
		if werr == nil {
			walked, werr = c.all()
		}
		if (werr != nil) != (err != nil) {
			t.Fatalf("in-place walk err %v, decodeBucket err %v", werr, err)
		}
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		if next != bp.next || !reflect.DeepEqual(walked, bp.entries) {
			t.Fatalf("in-place walk %d/%v != decoded %d/%v", next, walked, bp.next, bp.entries)
		}
		if bp.size() > len(data) {
			t.Fatalf("accepted bucket claims %d bytes from %d input", bp.size(), len(data))
		}
		if bp.size() > PageSize {
			return // can't re-encode into one page
		}
		buf := make([]byte, PageSize)
		if err := encodeBucket(bp, buf); err != nil {
			t.Fatalf("re-encode of accepted bucket failed: %v", err)
		}
		bp2, err := decodeBucket(buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if bp2.next != bp.next || len(bp2.entries) != len(bp.entries) {
			t.Fatalf("round trip mismatch: %d/%d entries", len(bp2.entries), len(bp.entries))
		}
		for i := range bp.entries {
			if !bytes.Equal(bp.entries[i].key, bp2.entries[i].key) ||
				!bytes.Equal(bp.entries[i].val, bp2.entries[i].val) {
				t.Fatalf("entry %d round trip mismatch", i)
			}
		}
	})
}

// FuzzDecodeNode drives the B-link node codec's corruption paths: a mangled
// tree page must never panic the decoder, and any page it accepts must
// survive an encode/decode round trip.
func FuzzDecodeNode(f *testing.F) {
	for _, n := range []*node{
		{leaf: true, right: 9, high: []byte("m"), entries: []kv{{key: []byte("a"), val: []byte("1")}, {key: []byte("b")}}},
		{level: 1, keys: [][]byte{[]byte("k"), []byte("q")}, children: []int64{3, 4, 5}},
	} {
		buf := make([]byte, PageSize)
		if err := encodeNode(n, buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(buf[:nodeHdr+4]) // truncated mid-entries
	}
	f.Add([]byte{})
	f.Add([]byte{nodeLeaf, 0, 0xff, 0xff})                                   // claims 65535 entries
	f.Add([]byte{nodeInternal, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff}) // high key past the page
	f.Add([]byte{7})                                                         // unknown node type

	f.Fuzz(func(t *testing.T, data []byte) {
		page := make([]byte, PageSize) // the pager hands the decoder whole pages
		copy(page, data)
		n, err := decodeNode(page)
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		if n.encodedSize() > PageSize {
			t.Fatalf("accepted node claims %d bytes", n.encodedSize())
		}
		buf := make([]byte, PageSize)
		if err := encodeNode(n, buf); err != nil {
			t.Fatalf("re-encode of accepted node failed: %v", err)
		}
		n2, err := decodeNode(buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(n, n2) {
			t.Fatalf("round trip mismatch:\n%+v\n%+v", n, n2)
		}
	})
}

// FuzzNodeInPlace is the differential check of the in-place read path. Each
// input yields two pages: the raw bytes (mostly corrupt), and a valid node
// built from them — sorted, distinct keys cut from the input, as a leaf or
// an internal node. On every page the in-place accessors must never panic,
// and a full in-place walk fails exactly when decodeNode does. On pages
// with sorted keys, the lookup, child choice and leaf iteration the read
// paths run must match decodeNode followed by a linear scan.
func FuzzNodeInPlace(f *testing.F) {
	f.Add([]byte("\x03abc\x01d\x02ef\x04ghij\x00\x02mn"), []byte("ef"), true)
	f.Add([]byte("\x03abc\x01d\x02ef\x04ghij\x00\x02mn"), []byte("e"), false)
	f.Add([]byte{nodeLeaf, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 'a', 'b'}, []byte("a"), true)
	f.Add([]byte{nodeInternal, 1, 0xff, 0xff}, []byte{}, false)
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
	v, err := parseNode(page)
	if err == nil {
		c := v.entries
		_, err = c.all()
	}
	if (err != nil) != (derr != nil) {
		t.Fatalf("in-place walk err %v, decodeNode err %v", err, derr)
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

// Compact journals keep FuzzRecoverWAL's inputs small: the header's
// walHdrEnd bytes, then walStub bytes per record — its page id and the
// first 8 bytes of its image, the rest of which is zero. Recovery parses
// only the header and the ids, so the fuzzer still controls every field it
// reads without carrying 4 KiB page images through each mutation.
const walStub = 16

// expandJournal lays a compact journal out as the journal file: the header
// page, then one walRecordSize record per stub (a trailing partial stub is
// dropped).
func expandJournal(c []byte) []byte {
	j := make([]byte, PageSize)
	copy(j, c[:min(len(c), walHdrEnd)])
	for off := walHdrEnd; off+walStub <= len(c); off += walStub {
		rec := make([]byte, walRecordSize)
		copy(rec, c[off:off+walStub])
		j = append(j, rec...)
	}
	return j
}

// compactJournal is expandJournal's inverse for a journal with n records.
func compactJournal(j []byte, n int) []byte {
	c := append([]byte(nil), j[:walHdrEnd]...)
	for i := 0; i < n; i++ {
		c = append(c, j[PageSize+i*walRecordSize:][:walStub]...)
	}
	return c
}

// FuzzRecoverWAL feeds crash recovery arbitrary journals. Each is either
// rejected with the home file byte-identical, or replayed in full: every
// record's image lands at its page, in journal order. A partial replay
// fails the target. fixCRC re-seals the fuzzed header and body CRCs, so the
// fuzzer also reaches the checks that run after them.
func FuzzRecoverWAL(f *testing.F) {
	// A real database with two commits: the home file the journals replay
	// into, and the second commit's journal as the seed.
	mv := &memView{files: map[string][]byte{}}
	tab, err := CreatePartitionedTable(mv, "db", 1, true, 4)
	if err != nil {
		f.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 20; i++ {
			if err := tab.Put(u64key(i), []byte(fmt.Sprintf("row-%d-%d", i, round))); err != nil {
				f.Fatal(err)
			}
		}
		if err := tab.Sync(); err != nil {
			f.Fatal(err)
		}
	}
	home := mv.files["db"]
	wal := mv.files["db.wal"]
	valid := compactJournal(wal, int(binary.BigEndian.Uint64(wal[walHdrCount:])))
	f.Add(valid, true)
	f.Add(valid, false) // stubbed images do not match the body CRC
	f.Add(valid[:walHdrEnd], true)
	f.Add(valid[:walHdrEnd+walStub], true) // body shorter than the header claims
	lying := append([]byte(nil), valid...)
	binary.BigEndian.PutUint64(lying[walHdrCount:], walMaxRecords)
	binary.BigEndian.PutUint64(lying[walHdrLen:], walMaxRecords*walRecordSize)
	f.Add(lying, true)
	farPage := append([]byte(nil), valid...)
	binary.BigEndian.PutUint64(farPage[walHdrEnd+walStub:], 1<<19) // replay past memViewMax
	f.Add(farPage, true)
	badID := append([]byte(nil), valid...)
	binary.BigEndian.PutUint64(badID[len(badID)-walStub:], 1<<63) // a negative page id, last
	f.Add(badID, true)
	f.Add([]byte{}, false)

	f.Fuzz(func(t *testing.T, compact []byte, fixCRC bool) {
		journal := expandJournal(compact)
		if fixCRC {
			if jlen := binary.BigEndian.Uint64(journal[walHdrLen:]); jlen <= uint64(len(journal)-PageSize) {
				binary.BigEndian.PutUint64(journal[walHdrJCRC:], crc64.Checksum(journal[PageSize:PageSize+jlen], walCRCTable))
			}
			binary.BigEndian.PutUint64(journal[walHdrHCRC:], crc64.Checksum(journal[:walHdrJCRC+8], walCRCTable))
		}
		v := &memView{files: map[string][]byte{
			"db":     append([]byte(nil), home...),
			"db.wal": journal,
		}}
		err := newPager(v, "db").recoverWAL()
		got := v.files["db"]
		if bytes.Equal(got, home) {
			return // rejected, or a replay that changed nothing
		}
		if err != nil {
			t.Fatalf("recovery failed (%v) after changing the home file", err)
		}
		// Changed: it must be exactly the full replay.
		want := append([]byte(nil), home...)
		count := int64(binary.BigEndian.Uint64(journal[walHdrCount:]))
		for i := int64(0); i < count; i++ {
			rec := journal[PageSize+i*walRecordSize : PageSize+(i+1)*walRecordSize]
			end := (int64(binary.BigEndian.Uint64(rec)) + 1) * PageSize
			if end > int64(len(want)) {
				want = append(want, make([]byte, end-int64(len(want)))...)
			}
			copy(want[end-PageSize:end], rec[8:])
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("home file is neither untouched nor the full replay of %d records", count)
		}
	})
}
