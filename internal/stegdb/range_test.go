package stegdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// rangeModel is the sorted-map oracle for Range: the keys of m with
// lo <= key < hi (nil bounds are open), in order, as "key=value" strings.
func rangeModel(m map[string]string, lo, hi []byte) []string {
	var out []string
	for k, v := range m {
		if (lo == nil || k >= string(lo)) && (hi == nil || k < string(hi)) {
			out = append(out, k+"="+v)
		}
	}
	sort.Strings(out)
	return out
}

// rangeRows runs a Range over snaps and returns what it served, copied.
func rangeRows(snaps []*Snapshot, lo, hi []byte) ([]string, error) {
	var out []string
	err := mergeRange(snaps, lo, hi, func(k, v []byte) bool {
		out = append(out, string(k)+"="+string(v))
		return true
	})
	return out, err
}

// checkRangeModel asserts a Range over snaps serves exactly the model's
// rows in [lo, hi).
func checkRangeModel(t *testing.T, name string, snaps []*Snapshot, m map[string]string, lo, hi []byte) {
	t.Helper()
	got, err := rangeRows(snaps, lo, hi)
	if err != nil {
		t.Fatalf("%s: Range(%x, %x): %v", name, lo, hi, err)
	}
	want := rangeModel(m, lo, hi)
	if len(got) != len(want) {
		t.Fatalf("%s: Range(%x, %x) served %d rows, want %d", name, lo, hi, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: Range(%x, %x) row %d = %q, want %q", name, lo, hi, i, got[i], want[i])
		}
	}
}

// leafChain returns the page id and keys of every leaf of bt, left to
// right along the leaf chain.
func leafChain(t *testing.T, bt *BTree) (ids []int64, keys [][][]byte) {
	t.Helper()
	id := bt.root()
	for {
		n, err := loadNode(bt, id)
		if err != nil {
			t.Fatal(err)
		}
		if n.leaf {
			break
		}
		id = n.children[0]
	}
	for id != nilPage {
		n, err := loadNode(bt, id)
		if err != nil {
			t.Fatal(err)
		}
		var ks [][]byte
		for _, e := range n.entries {
			ks = append(ks, e.key)
		}
		ids, keys = append(ids, id), append(keys, ks)
		id = n.right
	}
	return ids, keys
}

// evenTable builds a one-partition table over a memView holding the even
// keys 0, 2, …, 2(rows−1) with 100-byte values, and its model.
func evenTable(t *testing.T, rows int) (*PartitionedTable, map[string]string) {
	t.Helper()
	tab, err := CreatePartitionedTable(&memView{files: map[string][]byte{}}, "r", 1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]string{}
	for i := 0; i < rows; i++ {
		k, v := u64key(2*i), fmt.Sprintf("%0100d", i)
		if err := tab.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		m[string(k)] = v
	}
	return tab, m
}

// keyAfter is the (absent, odd) key just above the even key k.
func keyAfter(k []byte) []byte { return u64key(int(binary.BigEndian.Uint64(k)) + 1) }

// TestRangeLeafBoundaries: Range serves exactly the map model's rows when
// its bounds sit at every kind of place a leaf offers — hi in the middle
// of a leaf, hi equal to a leaf's first key, lo past a leaf's last key (the
// iterator must move right to find its first row), an open hi, and empty
// ranges — on every leaf of a multi-leaf tree.
func TestRangeLeafBoundaries(t *testing.T) {
	tab, m := evenTable(t, 600)
	_, leaves := leafChain(t, tab.parts[0])
	if len(leaves) < 4 {
		t.Fatalf("tree has %d leaves, want several", len(leaves))
	}
	s := tab.Snapshot()
	defer s.Close()
	for i, ks := range leaves {
		first, mid, last := ks[0], ks[len(ks)/2], ks[len(ks)-1]
		cases := []struct {
			name   string
			lo, hi []byte
		}{
			{"hi-mid-leaf-present", first, mid},
			{"hi-mid-leaf-absent", first, keyAfter(mid)},
			{"lo-mid-hi-mid", keyAfter(first), mid},
			{"hi-nil", mid, nil},
			{"lo-nil", nil, mid},
			{"empty-lo-eq-hi", mid, mid},
			{"empty-lo-gt-hi", last, first},
			{"empty-between-keys", keyAfter(mid), keyAfter(mid)},
			{"lo-past-last", keyAfter(last), nil},
		}
		if i > 0 {
			prev := leaves[i-1]
			cases = append(cases,
				struct {
					name   string
					lo, hi []byte
				}{"hi-eq-leaf-first", prev[0], first},
				struct {
					name   string
					lo, hi []byte
				}{"hi-eq-leaf-first-from-mid", prev[len(prev)/2], first},
				struct {
					name   string
					lo, hi []byte
				}{"lo-past-prev-last-hi-mid", keyAfter(prev[len(prev)-1]), mid},
				struct {
					name   string
					lo, hi []byte
				}{"lo-past-prev-last-hi-first", keyAfter(prev[len(prev)-1]), first},
			)
		}
		for _, c := range cases {
			checkRangeModel(t, fmt.Sprintf("leaf %d %s", i, c.name), s.snaps, m, c.lo, c.hi)
		}
	}
	checkRangeModel(t, "whole", s.snaps, m, nil, nil)
}

// TestRangeRandomBoundsPartitioned: random bounds over an 8-partition
// table with mixed deletes match the map model through the k-way merge.
func TestRangeRandomBoundsPartitioned(t *testing.T) {
	tab, err := CreatePartitionedTable(&memView{files: map[string][]byte{}}, "r", 8, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	m := map[string]string{}
	for i := 0; i < 3000; i++ {
		k := u64key(rng.Intn(4000))
		if rng.Intn(4) == 0 {
			if _, err := tab.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(m, string(k))
			continue
		}
		v := fmt.Sprintf("%d-%s", i, bytes.Repeat([]byte{'x'}, rng.Intn(120)))
		if err := tab.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		m[string(k)] = v
	}
	s := tab.Snapshot()
	defer s.Close()
	for i := 0; i < 300; i++ {
		var lo, hi []byte
		if rng.Intn(8) > 0 {
			lo = u64key(rng.Intn(4200))
		}
		if rng.Intn(8) > 0 {
			hi = u64key(rng.Intn(4200))
		}
		checkRangeModel(t, fmt.Sprintf("draw %d", i), s.snaps, m, lo, hi)
	}
}

// TestRangeSnapshotUnderSplits: a snapshot Range keeps serving exactly the
// rows the table held when the snapshot was taken while writers split the
// very leaves it walks, and a fresh Range afterwards serves the final rows.
func TestRangeSnapshotUnderSplits(t *testing.T) {
	view, _ := newView(t, 64<<10)
	tab, err := CreatePartitionedTable(view, "r", 1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]string{}
	for i := 0; i < 400; i++ {
		k, v := u64key(4*i), fmt.Sprintf("even-%d", i)
		if err := tab.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		m[string(k)] = v
	}
	s := tab.Snapshot()
	defer s.Close()

	// Writers fill the gaps between the snapshot's keys with wide rows,
	// splitting every leaf the snapshot Ranges cross.
	const writers = 2
	final := make([]map[string]string, writers)
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		final[w] = map[string]string{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k, v := u64key(4*i+1+2*w), fmt.Sprintf("w%d-%d-%0200d", w, i, i)
				if err := tab.Put(k, []byte(v)); err != nil {
					errCh <- err
					return
				}
				final[w][string(k)] = v
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	running := func() bool {
		select {
		case <-done:
			return false
		default:
			return true
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100 || running(); i++ { // keep drawing while the writers split leaves
		lo, hi := u64key(rng.Intn(1700)), u64key(rng.Intn(1700))
		if i%10 == 0 {
			hi = nil
		}
		got, err := rangeRows(s.snaps, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if want := rangeModel(m, lo, hi); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("draw %d: snapshot Range(%x, %x) served %d rows, want %d: a concurrent split leaked in", i, lo, hi, len(got), len(want))
		}
	}
	<-done
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for _, f := range final {
		for k, v := range f {
			m[k] = v
		}
	}
	after := tab.Snapshot()
	defer after.Close()
	checkRangeModel(t, "after", after.snaps, m, nil, nil)
	checkRangeModel(t, "after-mid", after.snaps, m, u64key(301), u64key(1203))
	if err := tab.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestRangeCorruptLeafEntry: a leaf entry whose key length runs past the
// page surfaces as an error from a Range that reaches it, after the rows
// before it, never a panic; a Range whose hi stops the entry (at the key before it) serves its rows without
// error, as the frame walk would.
func TestRangeCorruptLeafEntry(t *testing.T) {
	tab, m := evenTable(t, 600)
	bt := tab.parts[0]
	ids, leaves := leafChain(t, bt)
	leaf, ks := ids[1], leaves[1]
	img, err := readPage(bt.pg, leaf)
	if err != nil {
		t.Fatal(err)
	}
	v, err := parseNode(img)
	if err != nil {
		t.Fatal(err)
	}
	bad := len(ks) / 2
	for i := 0; i < bad; i++ {
		if _, _, _, err := v.entries.next(); err != nil {
			t.Fatal(err)
		}
	}
	binary.BigEndian.PutUint16(img[v.entries.off:], 0xFFFF)
	if err := bt.pg.writePage(leaf, img, 0); err != nil {
		t.Fatal(err)
	}
	s := tab.Snapshot()
	defer s.Close()

	got, err := rangeRows(s.snaps, ks[0], nil)
	if err == nil {
		t.Fatal("Range across a corrupt entry returned no error")
	}
	if want := rangeModel(m, ks[0], ks[bad]); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Range served %d rows before the corrupt entry, want %d", len(got), len(want))
	}
	if _, err := rangeRows(s.snaps, keyAfter(ks[bad]), nil); err == nil {
		t.Fatal("Range starting past the corrupt entry returned no error")
	}
	checkRangeModel(t, "short of the corrupt entry", s.snaps, m, ks[0], ks[bad-1])
}
