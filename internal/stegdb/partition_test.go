package stegdb

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"testing"

	"stegfs/internal/stegfs"
)

func TestPartitionedTableCRUDAndMerge(t *testing.T) {
	view, _ := newView(t, 64<<10)
	pt, err := CreatePartitionedTable(view, "pt", 4, true, 32)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("k%05d", i))
		if err := pt.Put(key, []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := pt.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if rows != n {
		t.Fatalf("rows = %d, want %d", rows, n)
	}
	// Every key resolves via both paths.
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("k%05d", i))
		want := fmt.Sprintf("v-%d", i)
		v, ok, err := pt.Get(key)
		if err != nil || !ok || string(v) != want {
			t.Fatalf("Get %s = %q %v %v", key, v, ok, err)
		}
		v, ok, err = pt.GetOrdered(key)
		if err != nil || !ok || string(v) != want {
			t.Fatalf("GetOrdered %s = %q %v %v", key, v, ok, err)
		}
	}
	// Scan merges the partitions back into global key order.
	var keys []string
	if err := pt.Scan(func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != n {
		t.Fatalf("scan saw %d keys, want %d", len(keys), n)
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatal("merged scan out of order")
	}
	// Range seeks within the merged space.
	var got []string
	if err := pt.Range([]byte("k00100"), []byte("k00110"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != "k00100" || got[9] != "k00109" {
		t.Fatalf("range = %v", got)
	}
	// Deletes route to the right partition and the counter follows.
	for i := 0; i < n; i += 2 {
		found, err := pt.Delete([]byte(fmt.Sprintf("k%05d", i)))
		if err != nil || !found {
			t.Fatalf("delete %d: %v %v", i, found, err)
		}
	}
	rows, _ = pt.Rows()
	if rows != n/2 {
		t.Fatalf("rows after deletes = %d, want %d", rows, n/2)
	}
	if err := pt.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionedTableRemountAndCheckAny(t *testing.T) {
	view, store := newView(t, 64<<10)
	pt, err := CreatePartitionedTable(view, "pt", 3, true, 16)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := pt.Put([]byte(fmt.Sprintf("r%04d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pt.Sync(); err != nil {
		t.Fatal(err)
	}

	fs2, err := stegfs.Mount(store)
	if err != nil {
		t.Fatal(err)
	}
	view2 := fs2.NewHiddenView("db")
	files, err := CheckAny(view2, view2.Adopt, "pt")
	if err != nil {
		t.Fatalf("CheckAny: %v (files %v)", err, files)
	}
	// 3 partitions + 3 journals must all be discovered.
	if len(files) != 6 {
		t.Fatalf("CheckAny found files %v, want 3 partitions + 3 journals", files)
	}
	pt2, err := OpenPartitionedTable(view2, "pt")
	if err != nil {
		t.Fatal(err)
	}
	if pt2.Partitions() != 3 {
		t.Fatalf("partitions = %d", pt2.Partitions())
	}
	rows, _ := pt2.Rows()
	if rows != n {
		t.Fatalf("remounted rows = %d, want %d", rows, n)
	}
	for i := 0; i < n; i++ {
		v, ok, err := pt2.Get([]byte(fmt.Sprintf("r%04d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("remount key %d = %q %v %v", i, v, ok, err)
		}
	}
}

func TestCheckAnyPlainTable(t *testing.T) {
	view, store := newView(t, 64<<10)
	tab, err := CreatePartitionedTable(view, "plain", 1, true, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := tab.Put(u64key(i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Sync(); err != nil {
		t.Fatal(err)
	}
	fs2, err := stegfs.Mount(store)
	if err != nil {
		t.Fatal(err)
	}
	view2 := fs2.NewHiddenView("db")
	files, err := CheckAny(view2, view2.Adopt, "plain")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 || files[0] != "plain" || files[1] != "plain.wal" {
		t.Fatalf("files = %v", files)
	}
	if _, err := CheckAny(view2, view2.Adopt, "no-such-table"); err == nil {
		t.Fatal("CheckAny on a missing table must fail")
	}
}

// TestStegDBPartitionedSnapshotAtomic: a cross-partition snapshot pins one
// instant — under concurrent single-key "transfers" that keep an invariant
// across two partitions (total token count constant), every snapshot must
// observe the invariant intact.
func TestStegDBPartitionedSnapshotAtomic(t *testing.T) {
	view, _ := newView(t, 64<<10)
	pt, err := CreatePartitionedTable(view, "atom", 4, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Pairs (a<i>, b<i>): together always hold exactly 8 tokens, split as
	// fixed-width "count" values. Writers move a token by updating both keys
	// while holding the snapshot gate shared across BOTH puts — the gate is
	// what makes the two-key move atomic against snapshots.
	const pairs = 8
	for i := 0; i < pairs; i++ {
		if err := pt.Put([]byte(fmt.Sprintf("a%02d", i)), []byte("4")); err != nil {
			t.Fatal(err)
		}
		if err := pt.Put([]byte(fmt.Sprintf("b%02d", i)), []byte("4")); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	errCh := make(chan error, 4)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Disjoint pairs per writer: two writers moving the same
				// pair at once would interleave their a/b puts and tear
				// it outside any snapshot's view.
				p := w*(pairs/2) + i%(pairs/2)
				av := byte('0' + byte((i)%9))
				bv := byte('0' + byte(8-(i)%9))
				pt.snapGate.RLock()
				ea := pt.parts[pt.partFor([]byte(fmt.Sprintf("a%02d", p)))].put([]byte(fmt.Sprintf("a%02d", p)), []byte{av})
				eb := pt.parts[pt.partFor([]byte(fmt.Sprintf("b%02d", p)))].put([]byte(fmt.Sprintf("b%02d", p)), []byte{bv})
				pt.snapGate.RUnlock()
				if ea != nil || eb != nil {
					errCh <- fmt.Errorf("put: %v %v", ea, eb)
					return
				}
			}
		}(w)
	}
	for iter := 0; iter < 50; iter++ {
		s := pt.Snapshot()
		for i := 0; i < pairs; i++ {
			va, oka, ea := s.Get([]byte(fmt.Sprintf("a%02d", i)))
			vb, okb, eb := s.Get([]byte(fmt.Sprintf("b%02d", i)))
			if ea != nil || eb != nil || !oka || !okb {
				s.Close()
				t.Fatalf("snapshot get pair %d: %v %v %v %v", i, oka, ea, okb, eb)
			}
			if int(va[0]-'0')+int(vb[0]-'0') != 8 {
				s.Close()
				t.Fatalf("iter %d pair %d: snapshot saw torn transfer %q + %q", iter, i, va, vb)
			}
		}
		s.Close()
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := pt.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestStegDBPartitionedGroupCommit: many goroutines write and Sync
// concurrently; every Sync call must return only after its own writes are
// committed. Verified by remounting cold after the storm.
func TestStegDBPartitionedGroupCommit(t *testing.T) {
	view, store := newView(t, 64<<10)
	pt, err := CreatePartitionedTable(view, "gc", 4, true, 32)
	if err != nil {
		t.Fatal(err)
	}
	const (
		goroutines = 8
		keysPerG   = 40
	)
	errCh := make(chan error, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keysPerG; i++ {
				key := []byte(fmt.Sprintf("g%d-%04d", w, i))
				if err := pt.Put(key, []byte(fmt.Sprintf("val-%d-%d", w, i))); err != nil {
					errCh <- err
					return
				}
				if i%8 == 7 {
					if err := pt.Sync(); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := pt.Sync(); err != nil {
		t.Fatal(err)
	}
	fs2, err := stegfs.Mount(store)
	if err != nil {
		t.Fatal(err)
	}
	view2 := fs2.NewHiddenView("db")
	if _, err := CheckAny(view2, view2.Adopt, "gc"); err != nil {
		t.Fatal(err)
	}
	pt2, err := OpenPartitionedTable(view2, "gc")
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := pt2.Rows()
	if rows != goroutines*keysPerG {
		t.Fatalf("remounted rows = %d, want %d", rows, goroutines*keysPerG)
	}
	for w := 0; w < goroutines; w++ {
		for i := 0; i < keysPerG; i++ {
			key := []byte(fmt.Sprintf("g%d-%04d", w, i))
			v, ok, err := pt2.Get(key)
			if err != nil || !ok || string(v) != fmt.Sprintf("val-%d-%d", w, i) {
				t.Fatalf("key %s = %q %v %v", key, v, ok, err)
			}
		}
	}
}

// TestStegDBSnapshotUnderSplitStress: writers force continuous leaf splits
// and root growths while snapshots are taken and scanned. Each writer
// appends sequential keys, so every snapshot must see a contiguous prefix
// of each writer's keys — a split leaking into a pinned snapshot would
// break contiguity or ordering.
func TestStegDBSnapshotUnderSplitStress(t *testing.T) {
	view, _ := newView(t, 64<<10)
	tab, err := CreatePartitionedTable(view, "split", 1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	stop := make(chan struct{})
	errCh := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := []byte(fmt.Sprintf("w%d-%06d", w, i))
				if err := tab.Put(key, []byte(fmt.Sprintf("%s=%d", key, i))); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for iter := 0; iter < 40; iter++ {
		s := tab.Snapshot()
		last := make([]int, writers)
		for i := range last {
			last[i] = -1
		}
		var count int64
		err := s.Scan(func(k, v []byte) bool {
			count++
			var w, i int
			if _, err := fmt.Sscanf(string(k), "w%d-%06d", &w, &i); err != nil {
				t.Errorf("iter %d: unparseable key %q", iter, k)
				return false
			}
			if i != last[w]+1 {
				t.Errorf("iter %d: writer %d jumped %d -> %d (split leaked into snapshot)", iter, w, last[w], i)
				return false
			}
			last[w] = i
			if want := fmt.Sprintf("%s=%d", k, i); string(v) != want {
				t.Errorf("iter %d: torn row %q = %q", iter, k, v)
				return false
			}
			return true
		})
		if err != nil {
			s.Close()
			t.Fatal(err)
		}
		if got := s.Rows(); got != count {
			t.Fatalf("iter %d: snapshot Rows()=%d but scan saw %d", iter, got, count)
		}
		s.Close()
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := tab.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestBTreeParallelWritersDisjoint: concurrent Put/Delete across disjoint
// key ranges on the bare tree (no table shard locks), exercising the B-link
// split path and root growth under contention.
func TestBTreeParallelWritersDisjoint(t *testing.T) {
	view, _ := newView(t, 64<<10)
	pg, err := CreatePager(view, "blink")
	if err != nil {
		t.Fatal(err)
	}
	tree := NewBTree(pg)
	const (
		goroutines = 8
		keysPerG   = 300
	)
	errCh := make(chan error, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keysPerG; i++ {
				key := []byte(fmt.Sprintf("g%d-%05d", w, i))
				if err := tree.Put(key, []byte(fmt.Sprintf("v%d", i))); err != nil {
					errCh <- err
					return
				}
				if i%7 == 6 { // churn a recent key
					if _, err := tree.Delete([]byte(fmt.Sprintf("g%d-%05d", w, i-3))); err != nil {
						errCh <- err
						return
					}
					if err := tree.Put([]byte(fmt.Sprintf("g%d-%05d", w, i-3)), []byte("back")); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Every key present, scan sorted, height grown past a single leaf.
	var keys []string
	if err := tree.Scan(func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != goroutines*keysPerG {
		t.Fatalf("scan saw %d keys, want %d", len(keys), goroutines*keysPerG)
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatal("scan out of order")
	}
	for w := 0; w < goroutines; w++ {
		for i := 0; i < keysPerG; i++ {
			key := []byte(fmt.Sprintf("g%d-%05d", w, i))
			if _, ok, err := tree.Get(key); err != nil || !ok {
				t.Fatalf("key %s: ok=%v err=%v", key, ok, err)
			}
		}
	}
	h, err := tree.Height()
	if err != nil {
		t.Fatal(err)
	}
	if h < 2 {
		t.Fatalf("height = %d, want >= 2 (splits must have happened)", h)
	}
}

// TestOnePartitionLayout pins the on-disk layouts a one-partition table can
// have. CreatePartitionedTable(..., 1, ...) writes the plain layout: exactly
// the home file and its journal, with partition count 0 in the meta page. A
// one-partition table in the name.p0 layout (partition count 1) still opens
// and checks.
func TestOnePartitionLayout(t *testing.T) {
	mv := &memView{files: map[string][]byte{}}
	pt, err := CreatePartitionedTable(mv, "t", 1, true, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(mv.files) != 2 || mv.files["t"] == nil || mv.files["t.wal"] == nil {
		t.Fatalf("one-partition table created files %v, want t and t.wal", keys(mv.files))
	}
	if got := binary.BigEndian.Uint64(mv.files["t"][metaPartCount:]); got != 0 {
		t.Fatalf("plain layout records partition count %d, want 0", got)
	}
	if got := pt.Files(); len(got) != 2 || got[0] != "t" || got[1] != "t.wal" {
		t.Fatalf("Files() = %v", got)
	}

	view, store := newView(t, 64<<10)
	p0, err := createPartition(view, "legacy.p0", true, 16)
	if err != nil {
		t.Fatal(err)
	}
	p0.pg.setMetaField(metaPartCount, 1)
	p0.pg.setMetaField(metaPartIndex, 0)
	if err := p0.pg.flushMetaNow(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := p0.put(u64key(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p0.pg.Sync(); err != nil {
		t.Fatal(err)
	}
	fs2, err := stegfs.Mount(store)
	if err != nil {
		t.Fatal(err)
	}
	view2 := fs2.NewHiddenView("db")
	files, err := CheckAny(view2, view2.Adopt, "legacy")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 || files[0] != "legacy.p0" || files[1] != "legacy.p0.wal" {
		t.Fatalf("CheckAny files = %v", files)
	}
	pt2, err := OpenPartitionedTable(view2, "legacy")
	if err != nil {
		t.Fatal(err)
	}
	if pt2.Partitions() != 1 {
		t.Fatalf("partitions = %d, want 1", pt2.Partitions())
	}
	if rows, _ := pt2.Rows(); rows != 30 {
		t.Fatalf("rows = %d, want 30", rows)
	}
	if v, ok, err := pt2.Get(u64key(7)); err != nil || !ok || string(v) != "v7" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
}

func keys(m map[string][]byte) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
