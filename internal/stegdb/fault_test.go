package stegdb

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"
	"testing"

	"stegfs/internal/fsapi"
	"stegfs/internal/stegfs"
	"stegfs/internal/vdisk"
)

// errView wraps a HiddenView and fails exactly one armed call (the n-th of
// the armed kind), then disarms — modeling a transient device fault. A
// failed table op must leave the table at its prior state.
type errView struct {
	inner *stegfs.HiddenView
	mu    sync.Mutex
	kind  string // "read" | "write" | "resize"; "" = disarmed
	count int    // fail when it reaches 0
	fired bool
}

var errInjected = errors.New("stegdb_test: injected fault")

func (v *errView) arm(kind string, n int) {
	v.mu.Lock()
	v.kind, v.count, v.fired = kind, n, false
	v.mu.Unlock()
}

func (v *errView) didFire() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.fired
}

func (v *errView) trip(kind string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.kind != kind {
		return nil
	}
	v.count--
	if v.count > 0 {
		return nil
	}
	v.kind = ""
	v.fired = true
	return errInjected
}

func (v *errView) Create(name string, data []byte) error { return v.inner.Create(name, data) }

func (v *errView) ReadAt(name string, p []byte, off int64) (int, error) {
	if err := v.trip("read"); err != nil {
		return 0, err
	}
	return v.inner.ReadAt(name, p, off)
}

func (v *errView) WriteAt(name string, p []byte, off int64) (int, error) {
	if err := v.trip("write"); err != nil {
		return 0, err
	}
	return v.inner.WriteAt(name, p, off)
}

func (v *errView) Resize(name string, newSize int64) error {
	if err := v.trip("resize"); err != nil {
		return err
	}
	return v.inner.Resize(name, newSize)
}

func (v *errView) Stat(name string) (fsapi.FileInfo, error) { return v.inner.Stat(name) }

func (v *errView) Sync() error { return v.inner.Sync() }

// faultTable builds a one-partition table behind an errView, seeded with
// nSeed rows mirrored in ref.
func faultTable(t *testing.T, nSeed int) (*PartitionedTable, *errView, map[string]string) {
	t.Helper()
	return seededFaultTable(t, nSeed, func(i int) string { return fmt.Sprintf("seed-%d", i) })
}

// seededFaultTable is faultTable with row i's value given by val.
func seededFaultTable(t *testing.T, nSeed int, val func(i int) string) (*PartitionedTable, *errView, map[string]string) {
	t.Helper()
	view, _ := newView(t, 64<<10)
	ev := &errView{inner: view}
	tab, err := CreatePartitionedTable(ev, "ft", 1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[string]string, nSeed)
	for i := 0; i < nSeed; i++ {
		k := fmt.Sprintf("fk%04d", i)
		v := val(i)
		if err := tab.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		ref[k] = v
	}
	if err := tab.Sync(); err != nil {
		t.Fatal(err)
	}
	return tab, ev, ref
}

// verifyAgainst asserts the table exactly matches ref through Get, the O(1)
// row counter, Check's scan, and the page caches' dirty indexes.
func verifyAgainst(t *testing.T, tab *PartitionedTable, ref map[string]string) {
	t.Helper()
	for k, want := range ref {
		v, ok, err := tab.Get([]byte(k))
		if err != nil || !ok || string(v) != want {
			t.Fatalf("Get %s = %q %v %v, want %q", k, v, ok, err, want)
		}
	}
	rows, err := tab.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if rows != int64(len(ref)) {
		t.Fatalf("rows = %d, want %d", rows, len(ref))
	}
	if err := tab.Check(); err != nil {
		t.Fatal(err)
	}
	checkPageDirtyIndex(t, tab)
}

// sweepFaults runs op repeatedly, injecting a fault of kind ("read",
// "write" or "resize") at call positions 1, 2, 3, ... until an unfaulted
// run completes — every such call the operation performs gets to fail
// once. After a faulted run the table must equal ref (the op rolled back);
// after the clean run, apply mutates ref and the table must equal the new
// ref.
func sweepFaults(t *testing.T, tab *PartitionedTable, ev *errView, kind string, ref map[string]string,
	op func(round int) error, apply func(round int)) {
	t.Helper()
	for k := 1; k <= 256; k++ {
		// Empty the page cache so the op's reads actually hit the view.
		if err := tab.InvalidatePageCache(); err != nil {
			t.Fatal(err)
		}
		ev.arm(kind, k)
		err := op(k)
		fired := ev.didFire()
		ev.arm("", 0)
		if err != nil {
			if !fired {
				t.Fatalf("injection point %d: op failed without the fault firing: %v", k, err)
			}
			if !errors.Is(err, errInjected) {
				t.Fatalf("injection point %d: unexpected error chain: %v", k, err)
			}
			verifyAgainst(t, tab, ref)
			continue
		}
		if fired {
			t.Fatalf("injection point %d: fault fired but op succeeded", k)
		}
		// Clean run: the sweep covered every read the op performs.
		apply(k)
		verifyAgainst(t, tab, ref)
		return
	}
	t.Fatalf("sweep did not terminate (op performs >256 %s calls?)", kind)
}

// TestStegDBFaultPutReplace: a replace Put that fails anywhere must leave
// the old row intact.
func TestStegDBFaultPutReplace(t *testing.T) {
	tab, ev, ref := faultTable(t, 60)
	const key = "fk0031"
	sweepFaults(t, tab, ev, "read", ref,
		func(round int) error { return tab.Put([]byte(key), []byte(fmt.Sprintf("rep-%d", round))) },
		func(round int) { ref[key] = fmt.Sprintf("rep-%d", round) })
}

// TestStegDBFaultPutFresh: a fresh-key Put that fails must leave the key
// absent and the row count flat.
func TestStegDBFaultPutFresh(t *testing.T) {
	tab, ev, ref := faultTable(t, 60)
	sweepFaults(t, tab, ev, "read", ref,
		func(round int) error {
			return tab.Put([]byte(fmt.Sprintf("fresh-%04d", round)), []byte("newrow"))
		},
		func(round int) { ref[fmt.Sprintf("fresh-%04d", round)] = "newrow" })
}

// TestStegDBFaultDelete: a failed Delete must leave the row and report
// (false, err) — the delete did not happen.
func TestStegDBFaultDelete(t *testing.T) {
	tab, ev, ref := faultTable(t, 60)
	const key = "fk0017"
	sweepFaults(t, tab, ev, "read", ref,
		func(round int) error {
			found, err := tab.Delete([]byte(key))
			if err != nil {
				if found {
					t.Fatalf("faulted delete reported found=true")
				}
				return err
			}
			if !found {
				t.Fatalf("clean delete of %s reported not found", key)
			}
			return nil
		},
		func(round int) { delete(ref, key) })
}

// TestStegDBFaultPutSplitGrowsRoot: a Put into a full root leaf splits it —
// the leaf store commits the split — and then grows a new root. A fault in
// the root growth fails postSep after the leaf store, and
// undoLeafChange must undo the leaf change, so after every fault of every
// kind the table equals ref. An insert's undo takes the new row back out;
// a replace's (the replace- cases, whose longer value is what splits the
// leaf) puts back the value it overwrote.
func TestStegDBFaultPutSplitGrowsRoot(t *testing.T) {
	val := func(i int) string { return fmt.Sprintf("%03d", i) + strings.Repeat("v", 477) }
	for _, c := range []struct{ prefix, key, val string }{
		{"", "fk0008", val(8)},
		{"replace-", "fk0003", strings.Repeat("r", 700)}, // 220 bytes more than the row it replaces
	} {
		late := 0 // faults that struck after the split's leaf store
		for _, kind := range []string{"read", "write", "resize"} {
			t.Run(c.prefix+kind, func(t *testing.T) {
				// Eight 490-byte entries fill the root leaf; a ninth, or a
				// longer value for one of them, splits it.
				tab, ev, ref := seededFaultTable(t, 8, val)
				if h := treeHeight(t, tab.parts[0]); h != 1 {
					t.Fatalf("seeded tree height %d, want a single leaf", h)
				}
				// Pad the file so the split's right sibling takes its last page
				// and the new root's page must grow it: the resize fault then
				// lands after the leaf store.
				padToLastPages(t, tab, ev, 1)
				sweepFaults(t, tab, ev, kind, ref,
					func(round int) error {
						pages := tab.Pages()
						err := tab.Put([]byte(c.key), []byte(c.val))
						if err != nil && tab.Pages() > pages {
							late++
						}
						return err
					},
					func(round int) { ref[c.key] = c.val })
			})
		}
		if late == 0 {
			t.Fatalf("%s%s: no fault struck after the leaf store; undoLeafChange never ran", c.prefix, c.key)
		}
	}
}

// TestStegDBFaultSyncRetry: a write fault during Sync leaves dirty pages
// dirty; a retried Sync lands them and a cold remount sees every row.
func TestStegDBFaultSyncRetry(t *testing.T) {
	tab, ev, ref := faultTable(t, 40)
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("post%04d", i)
		if err := tab.Put([]byte(k), []byte("after-sync")); err != nil {
			t.Fatal(err)
		}
		ref[k] = "after-sync"
	}
	ev.arm("write", 1)
	if err := tab.Sync(); !errors.Is(err, errInjected) {
		t.Fatalf("Sync with write fault = %v, want injected error", err)
	}
	checkPageDirtyIndex(t, tab)
	ev.arm("", 0)
	if err := tab.Sync(); err != nil {
		t.Fatalf("retried Sync: %v", err)
	}
	checkPageDirtyIndex(t, tab)
	if err := tab.InvalidatePageCache(); err != nil {
		t.Fatal(err)
	}
	verifyAgainst(t, tab, ref)
}

// padToLastPages allocates pages of tab's one partition until free pages
// are left before its file must grow, so the allocation after them is the
// one that resizes.
func padToLastPages(t *testing.T, tab *PartitionedTable, ev *errView, free int64) {
	t.Helper()
	pg := tab.parts[0].pg
	fi, err := ev.Stat(pg.name)
	if err != nil {
		t.Fatal(err)
	}
	for pg.NumPages() < fi.Size/PageSize-free {
		if _, err := pg.AllocPage(); err != nil {
			t.Fatal(err)
		}
	}
}

// faultedGrowthTable seeds a one-partition table with 8 rows that fill its
// root leaf, then fails the Put of a ninth after its leaf split: a resize
// fault strikes the new root's page. The root is left a leaf with a right
// sibling, and the table holds the 8 rows of ref.
func faultedGrowthTable(t *testing.T) (*PartitionedTable, map[string]string, func(i int) string) {
	t.Helper()
	val := func(i int) string { return fmt.Sprintf("%03d", i) + strings.Repeat("v", 477) }
	tab, ev, ref := seededFaultTable(t, 8, val)
	padToLastPages(t, tab, ev, 1)
	ev.arm("resize", 1)
	if err := tab.Put([]byte("fk0008"), []byte(val(8))); !errors.Is(err, errInjected) {
		t.Fatalf("Put with the root growth faulted = %v, want the injected fault", err)
	}
	ev.arm("", 0)
	if root, err := loadNode(tab.parts[0], tab.parts[0].root()); err != nil || !root.leaf || root.right == nilPage {
		t.Fatalf("after the faulted growth the root should be a leaf with a right sibling (err %v)", err)
	}
	verifyAgainst(t, tab, ref)
	return tab, ref, val
}

// TestStegDBFaultRootGrowthLeavesChain: after a failed root growth, later
// splits in the root's chain must still find their parent: the next split
// grows a root over the whole chain.
func TestStegDBFaultRootGrowthLeavesChain(t *testing.T) {
	tab, ref, val := faultedGrowthTable(t)
	for i := 8; i < 39; i++ {
		k := fmt.Sprintf("fk%04d", i)
		if err := tab.Put([]byte(k), []byte(val(i))); err != nil {
			t.Fatalf("ascending Put %d (%s) after the faulted growth: %v", i-7, k, err)
		}
		ref[k] = val(i)
	}
	verifyAgainst(t, tab, ref)
}

// TestStegDBSecondPostIsSkipped: when two first splits race, the root one
// of them grows over the chain already holds the other's separator. The
// second post of a separator must find it present and add nothing.
func TestStegDBSecondPostIsSkipped(t *testing.T) {
	tab, ref, _ := faultedGrowthTable(t)
	tree := tab.parts[0]
	leaf, err := loadNode(tree, tree.root())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := tree.postSep(leaf.high, leaf.right, 0); err != nil {
			t.Fatalf("post %d: %v", i+1, err)
		}
	}
	if root, err := loadNode(tree, tree.root()); err != nil || len(root.keys) != 1 {
		t.Fatalf("the root holds %d separators (err %v), want 1", len(root.keys), err)
	}
	verifyAgainst(t, tab, ref)
}

// chainKey is row i of chainTable. Long keys fill an internal node within
// a few dozen rows.
func chainKey(i int) string { return fmt.Sprintf("fk%04d", i) + strings.Repeat("k", 250) }

var chainVal = strings.Repeat("v", 200)

// chainTable puts ascending chainKey rows 0, 1, ... into a fresh
// one-partition table behind an errView. The Put of row failAt (unless
// negative) splits its leaf and the full level-1 root, and has the root
// growth after that faulted by a resize on the new root's page: the root
// stays at level 1 with a right sibling. The build stops when row stop is
// next, or after the Put that makes the tree three levels tall; it returns
// the next row.
func chainTable(t *testing.T, failAt, stop int) (*PartitionedTable, *errView, map[string]string, int) {
	t.Helper()
	tab, ev, ref := seededFaultTable(t, 0, nil)
	tree := tab.parts[0]
	for i := 0; i < stop; i++ {
		k := chainKey(i)
		if i == failAt {
			if h := treeHeight(t, tree); h != 2 {
				t.Fatalf("row %d: tree height %d before the faulted growth, want 2", i, h)
			}
			// The leaf and the root split into the last two pages.
			padToLastPages(t, tab, ev, 2)
			ev.arm("resize", 1)
			if err := tab.Put([]byte(k), []byte(chainVal)); !errors.Is(err, errInjected) {
				t.Fatalf("row %d: Put with the root growth faulted = %v, want the injected fault", i, err)
			}
			ev.arm("", 0)
			root, err := loadNode(tree, tree.root())
			if err != nil || root.level != 1 || root.right == nilPage {
				t.Fatalf("row %d: the faulted growth should leave a level-1 root with a right sibling (err %v)", i, err)
			}
			continue
		}
		if err := tab.Put([]byte(k), []byte(chainVal)); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		ref[k] = chainVal
		if treeHeight(t, tree) == 3 {
			return tab, ev, ref, i + 1
		}
	}
	return tab, ev, ref, stop
}

// TestStegDBFaultPutSplitsParentGrowsChain sweeps faults over a Put that
// splits a leaf and its full parent, whose separator then has no level
// above it: the parent's chain (the root, its right sibling a failed growth
// left, and the parent's new half) gets a root grown over all three. Each
// resize case puts the one resize on another of the Put's three page
// allocations: the leaf's new half, the parent's, and the new root. After
// every fault the undo must leave the table exactly as it was.
func TestStegDBFaultPutSplitsParentGrowsChain(t *testing.T) {
	_, _, _, next := chainTable(t, -1, 1<<20)
	failAt := next - 1 // the row whose Put first grows a third level
	_, _, _, next = chainTable(t, failAt, 1<<20)
	target := next - 1 // with that growth faulted, the Put that grows over the chain
	for _, c := range []struct {
		kind string
		free int64 // pages left before the file must grow
	}{{"read", -1}, {"write", -1}, {"resize", 0}, {"resize", 1}, {"resize", 2}} {
		t.Run(fmt.Sprintf("%s%d", c.kind, c.free), func(t *testing.T) {
			tab, ev, ref, next := chainTable(t, failAt, target)
			if next != target {
				t.Fatalf("build stopped at row %d, want %d", next, target)
			}
			tree := tab.parts[0]
			if c.free >= 0 {
				padToLastPages(t, tab, ev, c.free)
			}
			faulted := 0
			key := chainKey(target)
			sweepFaults(t, tab, ev, c.kind, ref,
				func(round int) error {
					err := tab.Put([]byte(key), []byte(chainVal))
					if err != nil {
						faulted++
					}
					return err
				},
				func(round int) { ref[key] = chainVal })
			root, err := loadNode(tree, tree.root())
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case c.kind == "resize" && faulted != 1:
				t.Fatalf("%d faulted Puts, want 1", faulted)
			case faulted == 0 && (root.level != 2 || len(root.children) < 3):
				t.Fatalf("clean Put left a level-%d root with %d children, want a level-2 root over a chain of 3 or more",
					root.level, len(root.children))
			}
		})
	}
}

// TestStegDBCheckCatchesBadSeparator corrupts one separator of a
// three-level tree's leftmost level-1 node in each way a wrong post could,
// and Check must report each.
func TestStegDBCheckCatchesBadSeparator(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(n *node)
	}{
		{"changed", func(n *node) { n.keys[0] = append(bytes.Clone(n.keys[0]), 0) }},
		{"double-posted", func(n *node) {
			n.keys = append([][]byte{n.keys[0]}, n.keys...)
			n.children = append([]int64{n.children[0], n.children[1]}, n.children[1:]...)
		}},
		{"misordered", func(n *node) {
			n.keys[0], n.keys[1] = n.keys[1], n.keys[0]
			n.children[1], n.children[2] = n.children[2], n.children[1]
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tab, _, _, _ := chainTable(t, -1, 1<<20)
			if err := tab.Check(); err != nil {
				t.Fatalf("before the corruption: %v", err)
			}
			tree := tab.parts[0]
			root, err := loadNode(tree, tree.root())
			if err != nil || root.level != 2 {
				t.Fatalf("want a level-2 root, got err %v", err)
			}
			id := root.children[0]
			n, err := loadNode(tree, id)
			if err != nil || len(n.keys) < 2 {
				t.Fatalf("want a level-1 node with 2 separators, got err %v", err)
			}
			c.edit(n)
			if err := storeNode(tree, id, n); err != nil {
				t.Fatal(err)
			}
			if err := tab.Check(); err == nil || !strings.Contains(err.Error(), "level 0") {
				t.Fatalf("Check after a %s separator = %v, want a level-0 structural error", c.name, err)
			}
		})
	}
}

// TestStegDBFaultHomeDropsBase: a commit whose home writes fail part way
// leaves the home file holding a mix of two commits, so the next commit
// may not cut its records against the bases it had. Leaves A and B are
// dirty; the commit's home write of A lands and B's fails. A is then put
// back to its committed value — equal to A's old base, but not to what its
// home page now holds — and the commit retried: first with its first home
// write failing (the image a crash right after the journal barrier
// leaves, which recovery must replay to the model), then cleanly (a fresh
// mount must read the model).
func TestStegDBFaultHomeDropsBase(t *testing.T) {
	view, store := newView(t, 16<<10)
	ev := &errView{inner: view}
	tab, err := CreatePartitionedTable(ev, "ft", 1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	val := func(i int, tag string) string { return fmt.Sprintf("%s-%04d-", tag, i) + strings.Repeat("v", 190) }
	ref := map[string]string{}
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("fk%04d", i)
		ref[k] = val(i, "old")
		if err := tab.Put([]byte(k), []byte(ref[k])); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Sync(); err != nil {
		t.Fatal(err)
	}
	pg := tab.parts[0].pg
	// dirtyPage puts key i's new value and returns the one page it dirtied.
	dirtyPage := func(i int) int64 {
		t.Helper()
		dirty := func() map[int64]*pageEntry {
			pg.cache.mu.Lock()
			defer pg.cache.mu.Unlock()
			return maps.Clone(pg.cache.dirty)
		}
		before := dirty()
		if err := tab.Put([]byte(fmt.Sprintf("fk%04d", i)), []byte(val(i, "new"))); err != nil {
			t.Fatal(err)
		}
		after := dirty()
		for id := range before {
			delete(after, id)
		}
		if len(after) != 1 {
			t.Fatalf("Put of key %d newly dirtied %d pages, want 1", i, len(after))
		}
		for id := range after {
			return id
		}
		return 0
	}
	keyA, keyB := 0, 39
	idA, idB := dirtyPage(keyA), dirtyPage(keyB)
	if idA > idB { // A names the leaf homed first
		keyA, keyB, idA, idB = keyB, keyA, idB, idA
	}
	ref[fmt.Sprintf("fk%04d", keyB)] = val(keyB, "new")
	homePage := func(id int64) []byte {
		t.Helper()
		b := make([]byte, PageSize)
		if _, err := view.ReadAt(pg.name, b, id*PageSize); err != nil {
			t.Fatal(err)
		}
		return b
	}

	ev.arm("write", 3) // the journal, A's home range, then B's
	if err := tab.Sync(); !errors.Is(err, errInjected) {
		t.Fatalf("Sync with B's home write faulted = %v, want the injected fault", err)
	}
	ev.arm("", 0)
	if !bytes.Contains(homePage(idA), []byte(val(keyA, "new"))) || bytes.Contains(homePage(idB), []byte(val(keyB, "new"))) {
		t.Fatal("the failed commit should have homed A's range and not B's")
	}
	if err := tab.Put([]byte(fmt.Sprintf("fk%04d", keyA)), []byte(val(keyA, "old"))); err != nil {
		t.Fatal(err)
	}

	ev.arm("write", 2) // the journal lands, the first home write fails
	if err := tab.Sync(); !errors.Is(err, errInjected) {
		t.Fatalf("retried Sync with its first home write faulted = %v, want the injected fault", err)
	}
	ev.arm("", 0)
	replayed := store.Snapshot()
	if err := tab.Sync(); err != nil {
		t.Fatalf("retried Sync: %v", err)
	}
	verifyAgainst(t, tab, ref)
	for _, c := range []struct {
		name string
		img  []byte
	}{{"journal replay", replayed}, {"fresh mount", store.Snapshot()}} {
		mem, err := vdisk.NewMemStore(16<<10, 1<<10)
		if err != nil {
			t.Fatal(err)
		}
		if err := mem.Restore(c.img); err != nil {
			t.Fatal(err)
		}
		fs, err := stegfs.Mount(mem)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		v := fs.NewHiddenView("db")
		if _, err := CheckAny(v, v.Adopt, "ft"); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		reopened, err := OpenPartitionedTable(v, "ft")
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for k, want := range ref {
			if got, ok, err := reopened.Get([]byte(k)); err != nil || !ok || string(got) != want {
				t.Fatalf("%s: %s = %.12q %v %v, want %.12q", c.name, k, got, ok, err, want)
			}
		}
	}
}
