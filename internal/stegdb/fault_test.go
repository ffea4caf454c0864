package stegdb

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"stegfs/internal/fsapi"
	"stegfs/internal/stegfs"
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
// the root growth fails insertSepChain after the leaf store, and
// undoLeafChange must take the new row back out, so after every fault of
// every kind the table equals ref.
func TestStegDBFaultPutSplitGrowsRoot(t *testing.T) {
	const key = "fk0008"
	val := func(i int) string { return fmt.Sprintf("%03d", i) + strings.Repeat("v", 477) }
	late := 0 // faults that struck after the split's leaf store
	for _, kind := range []string{"read", "write", "resize"} {
		t.Run(kind, func(t *testing.T) {
			// Eight 490-byte entries fill the root leaf; a ninth splits it.
			tab, ev, ref := seededFaultTable(t, 8, val)
			if h, err := tab.parts[0].tree.Height(); err != nil || h != 1 {
				t.Fatalf("seeded tree height %d (%v), want a single leaf", h, err)
			}
			// Pad the file so the split's right sibling takes its last page
			// and the new root's page must grow it: the resize fault then
			// lands after the leaf store.
			pg := tab.parts[0].pg
			fi, err := ev.Stat(pg.name)
			if err != nil {
				t.Fatal(err)
			}
			for pg.NumPages() < fi.Size/PageSize-1 {
				if _, err := pg.AllocPage(); err != nil {
					t.Fatal(err)
				}
			}
			sweepFaults(t, tab, ev, kind, ref,
				func(round int) error {
					pages := tab.Pages()
					err := tab.Put([]byte(key), []byte(val(8)))
					if err != nil && tab.Pages() > pages {
						late++
					}
					return err
				},
				func(round int) { ref[key] = val(8) })
		})
	}
	if late == 0 {
		t.Fatal("no fault struck after the leaf store; undoLeafChange never ran")
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
