package stegdb

import (
	"fmt"
	"testing"

	"stegfs/internal/stegfs"
	"stegfs/internal/vdisk"
)

// Group-commit crash consistency: a partitioned table's Sync is run with a
// vdisk.FaultStore cut (TearAfter(n, 0)) dropping every device write past
// the cut point, the surviving image is remounted (journal recovery runs at
// open), and the table must be at exactly the old or the new epoch PER
// PARTITION — never a mix within one partition — at every cut point across
// the commit's whole write window.

const (
	crashBlocks = 32 << 10
	crashBS     = 1 << 10
	crashParts  = 3
	crashKeys   = 120
)

// crashKey/crashOldVal/crashNewVal define the deterministic workload: keys
// k+x seeded with old values and committed (a warm round shaped like the
// cut round, so the cut round never needs to grow a journal file); then
// i%3==0 k-keys are updated, i%3==1 k-keys deleted, and every x-key
// rewritten, all riding the final (cut) commit.
func crashKey(i int) []byte    { return []byte(fmt.Sprintf("k%04d", i)) }
func crashOldVal(i int) string { return fmt.Sprintf("old-%04d", i) }
func crashNewVal(i int) string { return fmt.Sprintf("new-%04d", i) }
func crashInsKey(i int) []byte { return []byte(fmt.Sprintf("x%04d", i)) }

// runPartitionedCrash seeds and checkpoints the table, applies the
// mutation batch, arms the cut cutAt writes into the commit window, runs
// Sync, and returns the surviving image plus the window's write count.
// cutAt < 0 leaves the cut disarmed (the probe run measuring the window).
func runPartitionedCrash(t *testing.T, cutAt int64) (img []byte, window int64) {
	t.Helper()
	mem, err := vdisk.NewMemStore(crashBlocks, crashBS)
	if err != nil {
		t.Fatal(err)
	}
	cs := vdisk.NewFaultStore(mem, 1)
	p := stegfs.DefaultParams()
	p.NDummy = 2
	p.DummyAvgSize = 8 << 10
	p.DeterministicKeys = true
	p.Seed = 42
	fs, err := stegfs.Format(cs, p)
	if err != nil {
		t.Fatal(err)
	}
	view := fs.NewHiddenView("db")
	pt, err := CreatePartitionedTable(view, "t", crashParts, true, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < crashKeys; i++ {
		if err := pt.Put(crashKey(i), []byte(crashOldVal(i))); err != nil {
			t.Fatal(err)
		}
		if err := pt.Put(crashInsKey(i), []byte(crashOldVal(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pt.Sync(); err != nil { // the old epoch every cut must preserve
		t.Fatal(err)
	}
	for i := 0; i < crashKeys; i++ {
		switch i % 3 {
		case 0:
			if err := pt.Put(crashKey(i), []byte(crashNewVal(i))); err != nil {
				t.Fatal(err)
			}
		case 1:
			if _, err := pt.Delete(crashKey(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := pt.Put(crashInsKey(i), []byte(crashNewVal(i))); err != nil {
			t.Fatal(err)
		}
	}
	pre := cs.Writes()
	if cutAt >= 0 {
		cs.TearAfter(cutAt, 0)
	}
	// With the cut armed the live mount may observe its own dropped writes
	// as stale reads and surface an error — that IS the crash; only the
	// surviving image matters. Without a cut the commit must succeed.
	if err := pt.Sync(); err != nil && cutAt < 0 {
		t.Fatalf("probe Sync: %v", err)
	}
	return mem.Snapshot(), cs.Writes() - pre
}

// verifyPartitionedCrash remounts a surviving image (running journal
// recovery), checks the table, and enforces old-or-new per partition.
func verifyPartitionedCrash(t *testing.T, img []byte, cutAt int64) {
	t.Helper()
	mem, err := vdisk.NewMemStore(crashBlocks, crashBS)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Restore(img); err != nil {
		t.Fatal(err)
	}
	fs, err := stegfs.Mount(mem)
	if err != nil {
		t.Fatalf("cut %d: remount: %v", cutAt, err)
	}
	view := fs.NewHiddenView("db")
	if _, err := CheckAny(view, view.Adopt, "t"); err != nil {
		t.Fatalf("cut %d: CheckAny: %v", cutAt, err)
	}
	pt, err := OpenPartitionedTable(view, "t")
	if err != nil {
		t.Fatalf("cut %d: open: %v", cutAt, err)
	}
	// Classify each partition: every key routed to it must be uniformly at
	// the old or the new epoch.
	for part := 0; part < crashParts; part++ {
		verdict := "" // "", "old" or "new"
		note := func(i int, state string) {
			if verdict == "" {
				verdict = state
			} else if verdict != state {
				t.Fatalf("cut %d: partition %d mixes epochs (key %d is %s, partition was %s)",
					cutAt, part, i, state, verdict)
			}
		}
		for i := 0; i < crashKeys; i++ {
			if pt.partFor(crashKey(i)) == part {
				v, ok, err := pt.Get(crashKey(i))
				if err != nil {
					t.Fatalf("cut %d: get %d: %v", cutAt, i, err)
				}
				switch i % 3 {
				case 0:
					switch {
					case ok && string(v) == crashOldVal(i):
						note(i, "old")
					case ok && string(v) == crashNewVal(i):
						note(i, "new")
					default:
						t.Fatalf("cut %d: key %d = %q %v (neither epoch)", cutAt, i, v, ok)
					}
				case 1:
					if ok {
						note(i, "old")
					} else {
						note(i, "new")
					}
				case 2: // untouched in the second batch; must hold the old value
					if !ok || string(v) != crashOldVal(i) {
						t.Fatalf("cut %d: stable key %d = %q %v", cutAt, i, v, ok)
					}
				}
			}
			if pt.partFor(crashInsKey(i)) == part {
				v, ok, err := pt.Get(crashInsKey(i))
				if err != nil || !ok {
					t.Fatalf("cut %d: get x %d: %v %v", cutAt, i, ok, err)
				}
				switch string(v) {
				case crashOldVal(i):
					note(i, "old")
				case crashNewVal(i):
					note(i, "new")
				default:
					t.Fatalf("cut %d: x key %d torn: %q", cutAt, i, v)
				}
			}
		}
	}
}

// TestStegDBPartitionedSyncCrashSweep sweeps the cut point across the
// entire commit write window.
func TestStegDBPartitionedSyncCrashSweep(t *testing.T) {
	_, window := runPartitionedCrash(t, -1) // probe: measure the window
	if window < 10 {
		t.Fatalf("commit window only %d writes; workload too small to sweep", window)
	}
	stride := window / 24
	if stride < 1 {
		stride = 1
	}
	if testing.Short() {
		stride = window / 6
	}
	for cut := int64(0); cut <= window; cut += stride {
		img, _ := runPartitionedCrash(t, cut)
		verifyPartitionedCrash(t, img, cut)
	}
	// The exact end of the window (everything durable) must be fully new.
	img, _ := runPartitionedCrash(t, window)
	verifyPartitionedCrash(t, img, window)
}

// TestStegDBPlainTableCrashRecovery: a one-partition (plain) table's commit
// under a cut in the middle of its journal and home writes.
func TestStegDBPlainTableCrashRecovery(t *testing.T) {
	for _, cut := range []int64{0, 1, 3, 7, 15, 40} {
		mem, err := vdisk.NewMemStore(crashBlocks, crashBS)
		if err != nil {
			t.Fatal(err)
		}
		cs := vdisk.NewFaultStore(mem, 1)
		p := stegfs.DefaultParams()
		p.NDummy = 2
		p.DummyAvgSize = 8 << 10
		p.DeterministicKeys = true
		p.Seed = 42
		fs, err := stegfs.Format(cs, p)
		if err != nil {
			t.Fatal(err)
		}
		view := fs.NewHiddenView("db")
		tab, err := CreatePartitionedTable(view, "t", 1, true, 32)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 80; i++ {
			if err := tab.Put(crashKey(i), []byte(crashOldVal(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tab.Sync(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 80; i++ {
			if err := tab.Put(crashKey(i), []byte(crashNewVal(i))); err != nil {
				t.Fatal(err)
			}
		}
		cs.TearAfter(cut, 0)
		_ = tab.Sync() // may error: the mount sees its own dropped writes

		mem2, err := vdisk.NewMemStore(crashBlocks, crashBS)
		if err != nil {
			t.Fatal(err)
		}
		if err := mem2.Restore(mem.Snapshot()); err != nil {
			t.Fatal(err)
		}
		fs2, err := stegfs.Mount(mem2)
		if err != nil {
			t.Fatal(err)
		}
		view2 := fs2.NewHiddenView("db")
		if _, err := CheckAny(view2, view2.Adopt, "t"); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		tab2, err := OpenPartitionedTable(view2, "t")
		if err != nil {
			t.Fatal(err)
		}
		verdict := ""
		for i := 0; i < 80; i++ {
			v, ok, err := tab2.Get(crashKey(i))
			if err != nil || !ok {
				t.Fatalf("cut %d: key %d = %v %v", cut, i, ok, err)
			}
			state := ""
			switch string(v) {
			case crashOldVal(i):
				state = "old"
			case crashNewVal(i):
				state = "new"
			default:
				t.Fatalf("cut %d: key %d torn: %q", cut, i, v)
			}
			if verdict == "" {
				verdict = state
			} else if verdict != state {
				t.Fatalf("cut %d: table mixes epochs at key %d", cut, i)
			}
		}
	}
}
