package stegdb

import (
	"encoding/binary"
	"fmt"
	"maps"
	"strings"
	"testing"

	"stegfs/internal/stegfs"
	"stegfs/internal/vdisk"
)

// Group-commit crash consistency: a partitioned table's Sync is run with a
// vdisk.FaultStore cut (TearAfter(n, 0)) dropping every device write past
// the cut point, the surviving image is remounted (journal recovery runs at
// open), and the WHOLE table must be at exactly the old or the new epoch —
// never a mix within a partition, nor one partition old and another new —
// at every cut point across the commit's whole write window.

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
	pt, err := CreatePartitionedTable(view, "t", crashParts, false, 0)
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
	// as outdated reads and surface an error — that IS the crash; only the
	// surviving image matters. Without a cut the commit must succeed.
	if err := pt.Sync(); err != nil && cutAt < 0 {
		t.Fatalf("probe Sync: %v", err)
	}
	return mem.Snapshot(), cs.Writes() - pre
}

// verifyPartitionedCrash remounts a surviving image (running journal
// recovery), checks the table, and enforces one old-or-new verdict for the
// whole table.
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
	// Classify the table: every key, whichever partition it routes to, must
	// be uniformly at the old or the new epoch.
	verdict, verdictPart := "", 0 // "", "old" or "new"; the partition that set it
	for part := 0; part < crashParts; part++ {
		note := func(i int, state string) {
			if verdict == "" {
				verdict, verdictPart = state, part
			} else if verdict != state {
				t.Fatalf("cut %d: table mixes epochs (key %d in partition %d is %s, partition %d was %s)",
					cutAt, i, part, state, verdictPart, verdict)
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
		tab, err := CreatePartitionedTable(view, "t", 1, false, 0)
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

// crashModel is one partition's expected rows before and after the cut
// round; a key absent from a map is absent from that epoch.
type crashModel struct{ old, new map[string]string }

// runRecordKindsCrash is runPartitionedCrash for a cut round that makes
// every kind of journal record. Partition 0 takes enough inserts to split
// a leaf (the new right half is written blind, so it is journaled whole)
// and in-place replaces (range records); partition 1 takes replaces only;
// partition 2 takes only a Put+Delete of a fresh key, so its leaf is dirty
// but back at its committed bytes and is neither journaled nor homed. It
// returns the surviving image, the window's write count and each
// partition's model.
func runRecordKindsCrash(t *testing.T, cutAt int64) ([]byte, int64, []crashModel) {
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
	pt, err := CreatePartitionedTable(fs.NewHiddenView("db"), "t", crashParts, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	models := make([]crashModel, crashParts)
	for i := range models {
		models[i] = crashModel{old: map[string]string{}, new: map[string]string{}}
	}
	put := func(k, v string) {
		if err := pt.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < crashKeys; i++ {
		k := string(crashKey(i))
		put(k, crashOldVal(i))
		m := models[pt.partFor([]byte(k))]
		m.old[k], m.new[k] = crashOldVal(i), crashOldVal(i)
	}
	if err := pt.Sync(); err != nil { // the old epoch every cut must preserve
		t.Fatal(err)
	}
	pages := pt.parts[0].pg.NumPages()
	for i := 0; i < crashKeys; i++ {
		k := string(crashKey(i))
		if part := pt.partFor([]byte(k)); part < 2 && i%3 == 0 {
			put(k, crashNewVal(i))
			models[part].new[k] = crashNewVal(i)
		}
	}
	for i, n := 0, 0; n < 100; i++ {
		k := fmt.Sprintf("s%04d", i)
		if pt.partFor([]byte(k)) != 0 {
			continue
		}
		v := strings.Repeat(crashNewVal(i), 5)
		put(k, v)
		models[0].new[k] = v
		n++
	}
	for i := 0; ; i++ {
		k := fmt.Sprintf("z%04d", i)
		if pt.partFor([]byte(k)) != 2 {
			continue
		}
		put(k, "transient")
		if _, err := pt.Delete([]byte(k)); err != nil {
			t.Fatal(err)
		}
		break
	}
	if pt.parts[0].pg.NumPages() == pages {
		t.Fatal("the cut round split no leaf of partition 0")
	}
	pre := cs.Writes()
	if cutAt >= 0 {
		cs.TearAfter(cutAt, 0)
	}
	if err := pt.Sync(); err != nil && cutAt < 0 {
		t.Fatalf("probe Sync: %v", err)
	}
	if cutAt < 0 {
		checkRecordKinds(t, pt)
	}
	return mem.Snapshot(), cs.Writes() - pre, models
}

// checkRecordKinds reads back the group journal the table just committed
// and checks the record kinds the cut round was built to make: a whole new
// page and byte ranges in partition 0, only ranges in partition 1, and no
// data page of partition 2.
func checkRecordKinds(t *testing.T, pt *PartitionedTable) {
	t.Helper()
	wal := pt.wal
	hdr := make([]byte, walHdrEnd)
	if _, err := pt.view.ReadAt(wal, hdr, 0); err != nil {
		t.Fatal(err)
	}
	if string(hdr[:8]) != walMagic || binary.BigEndian.Uint64(hdr[walHdrMembers:]) != crashParts {
		t.Fatalf("journal %s is %q of %d members, want a group journal of %d",
			wal, hdr[:8], binary.BigEndian.Uint64(hdr[walHdrMembers:]), crashParts)
	}
	body := make([]byte, binary.BigEndian.Uint64(hdr[walHdrLen:]))
	if _, err := pt.view.ReadAt(wal, body, walHdrEnd); err != nil {
		t.Fatal(err)
	}
	recs, err := parseJournal(body, int(binary.BigEndian.Uint64(hdr[walHdrCount:])), crashParts)
	if err != nil {
		t.Fatal(err)
	}
	for part := range pt.parts {
		whole, ranges := 0, 0 // data-page records; the meta's is page 0
		for _, r := range recs {
			switch {
			case r.member != part, r.id == 0:
			case len(r.data) == PageSize:
				whole++
			default:
				ranges++
			}
		}
		switch {
		case part == 0 && (whole == 0 || ranges == 0),
			part == 1 && (whole != 0 || ranges == 0),
			part == 2 && whole+ranges != 0:
			t.Fatalf("partition %d journaled %d whole pages and %d ranges", part, whole, ranges)
		}
	}
}

// verifyRecordKindsCrash remounts a surviving image and requires every
// partition to equal its old model exactly, or every partition its new
// one.
func verifyRecordKindsCrash(t *testing.T, img []byte, cutAt int64, models []crashModel) {
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
	verdict := ""
	for part, m := range models {
		got := map[string]string{}
		s := pt.parts[part].pg.BeginSnapshot()
		err := mergeRange([]*Snapshot{s}, nil, nil, func(k, v []byte) bool {
			got[string(k)] = string(v)
			return true
		})
		s.Close()
		if err != nil {
			t.Fatalf("cut %d: scan partition %d: %v", cutAt, part, err)
		}
		state := ""
		switch {
		case maps.Equal(got, m.old) && maps.Equal(got, m.new):
			continue // the cut round left this partition's rows alone
		case maps.Equal(got, m.old):
			state = "old"
		case maps.Equal(got, m.new):
			state = "new"
		default:
			t.Fatalf("cut %d: partition %d holds %d rows matching neither epoch (old %d rows, new %d)",
				cutAt, part, len(got), len(m.old), len(m.new))
		}
		if verdict == "" {
			verdict = state
		} else if verdict != state {
			t.Fatalf("cut %d: partition %d is %s, an earlier partition %s", cutAt, part, state, verdict)
		}
	}
}

// TestStegDBPartitionedCrashSweepRecordKinds sweeps the cut point across a
// commit that journals whole pages, byte ranges and an unchanged page side
// by side: every cut must remount the whole table entirely old or entirely
// new.
func TestStegDBPartitionedCrashSweepRecordKinds(t *testing.T) {
	_, window, _ := runRecordKindsCrash(t, -1)
	if window < 10 {
		t.Fatalf("commit window only %d writes; workload too small to sweep", window)
	}
	stride := max(window/24, 1)
	if testing.Short() {
		stride = max(window/6, 1)
	}
	for cut := int64(0); cut < window; cut += stride {
		img, _, models := runRecordKindsCrash(t, cut)
		verifyRecordKindsCrash(t, img, cut, models)
	}
	img, _, models := runRecordKindsCrash(t, window)
	verifyRecordKindsCrash(t, img, window, models)
}
