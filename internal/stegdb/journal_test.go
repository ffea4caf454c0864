package stegdb

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// countingView counts the bytes written through it to journal files and to
// home files.
type countingView struct {
	View
	mu                  sync.Mutex
	walBytes, homeBytes int
}

func (v *countingView) WriteAt(name string, p []byte, off int64) (int, error) {
	v.mu.Lock()
	if strings.HasSuffix(name, walSuffix) {
		v.walBytes += len(p)
	} else {
		v.homeBytes += len(p)
	}
	v.mu.Unlock()
	return v.View.WriteAt(name, p, off)
}

// TestStegDBJournalIsChangedBytes: a commit journals and homes the bytes
// it changed, not the pages it touched. One 100-byte replace Put plus Sync
// writes under 512 B to the journal and under 512 B home; a Put that puts
// a row's committed value back changes no page and no meta field, so its
// commit writes nothing to the journal and nothing home.
func TestStegDBJournalIsChangedBytes(t *testing.T) {
	view, _ := newView(t, 16<<10)
	cv := &countingView{View: view}
	tab, err := CreatePartitionedTable(cv, "jt", 1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	val := func(tag byte) []byte { return bytes.Repeat([]byte{tag}, 100) }
	for i := 0; i < 60; i++ {
		if err := tab.Put(u64key(i), val('a')); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		min, max int
	}{
		{"replace", 1, 511},
		{"restore", 0, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			cv.walBytes, cv.homeBytes = 0, 0
			if c.name == "restore" {
				// Dirty the row, then put its committed value back.
				if err := tab.Put(u64key(30), val('z')); err != nil {
					t.Fatal(err)
				}
			}
			if err := tab.Put(u64key(30), val('b')); err != nil {
				t.Fatal(err)
			}
			if err := tab.Sync(); err != nil {
				t.Fatal(err)
			}
			if cv.walBytes < c.min || cv.walBytes > c.max || cv.homeBytes < c.min || cv.homeBytes > c.max {
				t.Fatalf("commit wrote %d journal and %d home bytes, want %d..%d each",
					cv.walBytes, cv.homeBytes, c.min, c.max)
			}
		})
	}
	if v, ok, err := tab.Get(u64key(30)); err != nil || !ok || !bytes.Equal(v, val('b')) {
		t.Fatalf("row 30 = %q %v %v", v, ok, err)
	}
}

// TestStegDBReplaysV1Journal: a journal of the older whole-page format
// (SGWL0001) still replays. The home file is rolled back to its first
// commit and a hand-built v1 journal holds every page the second commit
// changed; opening the table must replay it to the second commit.
func TestStegDBReplaysV1Journal(t *testing.T) {
	mv := &memView{files: map[string][]byte{}}
	tab, err := CreatePartitionedTable(mv, "db", 1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	row := func(i, round int) []byte { return []byte(fmt.Sprintf("row-%d-%d", i, round)) }
	var first []byte
	for round := 0; round < 2; round++ {
		for i := 0; i < 200; i++ {
			if err := tab.Put(u64key(i*(round+1)), row(i, round)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tab.Sync(); err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			first = append([]byte(nil), mv.files["db"]...)
		}
	}
	second := mv.files["db"]
	var ids []int64
	var imgs [][]byte
	for id := int64(0); id < int64(len(second))/PageSize; id++ {
		img := second[id*PageSize : (id+1)*PageSize]
		if id*PageSize >= int64(len(first)) || !bytes.Equal(img, first[id*PageSize:(id+1)*PageSize]) {
			ids, imgs = append(ids, id), append(imgs, img)
		}
	}
	if len(ids) < 2 {
		t.Fatalf("the second commit changed %d pages, want several", len(ids))
	}
	mv.files["db"] = first
	mv.files["db.wal"] = v1Journal(2, ids, imgs)
	reopened, err := OpenPartitionedTable(mv, "db")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mv.files["db"], second) {
		t.Fatal("replaying the v1 journal did not restore the second commit's home file")
	}
	if err := reopened.Check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if v, ok, err := reopened.Get(u64key(2 * i)); err != nil || !ok || !bytes.Equal(v, row(i, 1)) {
			t.Fatalf("key %d = %q %v %v, want %q", 2*i, v, ok, err, row(i, 1))
		}
	}
}

// TestStegDBLegacyJournalsInvalidated: a table last committed by the older
// per-file format has a valid SGWL0002 journal in every member's journal
// file. Opening it replays each, and must invalidate those of the members
// past the first: a group commit never rewrites them, so one left valid
// would replay over the group commit's home writes at the next open and
// roll its partition back. The table is rolled back to its first commit
// with hand-built v2 journals holding the second; it is opened, group
// committed (the reopen reads the member files as the commit's home writes
// left them), and reopened: every row must hold the group commit's value.
func TestStegDBLegacyJournalsInvalidated(t *testing.T) {
	const parts = 3
	mv := &memView{files: map[string][]byte{}}
	tab, err := CreatePartitionedTable(mv, "db", parts, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	row := func(i, round int) []byte { return []byte(fmt.Sprintf("row-%d-%d", i, round)) }
	put := func(tab *PartitionedTable, round int) {
		t.Helper()
		for i := 0; i < 200; i++ {
			if err := tab.Put(u64key(i), row(i, round)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tab.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	check := func(tab *PartitionedTable, round int) {
		t.Helper()
		if err := tab.Check(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if v, ok, err := tab.Get(u64key(i)); err != nil || !ok || !bytes.Equal(v, row(i, round)) {
				t.Fatalf("key %d = %q %v %v, want %q", i, v, ok, err, row(i, round))
			}
		}
	}
	first := map[string][]byte{}
	for round := 0; round < 2; round++ {
		if round == 1 {
			for i := 0; i < parts; i++ {
				first[partName("db", i)] = append([]byte(nil), mv.files[partName("db", i)]...)
			}
		}
		put(tab, round)
	}
	// Roll every member back to the first commit and leave it a v2 journal
	// of the second: the per-file format's state after its last commit.
	for name, img := range first {
		second := mv.files[name]
		var recs []walRecord
		for id := int64(0); id < int64(len(second))/PageSize; id++ {
			base := []byte(nil)
			if id*PageSize < int64(len(img)) {
				base = img[id*PageSize : (id+1)*PageSize]
			}
			if lo, hi := changedRange(base, second[id*PageSize:(id+1)*PageSize]); lo < hi {
				recs = append(recs, walRecord{id: id, off: lo, data: second[id*PageSize+int64(lo) : id*PageSize+int64(hi)]})
			}
		}
		if len(recs) == 0 {
			t.Fatalf("the second commit changed nothing in %s", name)
		}
		mv.files[name+walSuffix] = v2Journal(2, recs)
		mv.files[name] = append(img, make([]byte, len(second)-len(img))...)
	}
	tab, err = OpenPartitionedTable(mv, "db")
	if err != nil {
		t.Fatal(err)
	}
	check(tab, 1)
	for i := 1; i < parts; i++ {
		if wal := mv.files[partName("db", i)+walSuffix]; string(wal[:8]) == walMagicV2 {
			t.Fatalf("%s%s still holds a v2 journal after the open", partName("db", i), walSuffix)
		}
	}
	put(tab, 2)
	tab, err = OpenPartitionedTable(mv, "db")
	if err != nil {
		t.Fatal(err)
	}
	check(tab, 2)
}
