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
// a row's committed value back changes no page, so its commit journals
// only the meta page's new epoch.
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
		name  string
		val   byte
		under int
	}{
		{"replace", 'b', 512},
		{"restore", 'b', walHdrEnd + walRecHdr + 8 + 1}, // at most the 8-byte epoch stamp
	} {
		t.Run(c.name, func(t *testing.T) {
			cv.walBytes, cv.homeBytes = 0, 0
			if c.name == "restore" {
				// Dirty the row, then put its committed value back.
				if err := tab.Put(u64key(30), val('z')); err != nil {
					t.Fatal(err)
				}
			}
			if err := tab.Put(u64key(30), val(c.val)); err != nil {
				t.Fatal(err)
			}
			if err := tab.Sync(); err != nil {
				t.Fatal(err)
			}
			if cv.walBytes == 0 || cv.walBytes >= c.under || cv.homeBytes >= c.under {
				t.Fatalf("commit wrote %d journal and %d home bytes, want 1..%d each",
					cv.walBytes, cv.homeBytes, c.under-1)
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
