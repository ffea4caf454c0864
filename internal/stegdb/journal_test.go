package stegdb

import (
	"bytes"
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
