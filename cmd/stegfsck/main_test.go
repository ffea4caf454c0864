package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"stegfs/internal/stegdb"
	"stegfs/internal/stegfs"
	"stegfs/internal/vdisk"
)

// newImage formats a DeterministicKeys volume image holding one hidden
// file (alice/diary) and a one-partition stegdb table (db/accounts).
func newImage(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "vol.img")
	store, err := vdisk.CreateFileStore(path, 4096, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	p := stegfs.DefaultParams()
	p.Seed = 7
	p.DeterministicKeys = true
	p.NDummy = 2
	p.DummyAvgSize = 8 << 10
	fs, err := stegfs.Format(store, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.NewHiddenView("alice").Create("diary", []byte("dear diary")); err != nil {
		t.Fatal(err)
	}
	tab, err := stegdb.CreatePartitionedTable(fs.NewHiddenView("db"), "accounts", 1, true, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tab.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitCodes: a clean image, inconsistencies found, a usage error and a
// check that could not complete each get their own exit status.
func TestExitCodes(t *testing.T) {
	img := newImage(t)
	odd := filepath.Join(t.TempDir(), "odd.img")
	if err := os.WriteFile(odd, make([]byte, 1000), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"clean", []string{"-uid", "alice", "-names", "diary", "-table", "db/accounts", img}, exitClean},
		{"missing keyed file", []string{"-uid", "alice", "-names", "diary,never-created", img}, exitInconsistent},
		{"missing table", []string{"-table", "db/no-such-table", img}, exitInconsistent},
		{"no image", []string{}, exitUsage},
		{"bad -table", []string{"-table", "accounts", img}, exitUsage},
		{"image does not exist", []string{filepath.Join(t.TempDir(), "absent.img")}, exitIncomplete},
		{"image not whole blocks", []string{odd}, exitIncomplete},
	} {
		if got := run(tc.args, io.Discard, io.Discard); got != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.want)
		}
	}
}
