package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
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
	tab, err := stegdb.CreatePartitionedTable(fs.NewHiddenView("db"), "accounts", 1, false, 0)
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

// TestOldFormatTable: a table of the stegdb format before this one is not
// checked as if it were current: -table reports it by that format's name
// and exits non-zero. Both old layouts are covered: magic SGDB0001 in a
// first member (db/accounts), and the one-file layout, a lone hidden file
// with no first member (db/legacy), whose bytes the check must not change.
func TestOldFormatTable(t *testing.T) {
	img := newImage(t)
	if got := run([]string{"-table", "db/accounts", img}, io.Discard, io.Discard); got != exitClean {
		t.Fatalf("setup: clean table exit %d", got)
	}
	store, err := vdisk.OpenFileStore(img, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	fs, err := stegfs.Mount(store)
	if err != nil {
		t.Fatal(err)
	}
	view := fs.NewHiddenView("db")
	if err := view.Adopt("accounts.p0"); err != nil {
		t.Fatal(err)
	}
	if _, err := view.WriteAt("accounts.p0", []byte("SGDB0001"), 0); err != nil {
		t.Fatal(err)
	}
	legacy := append([]byte("SGDB0001"), make([]byte, 8*4096-8)...)
	if err := view.Create("legacy", legacy); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"db/accounts", "db/legacy"} {
		var out strings.Builder
		if got := run([]string{"-table", table, img}, &out, io.Discard); got == exitClean {
			t.Fatalf("%s: an SGDB0001 table checked clean:\n%s", table, out.String())
		}
		if !strings.Contains(out.String(), "SGDB0001") {
			t.Fatalf("%s: the report does not name the old format:\n%s", table, out.String())
		}
	}
	fs, err = stegfs.Mount(store)
	if err != nil {
		t.Fatal(err)
	}
	view = fs.NewHiddenView("db")
	if err := view.Adopt("legacy"); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(legacy))
	if _, err := view.ReadAt("legacy", got, 0); err != nil || !bytes.Equal(got, legacy) {
		t.Fatalf("checking the one-file table changed its bytes (err %v)", err)
	}
}
