package stegfs

import (
	"bytes"
	"strings"
	"testing"

	"stegfs/internal/stegdb"
	"stegfs/internal/vdisk"
)

func fsckParams() Params {
	p := DefaultParams()
	p.Seed = 41
	p.DeterministicKeys = true
	p.NDummy = 2
	p.FillVolume = false
	p.MaxPlainFiles = 16
	return p
}

// newFsckVolume formats a volume with plain files, keyed hidden files for
// two users, and an embedded stegdb table, then checkpoints it so every
// object is discoverable by a fresh mount.
func newFsckVolume(t *testing.T) (*vdisk.MemStore, CheckOptions) {
	t.Helper()
	mem, err := vdisk.NewMemStore(4096, 512)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Format(mem, fsckParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("readme.txt", []byte("plain one")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("notes.txt", bytes.Repeat([]byte("plain two "), 100)); err != nil {
		t.Fatal(err)
	}
	alice := fs.NewHiddenView("alice")
	for _, name := range []string{"diary", "ledger"} {
		if err := alice.Create(name, bytes.Repeat([]byte(name+" "), 120)); err != nil {
			t.Fatal(err)
		}
	}
	bob := fs.NewHiddenView("bob")
	if err := bob.Create("plans", []byte("short hidden file")); err != nil {
		t.Fatal(err)
	}
	tab, err := stegdb.CreatePartitionedTable(fs.NewHiddenView("db"), "accounts", 1, true, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		k := []byte{byte(i), byte(i >> 4)}
		if err := tab.Put(k, bytes.Repeat(k, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	opts := CheckOptions{
		ViewFiles: map[string][]string{
			"alice": {"diary", "ledger"},
			"bob":   {"plans"},
		},
		Tables: []TableRef{{UID: "db", Name: "accounts"}},
		CheckTable: func(view *HiddenView, name string) ([]string, error) {
			return stegdb.CheckAny(view, view.Adopt, name)
		},
	}
	return mem, opts
}

func TestFsckCleanVolume(t *testing.T) {
	mem, opts := newFsckVolume(t)
	rep, err := Check(mem, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean volume reported errors:\n%s", rep.Summary())
	}
	if rep.PlainFiles != 2 || rep.DummiesChecked != 2 || rep.HiddenChecked != 3 || rep.TablesChecked != 1 {
		t.Fatalf("coverage counts wrong:\n%s", rep.Summary())
	}
	if rep.AccountedBlocks == 0 {
		t.Fatal("no blocks accounted")
	}
	if rep.UsedBlocks+rep.FreeBlocks != 4096 {
		t.Fatalf("block totals inconsistent:\n%s", rep.Summary())
	}
}

// TestFsckKeylessHiddenIsNotAnError: hidden data without keys must be
// counted as unaccounted cover, never flagged — that is the deniability
// contract.
func TestFsckKeylessHiddenIsNotAnError(t *testing.T) {
	mem, opts := newFsckVolume(t)
	full, err := Check(mem, opts)
	if err != nil {
		t.Fatal(err)
	}
	blind, err := Check(mem, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !blind.OK() {
		t.Fatalf("keyless check reported errors:\n%s", blind.Summary())
	}
	if blind.HiddenChecked != 0 || blind.DummiesChecked != 2 {
		t.Fatalf("keyless coverage wrong:\n%s", blind.Summary())
	}
	if blind.UnaccountedUsed <= full.UnaccountedUsed {
		t.Fatalf("withholding keys did not grow the unaccounted set (%d vs %d)",
			blind.UnaccountedUsed, full.UnaccountedUsed)
	}
}

// TestFsckDetectsAndRepairsFreedReachableBlock: clearing a bitmap bit under
// a live hidden file is detected, and -repair re-marks it and persists.
func TestFsckDetectsAndRepairsFreedReachableBlock(t *testing.T) {
	mem, opts := newFsckVolume(t)

	// Reopen and free one of diary's data blocks out from under it.
	fs, err := Mount(mem)
	if err != nil {
		t.Fatal(err)
	}
	alice := fs.NewHiddenView("alice")
	if err := alice.Adopt("diary"); err != nil {
		t.Fatal(err)
	}
	data, _, err := alice.BlocksOf("diary")
	if err != nil {
		t.Fatal(err)
	}
	fs.Alloc().Free(data[0])
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	rep, err := Check(mem, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("freed reachable block not detected")
	}
	found := false
	for _, e := range rep.Errors {
		if strings.Contains(e, "reachable but marked free") {
			found = true
		}
	}
	if !found {
		t.Fatalf("wrong errors:\n%s", rep.Summary())
	}

	repOpts := opts
	repOpts.Repair = true
	rep, err = Check(mem, repOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || len(rep.Repaired) == 0 {
		t.Fatalf("repair pass failed:\n%s", rep.Summary())
	}

	// Repair persisted: a fresh check is clean.
	rep, err = Check(mem, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("volume still dirty after repair:\n%s", rep.Summary())
	}
}

// TestFsckDetectsCorruptSuperblock: garbage in block 0 is a reported
// finding, not a checker crash.
func TestFsckDetectsCorruptSuperblock(t *testing.T) {
	mem, _ := newFsckVolume(t)
	junk := bytes.Repeat([]byte{0xA5}, 512)
	if err := mem.WriteBlock(0, junk); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(mem, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("corrupt superblock not detected")
	}
}

// TestFsckDetectsCorruptHiddenHeader: a bit flip in a hidden file's header
// block fails the header signature check, and the object — whose key we
// hold — is reported missing. (Payload blocks are unauthenticated CTR
// ciphertext; their end-to-end integrity belongs to the IDA share CRCs.)
func TestFsckDetectsCorruptHiddenHeader(t *testing.T) {
	mem, opts := newFsckVolume(t)
	fs, err := Mount(mem)
	if err != nil {
		t.Fatal(err)
	}
	alice := fs.NewHiddenView("alice")
	if err := alice.Adopt("ledger"); err != nil {
		t.Fatal(err)
	}
	_, all, err := alice.BlocksOf("ledger")
	if err != nil {
		t.Fatal(err)
	}
	headerBlk := all[0]
	buf := make([]byte, 512)
	if err := mem.ReadBlock(headerBlk, buf); err != nil {
		t.Fatal(err)
	}
	buf[40] ^= 0x01
	if err := mem.WriteBlock(headerBlk, buf); err != nil {
		t.Fatal(err)
	}

	rep, err := Check(mem, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("corrupt hidden header not detected")
	}
	found := false
	for _, e := range rep.Errors {
		if strings.Contains(e, "ledger") {
			found = true
		}
	}
	if !found {
		t.Fatalf("corruption not attributed to ledger:\n%s", rep.Summary())
	}
}

// TestFsckPartitionedTable: a partitioned stegdb table is discovered from
// its base name, every partition (and journal sibling) is verified and
// accounted, and a missing partition file is an error.
func TestFsckPartitionedTable(t *testing.T) {
	mem, err := vdisk.NewMemStore(8192, 512)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Format(mem, fsckParams())
	if err != nil {
		t.Fatal(err)
	}
	pt, err := stegdb.CreatePartitionedTable(fs.NewHiddenView("db"), "ledger", 3, true, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		k := []byte{byte(i), byte(i >> 4)}
		if err := pt.Put(k, bytes.Repeat(k, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	opts := CheckOptions{
		Tables: []TableRef{{UID: "db", Name: "ledger"}},
		CheckTable: func(view *HiddenView, name string) ([]string, error) {
			return stegdb.CheckAny(view, view.Adopt, name)
		},
	}
	rep, err := Check(mem, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.TablesChecked != 1 {
		t.Fatalf("partitioned table check failed:\n%s", rep.Summary())
	}

	// Every partition's blocks must be accounted: a blind pass (no table
	// ref) leaves strictly more used blocks unaccounted.
	blind, err := Check(mem, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if blind.UnaccountedUsed <= rep.UnaccountedUsed {
		t.Fatalf("table keys did not shrink the unaccounted set (%d vs %d)",
			blind.UnaccountedUsed, rep.UnaccountedUsed)
	}

	// Deleting one partition file must fail discovery loudly.
	fs2, err := Mount(mem)
	if err != nil {
		t.Fatal(err)
	}
	db := fs2.NewHiddenView("db")
	if err := db.Adopt("ledger.p1"); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("ledger.p1"); err != nil {
		t.Fatal(err)
	}
	if err := fs2.Sync(); err != nil {
		t.Fatal(err)
	}
	rep, err = Check(mem, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || rep.TablesChecked != 0 {
		t.Fatalf("missing partition not detected:\n%s", rep.Summary())
	}
}

// TestFsckDetectsMissingKeyedFile: a key whose object does not exist on the
// volume is an error (the caller asserted it should be there).
func TestFsckDetectsMissingKeyedFile(t *testing.T) {
	mem, opts := newFsckVolume(t)
	opts.ViewFiles["alice"] = append(opts.ViewFiles["alice"], "never-created")
	rep, err := Check(mem, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("missing keyed file not detected")
	}
}
