package stegfs

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"stegfs/internal/adversary"
)

// TestPropertyHiddenRoundTrip: create/read is the identity for arbitrary
// payload sizes and keys.
func TestPropertyHiddenRoundTrip(t *testing.T) {
	fs, _ := newTestFS(t, 8192, 512, nil)
	i := 0
	f := func(szRaw uint16, key []byte) bool {
		i++
		name := fmt.Sprintf("u/p%d", i)
		data := mkPayload(int(szRaw)%30000, byte(i))
		if _, err := fs.createHidden(name, key, FlagFile, data); err != nil {
			return false
		}
		r, err := fs.open(name, key, false)
		if err != nil {
			return false
		}
		got, err := fs.readHidden(r)
		fs.release(r)
		if err != nil {
			return false
		}
		if !bytes.Equal(got, data) {
			return false
		}
		// Clean up so the volume does not fill.
		r, err = fs.open(name, key, true)
		if err != nil {
			return false
		}
		fs.destroyHidden(r)
		fs.release(r)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyBitmapLedger: after arbitrary create/delete sequences of
// hidden files, the bitmap's used count equals metadata + abandoned +
// dummies + live files' blocks, and deleting everything restores the
// baseline exactly.
func TestPropertyBitmapLedger(t *testing.T) {
	f := func(ops []uint16) bool {
		fsys, _ := newTestFS(t, 8192, 512, nil)
		view := fsys.NewHiddenView("u")
		base := fsys.FreeBlocks()
		live := map[string]bool{}
		for i, op := range ops {
			if i >= 12 {
				break
			}
			name := fmt.Sprintf("f%d", int(op)%6)
			if live[name] {
				if err := view.Delete(name); err != nil {
					return false
				}
				delete(live, name)
			} else {
				if err := view.Create(name, mkPayload(int(op)%9000+1, byte(i))); err != nil {
					return false
				}
				live[name] = true
			}
		}
		// Account for every live file's blocks.
		var occupied int64
		for name := range live {
			_, all, err := view.BlocksOf(name)
			if err != nil {
				return false
			}
			occupied += int64(len(all))
		}
		if fsys.FreeBlocks() != base-occupied {
			return false
		}
		for name := range live {
			if err := view.Delete(name); err != nil {
				return false
			}
		}
		return fsys.FreeBlocks() == base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMultiFileIsolation: concurrent hidden files never corrupt each
// other, whatever the interleaving of writes.
func TestPropertyMultiFileIsolation(t *testing.T) {
	f := func(writes []uint16) bool {
		fsys, _ := newTestFS(t, 8192, 512, nil)
		view := fsys.NewHiddenView("u")
		const nFiles = 4
		ref := make([][]byte, nFiles)
		for i := 0; i < nFiles; i++ {
			ref[i] = mkPayload(2000+i*777, byte(i))
			if err := view.Create(fmt.Sprintf("f%d", i), ref[i]); err != nil {
				return false
			}
		}
		for j, w := range writes {
			if j >= 10 {
				break
			}
			i := int(w) % nFiles
			ref[i] = mkPayload(int(w)%12000+1, byte(j+100))
			if err := view.Write(fmt.Sprintf("f%d", i), ref[i]); err != nil {
				return false
			}
		}
		for i := 0; i < nFiles; i++ {
			got, err := view.Read(fmt.Sprintf("f%d", i))
			if err != nil || !bytes.Equal(got, ref[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestIndistinguishabilityOnDisk: with full random fill, every data-region
// block — free space, abandoned, dummy, hidden data — passes a uniformity
// test; nothing betrays which blocks hold hidden content.
func TestIndistinguishabilityOnDisk(t *testing.T) {
	fs, store := newTestFS(t, 4096, 1024, nil) // FillVolume=true by default
	view := fs.NewHiddenView("u")
	if err := view.Create("secret", mkPayload(50_000, 9)); err != nil {
		t.Fatal(err)
	}
	var blocks []int64
	for b := fs.DataStart(); b < store.NumBlocks(); b++ {
		blocks = append(blocks, b)
	}
	st, err := adversary.ScanBlocks(store, blocks, 400)
	if err != nil {
		t.Fatal(err)
	}
	if st.Flagged != 0 {
		t.Fatalf("%d of %d data blocks distinguishable from random (max chi2=%.1f)",
			st.Flagged, st.Blocks, st.MaxChi)
	}
}

// TestHiddenBlocksLookLikeFreeBlocks: compare the chi-square distribution of
// blocks holding hidden data against untouched free blocks; their means must
// be statistically indistinguishable.
func TestHiddenBlocksLookLikeFreeBlocks(t *testing.T) {
	fs, store := newTestFS(t, 4096, 1024, nil)
	view := fs.NewHiddenView("u")
	if err := view.Create("secret", mkPayload(80_000, 3)); err != nil {
		t.Fatal(err)
	}
	data, _, err := view.BlocksOf("secret")
	if err != nil {
		t.Fatal(err)
	}
	hiddenStats, err := adversary.ScanBlocks(store, data, 400)
	if err != nil {
		t.Fatal(err)
	}
	var free []int64
	bm := fs.Bitmap()
	for b := fs.DataStart(); b < store.NumBlocks() && len(free) < len(data); b++ {
		if !bm.Test(b) {
			free = append(free, b)
		}
	}
	freeStats, err := adversary.ScanBlocks(store, free, 400)
	if err != nil {
		t.Fatal(err)
	}
	// Both means should hover around 255 (the chi-square dof); a gap larger
	// than 25% would be a distinguisher.
	ratio := hiddenStats.MeanChi / freeStats.MeanChi
	if ratio < 0.75 || ratio > 1.33 {
		t.Fatalf("hidden (%.1f) vs free (%.1f) chi2 means differ by %0.2fx",
			hiddenStats.MeanChi, freeStats.MeanChi, ratio)
	}
}

// TestCentralDirectoryNeverReferencesHidden: a structural deniability
// invariant — no walk of public metadata reaches a hidden block.
func TestCentralDirectoryNeverReferencesHidden(t *testing.T) {
	fs, _ := newTestFS(t, 8192, 512, nil)
	view := fs.NewHiddenView("u")
	if err := fs.Create("public", mkPayload(10_000, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := view.Create(fmt.Sprintf("h%d", i), mkPayload(8_000, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	refs, err := fs.PlainReferencedBlocks()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		_, all, err := view.BlocksOf(fmt.Sprintf("h%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range all {
			if refs[b] {
				t.Fatalf("public metadata references hidden block %d", b)
			}
		}
	}
}

// TestSnapshotAttackBlunted: the §3.1 intruder measures allocation deltas;
// with free pools and dummy churn the delta's precision must be well below
// 1 (many candidates hold no user data).
func TestSnapshotAttackBlunted(t *testing.T) {
	fs, _ := newTestFS(t, 8192, 512, func(p *Params) {
		p.NDummy = 4
		p.DummyAvgSize = 16 * 512
		p.FreeMax = 10
	})
	view := fs.NewHiddenView("u")
	before := fs.Bitmap()
	if err := view.Create("target", mkPayload(20*512, 2)); err != nil {
		t.Fatal(err)
	}
	if err := fs.TickDummies(); err != nil {
		t.Fatal(err)
	}
	after := fs.Bitmap()
	data, _, err := view.BlocksOf("target")
	if err != nil {
		t.Fatal(err)
	}
	truth := map[int64]bool{}
	for _, b := range data {
		truth[b] = true
	}
	res := adversary.DeltaAttack(before, after, nil, truth)
	if res.Candidates <= len(truth) {
		t.Fatalf("delta attack sees only %d candidates for %d data blocks — no cover", res.Candidates, len(truth))
	}
	if res.Precision > 0.5 {
		t.Fatalf("attack precision %.2f too high: dummies/pools not providing cover", res.Precision)
	}
}
