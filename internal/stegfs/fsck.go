package stegfs

// Offline cross-validation of a StegFS image ("stegfsck"). The checker works
// under the same constraint the paper imposes on every observer: without a
// file's access key, its blocks are indistinguishable from abandoned cover
// blocks. So the check is asymmetric — everything the superblock makes
// self-describing (geometry, the metadata region, plain files, the dummy
// set) is verified unconditionally, while hidden objects are verified only
// for the keys the caller supplies. Used blocks no supplied key reaches are
// *counted*, never flagged: they are exactly the abandoned-plus-unknown
// cover set whose unaccountability is the point of the design.

import (
	"fmt"
	"sort"

	"stegfs/internal/sgcrypto"
	"stegfs/internal/vdisk"
)

// KeyRef names one hidden object by its physical name and file access key.
type KeyRef struct {
	Phys string
	FAK  []byte
}

// TableRef names one embedded stegdb table to open and structurally check.
// A nil FAK derives the key from the volume key (DeterministicKeys volumes
// only), mirroring HiddenView.Adopt.
type TableRef struct {
	UID  string
	Name string
	FAK  []byte
}

// CheckOptions selects what a Check pass can see and whether it may write.
type CheckOptions struct {
	// ViewFiles maps uid -> hidden file names whose FAKs derive from the
	// volume key (requires a DeterministicKeys volume).
	ViewFiles map[string][]string
	// Keys lists hidden objects by explicit physical name and FAK.
	Keys []KeyRef
	// Tables lists embedded stegdb tables to open and check.
	Tables []TableRef
	// CheckTable structurally checks one embedded database table through a
	// view and returns the hidden file names the table lives in. Callers
	// wire it to stegdb (CheckAny adopts every file of the table — its
	// members and its journal — into the view, and runs the structural
	// check); stegfs cannot import stegdb
	// itself — the database is a layer *above* the filesystem. The checker
	// then gives each returned file the full hidden-object verification so
	// all of the table's blocks are accounted. Nil limits table checks to
	// the single underlying hidden file named by the TableRef.
	CheckTable func(view *HiddenView, name string) ([]string, error)
	// Repair re-marks reachable-but-free blocks as used and persists the
	// bitmap. Nothing else is mutated; without Repair, Check never writes.
	Repair bool
}

// CheckReport is the outcome of one Check pass.
type CheckReport struct {
	// Errors are inconsistencies found; empty means the image is clean
	// (with respect to the keys supplied).
	Errors []string
	// Repaired describes fixes applied (Repair mode only).
	Repaired []string

	PlainFiles     int
	DummiesChecked int
	HiddenChecked  int
	TablesChecked  int

	// UsedBlocks/FreeBlocks are the bitmap totals after any repair.
	UsedBlocks int64
	FreeBlocks int64
	// AccountedBlocks is how many data-region blocks some checked object
	// owns; UnaccountedUsed is the remainder — abandoned blocks plus hidden
	// objects whose keys were not supplied. Deliberately not an error.
	AccountedBlocks int64
	UnaccountedUsed int64
}

// OK reports whether the pass found no inconsistencies.
func (r *CheckReport) OK() bool { return len(r.Errors) == 0 }

func (r *CheckReport) errf(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// Summary renders the report as a short human-readable block.
func (r *CheckReport) Summary() string {
	s := fmt.Sprintf("plain files:      %d\ndummies checked:  %d\nhidden checked:   %d\ntables checked:   %d\nused blocks:      %d\nfree blocks:      %d\naccounted:        %d\nunaccounted used: %d (abandoned + keyless hidden; by design)\n",
		r.PlainFiles, r.DummiesChecked, r.HiddenChecked, r.TablesChecked,
		r.UsedBlocks, r.FreeBlocks, r.AccountedBlocks, r.UnaccountedUsed)
	for _, fix := range r.Repaired {
		s += "repaired: " + fix + "\n"
	}
	for _, e := range r.Errors {
		s += "ERROR: " + e + "\n"
	}
	return s
}

// deriveViewFAK is HiddenView.Adopt's key derivation, exposed to the checker
// so callers can name files instead of shipping raw keys.
func deriveViewFAK(sb *superblock, uid, name string) []byte {
	sig := sgcrypto.Signature("stegfs.view.fak\x00"+uid+"\x00"+name, sb.volKey[:])
	return sig[:]
}

// Check cross-validates the StegFS image on dev. It mounts the device
// read-only in effect: without opts.Repair no block is written. The returned
// error is reserved for the checker itself failing to run; inconsistencies
// in the image land in the report.
func Check(dev vdisk.Device, opts CheckOptions) (*CheckReport, error) {
	rep := &CheckReport{}

	// 1. Superblock: decode the raw block ourselves so a corrupt superblock
	// is a reported finding, not an opaque mount failure.
	buf := make([]byte, dev.BlockSize())
	if err := dev.ReadBlock(0, buf); err != nil {
		return nil, fmt.Errorf("fsck: read superblock: %w", err)
	}
	sb, err := decodeSuper(buf)
	if err != nil {
		rep.errf("superblock: %v", err)
		return rep, nil
	}
	if got := uint64(dev.NumBlocks()); sb.numBlocks != got {
		rep.errf("superblock: volume claims %d blocks, device has %d", sb.numBlocks, got)
	}
	if got := uint32(dev.BlockSize()); sb.blockSize != got {
		rep.errf("superblock: volume claims block size %d, device has %d", sb.blockSize, got)
	}
	if !(1 <= sb.bmStart && sb.bmStart < sb.inoStart && sb.inoStart < sb.dataStart && sb.dataStart <= sb.numBlocks) {
		rep.errf("superblock: region layout invalid (bm %d, ino %d, data %d, total %d)",
			sb.bmStart, sb.inoStart, sb.dataStart, sb.numBlocks)
	}
	if len(rep.Errors) > 0 {
		// Geometry is broken; everything below would chase bad pointers.
		return rep, nil
	}

	fs, err := Mount(dev)
	if err != nil {
		rep.errf("mount: %v", err)
		return rep, nil
	}

	dataStart := int64(sb.dataStart)
	numBlocks := int64(sb.numBlocks)

	// 2. Metadata region: every block below dataStart is permanently
	// allocated; a clear bit there means the persisted bitmap is damaged.
	for b := int64(0); b < dataStart; b++ {
		if fs.alloc.Test(b) {
			continue
		}
		if opts.Repair && fs.alloc.TryAlloc(b) {
			rep.Repaired = append(rep.Repaired, fmt.Sprintf("re-marked metadata block %d used", b))
		} else {
			rep.errf("metadata block %d is marked free", b)
		}
	}

	// owners maps each accounted data block to the object that claimed it,
	// so cross-object overlaps surface with both names attached.
	owners := make(map[int64]string)
	claim := func(owner string, blocks []int64) {
		for _, b := range blocks {
			if b < 0 || b >= numBlocks {
				rep.errf("%s: block %d outside volume [0, %d)", owner, b, numBlocks)
				continue
			}
			if b < dataStart {
				rep.errf("%s: block %d inside the metadata region [0, %d)", owner, b, dataStart)
				continue
			}
			if prev, dup := owners[b]; dup {
				rep.errf("block %d owned by both %s and %s", b, prev, owner)
				continue
			}
			owners[b] = owner
			if fs.alloc.Test(b) {
				continue
			}
			if opts.Repair && fs.alloc.TryAlloc(b) {
				rep.Repaired = append(rep.Repaired, fmt.Sprintf("re-marked block %d used (reachable from %s)", b, owner))
			} else {
				rep.errf("%s: block %d reachable but marked free", owner, b)
			}
		}
	}

	// 3. Plain files: the central directory is not deniable, so every block
	// it references must be consistent unconditionally.
	rep.PlainFiles = len(fs.PlainNames())
	plainBlocks, err := fs.plain.ReferencedBlocks()
	if err != nil {
		rep.errf("plain directory: %v", err)
	} else {
		blocks := make([]int64, 0, len(plainBlocks))
		for b := range plainBlocks {
			blocks = append(blocks, b)
		}
		sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
		claim("plainfs", blocks)
	}

	// checkObject opens one hidden object, validates its header checksum
	// (open re-reads the header and verifies its embedded signature),
	// walks and claims its ptree blocks, and re-reads the full payload so a
	// damaged ptree or unreadable block surfaces. Payload *content* is CTR
	// ciphertext with no per-block MAC, so a flipped payload bit decrypts to
	// a flipped plaintext bit that neither this check nor a read can see.
	checkObject := func(label, phys string, fak []byte) bool {
		r, err := fs.open(phys, fak, false)
		if err != nil {
			rep.errf("%s: %v", label, err)
			return false
		}
		blocks, err := fs.hiddenBlocks(r)
		fs.release(r)
		if err != nil {
			rep.errf("%s: block walk: %v", label, err)
			return false
		}
		claim(label, blocks)
		if _, err := fs.readHiddenObject(phys, fak); err != nil {
			rep.errf("%s: payload: %v", label, err)
			return false
		}
		return true
	}

	// 4. Dummies: their keys derive from the superblock's volume key, so the
	// system-maintained cover set is always checkable offline.
	for i := 0; i < int(sb.nDummy); i++ {
		if checkObject(fmt.Sprintf("dummy %d", i), dummyPhys(i), fs.dummyFAK(i)) {
			rep.DummiesChecked++
		}
	}

	// 5. Keyed hidden objects.
	var keyed []KeyRef
	if len(opts.ViewFiles) > 0 && sb.flags&flagDeterministicKeys == 0 {
		rep.errf("ViewFiles given but the volume was not formatted with DeterministicKeys")
	} else {
		uids := make([]string, 0, len(opts.ViewFiles))
		for uid := range opts.ViewFiles {
			uids = append(uids, uid)
		}
		sort.Strings(uids)
		for _, uid := range uids {
			for _, name := range opts.ViewFiles[uid] {
				keyed = append(keyed, KeyRef{Phys: uid + "/" + name, FAK: deriveViewFAK(sb, uid, name)})
			}
		}
	}
	keyed = append(keyed, opts.Keys...)
	for _, k := range keyed {
		if checkObject(fmt.Sprintf("hidden %q", k.Phys), k.Phys, k.FAK) {
			rep.HiddenChecked++
		}
	}

	// 6. Embedded database tables: the injected checker runs first — it is
	// the only layer that knows whether the name is a plain table or the
	// zeroth member of a partitioned one, and it adopts every constituent
	// hidden file (partitions, journal siblings) into the view as it
	// discovers them. Each discovered file then gets the full object check
	// (header CRC, ptree walk, block accounting) using the key the view
	// remembered at adoption, so a multi-file table is accounted whole.
	for _, tr := range opts.Tables {
		label := fmt.Sprintf("table %s/%s", tr.UID, tr.Name)
		if tr.FAK == nil && sb.flags&flagDeterministicKeys == 0 {
			rep.errf("%s: nil FAK requires a DeterministicKeys volume", label)
			continue
		}
		if opts.CheckTable == nil {
			// No database layer injected: only the named hidden file can be
			// verified (partitioned tables need CheckTable for discovery).
			fak := tr.FAK
			if fak == nil {
				fak = deriveViewFAK(sb, tr.UID, tr.Name)
			}
			if checkObject(label, tr.UID+"/"+tr.Name, fak) {
				rep.TablesChecked++
			}
			continue
		}
		view := fs.NewHiddenView(tr.UID)
		if tr.FAK != nil {
			if err := view.AdoptWithFAK(tr.Name, tr.FAK); err != nil {
				rep.errf("%s: %v", label, err)
				continue
			}
		}
		files, err := opts.CheckTable(view, tr.Name)
		if err != nil {
			rep.errf("%s: %v", label, err)
			continue
		}
		clean := true
		for _, f := range files {
			fak, err := view.fakFor(f)
			if err != nil {
				rep.errf("%s: constituent %q: %v", label, f, err)
				clean = false
				continue
			}
			if !checkObject(fmt.Sprintf("%s file %q", label, f), tr.UID+"/"+f, fak) {
				clean = false
			}
		}
		if clean {
			rep.TablesChecked++
		}
	}

	// 7. Accounting. Used-but-unowned data blocks are counted, not flagged:
	// distinguishing abandoned cover from keyless hidden data is exactly
	// what the scheme makes impossible.
	for b := dataStart; b < numBlocks; b++ {
		if !fs.alloc.Test(b) {
			continue
		}
		if _, ok := owners[b]; ok {
			rep.AccountedBlocks++
		} else {
			rep.UnaccountedUsed++
		}
	}
	rep.FreeBlocks = fs.alloc.FreeBlocks()
	rep.UsedBlocks = numBlocks - rep.FreeBlocks

	// 8. Persist repairs. This is the only write path in the checker.
	if opts.Repair && len(rep.Repaired) > 0 {
		if err := fs.Sync(); err != nil {
			rep.errf("repair: persisting bitmap: %v", err)
		}
	}
	return rep, nil
}
