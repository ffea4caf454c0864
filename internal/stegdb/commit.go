package stegdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"sync"
)

// Commit pipeline: stegdb turns every Pager.Sync into an atomic commit via
// a physical redo journal kept in a sibling hidden file (name + ".wal").
// The cache is no-steal (dirty pages never reach the home file outside a
// commit), so the home file always holds exactly the last committed epoch,
// and the commit sequence is:
//
//  1. prepare  — pin an internal snapshot (epoch + full meta image,
//     atomically) and capture every dirty page AS OF that epoch: the live
//     frame when its last write predates the pin, else the copy-on-write
//     version the snapshot machinery saved. The captured cut is exactly
//     the snapshot's state, hence consistent even while writers keep
//     running. Each captured image is compared with the page's base (see
//     below) to find the one byte range [lo,hi) outside which they agree.
//  2. journal  — write the header (epoch, count, length, CRCs) and the
//     range records packed after it, meta last.
//  3. barrier  — view.Sync(): journal durable before any home write.
//  4. home     — write each record's range to the home file, then clear
//     dirty flags write-wins (a frame or the meta re-dirtied since capture
//     stays dirty for the next commit).
//  5. epoch++  — later snapshots pin post-commit state.
//  6. barrier  — view.Sync(): home durable; the journal is now dead weight
//     until the next commit overwrites it.
//
// Bases: a frame's base is its page's home image as of the last successful
// commit, kept in memory (pageEntry.base, Pager.metaBase for page 0) and
// never read back from the device. writePage copies a valid frame into
// its base on the clean→dirty transition; a successful commit makes the
// homed image the base of a frame that is still dirty and drops the base
// of a frame it cleaned. A frame without a base (a page written blind, or
// the meta before the first commit) journals and homes the whole page. So
// journal, home and replay all move exactly the bytes a commit changed,
// and a page that returned to its committed bytes moves nothing.
//
// Failure rule: a commit that fails after prepare — in the journal write,
// either barrier or a home write — may leave the home file holding a mix
// of two commits, so it drops every base it captured (and metaBase): the
// next commit journals and homes those pages whole.
//
// Recovery (recoverWAL, at OpenPager): if the journal header and body
// check out, replay every record into the home file and barrier. A crash
// before step 3 leaves an invalid journal (CRC) and an untouched home file
// (old epoch); a crash after it leaves a valid journal whose replay
// produces the new epoch: outside its ranges the new epoch equals the
// bases, which are what the home file held, so a partly homed commit is
// completed. Replay is idempotent, and a journal can never be both valid
// and older than the home file (the home writes of commit N+1 start only
// after commit N+1's journal landed). The database therefore remounts at
// exactly the old or the new epoch — never a mix. Journals of the older
// whole-page format (walMagicV1) replay through the same loop.

// walSuffix names the journal sibling of a database file.
const walSuffix = ".wal"

// walMagic marks a journal header followed by packed range records;
// walMagicV1 marks the older layout, whose whole-page records start at
// byte PageSize.
const (
	walMagic   = "SGWL0002"
	walMagicV1 = "SGWL0001"
)

// walHeader layout (the journal file's first bytes): magic(8) epoch(8)
// count(8) journalLen(8) journalCRC(8) headerCRC(8). A record is
// page id(8) off(4) len(4) then len bytes; a v1 record is page id(8) and
// a whole page image.
const (
	walHdrEpoch     = 8
	walHdrCount     = 16
	walHdrLen       = 24
	walHdrJCRC      = 32
	walHdrHCRC      = 40
	walHdrEnd       = 48
	walRecHdr       = 16
	walV1RecordSize = 8 + PageSize
)

// walMaxRecords bounds a plausible journal (sanity check on recovery).
const walMaxRecords = 1 << 20

var walCRCTable = crc64.MakeTable(crc64.ECMA)

// groupCommit batches concurrent committers: the first caller becomes the
// leader and runs commits; callers arriving while one is in flight join a
// shared batch that the leader serves with ONE further commit, amortizing
// the journal write and both barriers across the whole batch.
type groupCommit struct {
	// mu is deliberately unleveled: it guards only the two fields below,
	// never wraps another acquisition, and is held for pointer flips.
	mu sync.Mutex
	// lockcheck:guardedby mu
	running bool
	// lockcheck:guardedby mu
	waiting *commitBatch
}

type commitBatch struct {
	done chan struct{}
	err  error
}

// do runs fn now (leader) or returns the result of the batched commit that
// starts after the caller joined (follower). Either way, every write the
// caller made before do() is covered by the commit whose result it gets.
func (g *groupCommit) do(fn func() error) error {
	g.mu.Lock()
	if !g.running {
		g.running = true
		g.mu.Unlock()
		err := fn()
		g.mu.Lock()
		for g.waiting != nil {
			b := g.waiting
			g.waiting = nil
			g.mu.Unlock()
			b.err = fn()
			close(b.done)
			g.mu.Lock()
		}
		g.running = false
		g.mu.Unlock()
		return err
	}
	b := g.waiting
	if b == nil {
		b = &commitBatch{done: make(chan struct{})}
		g.waiting = b
	}
	g.mu.Unlock()
	<-b.done
	return b.err
}

// walRecord is one journal record: data belongs at byte off of page id.
// The same records drive the journal, the home writes and replay.
type walRecord struct {
	id   int64
	off  int
	data []byte
}

// pageCut is one dirty page captured for a commit.
type pageCut struct {
	e      *pageEntry
	img    []byte // the page as of the commit epoch
	lo, hi int    // img differs from the page's base only in [lo,hi)
	live   bool   // img is the live frame: clear its dirty flag after homing
	gen    uint64 // ... unless a write since generation gen re-dirtied it
}

// commitState carries one commit's consistent cut between pipeline phases.
type commitState struct {
	entries   []*pageEntry // every dirty frame at capture, pinned
	cuts      []pageCut    // captured pages, ascending id
	recs      []walRecord  // the changed ranges of cuts, then of the meta
	meta      [PageSize]byte
	metaGen   uint64
	metaClean bool // meta unchanged since its last commit
	epoch     int64
}

// empty reports a commit with nothing to journal: Sync degenerates to a
// bare volume barrier.
func (st *commitState) empty() bool { return len(st.cuts) == 0 && st.metaClean }

// changedRange returns the one range [lo,hi) outside which img equals
// base: writing img[lo:hi] at lo into base yields img, and lo == hi
// exactly when they are equal. A nil base differs everywhere.
func changedRange(base, img []byte) (lo, hi int) {
	if base == nil {
		return 0, len(img)
	}
	const chunk = 64 // compare in chunks bytes.Equal runs vectorized
	for lo+chunk <= len(img) && bytes.Equal(base[lo:lo+chunk], img[lo:lo+chunk]) {
		lo += chunk
	}
	for lo < len(img) && base[lo] == img[lo] {
		lo++
	}
	hi = len(img)
	for hi-chunk >= lo && bytes.Equal(base[hi-chunk:hi], img[hi-chunk:hi]) {
		hi -= chunk
	}
	for hi > lo && base[hi-1] == img[hi-1] {
		hi--
	}
	return lo, hi
}

// commit runs one commit of pgs, every pager a file of view — one pager
// for Pager.Sync, every partition for PartitionedTable.Sync. The phases
// above run across the whole set with shared barriers: every non-empty cut
// is journaled, ONE barrier makes all journals durable, every cut goes
// home, and ONE more barrier makes the homes durable, whatever the pager
// count. Commit locks are taken in slice order (the commitMu class is
// multi for exactly this walk), so concurrent commits cannot deadlock.
func commit(view View, pgs []*Pager) error {
	lockCommits(pgs)
	defer unlockCommits(pgs)
	states := make([]*commitState, len(pgs))
	release := func() {
		for i, st := range states {
			pgs[i].releaseCommit(st)
		}
	}
	work := false
	for i, pg := range pgs {
		st, err := pg.commitPrepare()
		states[i] = st
		if err != nil {
			release()
			return err
		}
		if !st.empty() {
			work = true
		}
	}
	if work {
		for i, pg := range pgs {
			if states[i].empty() {
				continue
			}
			if err := pg.writeWAL(states[i]); err != nil {
				return abortCommit(pgs, states, err)
			}
		}
		if err := view.Sync(); err != nil { // one barrier: all journals durable
			return abortCommit(pgs, states, err)
		}
		var errs []error
		for i, pg := range pgs {
			if states[i].empty() {
				continue
			}
			if err := pg.commitHome(states[i]); err != nil {
				errs = append(errs, fmt.Errorf("stegdb: commit %s: %w", pg.name, err))
			}
		}
		if len(errs) > 0 {
			return abortCommit(pgs, states, errors.Join(errs...))
		}
	}
	for _, pg := range pgs {
		pg.bumpEpoch()
	}
	if err := view.Sync(); err != nil { // one barrier: all homes durable (a bare barrier when nothing was cut)
		return abortCommit(pgs, states, err)
	}
	release()
	return nil
}

// abortCommit applies the failure rule to a commit that failed after
// prepare: the home files may now hold a mix of two commits, so every
// captured base is dropped. It releases the commit's pins and returns err.
//
// lockcheck:holds stegdb/commitMu
func abortCommit(pgs []*Pager, states []*commitState, err error) error {
	for i, st := range states {
		pgs[i].dropBases(st)
		pgs[i].releaseCommit(st)
	}
	return err
}

// lockCommits takes every pager's commit lock, in slice order.
//
// lockcheck:acquire stegdb/commitMu
func lockCommits(pgs []*Pager) {
	for _, pg := range pgs {
		pg.commitMu.Lock()
	}
}

// lockcheck:release stegdb/commitMu
func unlockCommits(pgs []*Pager) {
	for _, pg := range pgs {
		pg.commitMu.Unlock()
	}
}

// commitPrepare captures a consistent cut of the dirty state: an internal
// snapshot pins the epoch and the full meta image atomically, then every
// dirty page is captured as of that epoch and compared with its base. The
// returned state holds pins on all dirty frames; the caller must
// releaseCommit it, success or not.
//
// lockcheck:holds stegdb/commitMu
func (p *Pager) commitPrepare() (*commitState, error) {
	st := &commitState{}
	s := p.beginSnapshot(st.meta[:], &st.metaGen)
	st.epoch = s.epoch
	st.entries = p.cache.dirtyEntries()
	var err error
	for _, e := range st.entries {
		if e.id >= s.numPages {
			// Allocated after the pin; the next commit gets it.
			continue
		}
		c := pageCut{e: e, img: make([]byte, PageSize)}
		ok, cerr := p.captureAsOf(&c, s.epoch)
		if cerr != nil {
			err = cerr
			break
		}
		if !ok {
			continue // transiently-dirty invalid frame; nothing to persist
		}
		st.cuts = append(st.cuts, c)
		if c.lo < c.hi {
			st.recs = append(st.recs, walRecord{id: e.id, off: c.lo, data: c.img[c.lo:c.hi]})
		}
	}
	s.Close()
	if err != nil {
		return st, err
	}
	// Stamp the commit epoch into the captured meta image so the home file
	// records which epoch it holds (recovery re-reads it from there).
	binary.BigEndian.PutUint64(st.meta[metaCommitEpoch:], uint64(st.epoch))
	if lo, hi := changedRange(p.metaBase, st.meta[:]); lo < hi {
		st.recs = append(st.recs, walRecord{id: 0, off: lo, data: st.meta[lo:hi]})
	}
	// If the meta has not changed since it was last committed clean, the
	// cut may still be empty overall.
	p.metaMu.Lock()
	if !p.metaDirty && p.metaGen == st.metaGen {
		st.metaClean = true
	}
	p.metaMu.Unlock()
	return st, nil
}

// captureAsOf copies c.e's page as of epoch E into c.img: the live frame
// when its last write is stamped at or before E (c.live, with the
// generation to clear after homing), else the newest saved version at or
// before E. It sets c.lo/c.hi against the frame's base. ok=false means the
// frame holds nothing persistable (a write that failed before loading
// content). Lock order: page latch -> snapMu, same as Snapshot.ReadPage.
func (p *Pager) captureAsOf(c *pageCut, epoch int64) (ok bool, err error) {
	e := c.e
	e.latch.RLock()
	defer e.latch.RUnlock()
	p.snapMu.Lock()
	if p.liveEpoch[e.id] <= epoch {
		p.snapMu.Unlock()
		if !e.valid {
			return false, nil
		}
		c.live, c.gen = true, p.cache.gen(e)
		copy(c.img, e.buf[:])
	} else {
		vs := p.versions[e.id]
		i := len(vs) - 1
		for i >= 0 && vs[i].epoch > epoch {
			i--
		}
		if i < 0 {
			p.snapMu.Unlock()
			return false, errors.New("stegdb: commit lost page version")
		}
		copy(c.img, vs[i].data)
		p.snapMu.Unlock()
	}
	c.lo, c.hi = changedRange(e.base, c.img)
	return true, nil
}

// writeWAL writes the commit's journal: the validating header with the
// records packed straight after it, in one write. Nothing here is a
// durability point; the caller barriers afterwards.
func (p *Pager) writeWAL(st *commitState) error {
	jlen := 0
	for _, r := range st.recs {
		jlen += walRecHdr + len(r.data)
	}
	buf := make([]byte, walHdrEnd+jlen)
	journal := buf[walHdrEnd:]
	off := 0
	for _, r := range st.recs {
		binary.BigEndian.PutUint64(journal[off:], uint64(r.id))
		binary.BigEndian.PutUint32(journal[off+8:], uint32(r.off))
		binary.BigEndian.PutUint32(journal[off+12:], uint32(len(r.data)))
		off += walRecHdr + copy(journal[off+walRecHdr:], r.data)
	}
	copy(buf[:8], walMagic)
	binary.BigEndian.PutUint64(buf[walHdrEpoch:], uint64(st.epoch))
	binary.BigEndian.PutUint64(buf[walHdrCount:], uint64(len(st.recs)))
	binary.BigEndian.PutUint64(buf[walHdrLen:], uint64(jlen))
	binary.BigEndian.PutUint64(buf[walHdrJCRC:], crc64.Checksum(journal, walCRCTable))
	binary.BigEndian.PutUint64(buf[walHdrHCRC:], crc64.Checksum(buf[:walHdrJCRC+8], walCRCTable))
	fi, err := p.view.Stat(p.walName)
	if err != nil {
		return fmt.Errorf("stegdb: stat journal: %w", err)
	}
	if need := int64(len(buf)); fi.Size < need {
		// Grow in whole pages, so commits of similar size share a length.
		if err := p.view.Resize(p.walName, (need+PageSize-1)/PageSize*PageSize); err != nil {
			return fmt.Errorf("stegdb: grow journal: %w", err)
		}
	}
	if _, err := p.view.WriteAt(p.walName, buf, 0); err != nil {
		return fmt.Errorf("stegdb: write journal: %w", err)
	}
	return nil
}

// commitHome writes every record's range into the home file, then clears
// dirty flags write-wins — a frame (or the meta) redirtied since capture
// stays dirty for the next commit — and moves each base to the image just
// homed: kept while its frame is still dirty, dropped once it is clean.
//
// lockcheck:holds stegdb/commitMu
func (p *Pager) commitHome(st *commitState) error {
	for _, r := range st.recs {
		if _, err := p.view.WriteAt(p.name, r.data, r.id*PageSize+int64(r.off)); err != nil {
			return err
		}
	}
	for _, c := range st.cuts {
		c.e.latch.Lock()
		if c.live {
			p.cache.clearDirty(c.e, c.gen)
		}
		if p.cache.isDirty(c.e) {
			c.e.base = c.img
		} else {
			c.e.base = nil
		}
		c.e.latch.Unlock()
	}
	if p.metaBase == nil {
		p.metaBase = make([]byte, PageSize)
	}
	copy(p.metaBase, st.meta[:])
	p.metaMu.Lock()
	if p.metaGen == st.metaGen {
		p.metaDirty = false
	}
	// Keep the live buffer's commit-epoch field in step with what just
	// landed home; no gen bump — it is already durable.
	binary.BigEndian.PutUint64(p.meta[metaCommitEpoch:], uint64(st.epoch))
	p.metaMu.Unlock()
	return nil
}

// dropBases applies the failure rule to one pager's cut: every captured
// frame and the meta page lose their base, so the next commit journals
// and homes them whole. nil-safe.
//
// lockcheck:holds stegdb/commitMu
func (p *Pager) dropBases(st *commitState) {
	if st == nil {
		return
	}
	for _, c := range st.cuts {
		c.e.latch.Lock()
		c.e.base = nil
		c.e.latch.Unlock()
	}
	p.metaBase = nil
}

// releaseCommit drops the pins commitPrepare took. nil-safe.
func (p *Pager) releaseCommit(st *commitState) {
	if st == nil {
		return
	}
	for _, e := range st.entries {
		p.cache.unpin(e)
	}
	st.entries = nil
}

// recoverWAL replays the journal into the home file if it holds a complete
// commit. Called from OpenPager before the meta page is read, with the
// pager unpublished. A missing or unreadable journal file is an error:
// without it no later commit could be atomic.
func (p *Pager) recoverWAL() error {
	var hdr [walHdrEnd]byte
	if _, err := p.view.ReadAt(p.walName, hdr[:], 0); err != nil {
		return fmt.Errorf("stegdb: read journal %s (adopt it with the database file): %w", p.walName, err)
	}
	v1 := string(hdr[:8]) == walMagicV1
	if !v1 && string(hdr[:8]) != walMagic {
		return nil // never committed, or header torn to garbage
	}
	if crc64.Checksum(hdr[:walHdrJCRC+8], walCRCTable) != binary.BigEndian.Uint64(hdr[walHdrHCRC:]) {
		return nil // torn header: the previous commit fully homed, skip
	}
	count := int64(binary.BigEndian.Uint64(hdr[walHdrCount:]))
	jlen := int64(binary.BigEndian.Uint64(hdr[walHdrLen:]))
	bodyOff, minLen, maxLen := int64(walHdrEnd), count*walRecHdr, count*(walRecHdr+PageSize)
	if v1 {
		bodyOff, minLen, maxLen = PageSize, count*walV1RecordSize, count*walV1RecordSize
	}
	if count <= 0 || count > walMaxRecords || jlen < minLen || jlen > maxLen {
		return nil
	}
	// A header claiming more than the file holds is torn; checking first
	// also bounds the allocation below by the journal's real size.
	wfi, err := p.view.Stat(p.walName)
	if err != nil {
		return fmt.Errorf("stegdb: stat journal: %w", err)
	}
	if wfi.Size < bodyOff+jlen {
		return nil
	}
	journal := make([]byte, jlen)
	if _, err := p.view.ReadAt(p.walName, journal, bodyOff); err != nil {
		return nil // journal shorter than the header claims: torn commit
	}
	if crc64.Checksum(journal, walCRCTable) != binary.BigEndian.Uint64(hdr[walHdrJCRC:]) {
		return nil // torn journal body: home file holds the old epoch
	}
	// Valid journal: parse every record before replaying any, then pre-grow
	// the home file if the crash lost a Resize that preceded the commit.
	recs, err := parseJournal(journal, int(count), v1)
	if err != nil {
		return err
	}
	maxID := int64(0)
	for _, r := range recs {
		maxID = max(maxID, r.id)
	}
	fi, err := p.view.Stat(p.name)
	if err != nil {
		return fmt.Errorf("stegdb: stat for replay: %w", err)
	}
	if need := (maxID + 1) * PageSize; fi.Size < need {
		if err := p.view.Resize(p.name, need); err != nil {
			return fmt.Errorf("stegdb: grow for replay: %w", err)
		}
	}
	for _, r := range recs {
		if _, err := p.view.WriteAt(p.name, r.data, r.id*PageSize+int64(r.off)); err != nil {
			return fmt.Errorf("stegdb: replay page %d: %w", r.id, err)
		}
	}
	return p.view.Sync()
}

// parseJournal splits a CRC-valid journal body into its count records:
// whole-page records for a v1 journal, range records otherwise. A record
// that does not fit its page, or a body its records do not exactly fill,
// is corruption, not a torn commit.
func parseJournal(journal []byte, count int, v1 bool) ([]walRecord, error) {
	recs := make([]walRecord, 0, count)
	off := 0
	for i := 0; i < count; i++ {
		r := walRecord{}
		if v1 {
			r.id = int64(binary.BigEndian.Uint64(journal[off:]))
			r.data = journal[off+8 : off+walV1RecordSize]
			off += walV1RecordSize
		} else {
			if off+walRecHdr > len(journal) {
				return nil, fmt.Errorf("stegdb: journal record %d overruns the journal", i)
			}
			r.id = int64(binary.BigEndian.Uint64(journal[off:]))
			ro := binary.BigEndian.Uint32(journal[off+8:])
			rn := binary.BigEndian.Uint32(journal[off+12:])
			off += walRecHdr
			if uint64(ro)+uint64(rn) > PageSize || rn > uint32(len(journal)-off) {
				return nil, fmt.Errorf("stegdb: journal record %d range [%d,+%d) does not fit", i, ro, rn)
			}
			r.off, r.data = int(ro), journal[off:off+int(rn)]
			off += int(rn)
		}
		if r.id < 0 || r.id > walMaxRecords {
			return nil, fmt.Errorf("stegdb: journal record %d has implausible page id %d", i, r.id)
		}
		recs = append(recs, r)
	}
	if off != len(journal) {
		return nil, fmt.Errorf("stegdb: journal holds %d bytes past its %d records", len(journal)-off, count)
	}
	return recs, nil
}
