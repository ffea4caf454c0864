package stegdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"sync"
)

// Commit pipeline: stegdb turns every table Sync into an atomic commit via
// a physical redo journal kept in the table's one journal file (name +
// ".wal"). A commit covers every member pager of the table and writes ONE
// journal for the whole group. The cache is no-steal (dirty pages never
// reach a home file outside a commit), so every home file always holds
// exactly the last committed epoch, and the commit sequence is:
//
//  1. prepare  — per member, pin an internal snapshot (epoch + full meta
//     image, atomically) and capture every dirty page AS OF that epoch:
//     the live frame when its last write predates the pin, else the
//     copy-on-write version the snapshot machinery saved. The captured
//     cut is exactly the snapshot's state, hence consistent even while
//     writers keep running. Each captured image is compared with the
//     page's base (see below) to find the one byte range [lo,hi) outside
//     which they agree.
//  2. journal  — write the header (epoch, record count, member count,
//     length, CRCs) and every member's range records, each tagged with
//     its member index, in one write.
//  3. barrier  — view.Sync(): journal durable before any home write.
//  4. home     — write each record's range to its member's home file,
//     then clear dirty flags write-wins (a frame or the meta re-dirtied
//     since capture stays dirty for the next commit).
//  5. epoch++  — later snapshots pin post-commit state.
//  6. barrier  — view.Sync(): homes durable; the journal is now dead
//     weight until the next commit overwrites it.
//
// A commit whose cut holds no record — every dirty page, and the meta, is
// back at its committed bytes — skips steps 2–4: it writes no journal and
// nothing home, clears the dirty flags and keeps the step 6 barrier.
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
// either barrier or a home write — may leave the home files holding a mix
// of two commits, so it drops every base it captured (and metaBase): the
// next commit journals and homes those pages whole.
//
// Recovery (replayJournal, run by OpenPartitionedTable after it has read
// the first member's magic and partition count, and before it reads any
// other meta field): if the journal's header and body check out and the
// header names as many members as the table has, replay every record
// into its member's home file and barrier. A crash before step 3 leaves an invalid journal (CRC) and untouched home
// files (old epoch); a crash after it leaves a valid journal whose replay
// produces the new epoch: outside its ranges the new epoch equals the
// bases, which are what the home files held, so a partly homed commit is
// completed. Replay is idempotent, and a journal can never be both valid
// and older than a home file (the home writes of commit N+1 start only
// after commit N+1's journal landed). One CRC covers every member's
// records, so the whole table remounts at exactly the old or the new
// epoch — never a mix, not even across partitions.

// walSuffix names a table's journal file: table name + walSuffix.
const walSuffix = ".wal"

// walMagic marks a journal: a header carrying the member count, then
// member-tagged range records.
const walMagic = "SGWL0003"

// Journal header (the journal file's first bytes): magic(8) epoch(8)
// count(8) journalLen(8) journalCRC(8) members(8) headerCRC(8); the
// header CRC covers every byte before it. A record is member(4) page
// id(8) off(4) len(4), then len bytes.
const (
	walHdrEpoch   = 8
	walHdrCount   = 16
	walHdrLen     = 24
	walHdrJCRC    = 32
	walHdrMembers = 40
	walHdrHCRC    = 48
	walHdrEnd     = 56
	walRecHdr     = 20
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

// walRecord is one journal record: data belongs at byte off of page id in
// the home file of the group's member'th pager. The same records drive the
// journal, the home writes and replay.
type walRecord struct {
	member int
	id     int64
	off    int
	data   []byte
}

// pageCut is one dirty page captured for a commit.
type pageCut struct {
	e      *pageEntry
	img    []byte // the page as of the commit epoch
	lo, hi int    // img differs from the page's base only in [lo,hi)
	live   bool   // img is the live frame: clear its dirty flag after homing
	gen    uint64 // ... unless a write since generation gen re-dirtied it
}

// commitState carries one pager's consistent cut between pipeline phases.
type commitState struct {
	entries []*pageEntry // every dirty frame at capture, pinned
	cuts    []pageCut    // captured pages, ascending id
	recs    []walRecord  // the changed ranges of cuts, then of the meta
	meta    [PageSize]byte
	metaGen uint64
	epoch   int64
}

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

// commit runs one commit of the group pgs, every pager a file of view
// (every partition of a table, in member order) journaled in wal. The
// phases above run across the whole group: ONE journal in wal holds every
// member's records, ONE barrier makes it durable, every member's records
// go home, and ONE more barrier makes the homes durable, whatever the
// pager count. Commit locks are taken in slice order (the commitMu class
// is multi for exactly this walk), so concurrent commits cannot deadlock.
func commit(view View, wal string, pgs []*Pager) error {
	lockCommits(pgs)
	defer unlockCommits(pgs)
	states := make([]*commitState, len(pgs))
	records := false
	for i, pg := range pgs {
		st, err := pg.commitPrepare()
		states[i] = st
		if err != nil {
			releaseCommits(pgs, states)
			return err
		}
		records = records || len(st.recs) > 0
	}
	if records {
		if err := writeJournal(view, wal, states); err != nil {
			return abortCommit(pgs, states, err)
		}
		if err := view.Sync(); err != nil { // one barrier: the journal is durable
			return abortCommit(pgs, states, err)
		}
		var errs []error
		for i, pg := range pgs {
			if err := pg.commitHome(states[i]); err != nil {
				errs = append(errs, fmt.Errorf("stegdb: commit %s: %w", pg.name, err))
			}
		}
		if len(errs) > 0 {
			return abortCommit(pgs, states, errors.Join(errs...))
		}
	}
	for i, pg := range pgs {
		pg.commitDone(states[i])
		pg.bumpEpoch()
	}
	if err := view.Sync(); err != nil { // one barrier: all homes durable (a bare barrier when nothing was recorded)
		return abortCommit(pgs, states, err)
	}
	releaseCommits(pgs, states)
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
	}
	releaseCommits(pgs, states)
	return err
}

// releaseCommits releases every member's commit state.
func releaseCommits(pgs []*Pager, states []*commitState) {
	for i, st := range states {
		pgs[i].releaseCommit(st)
	}
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
		ok, cerr := p.captureAsOf(&c, s)
		if cerr != nil || !ok {
			if err = cerr; err != nil {
				break
			}
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
	// A meta unchanged since it was last committed (or read) clean is what
	// its home file holds, base or not.
	p.metaMu.Lock()
	clean := !p.metaDirty && p.metaGen == st.metaGen
	p.metaMu.Unlock()
	if lo, hi := changedRange(p.metaBase, st.meta[:]); lo < hi && !clean {
		st.recs = append(st.recs, walRecord{id: 0, off: lo, data: st.meta[lo:hi]})
	}
	return st, nil
}

// captureAsOf copies c.e's page as snapshot s sees it (imageAt) into
// c.img: the live frame (c.live, with the generation to clear after
// homing) or a saved version. It sets c.lo/c.hi against the frame's base.
// ok=false means the frame holds nothing persistable (a write that failed
// before loading content); such a frame is skipped without a device read.
func (p *Pager) captureAsOf(c *pageCut, s *Snapshot) (ok bool, err error) {
	e := c.e
	e.latch.RLock()
	defer e.latch.RUnlock()
	img, live, err := p.imageAt(e, s)
	switch {
	case err != nil:
		return false, err
	case live && !e.valid:
		return false, nil
	case live:
		c.live, c.gen = true, p.cache.gen(e)
	}
	copy(c.img, img)
	c.lo, c.hi = changedRange(e.base, c.img)
	return true, nil
}

// writeJournal writes the group's one journal into wal: the validating
// header, then every member's records, each tagged with the member's
// index in states, in one write. Nothing here is a durability point; the
// caller barriers afterwards.
func writeJournal(view View, wal string, states []*commitState) error {
	count, jlen := 0, 0
	for _, st := range states {
		for _, r := range st.recs {
			count++
			jlen += walRecHdr + len(r.data)
		}
	}
	buf := make([]byte, walHdrEnd+jlen)
	journal := buf[walHdrEnd:]
	off := 0
	for m, st := range states {
		for _, r := range st.recs {
			binary.BigEndian.PutUint32(journal[off:], uint32(m))
			binary.BigEndian.PutUint64(journal[off+4:], uint64(r.id))
			binary.BigEndian.PutUint32(journal[off+12:], uint32(r.off))
			binary.BigEndian.PutUint32(journal[off+16:], uint32(len(r.data)))
			off += walRecHdr + copy(journal[off+walRecHdr:], r.data)
		}
	}
	copy(buf[:8], walMagic)
	binary.BigEndian.PutUint64(buf[walHdrEpoch:], uint64(states[0].epoch))
	binary.BigEndian.PutUint64(buf[walHdrCount:], uint64(count))
	binary.BigEndian.PutUint64(buf[walHdrLen:], uint64(jlen))
	binary.BigEndian.PutUint64(buf[walHdrJCRC:], crc64.Checksum(journal, walCRCTable))
	binary.BigEndian.PutUint64(buf[walHdrMembers:], uint64(len(states)))
	binary.BigEndian.PutUint64(buf[walHdrHCRC:], crc64.Checksum(buf[:walHdrHCRC], walCRCTable))
	fi, err := view.Stat(wal)
	if err != nil {
		return fmt.Errorf("stegdb: stat journal: %w", err)
	}
	if need := int64(len(buf)); fi.Size < need {
		// Grow in whole pages, so commits of similar size share a length.
		if err := view.Resize(wal, (need+PageSize-1)/PageSize*PageSize); err != nil {
			return fmt.Errorf("stegdb: grow journal: %w", err)
		}
	}
	if _, err := view.WriteAt(wal, buf, 0); err != nil {
		return fmt.Errorf("stegdb: write journal: %w", err)
	}
	return nil
}

// commitHome writes every record's range into the home file.
//
// lockcheck:holds stegdb/commitMu
func (p *Pager) commitHome(st *commitState) error {
	for _, r := range st.recs {
		if _, err := p.view.WriteAt(p.name, r.data, r.id*PageSize+int64(r.off)); err != nil {
			return err
		}
	}
	return nil
}

// commitDone ends a successful commit of p: it clears dirty flags
// write-wins — a frame (or the meta) redirtied since capture stays dirty
// for the next commit — and moves each base to the image just homed: kept
// while its frame is still dirty, dropped once it is clean.
//
// lockcheck:holds stegdb/commitMu
func (p *Pager) commitDone(st *commitState) {
	for i := range st.cuts {
		c := &st.cuts[i]
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
	p.metaMu.Unlock()
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
	st.entries, st.cuts, st.recs = nil, nil, nil
}

// replayJournal replays the journal in wal into the member files names
// (in member order) if it holds a complete commit, and reports whether it
// did. A complete commit whose header names a member count other than
// len(names) belongs to some other table shape: it is refused with an
// error, and no file is touched. It does not barrier: the caller does,
// before anything relies on the replay. A missing or unreadable journal
// file is an error: without it no later commit could be atomic.
func replayJournal(view View, wal string, names []string) (bool, error) {
	var hdr [walHdrEnd]byte
	if _, err := view.ReadAt(wal, hdr[:], 0); err != nil {
		return false, fmt.Errorf("stegdb: read journal %s (adopt it with the table's files): %w", wal, err)
	}
	if string(hdr[:8]) != walMagic {
		return false, nil // never committed, or header torn to garbage
	}
	if crc64.Checksum(hdr[:walHdrHCRC], walCRCTable) != binary.BigEndian.Uint64(hdr[walHdrHCRC:]) {
		return false, nil // torn header: the previous commit fully homed, skip
	}
	if members := binary.BigEndian.Uint64(hdr[walHdrMembers:]); members != uint64(len(names)) {
		return false, fmt.Errorf("stegdb: journal %s holds a commit of %d members, the table has %d", wal, members, len(names))
	}
	count := int64(binary.BigEndian.Uint64(hdr[walHdrCount:]))
	jlen := int64(binary.BigEndian.Uint64(hdr[walHdrLen:]))
	if count <= 0 || count > walMaxRecords || jlen < count*walRecHdr || jlen > count*(walRecHdr+PageSize) {
		return false, nil
	}
	// A header claiming more than the file holds is torn; checking first
	// also bounds the allocation below by the journal's real size.
	wfi, err := view.Stat(wal)
	if err != nil {
		return false, fmt.Errorf("stegdb: stat journal: %w", err)
	}
	if wfi.Size < walHdrEnd+jlen {
		return false, nil
	}
	journal := make([]byte, jlen)
	if _, err := view.ReadAt(wal, journal, walHdrEnd); err != nil {
		return false, nil // journal shorter than the header claims: torn commit
	}
	if crc64.Checksum(journal, walCRCTable) != binary.BigEndian.Uint64(hdr[walHdrJCRC:]) {
		return false, nil // torn journal body: the home files hold the old epoch
	}
	// Valid journal: parse every record before replaying any, then pre-grow
	// each home file if the crash lost a Resize that preceded the commit.
	recs, err := parseJournal(journal, int(count), len(names))
	if err != nil {
		return false, err
	}
	need := make([]int64, len(names))
	for _, r := range recs {
		need[r.member] = max(need[r.member], (r.id+1)*PageSize)
	}
	for m, name := range names {
		if need[m] == 0 {
			continue
		}
		fi, err := view.Stat(name)
		if err != nil {
			return false, fmt.Errorf("stegdb: stat %s for replay: %w", name, err)
		}
		if fi.Size < need[m] {
			if err := view.Resize(name, need[m]); err != nil {
				return false, fmt.Errorf("stegdb: grow %s for replay: %w", name, err)
			}
		}
	}
	for _, r := range recs {
		if _, err := view.WriteAt(names[r.member], r.data, r.id*PageSize+int64(r.off)); err != nil {
			return false, fmt.Errorf("stegdb: replay page %d of %s: %w", r.id, names[r.member], err)
		}
	}
	return true, nil
}

// parseJournal splits a CRC-valid journal body into its count records,
// each tagged with one of members member indexes. A record that does not
// fit its page or names no member, or a body its records do not exactly
// fill, is corruption, not a torn commit.
func parseJournal(journal []byte, count, members int) ([]walRecord, error) {
	recs := make([]walRecord, 0, count)
	off := 0
	for i := 0; i < count; i++ {
		if off+walRecHdr > len(journal) {
			return nil, fmt.Errorf("stegdb: journal record %d overruns the journal", i)
		}
		r := walRecord{
			member: int(binary.BigEndian.Uint32(journal[off:])),
			id:     int64(binary.BigEndian.Uint64(journal[off+4:])),
		}
		ro := binary.BigEndian.Uint32(journal[off+12:])
		rn := binary.BigEndian.Uint32(journal[off+16:])
		off += walRecHdr
		if r.member >= members {
			return nil, fmt.Errorf("stegdb: journal record %d names member %d of %d", i, r.member, members)
		}
		if r.id < 0 || r.id > walMaxRecords {
			return nil, fmt.Errorf("stegdb: journal record %d has implausible page id %d", i, r.id)
		}
		if uint64(ro)+uint64(rn) > PageSize || rn > uint32(len(journal)-off) {
			return nil, fmt.Errorf("stegdb: journal record %d range [%d,+%d) does not fit", i, ro, rn)
		}
		r.off, r.data = int(ro), journal[off:off+int(rn)]
		off += int(rn)
		recs = append(recs, r)
	}
	if off != len(journal) {
		return nil, fmt.Errorf("stegdb: journal holds %d bytes past its %d records", len(journal)-off, count)
	}
	return recs, nil
}
