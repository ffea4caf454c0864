package stegdb

import (
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
//     running.
//  2. journal  — write the records (meta image first) and then the header
//     (epoch, count, length, CRCs) to the journal file.
//  3. barrier  — view.Sync(): journal durable before any home write.
//  4. home     — write the captured images to the home file (vectored runs
//     + meta), then clear dirty flags write-wins (a frame or the meta
//     re-dirtied since capture stays dirty for the next commit).
//  5. epoch++  — later snapshots pin post-commit state.
//  6. barrier  — view.Sync(): home durable; the journal is now dead weight
//     until the next commit overwrites it.
//
// Recovery (recoverWAL, at OpenPager): if the journal header and body
// check out, replay every record into the home file and barrier. A crash
// before step 3 leaves an invalid journal (CRC) and an untouched home file
// (old epoch); a crash after it leaves a valid journal whose replay
// produces the new epoch; replay is idempotent, and a journal can never be
// both valid and older than the home file (the home writes of commit N+1
// start only after commit N+1's journal landed). The database therefore
// remounts at exactly the old or the new epoch — never a mix.
//
// Journal records and home images are whole pages, but on a cached mount
// the block cache absorbs every block of them whose sealed bytes did not
// change (blockcache, "Unchanged writes"), so a commit puts only the
// changed blocks on the device.

// walSuffix names the journal sibling of a database file.
const walSuffix = ".wal"

// walMagic marks a journal header page.
const walMagic = "SGWL0001"

// walHeader layout (page 0 of the journal file): magic(8) epoch(8)
// count(8) journalLen(8) journalCRC(8) headerCRC(8).
const (
	walHdrEpoch   = 8
	walHdrCount   = 16
	walHdrLen     = 24
	walHdrJCRC    = 32
	walHdrHCRC    = 40
	walHdrEnd     = 48
	walRecordSize = 8 + PageSize // page id + image
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

// walRecord is one captured page image bound for the journal and home file.
type walRecord struct {
	id  int64
	img []byte
}

// clearOp marks a live-captured frame whose dirty flag may be cleared
// after homing, unless generation gen was overtaken by a newer write.
type clearOp struct {
	e   *pageEntry
	gen uint64
}

// commitState carries one commit's consistent cut between pipeline phases.
type commitState struct {
	entries   []*pageEntry // every dirty frame at capture, pinned
	recs      []walRecord  // captured page images, ascending id
	clears    []clearOp
	meta      [PageSize]byte
	metaGen   uint64
	metaClean bool // meta unchanged since its last commit
	epoch     int64
}

// empty reports a commit with nothing to journal: Sync degenerates to a
// bare volume barrier.
func (st *commitState) empty() bool { return len(st.recs) == 0 && st.metaClean }

// commit runs one commit of pgs, every pager a file of view — one pager
// for Pager.Sync, every partition for PartitionedTable.Sync. The phases
// above run across the whole set with shared barriers: every non-empty cut
// is journaled, ONE barrier makes all journals durable, every cut goes
// home, and ONE more barrier makes the homes durable, whatever the pager
// count. Commit locks are taken in slice order (the commitMu class is
// multi for exactly this walk), so concurrent commits cannot deadlock.
func commit(view View, pgs []*Pager) error {
	for _, pg := range pgs {
		pg.commitMu.Lock()
	}
	defer func() {
		for _, pg := range pgs {
			pg.commitMu.Unlock()
		}
	}()
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
				release()
				return err
			}
		}
		if err := view.Sync(); err != nil { // one barrier: all journals durable
			release()
			return err
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
			release()
			return errors.Join(errs...)
		}
	}
	release()
	for _, pg := range pgs {
		pg.bumpEpoch()
	}
	return view.Sync() // one barrier: all homes durable (a bare barrier when nothing was cut)
}

// commitPrepare captures a consistent cut of the dirty state: an internal
// snapshot pins the epoch and the full meta image atomically, then every
// dirty page is captured as of that epoch. The returned state holds pins
// on all dirty frames; the caller must releaseCommit it, success or not.
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
		img := make([]byte, PageSize)
		live, gen, ok, cerr := p.captureAsOf(e, s.epoch, img)
		if cerr != nil {
			err = cerr
			break
		}
		if !ok {
			continue // transiently-dirty invalid frame; nothing to persist
		}
		st.recs = append(st.recs, walRecord{id: e.id, img: img})
		if live {
			st.clears = append(st.clears, clearOp{e: e, gen: gen})
		}
	}
	s.Close()
	if err != nil {
		return st, err
	}
	// Stamp the commit epoch into the captured meta image so the home file
	// records which epoch it holds (recovery re-reads it from there).
	binary.BigEndian.PutUint64(st.meta[metaCommitEpoch:], uint64(st.epoch))
	// If the meta has not changed since it was last committed clean, the
	// cut may still be empty overall.
	p.metaMu.Lock()
	if !p.metaDirty && p.metaGen == st.metaGen {
		st.metaClean = true
	}
	p.metaMu.Unlock()
	return st, nil
}

// captureAsOf copies page e's content as of epoch E into img: the live
// frame when its last write is stamped at or before E (live=true, with the
// generation to clear after homing), else the newest saved version at or
// before E. ok=false means the frame holds nothing persistable (a write
// that failed before loading content). Lock order: page latch -> snapMu,
// same as Snapshot.ReadPage.
func (p *Pager) captureAsOf(e *pageEntry, epoch int64, img []byte) (live bool, gen uint64, ok bool, err error) {
	e.latch.RLock()
	defer e.latch.RUnlock()
	p.snapMu.Lock()
	if p.liveEpoch[e.id] <= epoch {
		p.snapMu.Unlock()
		if !e.valid {
			return false, 0, false, nil
		}
		gen = p.cache.gen(e)
		copy(img, e.buf[:])
		return true, gen, true, nil
	}
	vs := p.versions[e.id]
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].epoch <= epoch {
			copy(img, vs[i].data)
			p.snapMu.Unlock()
			return false, 0, true, nil
		}
	}
	p.snapMu.Unlock()
	return false, 0, false, errors.New("stegdb: commit lost page version")
}

// writeWAL writes the commit's records and then the validating header to
// the journal file. Nothing here is a durability point; the caller
// barriers afterwards.
func (p *Pager) writeWAL(st *commitState) error {
	n := len(st.recs) + 1 // + the meta record
	jlen := n * walRecordSize
	journal := make([]byte, jlen)
	off := 0
	put := func(id int64, img []byte) {
		binary.BigEndian.PutUint64(journal[off:], uint64(id))
		copy(journal[off+8:], img)
		off += walRecordSize
	}
	put(0, st.meta[:]) // meta is record 0: page id 0, offset 0 on replay
	for _, r := range st.recs {
		put(r.id, r.img)
	}
	fi, err := p.view.Stat(p.walName)
	if err != nil {
		return fmt.Errorf("stegdb: stat journal: %w", err)
	}
	if need := int64(PageSize + jlen); fi.Size < need {
		if err := p.view.Resize(p.walName, need); err != nil {
			return fmt.Errorf("stegdb: grow journal: %w", err)
		}
	}
	if _, err := p.view.WriteAt(p.walName, journal, PageSize); err != nil {
		return fmt.Errorf("stegdb: write journal: %w", err)
	}
	var hdr [PageSize]byte
	copy(hdr[:8], walMagic)
	binary.BigEndian.PutUint64(hdr[walHdrEpoch:], uint64(st.epoch))
	binary.BigEndian.PutUint64(hdr[walHdrCount:], uint64(n))
	binary.BigEndian.PutUint64(hdr[walHdrLen:], uint64(jlen))
	binary.BigEndian.PutUint64(hdr[walHdrJCRC:], crc64.Checksum(journal, walCRCTable))
	binary.BigEndian.PutUint64(hdr[walHdrHCRC:], crc64.Checksum(hdr[:walHdrJCRC+8], walCRCTable))
	if _, err := p.view.WriteAt(p.walName, hdr[:], 0); err != nil {
		return fmt.Errorf("stegdb: write journal header: %w", err)
	}
	return nil
}

// commitHome writes the captured cut into the home file: vectored runs of
// consecutive pages, then the meta image. Dirty flags are cleared
// write-wins afterwards — a frame (or the meta) redirtied since capture
// stays dirty for the next commit.
func (p *Pager) commitHome(st *commitState) error {
	for i := 0; i < len(st.recs); {
		j := i + 1
		for j < len(st.recs) && st.recs[j].id == st.recs[j-1].id+1 {
			j++
		}
		run := st.recs[i:j]
		var buf []byte
		if len(run) == 1 {
			buf = run[0].img
		} else {
			buf = make([]byte, len(run)*PageSize)
			for k, r := range run {
				copy(buf[k*PageSize:], r.img)
			}
		}
		if _, err := p.view.WriteAt(p.name, buf, run[0].id*PageSize); err != nil {
			return err
		}
		i = j
	}
	if _, err := p.view.WriteAt(p.name, st.meta[:], 0); err != nil {
		return err
	}
	for _, c := range st.clears {
		p.cache.clearDirty(c.e, c.gen)
	}
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
	var hdr [PageSize]byte
	if _, err := p.view.ReadAt(p.walName, hdr[:], 0); err != nil {
		return fmt.Errorf("stegdb: read journal %s (adopt it with the database file): %w", p.walName, err)
	}
	if string(hdr[:8]) != walMagic {
		return nil // never committed, or header torn to garbage
	}
	if crc64.Checksum(hdr[:walHdrJCRC+8], walCRCTable) != binary.BigEndian.Uint64(hdr[walHdrHCRC:]) {
		return nil // torn header: the previous commit fully homed, skip
	}
	count := int64(binary.BigEndian.Uint64(hdr[walHdrCount:]))
	jlen := int64(binary.BigEndian.Uint64(hdr[walHdrLen:]))
	if count <= 0 || count > walMaxRecords || jlen != count*walRecordSize {
		return nil
	}
	// A header claiming more than the file holds is torn; checking first
	// also bounds the allocation below by the journal's real size.
	wfi, err := p.view.Stat(p.walName)
	if err != nil {
		return fmt.Errorf("stegdb: stat journal: %w", err)
	}
	if wfi.Size < PageSize+jlen {
		return nil
	}
	journal := make([]byte, jlen)
	if _, err := p.view.ReadAt(p.walName, journal, PageSize); err != nil {
		return nil // journal shorter than the header claims: torn commit
	}
	if crc64.Checksum(journal, walCRCTable) != binary.BigEndian.Uint64(hdr[walHdrJCRC:]) {
		return nil // torn journal body: home file holds the old epoch
	}
	// Valid journal: replay. Pre-grow the home file if the crash lost a
	// Resize that preceded the commit.
	maxID := int64(0)
	for i := int64(0); i < count; i++ {
		id := int64(binary.BigEndian.Uint64(journal[i*walRecordSize:]))
		if id < 0 || id > walMaxRecords {
			return fmt.Errorf("stegdb: journal record %d has implausible page id %d", i, id)
		}
		if id > maxID {
			maxID = id
		}
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
	for i := int64(0); i < count; i++ {
		rec := journal[i*walRecordSize : (i+1)*walRecordSize]
		id := int64(binary.BigEndian.Uint64(rec))
		if _, err := p.view.WriteAt(p.name, rec[8:], id*PageSize); err != nil {
			return fmt.Errorf("stegdb: replay page %d: %w", id, err)
		}
	}
	return p.view.Sync()
}
