package stegdb

// Snapshot reads: a Snapshot pins the pager at an epoch and serves page
// reads as of that instant (Pager.readLatch; Pager.imageAt picks the
// image), no matter how many writes land afterwards.
// Writers pay a copy-on-write: the first overwrite of a page whose old
// content some snapshot can still see saves that content as a version
// (in memory, keyed by epoch). Readers holding a snapshot therefore never
// block writers and never see torn structures — the basis of stegdb's
// Scan/Range/Get isolation.
//
// Contract: BeginSnapshot needs no external exclusion, even against
// multi-page structural writes. The epoch pin and the meta-page freeze
// happen atomically under snapMu (metaMu nests inside), and the B-link
// tree's split protocol (new right sibling stored before the shrunken left
// half, child stored before the parent's pointer to it) makes every write
// sequence prefix-consistent: any page pointer the frozen meta can reach
// leads to content stamped at or before the pinned epoch. Versions live
// only while at least one snapshot is active; when the last closes, all
// saved versions and epoch tracking are dropped. The commit path reuses
// the same machinery to capture a consistent cut of the dirty set (see
// commit.go).

// pageVersion is one saved pre-image: the page's content as of liveEpoch
// `epoch` (i.e. visible to snapshots pinned at >= epoch... < next write).
type pageVersion struct {
	epoch int64 // last-write epoch of this content
	data  []byte
}

// Snapshot is a read-only, point-in-time view of the pager. Close it when
// done so saved versions can be reclaimed.
type Snapshot struct {
	pg    *Pager
	id    int64
	epoch int64
	// Meta fields frozen at begin time.
	numPages  int64
	btreeRoot int64
	rows      int64
}

// BeginSnapshot pins a new snapshot at the current epoch and advances the
// epoch, so every later write is distinguishable from content the snapshot
// saw.
func (p *Pager) BeginSnapshot() *Snapshot {
	return p.beginSnapshot(nil, nil)
}

// beginSnapshot is the shared implementation: pin an epoch and freeze the
// meta fields in one atomic step. The meta freeze MUST happen inside the
// snapMu critical section (metaMu nests inside snapMu, order 60 -> 70):
// releasing snapMu first would let a root growth land in the window, giving
// the snapshot a root page whose content it cannot read back. When metaImg
// and metaGen are non-nil the full meta page image and its generation are
// captured too — the commit path uses this to journal the exact meta state
// its dirty-page cut corresponds to.
func (p *Pager) beginSnapshot(metaImg []byte, metaGen *uint64) *Snapshot {
	p.snapMu.Lock()
	p.nextSnapID++
	s := &Snapshot{pg: p, id: p.nextSnapID, epoch: p.epoch}
	p.epoch++
	p.snaps[s.id] = s.epoch
	if s.epoch > p.maxSnapEpoch {
		p.maxSnapEpoch = s.epoch
	}
	p.metaMu.Lock()
	s.numPages = p.getMeta(metaNumPages)
	s.btreeRoot = p.getMeta(metaBTreeRoot)
	s.rows = p.getMeta(metaRows)
	if metaImg != nil {
		copy(metaImg, p.meta[:])
	}
	if metaGen != nil {
		*metaGen = p.metaGen
	}
	p.metaMu.Unlock()
	p.snapMu.Unlock()
	return s
}

// Close releases the snapshot. When the last active snapshot closes, every
// saved page version and the per-page epoch map are dropped.
func (s *Snapshot) Close() {
	p := s.pg
	p.snapMu.Lock()
	delete(p.snaps, s.id)
	if len(p.snaps) == 0 {
		p.maxSnapEpoch = 0
		p.liveEpoch = make(map[int64]int64)
		p.versions = make(map[int64][]pageVersion)
	} else {
		max := int64(0)
		for _, e := range p.snaps {
			if e > max {
				max = e
			}
		}
		p.maxSnapEpoch = max
	}
	p.snapMu.Unlock()
}

// saveVersionLocked runs on the write path: if any active snapshot could
// still see the page's current content, that content is saved as a version
// before the caller overwrites the frame. The caller holds the frame's
// exclusive latch; the frame may still be invalid (never loaded), in which
// case the old content is loaded from the hidden file first.
//
// rows is added to the row counter inside the same snapMu hold that stamps
// the write's epoch, so every snapshot (and commit cut) sees the page write
// and its row-count change together or neither.
//
// lockcheck:holds stegdb/latch
func (p *Pager) saveVersionLocked(e *pageEntry, rows int64) error {
	p.snapMu.Lock()
	for len(p.snaps) > 0 && p.liveEpoch[e.id] <= p.maxSnapEpoch && !e.valid {
		// A snapshot may see the content, but the frame was never loaded:
		// fetch it (under the held exclusive latch, outside snapMu), then
		// re-check.
		p.snapMu.Unlock()
		if _, err := p.view.ReadAt(p.name, e.buf[:], e.id*PageSize); err != nil {
			return err
		}
		e.valid = true
		p.snapMu.Lock()
	}
	if len(p.snaps) > 0 {
		// old = 0: the content predates all snapshots. When old is past
		// every snapshot's epoch, no snapshot can see the current content
		// and no version is needed.
		if old := p.liveEpoch[e.id]; old <= p.maxSnapEpoch {
			v := pageVersion{epoch: old, data: append([]byte(nil), e.buf[:]...)}
			p.versions[e.id] = append(p.versions[e.id], v)
		}
		p.liveEpoch[e.id] = p.epoch
	}
	if rows != 0 {
		p.metaMu.Lock()
		p.setMeta(metaRows, p.getMeta(metaRows)+rows)
		p.metaMu.Unlock()
	}
	p.snapMu.Unlock()
	return nil
}
