package stegdb

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
)

// HashIndex is a bucket-chain hash index over the pager: a directory page
// of bucket head pointers, each bucket a chain of pages holding entries.
// Lookups cost one directory read plus the chain walk — O(1) expected —
// which is the access pattern the paper's future work wants to preserve
// while keeping every page hidden.
//
// Concurrency: buckets are striped over nStripes RWMutexes keyed by
// bucketOf, so point ops on distinct buckets run fully in parallel; Get
// takes its stripe shared. The directory page holds every bucket head, and
// WritePage replaces whole pages — so head updates (chain prepend/unlink)
// re-read and rewrite the directory under dirMu to avoid losing a
// concurrent bucket's update. Lock order: stripe → dirMu → pager.
type HashIndex struct {
	pg       *Pager
	nBuckets int
	// Only one stripe is ever held at a time (Count walks them one by one),
	// so the class is single-hold despite being an array of locks.
	// lockcheck:level 25 stegdb/stripe
	stripes [nStripes]sync.RWMutex
	// lockcheck:level 30 stegdb/dirMu
	dirMu sync.Mutex
}

// nStripes is the bucket lock striping factor.
const nStripes = 64

// hash bucket page layout: next(8) nentries(2) then entries
// [klen u16][vlen u16][key][val]...
const bucketHdr = 10

// dirCapacity is how many bucket heads fit in the directory page.
const dirCapacity = (PageSize - 8) / 8 // count(8) + heads

// NewHashIndex opens (or initializes) the index stored under the pager's
// hash root. nBuckets is fixed at creation; reopening ignores the argument.
func NewHashIndex(pg *Pager, nBuckets int) (*HashIndex, error) {
	if root := pg.metaField(metaHashRoot); root != nilPage {
		buf := make([]byte, PageSize)
		if err := pg.ReadPage(root, buf); err != nil {
			return nil, err
		}
		return &HashIndex{pg: pg, nBuckets: int(binary.BigEndian.Uint64(buf))}, nil
	}
	if nBuckets <= 0 || nBuckets > dirCapacity {
		return nil, fmt.Errorf("stegdb: nBuckets %d out of (0,%d]", nBuckets, dirCapacity)
	}
	root, err := pg.AllocPage()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, PageSize)
	binary.BigEndian.PutUint64(buf, uint64(nBuckets))
	if err := pg.WritePage(root, buf); err != nil {
		return nil, err
	}
	pg.setMetaField(metaHashRoot, root)
	return &HashIndex{pg: pg, nBuckets: nBuckets}, nil
}

// bucketOf returns the bucket number for a key.
func (h *HashIndex) bucketOf(key []byte) int {
	s := sha256.Sum256(key)
	return int(binary.BigEndian.Uint64(s[:8]) % uint64(h.nBuckets))
}

// lockcheck:returns stegdb/stripe
func (h *HashIndex) stripeFor(bucket int) *sync.RWMutex {
	return &h.stripes[bucket%nStripes]
}

// dir reads the directory page into buf and returns its page id.
func (h *HashIndex) dir(buf *[PageSize]byte) (int64, error) {
	root := h.pg.metaField(metaHashRoot)
	return root, h.pg.ReadPage(root, buf[:])
}

// updateHead rewrites one bucket's head pointer with a fresh read-modify-
// write of the directory page under dirMu, so concurrent head updates on
// other buckets are never lost.
func (h *HashIndex) updateHead(bucket int, id int64) error {
	h.dirMu.Lock()
	defer h.dirMu.Unlock()
	buf := pagePool.Get().(*[PageSize]byte)
	defer pagePool.Put(buf)
	root, err := h.dir(buf)
	if err != nil {
		return err
	}
	setHead(buf[:], bucket, id)
	return h.pg.WritePage(root, buf[:])
}

func headOf(dirBuf []byte, bucket int) int64 {
	return int64(binary.BigEndian.Uint64(dirBuf[8+bucket*8:]))
}

func setHead(dirBuf []byte, bucket int, id int64) {
	binary.BigEndian.PutUint64(dirBuf[8+bucket*8:], uint64(id))
}

// bucketPage is a decoded chain page.
type bucketPage struct {
	next    int64
	entries []kv
}

// parseBucket reads a chain page in place: its next pointer and a cursor
// over its entries. It is the one parser of the bucket format; bounds are
// taken from len(buf), never assumed.
func parseBucket(buf []byte) (next int64, c kvCursor, err error) {
	if len(buf) < bucketHdr {
		return 0, c, fmt.Errorf("stegdb: bucket page too short (%d bytes)", len(buf))
	}
	c = kvCursor{buf: buf, off: bucketHdr, left: int(binary.BigEndian.Uint16(buf[8:]))}
	return int64(binary.BigEndian.Uint64(buf)), c, nil
}

// decodeBucket copies a chain page out through parseBucket; the entries
// share one private copy of buf.
func decodeBucket(buf []byte) (*bucketPage, error) {
	next, c, err := parseBucket(bytes.Clone(buf))
	if err != nil {
		return nil, err
	}
	entries, err := c.all()
	if err != nil {
		return nil, err
	}
	return &bucketPage{next: next, entries: entries}, nil
}

// find walks bucket's chain in place in buf looking for key. It returns the
// chain's head, the page holding key (buf then holds that page, and val
// aliases it) and the page before it; when key is absent, cur is nilPage
// and prev is the last page visited (buf holds it).
func (h *HashIndex) find(bucket int, key []byte, buf *[PageSize]byte) (head, cur, prev int64, val []byte, err error) {
	if _, err = h.dir(buf); err != nil {
		return 0, 0, 0, nil, err
	}
	head = headOf(buf[:], bucket)
	var next int64
	for cur = head; cur != nilPage; prev, cur = cur, next {
		var c kvCursor
		if err = h.pg.ReadPage(cur, buf[:]); err == nil {
			next, c, err = parseBucket(buf[:])
		}
		for ok := err == nil; ok; {
			var k []byte
			if k, val, ok, err = c.next(); ok && bytes.Equal(k, key) {
				return head, cur, prev, val, nil
			}
		}
		if err != nil {
			return 0, 0, 0, nil, err
		}
	}
	return head, nilPage, prev, nil, nil
}

func encodeBucket(bp *bucketPage, buf []byte) error {
	for i := range buf {
		buf[i] = 0
	}
	binary.BigEndian.PutUint64(buf, uint64(bp.next))
	binary.BigEndian.PutUint16(buf[8:], uint16(len(bp.entries)))
	off := bucketHdr
	for _, e := range bp.entries {
		need := 4 + len(e.key) + len(e.val)
		if off+need > PageSize {
			return fmt.Errorf("stegdb: bucket overflow during encode")
		}
		binary.BigEndian.PutUint16(buf[off:], uint16(len(e.key)))
		binary.BigEndian.PutUint16(buf[off+2:], uint16(len(e.val)))
		off += 4
		copy(buf[off:], e.key)
		off += len(e.key)
		copy(buf[off:], e.val)
		off += len(e.val)
	}
	return nil
}

func (bp *bucketPage) size() int {
	s := bucketHdr
	for _, e := range bp.entries {
		s += 4 + len(e.key) + len(e.val)
	}
	return s
}

// Put inserts or replaces key -> val in the index.
func (h *HashIndex) Put(key, val []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("stegdb: empty key")
	}
	if len(key)+len(val) > MaxEntry {
		return fmt.Errorf("stegdb: entry exceeds max %d", MaxEntry)
	}
	bucket := h.bucketOf(key)
	st := h.stripeFor(bucket)
	st.Lock()
	defer st.Unlock()
	for {
		again, err := h.putLocked(bucket, key, val)
		if err != nil || !again {
			return err
		}
		// A replacement grew past its page and was removed; re-run the
		// insert against the updated chain (the stripe lock is still held,
		// so at most one retry happens).
	}
}

// putLocked performs one insert/replace attempt; the caller holds the
// bucket's stripe exclusively. It returns again=true when a grown
// replacement was removed and the insert must be retried.
//
// lockcheck:holds stegdb/stripe
func (h *HashIndex) putLocked(bucket int, key, val []byte) (again bool, err error) {
	pb := pagePool.Get().(*[PageSize]byte)
	defer pagePool.Put(pb)
	buf := pb[:]
	// Walk the chain in place; only the page that changes is decoded.
	head, cur, last, _, err := h.find(bucket, key, pb)
	if err != nil {
		return false, err
	}
	if cur != nilPage {
		bp, err := decodeBucket(buf)
		if err != nil {
			return false, err
		}
		i := slices.IndexFunc(bp.entries, func(e kv) bool { return bytes.Equal(e.key, key) })
		bp.entries[i].val = val
		if again = bp.size() > PageSize; again {
			// Replacement grew past the page: remove here, reinsert.
			bp.entries = slices.Delete(bp.entries, i, i+1)
		}
		if err := encodeBucket(bp, buf); err != nil {
			return false, err
		}
		return again, h.pg.WritePage(cur, buf)
	}
	// Fresh insert into the head page if it has room. The walk left the last
	// chain page in buf; re-read the head unless that was it.
	if head != nilPage {
		if last != head {
			if err := h.pg.ReadPage(head, buf); err != nil {
				return false, err
			}
		}
		bp, err := decodeBucket(buf)
		if err != nil {
			return false, err
		}
		bp.entries = append(bp.entries, kv{key: key, val: val})
		if bp.size() <= PageSize {
			if err := encodeBucket(bp, buf); err != nil {
				return false, err
			}
			return false, h.pg.WritePage(head, buf)
		}
	}
	// Head missing or full: prepend a new chain page.
	fresh, err := h.pg.AllocPage()
	if err != nil {
		return false, err
	}
	bp := &bucketPage{next: head, entries: []kv{{key: key, val: val}}}
	if err := encodeBucket(bp, buf); err != nil {
		return false, err
	}
	if err := h.pg.WritePage(fresh, buf); err != nil {
		return false, err
	}
	return false, h.updateHead(bucket, fresh)
}

// Get returns the value stored under key, or (nil, false). The chain is
// walked in place; only the returned value is copied.
func (h *HashIndex) Get(key []byte) ([]byte, bool, error) {
	bucket := h.bucketOf(key)
	st := h.stripeFor(bucket)
	st.RLock()
	defer st.RUnlock()
	pb := pagePool.Get().(*[PageSize]byte)
	defer pagePool.Put(pb)
	_, cur, _, val, err := h.find(bucket, key, pb)
	if cur == nilPage || err != nil {
		return nil, false, err
	}
	return append([]byte(nil), val...), true, nil
}

// Delete removes key, reporting whether it was present. Emptied chain pages
// are returned to the pager.
func (h *HashIndex) Delete(key []byte) (bool, error) {
	bucket := h.bucketOf(key)
	st := h.stripeFor(bucket)
	st.Lock()
	defer st.Unlock()
	pb := pagePool.Get().(*[PageSize]byte)
	defer pagePool.Put(pb)
	buf := pb[:]
	_, cur, prev, _, err := h.find(bucket, key, pb)
	if cur == nilPage || err != nil {
		return false, err
	}
	bp, err := decodeBucket(buf)
	if err != nil {
		return false, err
	}
	i := slices.IndexFunc(bp.entries, func(e kv) bool { return bytes.Equal(e.key, key) })
	bp.entries = slices.Delete(bp.entries, i, i+1)
	if len(bp.entries) > 0 {
		if err := encodeBucket(bp, buf); err != nil {
			return false, err
		}
		return true, h.pg.WritePage(cur, buf)
	}
	// Unlink the empty page from the chain.
	if prev == nilPage {
		if err := h.updateHead(bucket, bp.next); err != nil {
			return false, err
		}
	} else {
		// Only the predecessor's next pointer changes: patch it in place.
		if err := h.pg.ReadPage(prev, buf); err != nil {
			return false, err
		}
		binary.BigEndian.PutUint64(buf, uint64(bp.next))
		if err := h.pg.WritePage(prev, buf); err != nil {
			return false, err
		}
	}
	return true, h.pg.FreePage(cur)
}

// Count returns the number of entries in the index by walking every bucket
// chain (Check cross-validation; O(pages)).
func (h *HashIndex) Count() (int64, error) {
	var total int64
	buf, dirBuf := make([]byte, PageSize), new([PageSize]byte)
	for b := 0; b < h.nBuckets; b++ {
		st := h.stripeFor(b)
		st.RLock()
		if _, err := h.dir(dirBuf); err != nil {
			st.RUnlock()
			return 0, err
		}
		for cur := headOf(dirBuf[:], b); cur != nilPage; {
			if err := h.pg.ReadPage(cur, buf); err != nil {
				st.RUnlock()
				return 0, err
			}
			bp, err := decodeBucket(buf)
			if err != nil {
				st.RUnlock()
				return 0, err
			}
			total += int64(len(bp.entries))
			cur = bp.next
		}
		st.RUnlock()
	}
	return total, nil
}
