package stegfs

import (
	"crypto/rsa"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"stegfs/internal/fsapi"
	"stegfs/internal/sgcrypto"
)

// reserved physical-name prefixes. User ids may not contain NUL, so user
// objects (physName = uid + "/" + path) can never collide with these.
const (
	physUAKDir = "\x00uakdir"
	physDummy  = "\x00dummy/"
)

// uakDirFAK derives the file access key of the hidden directory that stores
// a user's (name, FAK) pairs for one UAK. The directory itself is "encrypted
// with the UAK and stored as a hidden file on the file system" (§3.2). The
// user id is mixed in so that two users who happen to choose the same UAK
// string get distinct, mutually invisible directories.
func uakDirFAK(uid string, uak []byte) []byte {
	sig := sgcrypto.Signature("stegfs.uakdir.fak\x00"+uid, uak)
	return sig[:]
}

// uakDirPhys returns the physical name of a user's UAK directory.
func uakDirPhys(uid string) string { return physUAKDir + "/" + uid }

// Session is a user's login session. Hidden objects become visible only
// after an explicit Connect and vanish again on Disconnect or Logoff,
// mirroring the steg_connect/steg_disconnect semantics of §4.
//
// A Session belongs to one user. Methods that change the visible set or the
// namespace (Connect, ConnectLevel, Disconnect, Logoff, CreateHidden,
// DeleteHidden, Hide, Unhide, Revoke, AddEntry) must not run concurrently
// with any other method of the same session — the visible map is not
// internally locked. Methods that only read the visible map (ReadHidden,
// WriteHidden, Visible, ListHidden, GetEntry) may run concurrently with one
// another once the connections are established; stegctl's multi-name
// steg-cat relies on this. Distinct sessions on the same FS run fully
// concurrently — reads of distinct hidden objects proceed in parallel under
// the per-object locks, while compound directory updates serialize on the
// namespace lock.
type Session struct {
	fs      *FS
	uid     string
	visible map[string]Entry
}

// NewSession starts a session for the given user id.
func (fs *FS) NewSession(uid string) (*Session, error) {
	if strings.ContainsRune(uid, 0) || uid == "" {
		return nil, fmt.Errorf("stegfs: invalid user id %q", uid)
	}
	return &Session{fs: fs, uid: uid, visible: make(map[string]Entry)}, nil
}

// UID returns the session's user id.
func (s *Session) UID() string { return s.uid }

// physFor builds the physical name of a user object: "the physical file name
// is derived by concatenating the user id with the complete path name of the
// file" (§3.1), preventing cross-user collisions on (name, key).
func (s *Session) physFor(objname string) string { return s.uid + "/" + objname }

// --- UAK directory plumbing -------------------------------------------------

// readHiddenObject opens (phys, fak) shared, reads the full payload and
// releases the object lock — the snapshot-read primitive of every directory
// walk.
func (fs *FS) readHiddenObject(phys string, fak []byte) ([]byte, error) {
	r, err := fs.open(phys, fak, false)
	if err != nil {
		return nil, err
	}
	defer fs.release(r)
	return fs.readHidden(r)
}

// loadUAKDir returns the entries of the UAK's directory; a missing directory
// reads as empty (its absence is itself deniable).
func (fs *FS) loadUAKDir(uid string, uak []byte) ([]Entry, error) {
	payload, err := fs.readHiddenObject(uakDirPhys(uid), uakDirFAK(uid, uak))
	if err != nil {
		if errors.Is(err, fsapi.ErrNotFound) {
			return nil, nil // no directory yet
		}
		return nil, err
	}
	return decodeEntries(payload)
}

// saveUAKDir writes the UAK directory, creating it on first use. The caller
// holds fs.nsMu (it is always part of a compound directory update).
func (fs *FS) saveUAKDir(uid string, uak []byte, entries []Entry) error {
	payload := encodeEntries(entries)
	fak := uakDirFAK(uid, uak)
	if r, err := fs.open(uakDirPhys(uid), fak, true); err == nil {
		defer fs.release(r)
		return fs.rewriteHidden(r, payload)
	}
	_, err := fs.createHidden(uakDirPhys(uid), fak, FlagDir, payload)
	return err
}

// resolve walks a slash-separated object name starting from the UAK
// directory, descending through hidden directories. Each directory is read
// atomically under its own object lock (hand-over-hand; at most one object
// lock is held at a time).
func (fs *FS) resolve(uid string, uak []byte, objname string) (Entry, error) {
	comps := strings.Split(objname, "/")
	entries, err := fs.loadUAKDir(uid, uak)
	if err != nil {
		return Entry{}, err
	}
	var cur Entry
	for i, comp := range comps {
		idx := findEntry(entries, comp)
		if idx < 0 {
			return Entry{}, fmt.Errorf("%w: hidden object %q", fsapi.ErrNotFound, objname)
		}
		cur = entries[idx]
		if i == len(comps)-1 {
			return cur, nil
		}
		if cur.Flags&FlagDir == 0 {
			return Entry{}, fmt.Errorf("%w: %q", fsapi.ErrNotDir, strings.Join(comps[:i+1], "/"))
		}
		payload, err := fs.readHiddenObject(cur.Phys, cur.FAK)
		if err != nil {
			return Entry{}, err
		}
		if entries, err = decodeEntries(payload); err != nil {
			return Entry{}, err
		}
	}
	return cur, nil
}

// loadParentEntries returns (read-only) the entry list governing objname's
// final component: the UAK directory for top-level names, the parent hidden
// directory's entries otherwise. Shared by the advisory creatability check
// and anything else that needs the parent view without rewriting it.
func (fs *FS) loadParentEntries(uid string, uak []byte, objname string) ([]Entry, error) {
	comps := strings.Split(objname, "/")
	if len(comps) == 1 {
		return fs.loadUAKDir(uid, uak)
	}
	parent, err := fs.resolve(uid, uak, strings.Join(comps[:len(comps)-1], "/"))
	if err != nil {
		return nil, err
	}
	if parent.Flags&FlagDir == 0 {
		return nil, fmt.Errorf("%w: %q", fsapi.ErrNotDir, parent.Name)
	}
	payload, err := fs.readHiddenObject(parent.Phys, parent.FAK)
	if err != nil {
		return nil, err
	}
	return decodeEntries(payload)
}

// checkCreatable verifies — read-only, no nsMu needed — that objname can be
// created: its parent chain resolves to a directory and the final component
// is not taken. Advisory only: callers re-check authoritatively during the
// nsMu-held registration, but this lets steg_create fail the common
// duplicate/missing-parent cases before paying the payload write, without
// holding the global namespace lock across directory device reads.
func (fs *FS) checkCreatable(uid string, uak []byte, objname string) error {
	entries, err := fs.loadParentEntries(uid, uak, objname)
	if err != nil {
		return err
	}
	if base := objname[strings.LastIndexByte(objname, '/')+1:]; findEntry(entries, base) >= 0 {
		return fmt.Errorf("%w: %q", fsapi.ErrExists, objname)
	}
	return nil
}

// updateParent rewrites the entry list that contains the last component of
// objname, applying fn to it. For top-level names that is the UAK directory;
// for nested names it is the parent hidden directory. The caller holds
// fs.nsMu, which serializes all compound directory updates.
func (fs *FS) updateParent(uid string, uak []byte, objname string, fn func([]Entry) ([]Entry, error)) error {
	comps := strings.Split(objname, "/")
	if len(comps) == 1 {
		entries, err := fs.loadUAKDir(uid, uak)
		if err != nil {
			return err
		}
		if entries, err = fn(entries); err != nil {
			return err
		}
		return fs.saveUAKDir(uid, uak, entries)
	}
	parent, err := fs.resolve(uid, uak, strings.Join(comps[:len(comps)-1], "/"))
	if err != nil {
		return err
	}
	if parent.Flags&FlagDir == 0 {
		return fmt.Errorf("%w: %q", fsapi.ErrNotDir, parent.Name)
	}
	r, err := fs.open(parent.Phys, parent.FAK, true)
	if err != nil {
		return err
	}
	defer fs.release(r)
	payload, err := fs.readHidden(r)
	if err != nil {
		return err
	}
	entries, err := decodeEntries(payload)
	if err != nil {
		return err
	}
	if entries, err = fn(entries); err != nil {
		return err
	}
	return fs.rewriteHidden(r, encodeEntries(entries))
}

// --- The steg_* APIs of Section 4 -------------------------------------------

// CreateHidden implements steg_create: it creates a hidden file (objtype
// FlagFile) or hidden directory (FlagDir) named objname under the UAK, with
// the given initial contents (directories must start empty). A fresh random
// FAK is generated and recorded in the UAK's directory.
//
// The bulk object write runs BEFORE the namespace lock is taken — the
// object is unreachable until its directory entry lands, so only the entry
// registration needs nsMu. Concurrent steg_creates of distinct names
// therefore overlap their payload writes across the sharded allocator and
// meet only at the (short) directory update. A lock-free advisory directory
// check fails the common error cases (duplicate name, missing parent)
// before any payload is written; the registration's re-check under nsMu
// stays authoritative for races in between.
func (s *Session) CreateHidden(objname string, uak []byte, objtype byte, data []byte) error {
	if objtype != FlagFile && objtype != FlagDir {
		return fmt.Errorf("stegfs: invalid object type %#x", objtype)
	}
	if objname == "" || strings.ContainsRune(objname, 0) {
		return fmt.Errorf("stegfs: invalid object name %q", objname)
	}
	if objtype == FlagDir {
		if len(data) != 0 {
			return fmt.Errorf("stegfs: directories are created empty")
		}
		data = encodeEntries(nil)
	}
	fak, err := sgcrypto.NewFAK()
	if err != nil {
		return err
	}
	phys := s.physFor(objname)
	base := objname[strings.LastIndexByte(objname, '/')+1:]

	if err := s.fs.checkCreatable(s.uid, uak, objname); err != nil {
		return err
	}
	r, err := s.fs.createHidden(phys, fak, objtype, data)
	if err != nil {
		return err
	}
	s.fs.nsMu.Lock()
	defer s.fs.nsMu.Unlock()
	err = s.fs.updateParent(s.uid, uak, objname, func(entries []Entry) ([]Entry, error) {
		if findEntry(entries, base) >= 0 {
			return nil, fmt.Errorf("%w: %q", fsapi.ErrExists, objname)
		}
		return append(entries, Entry{Name: base, Phys: phys, FAK: fak, Flags: objtype}), nil
	})
	if err != nil {
		// Roll back the orphaned object through its ref (no re-probe).
		if derr := s.fs.destroyByRef(r); derr != nil {
			return errors.Join(err, fmt.Errorf("stegfs: rollback of %q failed, blocks leaked: %w", objname, derr))
		}
		return err
	}
	return nil
}

// CreateHiddenBatch creates several hidden files in one call: the objects
// themselves are written concurrently by up to `workers` goroutines — their
// allocations spread across the sharded allocator's groups, so the device
// waits overlap the way the parallel write path promises — and the
// directory entries are then recorded under a single namespace-lock hold.
// names[i] receives datas[i]; a fresh random FAK is generated per object.
//
// The batch is all-or-nothing: on any failure the objects are destroyed
// and every entry this call already registered is removed again, so a
// caller can retry the whole batch after a failure. The one exception
// keeps the namespace consistent rather than clean: if unwinding an
// already-registered parent directory itself fails (e.g. the volume filled
// up mid-rollback), that parent's names are left fully created — entry and
// object both — never as dangling entries pointing at destroyed objects.
// Names must be distinct and, like CreateHidden, non-empty and NUL-free.
func (s *Session) CreateHiddenBatch(names []string, uak []byte, datas [][]byte, workers int) error {
	if len(names) != len(datas) {
		return fmt.Errorf("stegfs: %d names but %d payloads", len(names), len(datas))
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if n == "" || strings.ContainsRune(n, 0) {
			return fmt.Errorf("stegfs: invalid object name %q", n)
		}
		if seen[n] {
			return fmt.Errorf("%w: duplicate name %q in batch", fsapi.ErrExists, n)
		}
		seen[n] = true
	}
	if workers <= 0 || workers > len(names) {
		workers = len(names)
	}

	// Group the names by parent directory up front: the advisory pre-check
	// below reads each distinct parent once (not once per name), and the
	// registration phase rewrites each parent once for the whole batch.
	type parentGroup struct {
		repr string // one member name; updateParent derives the parent from it
		idxs []int
	}
	var order []string
	byParent := make(map[string]*parentGroup)
	for i, name := range names {
		dir := ""
		if j := strings.LastIndexByte(name, '/'); j >= 0 {
			dir = name[:j]
		}
		pg, ok := byParent[dir]
		if !ok {
			pg = &parentGroup{repr: name}
			byParent[dir] = pg
			order = append(order, dir)
		}
		pg.idxs = append(pg.idxs, i)
	}

	// Advisory fast-fail (same as CreateHidden's checkCreatable): catch
	// duplicate names and missing parents before paying any payload
	// writes. Registration re-checks authoritatively.
	for _, dir := range order {
		pg := byParent[dir]
		entries, err := s.fs.loadParentEntries(s.uid, uak, pg.repr)
		if err != nil {
			return err
		}
		for _, i := range pg.idxs {
			if base := names[i][strings.LastIndexByte(names[i], '/')+1:]; findEntry(entries, base) >= 0 {
				return fmt.Errorf("%w: %q", fsapi.ErrExists, names[i])
			}
		}
	}

	faks := make([][]byte, len(names))
	for i := range faks {
		fak, err := sgcrypto.NewFAK()
		if err != nil {
			return err
		}
		faks[i] = fak
	}

	// Phase 1 — create the objects in parallel (no namespace lock yet; the
	// objects exist on the volume but are reachable only via their FAKs).
	// The first failure aborts the remaining creates: the batch is doomed
	// anyway, so the skipped objects' write I/O would only be torn down
	// again.
	refs := make([]*hiddenRef, len(names)) // phase-1 refs; rollback needs no re-probe
	errs := make([]error, len(names))
	var failed atomic.Bool
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if failed.Load() {
					continue
				}
				refs[i], errs[i] = s.fs.createHidden(s.physFor(names[i]), faks[i], FlagFile, datas[i])
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for i := range names {
		next <- i
	}
	close(next)
	wg.Wait()

	// destroy tears down batch member i through its phase-1 ref; destroy
	// failures surface joined onto the primary error (a swallowed failure
	// here would leak the object's blocks with the FAK discarded).
	var destroyErrs []error
	destroy := func(i int) {
		if refs[i] == nil {
			return
		}
		if err := s.fs.destroyByRef(refs[i]); err != nil {
			destroyErrs = append(destroyErrs, fmt.Errorf("stegfs: rollback of %q failed, blocks leaked: %w", names[i], err))
		}
	}
	for i, err := range errs {
		if err != nil {
			for j := range refs {
				destroy(j)
			}
			return errors.Join(append([]error{fmt.Errorf("stegfs: batch create %q: %w", names[i], err)}, destroyErrs...)...)
		}
	}

	// Phase 2 — record the entries under one namespace-lock hold, using
	// the parent grouping built above so each parent is read-modified-
	// rewritten once for the whole batch (a flat batch touches the UAK
	// directory exactly once) instead of once per name.
	addEntries := func(pg *parentGroup) func([]Entry) ([]Entry, error) {
		return func(entries []Entry) ([]Entry, error) {
			for _, i := range pg.idxs {
				base := names[i][strings.LastIndexByte(names[i], '/')+1:]
				if findEntry(entries, base) >= 0 {
					return nil, fmt.Errorf("%w: %q", fsapi.ErrExists, names[i])
				}
				entries = append(entries, Entry{Name: base, Phys: s.physFor(names[i]), FAK: faks[i], Flags: FlagFile})
			}
			return entries, nil
		}
	}
	removeEntries := func(pg *parentGroup) func([]Entry) ([]Entry, error) {
		return func(entries []Entry) ([]Entry, error) {
			for _, i := range pg.idxs {
				base := names[i][strings.LastIndexByte(names[i], '/')+1:]
				if idx := findEntry(entries, base); idx >= 0 {
					entries = append(entries[:idx], entries[idx+1:]...)
				}
			}
			return entries, nil
		}
	}
	s.fs.nsMu.Lock()
	defer s.fs.nsMu.Unlock()
	for reg, dir := range order {
		pg := byParent[dir]
		if err := s.fs.updateParent(s.uid, uak, pg.repr, addEntries(pg)); err != nil {
			// All-or-nothing: un-register the parents recorded so far, and
			// destroy a group's objects only once its entries are gone —
			// if a rollback rewrite itself fails, that group's names stay
			// fully created, never as entries pointing at destroyed
			// objects. Groups never registered (this one included) just
			// lose their objects.
			var rollbackErrs []error
			for _, prevDir := range order[:reg] {
				prev := byParent[prevDir]
				if rerr := s.fs.updateParent(s.uid, uak, prev.repr, removeEntries(prev)); rerr == nil {
					for _, i := range prev.idxs {
						destroy(i)
					}
				} else {
					rollbackErrs = append(rollbackErrs, fmt.Errorf("stegfs: unwind of parent %q failed, its names remain created: %w", prevDir, rerr))
				}
			}
			for _, laterDir := range order[reg:] {
				for _, i := range byParent[laterDir].idxs {
					destroy(i)
				}
			}
			primary := fmt.Errorf("stegfs: batch register under %q: %w", dir, err)
			return errors.Join(append(append([]error{primary}, rollbackErrs...), destroyErrs...)...)
		}
	}
	return nil
}

// Hide implements steg_hide: it converts the plain file at pathname into the
// hidden object objname and deletes the plain source (§4).
func (s *Session) Hide(pathname, objname string, uak []byte) error {
	data, err := s.fs.Read(pathname)
	if err != nil {
		return err
	}
	if err := s.CreateHidden(objname, uak, FlagFile, data); err != nil {
		return err
	}
	return s.fs.Delete(pathname)
}

// Unhide implements steg_unhide: it converts the hidden object objname into
// a plain file at pathname and deletes the hidden source (§4).
func (s *Session) Unhide(pathname, objname string, uak []byte) error {
	e, err := s.fs.resolve(s.uid, uak, objname)
	if err != nil {
		return err
	}
	if e.Flags&FlagFile == 0 {
		return fmt.Errorf("%w: %q", fsapi.ErrIsDir, objname)
	}
	data, err := s.fs.readHiddenObject(e.Phys, e.FAK)
	if err != nil {
		return err
	}
	if err := s.fs.Create(pathname, data); err != nil {
		return err
	}
	return s.DeleteHidden(objname, uak)
}

// Connect implements steg_connect: it locates the hidden object through the
// (objname, UAK) pair and makes it visible in the session. Connecting a
// hidden directory reveals all its offspring as well (§4).
func (s *Session) Connect(objname string, uak []byte) error {
	e, err := s.fs.resolve(s.uid, uak, objname)
	if err != nil {
		return err
	}
	return s.connectEntry(objname, e)
}

func (s *Session) connectEntry(objname string, e Entry) error {
	// steg_connect "first locates the hidden object through the (objname,
	// UAK) pair" — a dangling entry (e.g. after revocation) fails here.
	r, err := s.fs.open(e.Phys, e.FAK, false)
	if err != nil {
		return err
	}
	s.visible[objname] = e
	if e.Flags&FlagDir == 0 {
		s.fs.release(r)
		return nil
	}
	payload, err := s.fs.readHidden(r)
	s.fs.release(r)
	if err != nil {
		return err
	}
	children, err := decodeEntries(payload)
	if err != nil {
		return err
	}
	for _, child := range children {
		if err := s.connectEntry(objname+"/"+child.Name, child); err != nil {
			return err
		}
	}
	return nil
}

// Disconnect implements steg_disconnect: the object (and, for directories,
// all offspring) becomes invisible again.
func (s *Session) Disconnect(objname string) {
	delete(s.visible, objname)
	prefix := objname + "/"
	for name := range s.visible {
		if strings.HasPrefix(name, prefix) {
			delete(s.visible, name)
		}
	}
}

// Logoff disconnects every connected object ("when the user logs off, all
// the connected hidden objects are automatically disconnected").
func (s *Session) Logoff() { s.visible = make(map[string]Entry) }

// Visible returns the names of the currently connected hidden objects, in
// sorted order (map iteration would make listings flap between calls).
func (s *Session) Visible() []string {
	out := make([]string, 0, len(s.visible))
	for n := range s.visible {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ReadHidden reads a connected hidden object's contents. Data blocks are
// decrypted on the fly, never staged in plaintext on the volume. The read
// holds only the object's shared lock, so any number of sessions can read
// distinct (or the same) hidden objects simultaneously.
func (s *Session) ReadHidden(objname string) ([]byte, error) {
	e, ok := s.visible[objname]
	if !ok {
		return nil, fmt.Errorf("%w: %q not connected", fsapi.ErrNotFound, objname)
	}
	r, err := s.fs.open(e.Phys, e.FAK, false)
	if err != nil {
		return nil, err
	}
	defer s.fs.release(r)
	if r.hdr.flags&FlagDir != 0 {
		return nil, fmt.Errorf("%w: %q", fsapi.ErrIsDir, objname)
	}
	return s.fs.readHidden(r)
}

// WriteHidden replaces a connected hidden object's contents under the
// object's exclusive lock; writers to distinct objects only meet at the
// (short) allocation critical sections.
func (s *Session) WriteHidden(objname string, data []byte) error {
	e, ok := s.visible[objname]
	if !ok {
		return fmt.Errorf("%w: %q not connected", fsapi.ErrNotFound, objname)
	}
	r, err := s.fs.open(e.Phys, e.FAK, true)
	if err != nil {
		return err
	}
	defer s.fs.release(r)
	if r.hdr.flags&FlagDir != 0 {
		return fmt.Errorf("%w: %q", fsapi.ErrIsDir, objname)
	}
	return s.fs.rewriteHidden(r, data)
}

// DeleteHidden removes a hidden object and its entry in the UAK (or parent)
// directory. Directories must be empty.
func (s *Session) DeleteHidden(objname string, uak []byte) error {
	s.fs.nsMu.Lock()
	defer s.fs.nsMu.Unlock()
	e, err := s.fs.resolve(s.uid, uak, objname)
	if err != nil {
		return err
	}
	// Locate the object before touching the parent, so a dangling entry
	// fails here and the directory is left as it was. The ref's header block
	// is reused below to destroy the object without a second probe.
	r, err := s.fs.probeHeader(e.Phys, e.FAK)
	if err != nil {
		return err
	}
	if e.Flags&FlagDir != 0 {
		payload, err := s.fs.readHiddenObject(e.Phys, e.FAK)
		if err != nil {
			return err
		}
		children, err := decodeEntries(payload)
		if err != nil {
			return err
		}
		if len(children) > 0 {
			return fmt.Errorf("stegfs: directory %q not empty", objname)
		}
	}
	base := objname[strings.LastIndexByte(objname, '/')+1:]
	if err := s.fs.updateParent(s.uid, uak, objname, func(entries []Entry) ([]Entry, error) {
		idx := findEntry(entries, base)
		if idx < 0 {
			return nil, fmt.Errorf("%w: %q", fsapi.ErrNotFound, objname)
		}
		return append(entries[:idx], entries[idx+1:]...), nil
	}); err != nil {
		return err
	}
	// The entry is gone; destroy the object through the probe's ref
	// (destroyByRef refreshes the header under the object lock first, and
	// treats a concurrent delete's not-found as done).
	if err := s.fs.destroyByRef(r); err != nil {
		return err
	}
	delete(s.visible, objname)
	return nil
}

// ListHidden returns the entries reachable with a UAK (the user's directory
// of name/FAK pairs, §3.2).
func (s *Session) ListHidden(uak []byte) ([]Entry, error) {
	return s.fs.loadUAKDir(s.uid, uak)
}

// GetEntry implements steg_getentry: it retrieves the (name, FAK) pair of a
// shared object and encrypts it with the recipient's public key. The
// returned ciphertext is the "entryfile" the owner transmits (Figure 4).
func (s *Session) GetEntry(objname string, uak []byte, pub *rsa.PublicKey) ([]byte, error) {
	e, err := s.fs.resolve(s.uid, uak, objname)
	if err != nil {
		return nil, err
	}
	payload := encodeEntries([]Entry{e})
	return sgcrypto.WrapEntry(pub, payload)
}

// AddEntry implements steg_addentry: it decrypts an entry file with the
// recipient's private key and records the shared object under the
// recipient's UAK. The caller should destroy the ciphertext afterwards
// (Figure 4).
func (s *Session) AddEntry(entryfile []byte, priv *rsa.PrivateKey, uak []byte) error {
	payload, err := sgcrypto.UnwrapEntry(priv, entryfile)
	if err != nil {
		return err
	}
	entries, err := decodeEntries(payload)
	if err != nil {
		return err
	}
	s.fs.nsMu.Lock()
	defer s.fs.nsMu.Unlock()
	dir, err := s.fs.loadUAKDir(s.uid, uak)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if findEntry(dir, e.Name) >= 0 {
			return fmt.Errorf("%w: %q", fsapi.ErrExists, e.Name)
		}
		dir = append(dir, e)
	}
	return s.fs.saveUAKDir(s.uid, uak, dir)
}

// Revoke implements the revocation procedure of §3.2: StegFS "first makes a
// new copy with a fresh FAK and possibly a different file name, then removes
// the original file to invalidate the old FAK". newName may equal objname.
func (s *Session) Revoke(objname, newName string, uak []byte) error {
	e, err := s.fs.resolve(s.uid, uak, objname)
	if err != nil {
		return err
	}
	if e.Flags&FlagFile == 0 {
		return fmt.Errorf("%w: %q", fsapi.ErrIsDir, objname)
	}
	data, err := s.fs.readHiddenObject(e.Phys, e.FAK)
	if err != nil {
		return err
	}
	if err := s.DeleteHidden(objname, uak); err != nil {
		return err
	}
	return s.CreateHidden(newName, uak, FlagFile, data)
}

// ConnectLevel connects every object reachable with the UAKs at the given
// access level or lower in a linear hierarchy (§3.2: "when the user signs on
// at a given access level, all the hidden files associated with UAKs at that
// access level or lower are visible"). uaks[0] is level 1.
func (s *Session) ConnectLevel(uaks [][]byte, level int) error {
	if level < 0 || level > len(uaks) {
		return fmt.Errorf("stegfs: level %d out of range [0,%d]", level, len(uaks))
	}
	for i := 0; i < level; i++ {
		entries, err := s.fs.loadUAKDir(s.uid, uaks[i])
		if err != nil {
			return err
		}
		for _, e := range entries {
			if err := s.connectEntry(e.Name, e); err != nil {
				return err
			}
		}
	}
	return nil
}
