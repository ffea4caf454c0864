package stegfs

import "sync"

// lockTable hands out per-hidden-object locks keyed by header block number,
// so operations on distinct hidden objects proceed in parallel while reads
// and writes of the same object serialize. Entries are reference-counted and
// reclaimed when the last holder releases, so the table stays proportional
// to the number of objects currently being accessed, not to the number of
// objects on the volume.
//
// The table also carries the volume's freeze gate: every per-object
// acquisition holds the gate shared, plain-file mutators hold it shared
// around their calls (EnterGate/ExitGate), and Freeze takes it exclusively,
// giving whole-volume operations (Backup, Sync) a point where no hidden
// object — and no plain file — is mid-mutation.
//
// Lock hierarchy (outermost first):
//
//	FS.nsMu  →  lockTable (gate, then one object lock)  →  FS.createMu
//	stripe  →  allocation-group locks (internal/alloc)  →  cache/device
//	locks
//
// Allocation-group mutexes are leaves: the sharded allocator never takes
// another lock while holding one, and callers hold at most one group lock
// at a time (inside the allocator). Never acquire a per-object lock while
// holding a later-level lock, with one audited exception: createHidden
// locks the object it just allocated while still holding its name-stripe
// mutex. It pre-takes the gate with EnterGate (before the stripe, in
// hierarchy order) and then uses LockGateHeld, so the gate can never block
// while the stripe is held; the object mutex can at worst wait briefly for
// a deleter still tearing down a previous object that recycled the same
// header block — never a deadlock, since deleters take neither stripes nor
// the gate exclusively.
type lockTable struct {
	// lockcheck:level 20 volume/gate
	gate sync.RWMutex // freeze gate; object holders share it, Freeze excludes them
	// t.mu is deliberately unleveled: it protects only the table map, is
	// held for a few map operations at a time, and never wraps another
	// acquisition — guard discipline is all it needs.
	mu sync.Mutex // guards m
	// lockcheck:guardedby mu
	m map[int64]*objLock
	// lockcheck:guardedby mu
	free []*objLock // reclaimed entries kept for reuse (bounded)
}

// lockFreelistCap bounds the reclaimed-entry freelist. Each per-object open
// retires its lock entry on release; without reuse every open/release pair
// allocates a fresh objLock, which alone keeps the cached read path off
// zero allocations per operation.
const lockFreelistCap = 128

type objLock struct {
	refs int
	// lockcheck:level 21 volume/objLock
	mu sync.RWMutex
}

func newLockTable() *lockTable {
	return &lockTable{m: make(map[int64]*objLock)}
}

// get returns the lock for header block b, creating it on first use, with
// its reference count raised.
func (t *lockTable) get(b int64) *objLock {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.m[b]
	if !ok {
		if n := len(t.free); n > 0 {
			l = t.free[n-1]
			t.free[n-1] = nil
			t.free = t.free[:n-1]
		} else {
			l = &objLock{}
		}
		t.m[b] = l
	}
	l.refs++
	return l
}

// lookup returns the live lock for b without touching its reference count.
// Only holders (who own a reference from get) may call it.
func (t *lockTable) lookup(b int64) *objLock {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[b]
}

// put drops one reference to the lock for b, reclaiming the entry when the
// last holder is gone. The caller must have released the object mutex first:
// every waiter takes its reference before blocking, so an entry at zero
// references has neither holders nor waiters and is safe to drop.
func (t *lockTable) put(b int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.m[b]
	l.refs--
	if l.refs == 0 {
		// At zero references there are neither holders nor waiters (see
		// above), so the mutex is quiescent and the entry can be reused.
		delete(t.m, b)
		if len(t.free) < lockFreelistCap {
			t.free = append(t.free, l)
		}
	}
}

// Lock takes the exclusive lock of the object whose header lives in block b.
// lockcheck:acquire volume/gate shared
// lockcheck:acquire volume/objLock
func (t *lockTable) Lock(b int64) {
	t.gate.RLock()
	t.get(b).mu.Lock()
}

// Unlock releases an exclusive hold.
// lockcheck:release volume/objLock
// lockcheck:release volume/gate shared
func (t *lockTable) Unlock(b int64) {
	t.lookup(b).mu.Unlock()
	t.put(b)
	t.gate.RUnlock()
}

// RLock takes the shared lock of the object whose header lives in block b.
// lockcheck:acquire volume/gate shared
// lockcheck:acquire volume/objLock shared
func (t *lockTable) RLock(b int64) {
	t.gate.RLock()
	t.get(b).mu.RLock()
}

// RUnlock releases a shared hold.
// lockcheck:release volume/objLock shared
// lockcheck:release volume/gate shared
func (t *lockTable) RUnlock(b int64) {
	t.lookup(b).mu.RUnlock()
	t.put(b)
	t.gate.RUnlock()
}

// EnterGate takes the freeze gate shared without locking any object.
// Plain-file mutators hold it around their calls, and createHidden uses it
// to establish the gate → name-stripe order up front, so it can later lock
// its freshly allocated object with LockGateHeld while holding the stripe
// without ever waiting on the gate there (waiting on the gate while holding
// the stripe would stall a same-name create behind a pending Freeze, and
// the gate must always be taken before any later-level lock, in Freeze's
// order).
// lockcheck:acquire volume/gate shared
func (t *lockTable) EnterGate() { t.gate.RLock() }

// ExitGate releases a shared gate hold taken with EnterGate and not yet
// transferred to an object lock.
// lockcheck:release volume/gate shared
func (t *lockTable) ExitGate() { t.gate.RUnlock() }

// LockGateHeld locks object b exclusively for a caller that already holds
// the gate shared (via EnterGate). The matching release is the ordinary
// Unlock, which gives the gate hold back.
// lockcheck:holds volume/gate shared
// lockcheck:acquire volume/objLock
func (t *lockTable) LockGateHeld(b int64) { t.get(b).mu.Lock() }

// Freeze blocks until no per-object lock is held and prevents new ones from
// being taken until Unfreeze. Whole-volume operations (Backup, Sync) use
// this to quiesce hidden-object activity. Since object holders never nest a
// second object acquisition (hand-over-hand only), a pending Freeze cannot
// deadlock a holder.
// lockcheck:acquire volume/gate
func (t *lockTable) Freeze() { t.gate.Lock() }

// Unfreeze reopens the gate.
// lockcheck:release volume/gate
func (t *lockTable) Unfreeze() { t.gate.Unlock() }
