package blockcache

import (
	"fmt"
	"strings"
)

// Policy names accepted by NewPolicy and the -cache-policy flags.
const (
	PolicyLRU = "lru" // least recently used (the classic buffer-cache default)
	Policy2Q  = "2q"  // two-queue (Johnson & Shasha, VLDB 1994), simplified variant
)

// PolicyNames lists the available replacement policies in display order.
func PolicyNames() []string { return []string{PolicyLRU, Policy2Q} }

// Policy decides which resident block the cache evicts under capacity
// pressure. The Cache owns the data, the dirty state and the block-number
// index; the policy orders the resident entries and addresses each one by
// the node handle it stores in entry.node, so no hook looks a block number
// up. Only 2Q keeps a block-number map, for its A1out ghosts, which are no
// longer resident. Implementations are not safe for concurrent use — the
// Cache calls them with its mutex held — and only this package can
// implement the interface.
//
// Lifecycle of an entry through the hooks:
//
//	Insert(e)  e became resident (read miss fill or fresh write); sets e.node
//	Touch(e)   a resident e was hit again (read or overwrite)
//	Victim()   peek the entry the policy wants evicted next
//	Remove(e)  e left the resident set after a successful eviction
//	Reset()    drop all state, resident and ghost (cache Invalidate)
//
// Victim does not remove: the cache must first write the victim back if it
// is dirty, and only calls Remove once the device write succeeded. If the
// write-back fails the cache calls Touch(victim) instead, so the policy
// re-prioritizes it and the data stays resident. Touch, Victim and Remove
// see only entries inserted since the last Reset and not removed since.
type Policy interface {
	// Name returns the policy's registry name (e.g. "lru").
	Name() string
	// Touch records a hit on resident entry e.
	Touch(e *entry)
	// Insert records e, holding e.block, becoming resident.
	Insert(e *entry)
	// Victim returns the preferred eviction candidate without removing it.
	// ok is false when nothing is resident.
	Victim() (e *entry, ok bool)
	// Remove records resident entry e being evicted. Scan-resistant
	// policies keep e.block as a ghost here.
	Remove(e *entry)
	// Reset drops all policy state.
	Reset()
}

// NewPolicy builds the named replacement policy for a cache of the given
// capacity. An empty name selects LRU. Unknown names are an error listing
// the valid choices.
func NewPolicy(name string, capacity int) (Policy, error) {
	switch strings.ToLower(name) {
	case "", PolicyLRU:
		return newLRUPolicy(), nil
	case Policy2Q, "twoq":
		return newTwoQPolicy(capacity), nil
	default:
		return nil, fmt.Errorf("blockcache: unknown policy %q (have %s)",
			name, strings.Join(PolicyNames(), ", "))
	}
}

// --- Slot-indexed lists ------------------------------------------------------

// slotLists threads up to three doubly linked lists of entries through one
// slice of nodes addressed by slot index; a resident entry records its slot
// in entry.node. Node i < lists is list i's sentinel. A removed node is
// chained onto a free list and reused before the slice grows, and moving a
// node within or between lists only relinks it, so a policy in steady state
// — one insert per eviction — allocates nothing.
type slotLists struct {
	nodes []slotNode
	lens  [3]int // linked nodes per list
	lists int32
	free  int32 // head of the free chain through next; -1 when empty
}

type slotNode struct {
	e          *entry // the resident entry; stale once the node is a ghost
	block      int64  // a ghost's block number (2Q's A1out only)
	prev, next int32
	list       int32 // which list the node is linked into
}

func newSlotLists(lists int32) slotLists {
	s := slotLists{lists: lists}
	s.reset()
	return s
}

// reset empties every list, keeping the node slice's memory.
func (s *slotLists) reset() {
	s.nodes = s.nodes[:0]
	for i := range s.lists {
		s.nodes = append(s.nodes, slotNode{prev: i, next: i, list: i})
	}
	s.lens = [3]int{}
	s.free = -1
}

// pushFront links a node holding e at the front of list and records its
// slot in e.node.
func (s *slotLists) pushFront(list int32, e *entry) {
	i := s.free
	if i >= 0 {
		s.free = s.nodes[i].next
	} else {
		i = int32(len(s.nodes))
		s.nodes = append(s.nodes, slotNode{})
	}
	s.nodes[i].e = e
	e.node = i
	s.link(list, i)
}

// moveToFront relinks slot i at the front of list, which may be the list it
// is already in.
func (s *slotLists) moveToFront(list, i int32) {
	s.unlink(i)
	s.link(list, i)
}

// remove unlinks slot i and puts it on the free chain.
func (s *slotLists) remove(i int32) {
	s.unlink(i)
	s.nodes[i].next = s.free
	s.free = i
}

// back returns the slot at the back of list; ok is false when it is empty.
func (s *slotLists) back(list int32) (i int32, ok bool) {
	i = s.nodes[list].prev
	return i, i != list
}

func (s *slotLists) link(list, i int32) {
	next := s.nodes[list].next
	s.nodes[i].prev, s.nodes[i].next, s.nodes[i].list = list, next, list
	s.nodes[next].prev = i
	s.nodes[list].next = i
	s.lens[list]++
}

func (s *slotLists) unlink(i int32) {
	n := s.nodes[i]
	s.nodes[n.prev].next = n.next
	s.nodes[n.next].prev = n.prev
	s.lens[n.list]--
}

// --- LRU ---------------------------------------------------------------------

// lruPolicy is the classic recency stack: hits and inserts move to the
// front, the victim is the back. It thrashes on cyclic scans longer than
// the capacity — exactly the regime 2Q exists for.
type lruPolicy struct {
	order slotLists // one list; front = most recently used
}

func newLRUPolicy() *lruPolicy { return &lruPolicy{order: newSlotLists(1)} }

func (p *lruPolicy) Name() string { return PolicyLRU }

func (p *lruPolicy) Touch(e *entry) { p.order.moveToFront(0, e.node) }

func (p *lruPolicy) Insert(e *entry) { p.order.pushFront(0, e) }

func (p *lruPolicy) Victim() (*entry, bool) {
	i, ok := p.order.back(0)
	return p.order.nodes[i].e, ok
}

func (p *lruPolicy) Remove(e *entry) { p.order.remove(e.node) }

func (p *lruPolicy) Reset() { p.order.reset() }

var _ Policy = (*lruPolicy)(nil)
