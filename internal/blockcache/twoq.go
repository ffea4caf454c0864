package blockcache

// twoQPolicy implements the simplified 2Q algorithm (Johnson & Shasha,
// "2Q: A Low Overhead High Performance Buffer Management Replacement
// Algorithm", VLDB 1994). New blocks enter the A1in FIFO; only blocks
// whose number resurfaces in the A1out ghost queue — i.e. blocks re-read
// after leaving the FIFO — are admitted to the long-term Am LRU. One-shot
// scan blocks therefore flow through A1in and never displace Am, which is
// where the workload's hot header/p-tree/directory blocks settle.
//
// Tuning follows the paper's recommendation: Kin (FIFO share) is a quarter
// of the capacity; Kout (ghost length) is sized at twice the capacity so a
// hot block's ghost survives one full scan between touches.
//
// The three queues share one slotLists, so a block moving from A1in to the
// A1out ghost queue, or from A1out to Am, keeps its node, and a ghost
// trimmed off A1out's tail frees its node for the next insert. Resident
// blocks are addressed through entry.node; only ghosts, which have no
// entry, are found by block number, in ghosts.
type twoQPolicy struct {
	kin  int // max A1in residents before the FIFO is preferred for eviction
	kout int // max A1out ghost entries

	// queues holds A1in (resident FIFO; front = newest), Am (resident LRU;
	// front = MRU) and A1out (ghost FIFO of block numbers; front = newest).
	queues slotLists
	ghosts map[int64]int32 // A1out block → its node in queues
}

// 2Q queue numbers in twoQPolicy.queues.
const (
	twoQA1in int32 = iota
	twoQAm
	twoQA1out
)

func newTwoQPolicy(capacity int) *twoQPolicy {
	if capacity < 1 {
		capacity = 1
	}
	return &twoQPolicy{
		kin:    max(1, capacity/4),
		kout:   max(1, 2*capacity),
		queues: newSlotLists(3),
		ghosts: make(map[int64]int32),
	}
}

func (p *twoQPolicy) Name() string { return Policy2Q }

// Touch refreshes an Am hit. An A1in hit re-fronts the block within A1in
// but never promotes it: correlated re-references inside one pass must not
// count as long-term reuse (that is the algorithm's scan filter). The
// re-front is a deliberate deviation from the paper's pure FIFO — the
// Policy contract requires Touch(victim) after a failed write-back to
// de-prioritize the victim so eviction can make progress on other blocks.
func (p *twoQPolicy) Touch(e *entry) {
	p.queues.moveToFront(p.queues.nodes[e.node].list, e.node)
}

// Insert admits a block: ghosts of recently evicted FIFO blocks go to Am
// (their re-reference proves reuse beyond a single pass), everything else
// starts in A1in.
func (p *twoQPolicy) Insert(e *entry) {
	i, ok := p.ghosts[e.block]
	if !ok {
		p.queues.pushFront(twoQA1in, e)
		return
	}
	delete(p.ghosts, e.block)
	p.queues.nodes[i].e = e
	e.node = i
	p.queues.moveToFront(twoQAm, i)
}

// Victim prefers draining the FIFO once it exceeds its share, so scans
// evict their own blocks instead of Am's.
func (p *twoQPolicy) Victim() (*entry, bool) {
	if p.queues.lens[twoQA1in] > p.kin || p.queues.lens[twoQAm] == 0 {
		if i, ok := p.queues.back(twoQA1in); ok {
			return p.queues.nodes[i].e, true
		}
	}
	i, ok := p.queues.back(twoQAm)
	return p.queues.nodes[i].e, ok
}

// Remove retires an evicted block: FIFO evictions leave a ghost in A1out,
// Am evictions are forgotten entirely.
func (p *twoQPolicy) Remove(e *entry) {
	i := e.node
	if p.queues.nodes[i].list != twoQA1in {
		p.queues.remove(i)
		return
	}
	p.queues.nodes[i].block = e.block
	p.ghosts[e.block] = i
	p.queues.moveToFront(twoQA1out, i)
	for p.queues.lens[twoQA1out] > p.kout {
		old, _ := p.queues.back(twoQA1out)
		delete(p.ghosts, p.queues.nodes[old].block)
		p.queues.remove(old)
	}
}

func (p *twoQPolicy) Reset() {
	p.queues.reset()
	clear(p.ghosts)
}

var _ Policy = (*twoQPolicy)(nil)
