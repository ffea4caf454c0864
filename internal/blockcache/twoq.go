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
// trimmed off A1out's tail frees its node for the next insert.
type twoQPolicy struct {
	kin  int // max A1in residents before the FIFO is preferred for eviction
	kout int // max A1out ghost entries

	// queues holds A1in (resident FIFO; front = newest), Am (resident LRU;
	// front = MRU) and A1out (ghost FIFO of block numbers; front = newest).
	queues slotLists
	where  map[int64]int32 // block → its node in queues
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
		where:  make(map[int64]int32),
	}
}

func (p *twoQPolicy) Name() string { return Policy2Q }

// Touch refreshes an Am hit. An A1in hit re-fronts the block within A1in
// but never promotes it: correlated re-references inside one pass must not
// count as long-term reuse (that is the algorithm's scan filter). The
// re-front is a deliberate deviation from the paper's pure FIFO — the
// Policy contract requires Touch(victim) after a failed write-back to
// de-prioritize the victim so eviction can make progress on other blocks.
func (p *twoQPolicy) Touch(n int64) {
	i, ok := p.where[n]
	if !ok {
		return
	}
	if q := p.queues.nodes[i].list; q != twoQA1out {
		p.queues.moveToFront(q, i)
	}
}

// Insert admits a block: ghosts of recently evicted FIFO blocks go to Am
// (their re-reference proves reuse beyond a single pass), everything else
// starts in A1in.
func (p *twoQPolicy) Insert(n int64) {
	if i, ok := p.where[n]; ok {
		if p.queues.nodes[i].list == twoQA1out {
			p.queues.moveToFront(twoQAm, i)
		} else {
			p.Touch(n) // defensive; the cache never double-inserts
		}
		return
	}
	p.where[n] = p.queues.pushFront(twoQA1in, n)
}

// Victim prefers draining the FIFO once it exceeds its share, so scans
// evict their own blocks instead of Am's.
func (p *twoQPolicy) Victim() (int64, bool) {
	if p.queues.lens[twoQA1in] > p.kin || p.queues.lens[twoQAm] == 0 {
		if i, ok := p.queues.back(twoQA1in); ok {
			return p.queues.nodes[i].block, true
		}
	}
	if i, ok := p.queues.back(twoQAm); ok {
		return p.queues.nodes[i].block, true
	}
	return 0, false
}

// Remove retires an evicted block: FIFO evictions leave a ghost in A1out,
// Am evictions are forgotten entirely.
func (p *twoQPolicy) Remove(n int64) {
	i, ok := p.where[n]
	if !ok {
		return
	}
	if p.queues.nodes[i].list != twoQA1in {
		p.queues.remove(i)
		delete(p.where, n)
		return
	}
	p.queues.moveToFront(twoQA1out, i)
	for p.queues.lens[twoQA1out] > p.kout {
		old, _ := p.queues.back(twoQA1out)
		delete(p.where, p.queues.nodes[old].block)
		p.queues.remove(old)
	}
}

func (p *twoQPolicy) Reset() {
	p.queues.reset()
	clear(p.where)
}

var _ Policy = (*twoQPolicy)(nil)
