package detock

import (
	"cmp"
	"container/heap"
	"slices"
)

// execQueue is one engine's pending transactions: enqueued on the home
// request, ordered once every home region's sequence number is known, and
// executed in global rank order. An ordered transaction executes once no
// pending transaction ahead of it conflicts on a key: every unordered one
// counts as ahead, and ordered ones by rank. Keys are matched by name
// across the transaction's pieces.
//
// Instead of re-sorting the queue and rebuilding blocked-key sets on every
// arrival, the queue keeps per-key state up to date: counts of the unordered
// readers and writers, and the ordered entries in rank order. Ordering one
// transaction re-examines only the keys it touches, and executing one only
// the keys it frees, so the work per arrival follows the entries queued on
// those keys, not the length of the whole queue.
type execQueue struct {
	exec func(*dtxn)
	keys map[string]*keyState
	free []*keyState
	// head/tail link the unordered entries in enqueue order.
	head, tail *dtxn
	// ordered holds the ordered, unexecuted entries in rank order.
	ordered []*dtxn
	// enqs counts enqueues; epoch is its value at the last ordering event.
	// Entries with enq < epoch were queued before it.
	enqs, epoch uint64
	ties        int64
	cand        candHeap
}

// keyState is one key's pending readers and writers.
type keyState struct {
	name string
	// unord and unordW count the unordered entries touching and writing
	// the key.
	unord, unordW int
	// ord lists the ordered, unexecuted entries on the key in rank order.
	ord []keyEntry
}

type keyEntry struct {
	d     *dtxn
	write bool
}

// keyRef is one distinct key a transaction touches, as a writer when any of
// its pieces writes the key and as a reader otherwise.
type keyRef struct {
	ks    *keyState
	write bool
}

func newExecQueue(exec func(*dtxn)) execQueue {
	return execQueue{exec: exec, keys: make(map[string]*keyState)}
}

// cmpRank compares two entries' ranks: the global order key, ties broken by
// when and from where each entry was ordered (see order).
func cmpRank(a, b *dtxn) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.tie, b.tie)
}

// rankOf returns d's index in the ordered entries, or where it would go.
func (q *execQueue) rankOf(d *dtxn) int {
	i, _ := slices.BinarySearchFunc(q.ordered, d, cmpRank)
	return i
}

// enqueue adds d, whose body is known but which is not yet ordered.
func (q *execQueue) enqueue(d *dtxn) {
	d.enq = q.enqs
	q.enqs++
	d.prev = q.tail
	if q.tail != nil {
		q.tail.next = d
	} else {
		q.head = d
	}
	q.tail = d
	for _, sh := range d.t.Shards() {
		p := d.t.Pieces[sh]
		for _, k := range p.WriteSet {
			q.ref(d, k, true)
		}
		for _, k := range p.ReadSet {
			q.ref(d, k, false)
		}
	}
	for _, r := range d.refs {
		r.ks.unord++
		if r.write {
			r.ks.unordW++
		}
	}
}

// ref records that d touches key k, once per distinct key.
func (q *execQueue) ref(d *dtxn, k string, write bool) {
	ks := q.keys[k]
	if ks == nil {
		if n := len(q.free); n > 0 {
			ks = q.free[n-1]
			q.free = q.free[:n-1]
		} else {
			ks = &keyState{}
		}
		ks.name = k
		q.keys[k] = ks
	}
	for i := range d.refs {
		if d.refs[i].ks == ks {
			d.refs[i].write = d.refs[i].write || write
			return
		}
	}
	d.refs = append(d.refs, keyRef{ks, write})
}

// conflicts counts the pending entries that conflict with d among the first
// max entries of the queue in the order the deadlock-resolution scan visits
// them: the unordered entries queued before the last ordering event, then
// the ordered entries by rank, then the entries queued since. d is still
// linked as unordered and occupies its own slot in that order.
func (q *execQueue) conflicts(d *dtxn, max int) int {
	n, seen := 0, 0
	visit := func(o *dtxn) bool {
		if seen == max {
			return false
		}
		seen++
		if o != d && o.t.ConflictsWith(d.t) {
			n++
		}
		return true
	}
	o := q.head
	for ; o != nil && o.enq < q.epoch; o = o.next {
		if !visit(o) {
			return n
		}
	}
	for _, x := range q.ordered {
		if !visit(x) {
			return n
		}
	}
	for ; o != nil; o = o.next {
		if !visit(o) {
			return n
		}
	}
	return n
}

// order moves d, whose key is now set, from the unordered entries to its
// rank, then executes every entry that became runnable, in rank order.
//
// Among equal keys, d ranks ahead of the ordered entries if it was queued
// before the last ordering event and behind them otherwise: the position a
// stable sort of the whole queue by key, with unordered entries in front,
// would give it.
func (q *execQueue) order(d *dtxn) {
	q.unlink(d)
	q.ties++
	if d.enq < q.epoch {
		d.tie = -q.ties
	} else {
		d.tie = q.ties
	}
	q.epoch = q.enqs
	q.ordered = slices.Insert(q.ordered, q.rankOf(d), d)
	heap.Push(&q.cand, d)
	for _, r := range d.refs {
		ks := r.ks
		ks.unord--
		if r.write {
			ks.unordW--
		}
		j, _ := slices.BinarySearchFunc(ks.ord, d, func(e keyEntry, d *dtxn) int { return cmpRank(e.d, d) })
		ks.ord = slices.Insert(ks.ord, j, keyEntry{d, r.write})
		q.pushFrontier(ks)
	}
	for len(q.cand) > 0 {
		c := heap.Pop(&q.cand).(*dtxn)
		if !c.done && q.ready(c) {
			q.run(c)
		}
	}
}

func (q *execQueue) unlink(d *dtxn) {
	if d.prev != nil {
		d.prev.next = d.next
	} else {
		q.head = d.next
	}
	if d.next != nil {
		d.next.prev = d.prev
	} else {
		q.tail = d.prev
	}
	d.prev, d.next = nil, nil
}

// pushFrontier makes a key's runnable-if-unblocked entries candidates: the
// first entry if it writes, else the readers ahead of the first writer.
func (q *execQueue) pushFrontier(ks *keyState) {
	if len(ks.ord) > 0 && ks.ord[0].write {
		heap.Push(&q.cand, ks.ord[0].d)
		return
	}
	for _, e := range ks.ord {
		if e.write {
			return
		}
		heap.Push(&q.cand, e.d)
	}
}

// ready reports whether no pending entry ahead of the ordered entry c
// conflicts with it.
func (q *execQueue) ready(c *dtxn) bool {
	for _, r := range c.refs {
		ks := r.ks
		if r.write {
			if ks.unord > 0 || ks.ord[0].d != c {
				return false
			}
			continue
		}
		if ks.unordW > 0 {
			return false
		}
		for _, e := range ks.ord {
			if e.d == c {
				break
			}
			if e.write {
				return false
			}
		}
	}
	return true
}

// run executes c and makes the entries it unblocks candidates. Only entries
// ranked behind c can be unblocked by it: a writer was first on each of its
// keys, and a departing reader changes a key's frontier only when it was
// the last reader ahead of the first writer.
func (q *execQueue) run(c *dtxn) {
	c.done = true
	i := q.rankOf(c)
	q.ordered = slices.Delete(q.ordered, i, i+1)
	for _, r := range c.refs {
		ks := r.ks
		j := slices.IndexFunc(ks.ord, func(e keyEntry) bool { return e.d == c })
		ks.ord = slices.Delete(ks.ord, j, j+1)
		switch {
		case r.write:
			q.pushFrontier(ks)
		case len(ks.ord) > 0 && ks.ord[0].write:
			heap.Push(&q.cand, ks.ord[0].d)
		}
		if ks.unord == 0 && len(ks.ord) == 0 {
			delete(q.keys, ks.name)
			ks.name = ""
			q.free = append(q.free, ks)
		}
	}
	c.refs = nil
	q.exec(c)
}

// candHeap orders candidate entries by rank.
type candHeap []*dtxn

func (h candHeap) Len() int           { return len(h) }
func (h candHeap) Less(i, j int) bool { return cmpRank(h[i], h[j]) < 0 }
func (h candHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x any)        { *h = append(*h, x.(*dtxn)) }
func (h *candHeap) Pop() any {
	old := *h
	d := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return d
}
