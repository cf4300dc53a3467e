package detock

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tiga/internal/graph"
	"tiga/internal/txn"
)

// refQueue is the execution queue execQueue replaced, kept as the
// behavioural reference: every ordering event builds the DDR conflict graph
// over the first DDRScan queue entries, then stable-sorts the whole queue by
// key and executes in one pass, accumulating the keys of unordered and
// blocked entries.
type refQueue struct {
	queue []*dtxn
	exec  func(*dtxn)
}

func (r *refQueue) enqueue(d *dtxn) { r.queue = append(r.queue, d) }

// graphSize returns the modelled graph's nodes plus edges, the count the
// DDR cost charge multiplies.
func (r *refQueue) graphSize(d *dtxn, max int) int {
	g := graph.New()
	me := tid(d.t.ID)
	g.AddNode(me)
	scan := r.queue
	if len(scan) > max {
		scan = scan[:max]
	}
	for _, o := range scan {
		if o == d || o.t == nil || o.done {
			continue
		}
		if o.t.ConflictsWith(d.t) {
			oid := tid(o.t.ID)
			if o.key < d.key {
				g.AddEdge(oid, me)
			} else {
				g.AddEdge(me, oid)
			}
		}
	}
	return g.Len() + g.Edges()
}

func (r *refQueue) tryExecute() {
	sort.SliceStable(r.queue, func(i, j int) bool { return r.queue[i].key < r.queue[j].key })
	blockedR := make(map[string]bool)
	blockedW := make(map[string]bool)
	addKeys := func(d *dtxn) {
		for _, p := range d.t.Pieces {
			for _, k := range p.ReadSet {
				blockedR[k] = true
			}
			for _, k := range p.WriteSet {
				blockedW[k] = true
			}
		}
	}
	conflicts := func(d *dtxn) bool {
		for _, p := range d.t.Pieces {
			for _, k := range p.WriteSet {
				if blockedR[k] || blockedW[k] {
					return true
				}
			}
			for _, k := range p.ReadSet {
				if blockedW[k] {
					return true
				}
			}
		}
		return false
	}
	for _, d := range r.queue {
		if d.t == nil || d.done {
			continue
		}
		if !d.ordered || conflicts(d) {
			addKeys(d)
			continue
		}
		d.done = true
		r.exec(d)
	}
	live := r.queue[:0]
	for _, d := range r.queue {
		if !d.done {
			live = append(live, d)
		}
	}
	r.queue = live
}

// refTxn is one transaction as both queues see it, plus the sequence
// numbers still to arrive from its other home regions.
type refTxn struct {
	t        *txn.Txn
	inc, ref *dtxn
	homeReq  bool // the local home request has arrived
	missing  int  // remote seqInfos still to arrive
	maxSeq   uint64
}

// TestExecQueueMatchesReference drives execQueue and refQueue through the
// same randomized interleavings of home requests (enqueue plus the local
// sequence number) and remote seqInfo arrivals, ordering a transaction when
// its last sequence number lands, and requires identical execute sequences
// and DDR charges after every event. Sequence numbers and transaction ids
// are drawn from small ranges so equal order keys occur, reached both by
// entries queued before the last ordering event and by entries queued
// since.
func TestExecQueueMatchesReference(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e", "f"}
	var equalPrefix, equalTail, binding int
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		max := []int{1, 2, 4, 8, 256}[rng.Intn(5)]
		var gotInc, gotRef []uint64
		inc := newExecQueue(func(d *dtxn) { gotInc = append(gotInc, tid(d.t.ID)) })
		ref := &refQueue{exec: func(d *dtxn) { gotRef = append(gotRef, tid(d.t.ID)) }}
		var localSeq uint64
		var live []*refTxn
		ids := map[txn.ID]bool{}
		newTxn := func() *refTxn {
			id := txn.ID{Coord: int32(1 + rng.Intn(3)), Seq: uint64(1 + rng.Intn(4))}
			for ids[id] {
				id.Seq += 1 << 16 // same low 16 bits, so the same key tiebreak
			}
			ids[id] = true
			pieces := map[int]*txn.Piece{}
			for sh := 0; sh < 3; sh++ {
				if sh > 0 && rng.Intn(2) == 0 {
					continue
				}
				p := &txn.Piece{}
				for i := rng.Intn(3); i > 0; i-- {
					p.ReadSet = append(p.ReadSet, keys[rng.Intn(len(keys))])
				}
				for i := rng.Intn(3); i > 0; i-- {
					p.WriteSet = append(p.WriteSet, keys[rng.Intn(len(keys))])
				}
				pieces[sh] = p
			}
			tx := &txn.Txn{ID: id, Pieces: pieces}
			return &refTxn{t: tx, inc: &dtxn{t: tx}, ref: &dtxn{t: tx}, missing: rng.Intn(3)}
		}
		check := func(step int) {
			t.Helper()
			if fmt.Sprint(gotInc) != fmt.Sprint(gotRef) {
				t.Fatalf("seed %d step %d: execute order\n incremental %v\n reference   %v", seed, step, gotInc, gotRef)
			}
		}
		tryOrder := func(step int, rt *refTxn) {
			if !rt.homeReq || rt.missing > 0 {
				return
			}
			k := rt.maxSeq<<16 | (tid(rt.t.ID) & 0xffff)
			for _, o := range inc.ordered {
				if o.key == k {
					if rt.inc.enq < inc.epoch {
						equalPrefix++
					} else {
						equalTail++
					}
					break
				}
			}
			if len(ref.queue) > max {
				binding++
			}
			rt.inc.ordered, rt.inc.key = true, k
			rt.ref.ordered, rt.ref.key = true, k
			want := ref.graphSize(rt.ref, max)
			if got := 1 + 2*inc.conflicts(rt.inc, max); got != want {
				t.Fatalf("seed %d step %d: DDR charge %d units, reference %d", seed, step, got, want)
			}
			inc.order(rt.inc)
			ref.tryExecute()
			check(step)
		}
		for step := 0; step < 200; step++ {
			if len(live) == 0 || (step < 150 && rng.Intn(3) == 0) {
				live = append(live, newTxn())
				continue
			}
			i := rng.Intn(len(live))
			rt := live[i]
			if !rt.homeReq && (rt.missing == 0 || rng.Intn(2) == 0) {
				// Home request: enqueue and take the local sequence number.
				rt.homeReq = true
				localSeq++
				if localSeq > rt.maxSeq {
					rt.maxSeq = localSeq
				}
				inc.enqueue(rt.inc)
				ref.enqueue(rt.ref)
			} else if rt.missing > 0 {
				// A remote region's seqInfo, possibly ahead of the body.
				rt.missing--
				if s := uint64(1 + rng.Intn(int(localSeq)+3)); s > rt.maxSeq {
					rt.maxSeq = s
				}
			} else {
				continue
			}
			tryOrder(step, rt)
			if rt.homeReq && rt.missing == 0 {
				live = append(live[:i], live[i+1:]...)
			}
		}
		for len(live) > 0 {
			rt := live[0]
			if !rt.homeReq {
				rt.homeReq = true
				localSeq++
				if localSeq > rt.maxSeq {
					rt.maxSeq = localSeq
				}
				inc.enqueue(rt.inc)
				ref.enqueue(rt.ref)
			}
			rt.missing = 0
			tryOrder(-1, rt)
			live = live[1:]
		}
		check(-1)
		if len(ref.queue) != 0 || len(gotInc) != len(ids) {
			t.Fatalf("seed %d: %d of %d executed, reference left %d queued", seed, len(gotInc), len(ids), len(ref.queue))
		}
		if len(inc.keys) != 0 || len(inc.ordered) != 0 || inc.head != nil || inc.tail != nil || len(inc.cand) != 0 {
			t.Fatalf("seed %d: drained queue holds %d keys, %d ordered entries", seed, len(inc.keys), len(inc.ordered))
		}
	}
	if equalPrefix == 0 || equalTail == 0 || binding == 0 {
		t.Fatalf("interleavings too tame: %d equal keys from the prefix, %d from the tail, %d binding DDR windows",
			equalPrefix, equalTail, binding)
	}
	t.Logf("%d equal keys from the prefix, %d from the tail, %d binding DDR windows", equalPrefix, equalTail, binding)
}
