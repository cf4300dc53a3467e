package main

import (
	"math/rand"
	"time"

	"tiga/internal/metrics"
	"tiga/internal/protocol"
	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/txn"
	"tiga/internal/workload"
)

// The benchmark observes the system only from outside: it wraps the workload
// generator and the protocol.System that harness.Build returns, and
// harness.RunLoad drives the wrapped pair. The wrappers always record each
// transaction's outcome and its sim-time latency from arrival to completion
// (the harness's own Run.Lat leaves out admission-queue wait in open-loop
// mode). On the traced run they also read the host clock at every layer
// boundary.

// layer names one timed layer boundary.
type layer int

const (
	layerSeed     layer = iota // workload generator construction and store seeding
	layerNext                  // workload.Generator.Next and interactive chain steps
	layerBuild                 // harness.Build, less the seeding inside it
	layerComplete              // completion callbacks into the harness
	layerSubmit                // protocol Submit / SubmitLocalRead
	numLayers
)

// clock accumulates host self time per layer. Layers nest (a completion
// callback may submit the next chain step), so a stack charges each
// interval to the innermost layer only. A nil clock is disarmed.
type clock struct {
	self  [numLayers]time.Duration
	stack []layer
	last  time.Time
}

func (c *clock) enter(l layer) {
	if c == nil {
		return
	}
	now := time.Now()
	if n := len(c.stack); n > 0 {
		c.self[c.stack[n-1]] += now.Sub(c.last)
	}
	c.stack = append(c.stack, l)
	c.last = now
}

func (c *clock) exit() {
	if c == nil {
		return
	}
	now := time.Now()
	n := len(c.stack)
	c.self[c.stack[n-1]] += now.Sub(c.last)
	c.stack = c.stack[:n-1]
	c.last = now
}

// outcomes is what the wrappers saw of one run's in-window arrivals.
type outcomes struct {
	sim        *simnet.Sim
	start, end time.Duration

	arrivals    int64 // one-shot submissions and chain arrivals in the window
	commits     int64
	aborts      int64 // one-shot only: a chain's final abort is not visible
	oneShots    int64 // in-window one-shot submissions
	resolved    int64 // in-window one-shot completions
	chains      int64
	jobs        int64 // every generated job, warmup and drain included
	submits     int64 // every Submit/SubmitLocalRead call, chain steps included
	rw, ro, all metrics.Latency

	// next is the one-shot transaction the generator just handed out. The
	// harness submits it synchronously right after Next returns, so a
	// Submit of any other transaction is a chain step.
	next *txn.Txn
}

func (o *outcomes) inWindow(at time.Duration) bool { return at >= o.start && at < o.end }

func (o *outcomes) commit(at time.Duration, ro bool) {
	lat := o.sim.Now() - at
	o.commits++
	o.all.Add(lat)
	if ro {
		o.ro.Add(lat)
	} else {
		o.rw.Add(lat)
	}
}

// observer is the state both wrappers share.
type observer struct {
	out *outcomes
	clk *clock
}

// wrapGen times the generator and tags its jobs for outcome tracking.
type wrapGen struct {
	observer
	inner workload.Generator
}

func (g *wrapGen) Seed(shard int, st *store.Store) {
	g.clk.enter(layerSeed)
	g.inner.Seed(shard, st)
	g.clk.exit()
}

func (g *wrapGen) Next(rng *rand.Rand) workload.Job {
	g.clk.enter(layerNext)
	job := g.inner.Next(rng)
	g.clk.exit()
	o := g.out
	o.jobs++
	if job.T != nil {
		o.next = job.T
		return job
	}
	o.chains++
	arrival := o.sim.Now()
	in := o.inWindow(arrival)
	if in {
		o.arrivals++
	}
	next, ro := job.I.Next, true
	job.I = &txn.Interactive{Label: job.I.Label,
		Next: func(stage int, prev *txn.Result) (*txn.Txn, bool, bool) {
			g.clk.enter(layerNext)
			t, done, abort := next(stage, prev)
			g.clk.exit()
			if stage == 0 {
				ro = true
			}
			if t != nil && !t.ReadOnly {
				ro = false
			}
			if in && !abort && (done || t == nil) {
				o.commit(arrival, ro)
			}
			return t, done, abort
		}}
	return job
}

// wrapSys times submissions and completions and records one-shot outcomes.
type wrapSys struct {
	observer
	inner protocol.System
}

func (w *wrapSys) NumCoords() int { return w.inner.NumCoords() }
func (w *wrapSys) Start()         { w.inner.Start() }

func (w *wrapSys) Submit(coord int, t *txn.Txn, done func(txn.Result)) {
	w.clk.enter(layerSubmit)
	w.inner.Submit(coord, t, w.track(t, done))
	w.clk.exit()
}

// track returns the completion callback handed to the protocol: done itself
// for an untimed chain step, otherwise done wrapped to record the outcome
// and time the harness's completion work.
func (w *wrapSys) track(t *txn.Txn, done func(txn.Result)) func(txn.Result) {
	o := w.out
	o.submits++
	oneShot := t == o.next
	o.next = nil
	if !oneShot {
		if w.clk == nil {
			return done
		}
		return func(r txn.Result) {
			w.clk.enter(layerComplete)
			done(r)
			w.clk.exit()
		}
	}
	arrival, ro := o.sim.Now(), t.ReadOnly
	in := o.inWindow(arrival)
	if in {
		o.arrivals++
		o.oneShots++
	}
	return func(r txn.Result) {
		if in {
			o.resolved++
			if r.OK {
				o.commit(arrival, ro)
			} else {
				o.aborts++
			}
		}
		w.clk.enter(layerComplete)
		done(r)
		w.clk.exit()
	}
}

// The harness finds the checker and the local-read path by asserting
// d.Sys against protocol.Checkable and protocol.SnapshotReadable, so the
// wrapper must expose exactly the capabilities of the system it wraps:
// a plain wrapper would silently switch both off.

type leaderStores struct{ c protocol.Checkable }

func (l leaderStores) LeaderStore(shard int) *store.Store { return l.c.LeaderStore(shard) }

type localReads struct {
	w *wrapSys
	s protocol.SnapshotReadable
}

func (l localReads) SubmitLocalRead(coord int, t *txn.Txn, done func(txn.Result)) {
	l.w.clk.enter(layerSubmit)
	l.s.SubmitLocalRead(coord, t, l.w.track(t, done))
	l.w.clk.exit()
}

func (l localReads) SafeTimes() []time.Duration { return l.s.SafeTimes() }

// wrapSystem wraps inner, forwarding the capabilities it implements.
func wrapSystem(inner protocol.System, obs observer) protocol.System {
	w := &wrapSys{observer: obs, inner: inner}
	c, isC := inner.(protocol.Checkable)
	s, isS := inner.(protocol.SnapshotReadable)
	switch {
	case isC && isS:
		return struct {
			*wrapSys
			leaderStores
			localReads
		}{w, leaderStores{c}, localReads{w, s}}
	case isC:
		return struct {
			*wrapSys
			leaderStores
		}{w, leaderStores{c}}
	case isS:
		return struct {
			*wrapSys
			localReads
		}{w, localReads{w, s}}
	}
	return w
}
