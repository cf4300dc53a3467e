package main

import (
	"container/heap"
	"math"
	"runtime/debug"
	"time"
)

// Host speed on a shared machine drifts by 20–45% over minutes, and the
// simulator slows down with it: other tenants take cache, memory bandwidth
// and CPU time. The calibration kernel measures that drift. It is a fixed
// piece of work that shares no code with the repository: a discrete-event
// loop over a pointer heap, a map of live records and short-lived
// allocations, the same mix of work the simulator does. The benchmark times
// it at the start of an invocation and after every set-up and run, and
// reports host times in reference seconds: the median raw time, divided by
// the kernel's median time in the same invocation, times the kernel's time
// on the reference host. A change to the program moves the raw time and not
// the kernel, so it shows in full. One kernel timing is itself noisy (about
// 10% between neighbours), so the kernel runs for about calShare of the
// invocation, spread over it, and each measurement is scaled by the median
// over the invocation, which follows the drift across minutes that matters.

// calRefWall and calRefCPU are the kernel's median wall and CPU time on the
// reference host, a 2-vCPU VM, so reference seconds read close to raw
// seconds there.
const (
	calRefWall = 0.150
	calRefCPU  = 0.180
)

// calShare is the share of an invocation spent timing the kernel; calWarm is
// the length in seconds charged to the start of an invocation, whose kernel
// timings also warm the kernel up.
const (
	calShare = 0.1
	calWarm  = 3
)

// calibrate times the kernel after a measurement that took d, as many times
// as keeps the kernel at calShare of the invocation, and at least once.
func (rs *runs) calibrate(d time.Duration) {
	n := max(1, int(math.Round(d.Seconds()*calShare/calRefWall)))
	for range n {
		rs.cals = append(rs.cals, calibrate())
	}
}

// calib is the kernel's wall and CPU seconds: one timing, or the medians
// over an invocation.
type calib struct{ wall, cpu float64 }

// speed is the median calibration of the invocation.
func (rs *runs) speed() calib {
	w := make([]float64, len(rs.cals))
	c := make([]float64, len(rs.cals))
	for i, k := range rs.cals {
		w[i], c[i] = k.wall, k.cpu
	}
	return calib{median(w), median(c)}
}

// refWall and refCPU convert raw wall or CPU seconds measured at speed c to
// reference seconds.
func (c calib) refWall(s float64) float64 { return s * calRefWall / c.wall }
func (c calib) refCPU(s float64) float64  { return s * calRefCPU / c.cpu }

type calEvent struct {
	at, key uint64
	body    []byte
}

type calQueue []*calEvent

func (q calQueue) Len() int           { return len(q) }
func (q calQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q calQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *calQueue) Push(x any)        { *q = append(*q, x.(*calEvent)) }
func (q *calQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// calSink keeps the kernel's result live so the compiler cannot drop it.
var calSink uint64

func calKernel() {
	const (
		live  = 1 << 16 // events in flight
		steps = 1 << 17 // events processed
		keys  = 1 << 17 // key space of the record map
		body  = 48      // bytes per event
	)
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	q := make(calQueue, 0, live)
	for range live {
		q = append(q, &calEvent{at: next() % 1e6, key: next() % keys, body: make([]byte, body)})
	}
	heap.Init(&q)
	records := make(map[uint64]*calEvent, keys)
	var sum uint64
	for range steps {
		e := heap.Pop(&q).(*calEvent)
		if old, ok := records[e.key]; ok {
			sum += old.at + uint64(old.body[0])
		}
		records[e.key] = e
		e.body[0] = byte(sum)
		heap.Push(&q, &calEvent{at: e.at + 1 + next()%1000, key: next() % keys, body: make([]byte, body)})
	}
	calSink += sum + uint64(len(records))
}

// calibrate times one run of the kernel. It first collects the garbage the
// previous measurement left and returns the freed memory to the OS, so the
// runtime's background scavenger does not run beside the kernel, and every
// set-up and run that follows starts from the same memory state.
func calibrate() calib {
	debug.FreeOSMemory()
	c0, t0 := cpuTime(), time.Now()
	calKernel()
	return calib{time.Since(t0).Seconds(), (cpuTime() - c0).Seconds()}
}
