package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"tiga/internal/checker"
	"tiga/internal/harness"
	"tiga/internal/protocol"
	"tiga/internal/trace"
	"tiga/internal/txn"
)

// simOut holds a run's simulated-system outputs. They depend only on the
// workload and the seed, so two runs of one seed must produce equal values,
// traced or not.
type simOut struct {
	expected, submitted, committed, aborted, shed, unresolved, skipped int64

	localReads, fastPath, retries, rollbacks int64
	sent, dropped, jobs, submits             int64
	versions                                 int64
	commitsChecked, readsChecked             int64

	window                                     time.Duration
	rwP50, rwP99, roP50, roP99, allP50, allP99 time.Duration
	queueP99, waitP50, waitP99                 time.Duration
}

// hostOut holds what one run cost the host.
type hostOut struct {
	setup, wall, cpu, check time.Duration
	peakHeap                uint64
	gcCPU                   float64
	gcCycles, allocs, bytes uint64
	layers                  [numLayers]time.Duration
}

// runOut is one run: set-up, load, and the correctness checks.
type runOut struct {
	sim   simOut
	host  hostOut
	phase [trace.NumBuckets]time.Duration // mean per committed txn; traced runs only
}

// runOnce builds the workload for seed, drives it once and checks its
// outputs. A traced run sets LoadSpec.Trace and arms the layer timers.
func runOnce(w workloadDef, seed int64, traced bool) (*runOut, error) {
	var clk *clock
	if traced {
		clk = &clock{}
	}
	out := &outcomes{}
	obs := observer{out: out, clk: clk}

	runtime.GC()
	heap := startHeapWatch()
	defer heap.stop()

	t0 := time.Now()
	spec := w.spec(seed)
	clk.enter(layerSeed)
	err := spec.EnsureGen()
	clk.exit()
	if err != nil {
		return nil, fmt.Errorf("%s: workload: %w", w.name, err)
	}
	gen := &wrapGen{observer: obs, inner: spec.Gen}
	spec.Gen = gen
	clk.enter(layerBuild)
	d := harness.Build(spec)
	clk.exit()
	setup := time.Since(t0)

	inner := d.Sys
	d.Sys = wrapSystem(inner, obs)
	load := w.load(seed)
	out.sim, out.start, out.end = d.Sim, load.Warmup, load.Warmup+load.Duration
	if traced {
		load.Trace = &trace.Config{Seed: seed}
	}

	// Every run starts at the same point of the GC cycle, with the set-up's
	// garbage collected. Otherwise the number of GC cycles that fall inside
	// RunLoad, and so its CPU time, depends on where set-up left the heap.
	runtime.GC()
	before := readRuntime()
	cpu0 := cpuTime()
	t1 := time.Now()
	res := harness.RunLoad(d, gen, load)
	wall := time.Since(t1)
	cpu := cpuTime() - cpu0
	after := readRuntime()
	peak := heap.stop()

	r := &runOut{host: hostOut{
		setup: setup, wall: wall, cpu: cpu, peakHeap: peak,
		gcCPU:    after.gcCPU - before.gcCPU,
		gcCycles: after.gcCycles - before.gcCycles,
		allocs:   after.allocs - before.allocs,
		bytes:    after.bytes - before.bytes,
	}}
	if clk != nil {
		r.host.layers = clk.self
	}
	if s := res.Trace; s != nil {
		for b := range r.phase {
			r.phase[b] = s.Mean(trace.Bucket(b))
		}
	}

	run := res.Run
	c := run.Counters
	s := &r.sim
	s.window = load.Duration
	s.submitted, s.committed, s.aborted, s.shed = c.Submitted, c.Committed, c.Aborted, c.Shed
	s.localReads, s.fastPath, s.retries = c.LocalReads, c.FastPath, c.Retries
	s.sent, s.dropped, s.jobs, s.submits = d.Net.Sent, d.Net.Dropped, out.jobs, out.submits
	if rr, ok := inner.(protocol.RollbackReporter); ok {
		s.rollbacks = rr.TotalRollbacks()
	}
	s.rwP50, s.rwP99 = out.rw.Percentile(50), out.rw.Percentile(99)
	s.roP50, s.roP99 = out.ro.Percentile(50), out.ro.Percentile(99)
	s.allP50, s.allP99 = out.all.Percentile(50), out.all.Percentile(99)
	s.queueP99 = run.QueueLat.Percentile(99)
	s.waitP50, s.waitP99 = run.LocalWait.Percentile(50), run.LocalWait.Percentile(99)
	if cs, ok := inner.(protocol.Checkable); ok {
		for sh := 0; sh < spec.Shards; sh++ {
			s.versions += int64(cs.LeaderStore(sh).Versions())
		}
	}
	if err := account(w, load, d.Sys.NumCoords(), out, s); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
	}

	t2 := time.Now()
	err = check(w, res, inner, s)
	r.host.check = time.Since(t2)
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
	}
	return r, nil
}

// account derives the failure counts and cross-checks the harness's
// counters against what the wrappers saw.
func account(w workloadDef, load harness.LoadSpec, coords int, out *outcomes, s *simOut) error {
	s.expected = s.submitted
	if load.Arrival == "" {
		// The fixed-rate loop skips a tick while a coordinator is at its
		// outstanding cap and never counts it, so the shortfall against
		// the schedule is charged as failed arrivals.
		want := load.RatePerCoord * load.Duration.Seconds()
		if want != math.Trunc(want) || time.Duration(float64(time.Second)/load.RatePerCoord)*time.Duration(want) != load.Duration {
			return fmt.Errorf("rate %v/coord does not tile the %v window", load.RatePerCoord, load.Duration)
		}
		s.expected = int64(want) * int64(coords)
	}
	s.skipped = s.expected - s.submitted
	s.unresolved = s.submitted - s.committed - s.aborted
	switch {
	case s.skipped < 0:
		return fmt.Errorf("%d arrivals submitted, more than the %d scheduled", s.submitted, s.expected)
	case s.unresolved < 0:
		return fmt.Errorf("committed %d + aborted %d exceeds submitted %d", s.committed, s.aborted, s.submitted)
	case out.arrivals != s.submitted:
		return fmt.Errorf("harness counted %d arrivals, the wrappers saw %d", s.submitted, out.arrivals)
	case out.commits != s.committed:
		return fmt.Errorf("harness counted %d commits, the wrappers saw %d", s.committed, out.commits)
	case out.chains == 0 && out.aborts != s.aborted:
		return fmt.Errorf("harness counted %d aborts, the wrappers saw %d", s.aborted, out.aborts)
	case out.chains == 0 && out.oneShots-out.resolved != s.unresolved:
		return fmt.Errorf("submitted %d != committed %d + aborted %d + unresolved %d",
			s.submitted, s.committed, s.aborted, out.oneShots-out.resolved)
	case s.committed == 0 || out.rw.Count() == 0:
		return fmt.Errorf("no read-write transaction committed")
	}
	return nil
}

// check runs the workload's history checkers. detock-tpcc has none: no
// checker covers Detock's history or TPC-C's chains yet.
func check(w workloadDef, res *harness.RunResult, inner protocol.System, s *simOut) error {
	if w.strict {
		if len(res.Commits) == 0 {
			return fmt.Errorf("strict-serializability checker saw no commits")
		}
		if err := checker.StrictSerializability(res.Commits); err != nil {
			return fmt.Errorf("strict serializability: %w", err)
		}
		s.commitsChecked = int64(len(res.Commits))
		// Both Tiga workloads write only increments, so every committed
		// increment must show on the leader stores.
		if res.Counter.Expected() == 0 {
			return fmt.Errorf("effect checker tracked no committed writes")
		}
		cs := inner.(protocol.Checkable)
		err := res.Counter.VerifyAtLeast(func(key string) int64 {
			// Keys come from workload.Key ("k<shard>-<idx>"); a key that
			// failed to parse would read shard 0 and fail the check.
			var sh, idx int
			_, _ = fmt.Sscanf(key, "k%d-%d", &sh, &idx)
			return txn.DecodeInt(cs.LeaderStore(sh).Get(key))
		})
		if err != nil {
			return fmt.Errorf("committed effects: %w", err)
		}
	}
	if w.snap {
		if len(res.SnapReads) == 0 || res.Run.Counters.LocalReads == 0 {
			return fmt.Errorf("snapshot-read checker saw no local reads")
		}
		if err := checker.SnapshotReads(res.SnapReads, res.Writes); err != nil {
			return fmt.Errorf("snapshot reads: %w", err)
		}
		s.readsChecked = int64(len(res.SnapReads))
	}
	return nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail on a valid struct
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type runtimeStats struct {
	gcCPU                   float64
	gcCycles, allocs, bytes uint64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeStats {
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	return runtimeStats{
		gcCPU:    ss[0].Value.Float64(),
		gcCycles: ss[1].Value.Uint64(),
		allocs:   ss[2].Value.Uint64(),
		bytes:    ss[3].Value.Uint64(),
	}
}

// heapWatch tracks the peak live heap. The runtime updates the live-heap
// figure at the end of each GC cycle, so polling it reads post-GC values
// only and GC timing moves the peak little.
type heapWatch struct {
	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once
	peak uint64
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapWatch() *heapWatch {
	h := &heapWatch{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if v := liveHeap(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the watch and returns the peak, including a final forced GC
// that measures everything the run still holds.
func (h *heapWatch) stop() uint64 {
	h.once.Do(func() {
		close(h.done)
		h.wg.Wait()
		runtime.GC()
		if v := liveHeap(); v > h.peak {
			h.peak = v
		}
	})
	return h.peak
}

// setupOnce times a set-up alone: the generator and harness.Build.
func setupOnce(w workloadDef, seed int64) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	spec := w.spec(seed)
	if err := spec.EnsureGen(); err != nil {
		return 0, fmt.Errorf("%s: workload: %w", w.name, err)
	}
	harness.Build(spec)
	return time.Since(t0), nil
}
