package main

import (
	"math"
	"testing"

	"tiga/internal/harness"
	"tiga/internal/protocol"
)

// The wrapper must expose exactly the capabilities of the system it wraps:
// RunLoad finds the checker and the local-read path by type assertion.
func TestWrapperForwardsCapabilities(t *testing.T) {
	for _, proto := range []string{"Tiga", "2PL+Paxos", "Detock"} {
		spec := geo4(proto, "micro", 100, nil, 1, 0, 1)
		inner := harness.Build(spec).Sys
		wrapped := wrapSystem(inner, observer{out: &outcomes{}})
		_, wantC := inner.(protocol.Checkable)
		_, wantS := inner.(protocol.SnapshotReadable)
		_, gotC := wrapped.(protocol.Checkable)
		_, gotS := wrapped.(protocol.SnapshotReadable)
		if gotC != wantC || gotS != wantS {
			t.Errorf("%s: wrapped Checkable=%v SnapshotReadable=%v, inner %v %v", proto, gotC, gotS, wantC, wantS)
		}
	}
}

// Through the wrappers, the Tiga local-read workload still feeds the
// strict-serializability checker and still serves local reads.
func TestWrappedTigaStillChecksAndReadsLocally(t *testing.T) {
	w, _ := lookupWorkload("tiga-ycsbt-admit")
	for _, traced := range []bool{false, true} {
		r, err := runOnce(w, 1, traced)
		if err != nil {
			t.Fatal(err)
		}
		if r.sim.commitsChecked == 0 || r.sim.readsChecked == 0 || r.sim.localReads == 0 {
			t.Fatalf("traced=%v: checked %d commits and %d reads, %d local reads",
				traced, r.sim.commitsChecked, r.sim.readsChecked, r.sim.localReads)
		}
	}
}

// deterministic are the metrics that depend only on the workload and the
// seed.
var deterministic = []string{
	"commit_tps", "commit_pct", "rw_p50_ms", "rw_p99_ms", "all_p50_ms", "all_p99_ms",
	"simnet.msgs_per_txn", "trace.wrtt_ms", "trace.queue_ms", "trace.headroom_ms",
	"trace.lockval_ms", "trace.repl_ms", "trace.other_ms", "tiga.fast_path_pct",
	"admit.shed_pct", "ro_p50_ms", "ro_p99_ms", "snapread.local_pct", "store.versions",
}

func simMetrics(t *testing.T, w workloadDef, seed int64) map[string]float64 {
	t.Helper()
	rs, err := measure(w, seed, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]metric{}
	endToEnd(m, rs.plain[0].sim, rs)
	perLayer(m, rs.plain[0].sim, rs)
	out := map[string]float64{}
	for _, name := range deterministic {
		v, ok := m[name]
		if !ok {
			t.Fatalf("%s: no metric %s", w.name, name)
		}
		out[name] = v.Value
	}
	return out
}

// A fixed seed reproduces every simulated metric, traced or not; another
// seed changes them.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		if testing.Short() && w.name != "tiga-ycsbt-admit" {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			a, b, c := simMetrics(t, w, 7), simMetrics(t, w, 7), simMetrics(t, w, 8)
			for _, name := range deterministic {
				if a[name] != b[name] {
					t.Errorf("%s: seed 7 gave %v then %v", name, a[name], b[name])
				}
			}
			if a["rw_p50_ms"] == c["rw_p50_ms"] && a["rw_p99_ms"] == c["rw_p99_ms"] {
				t.Errorf("seeds 7 and 8 gave the same read-write latencies %v / %v",
					a["rw_p50_ms"], a["rw_p99_ms"])
			}
		})
	}
}

// Reference seconds scale a raw time by the reference kernel time over the
// invocation's median kernel time, wall and CPU apart.
func TestReferenceSeconds(t *testing.T) {
	rs := &runs{cals: []calib{{0.1, 0.9}, {0.3, 0.36}, {0.2, 0.6}}}
	speed := rs.speed()
	if speed != (calib{0.2, 0.6}) {
		t.Fatalf("speed %+v, want the medians {0.2 0.6}", speed)
	}
	if got, want := speed.refWall(2), 2*calRefWall/0.2; math.Abs(got-want) > 1e-12 {
		t.Errorf("refWall(2) = %v, want %v", got, want)
	}
	if got, want := speed.refCPU(3), 3*calRefCPU/0.6; math.Abs(got-want) > 1e-12 {
		t.Errorf("refCPU(3) = %v, want %v", got, want)
	}
}
