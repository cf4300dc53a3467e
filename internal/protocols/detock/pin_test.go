package detock_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/harness"
	"tiga/internal/protocols/detock"
)

// pinCell is one Detock configuration whose simulated output is pinned by
// digest: every commit latency in completion order, then every region's copy
// of every shard.
type pinCell struct {
	name     string
	workload string
	shards   int
	keys     int
	rate     float64
	// outstanding caps in-flight transactions per coordinator; a saturated
	// cell needs it low enough that commits still land inside the window.
	outstanding int
	ddrScan     int // 0 keeps the knob's default
	want        string
}

// TestDetockOutputPinned pins Detock's simulated behaviour on three cells:
// TPC-C at the benchmark's detock-tpcc setting, a smaller TPC-C with a DDR
// window short enough to bind, and saturated MicroBench with a binding
// window. The digests were captured before Detock's execution queue became
// incremental, so any change to the order of executions, the DDR cost
// charges or the stores' contents shows up here.
func TestDetockOutputPinned(t *testing.T) {
	cells := []pinCell{
		{name: "tpcc-bench", workload: "tpcc", shards: 6, keys: 10000, rate: 100, outstanding: 1000,
			want: "0e1104e9243cbf9d402f73de315a65f01fcc7023e7d4e056125f6b1d6b632ec6"},
		{name: "tpcc-ddr8", workload: "tpcc", shards: 3, keys: 2000, rate: 400, outstanding: 1000, ddrScan: 8,
			want: "26710646bab67cb2e17e29d286e644d08b3b59f38edb6af7807f0bdefd7686f2"},
		{name: "micro-ddr16", workload: "micro", shards: 3, keys: 1000, rate: 3000, outstanding: 100, ddrScan: 16,
			want: "1b621d2f1147e9578fc1f5df121c0b68ac5b892206d5390a74e17a1acb7f39ee"},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && c.name == "tpcc-bench" {
				t.Skip("seeds a ~350 MB TPC-C keyspace; skipped in -short mode")
			}
			got, commits := pinDigest(c)
			if commits == 0 {
				t.Fatal("no commits in the measured window")
			}
			if got != c.want {
				t.Errorf("digest %s (%d commits), want %s", got, commits, c.want)
			}
		})
	}
}

func pinDigest(c pinCell) (string, int) {
	const seed = 7
	spec := harness.ClusterSpec{
		Protocol: "Detock", Workload: c.workload, WorkloadKeys: c.keys,
		Shards: c.shards, F: 1, Clock: clocks.ModelChrony,
		CoordsPerRegion: 2, CoordsRemote: 2,
		Seed: seed, CostScale: harness.CPUScale,
	}
	if c.ddrScan != 0 {
		spec.SetKnob("Detock", "ddr-scan", c.ddrScan)
	}
	if err := spec.EnsureGen(); err != nil {
		panic(err)
	}
	d := harness.Build(spec)
	res := harness.RunLoad(d, spec.Gen, harness.LoadSpec{
		RatePerCoord: c.rate, Outstanding: c.outstanding,
		Warmup: 500 * time.Millisecond, Duration: time.Second,
		Seed: seed, TrackSamples: true,
	})
	h := sha256.New()
	var buf [8]byte
	putInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, s := range res.Samples {
		putInt(int64(s.At))
		putInt(int64(s.Lat))
		fmt.Fprintf(h, "%s;", s.Region)
	}
	sys := d.Sys.(*detock.System)
	for reg := 0; reg < d.Topology.ServerRegions; reg++ {
		for sh := 0; sh < c.shards; sh++ {
			st := sys.Store(reg, sh)
			for _, k := range st.Keys() {
				fmt.Fprintf(h, "%d/%d/%s=", reg, sh, k)
				h.Write(st.Get(k))
				h.Write([]byte{';'})
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), len(res.Samples)
}
