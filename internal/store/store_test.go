package store

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"tiga/internal/txn"
)

func ts(n int64) txn.Timestamp { return txn.Timestamp{Time: time.Duration(n)} }
func id(n uint64) txn.ID       { return txn.ID{Coord: 1, Seq: n} }

func TestSeedAndGet(t *testing.T) {
	s := New()
	if s.Get("x") != nil {
		t.Fatal("missing key should be nil")
	}
	s.Seed("x", txn.EncodeInt(7))
	if txn.DecodeInt(s.Get("x")) != 7 {
		t.Fatal("Seed/Get")
	}
}

// Reseeding an existing key overwrites its version in place: no allocation,
// and a SeedBulk neighbour sharing the backing array keeps its value.
func TestReseedReusesSlot(t *testing.T) {
	s := New()
	s.SeedBulk([]string{"a", "b", "c"}, txn.EncodeInt(1))
	v := txn.EncodeInt(2)
	if n := testing.AllocsPerRun(100, func() { s.Seed("b", v) }); n != 0 {
		t.Fatalf("reseeding an existing key allocates %.1f times", n)
	}
	if txn.DecodeInt(s.Get("b")) != 2 || txn.DecodeInt(s.GetID(1)) != 2 {
		t.Fatal("reseed not visible through both indexes")
	}
	if txn.DecodeInt(s.Get("a")) != 1 || txn.DecodeInt(s.Get("c")) != 1 {
		t.Fatal("reseed overwrote a neighbouring key")
	}
	// A key with a version history collapses to the one reseeded version.
	s.PutCommitted("c", ts(5), txn.EncodeInt(3))
	s.Seed("c", txn.EncodeInt(4))
	if s.Versions() != 3 || txn.DecodeInt(s.Get("c")) != 4 {
		t.Fatalf("after reseed: %d versions, c = %d", s.Versions(), txn.DecodeInt(s.Get("c")))
	}
}

func TestExecuteAtMostOnce(t *testing.T) {
	s := New()
	s.Seed("x", txn.EncodeInt(0))
	p := txn.IncrementPiece("x")
	s.Execute(id(1), ts(1), p)
	s.Execute(id(1), ts(1), p) // duplicate: must be a no-op
	if got := txn.DecodeInt(s.Get("x")); got != 1 {
		t.Fatalf("x = %d after duplicate execute, want 1", got)
	}
	if !s.Executed(id(1)) {
		t.Fatal("Executed should report true")
	}
}

func TestRevokeRestoresState(t *testing.T) {
	s := New()
	s.Seed("x", txn.EncodeInt(10))
	s.Execute(id(1), ts(1), txn.IncrementPiece("x"))
	if txn.DecodeInt(s.Get("x")) != 11 {
		t.Fatal("execute failed")
	}
	s.Revoke(id(1))
	if txn.DecodeInt(s.Get("x")) != 10 {
		t.Fatal("revoke did not restore the previous version")
	}
	if s.Executed(id(1)) {
		t.Fatal("revoked txn must be re-executable")
	}
	// Re-execution after revoke works (Case-3 §3.5).
	s.Execute(id(1), ts(5), txn.IncrementPiece("x"))
	if txn.DecodeInt(s.Get("x")) != 11 {
		t.Fatal("re-execution failed")
	}
}

func TestRevokeBlindWriteRemovesKey(t *testing.T) {
	s := New()
	s.Execute(id(2), ts(1), txn.WritePiece("fresh", txn.EncodeInt(5)))
	if s.Get("fresh") == nil {
		t.Fatal("write missing")
	}
	s.Revoke(id(2))
	if s.Get("fresh") != nil {
		t.Fatal("revoking the only version should delete the key")
	}
}

func TestCommitGCsVersions(t *testing.T) {
	s := New()
	s.Seed("x", txn.EncodeInt(0))
	for i := uint64(1); i <= 10; i++ {
		s.Execute(id(i), ts(int64(i)), txn.IncrementPiece("x"))
		s.Commit(id(i))
	}
	if got := len(s.data["x"].vs); got != 1 {
		t.Fatalf("committed key holds %d versions, want 1", got)
	}
	if txn.DecodeInt(s.Get("x")) != 10 {
		t.Fatal("value wrong after GC")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	s := New()
	s.Seed("x", txn.EncodeInt(1))
	cp := s.Snapshot()
	s.Execute(id(1), ts(1), txn.IncrementPiece("x"))
	if txn.DecodeInt(cp.Get("x")) != 1 {
		t.Fatal("snapshot saw later write")
	}
	cp.Execute(id(9), ts(9), txn.IncrementPiece("x"))
	if txn.DecodeInt(s.Get("x")) != 2 {
		t.Fatal("snapshot write leaked into original")
	}
}

func TestEqual(t *testing.T) {
	a, b := New(), New()
	a.Seed("x", txn.EncodeInt(1))
	b.Seed("x", txn.EncodeInt(1))
	if !a.Equal(b) {
		t.Fatal("identical stores not equal")
	}
	b.Seed("y", txn.EncodeInt(2))
	if a.Equal(b) {
		t.Fatal("different stores equal")
	}
}

// Property: any sequence of execute/revoke operations on disjoint-key
// transactions leaves exactly the committed increments applied.
func TestExecuteRevokeProperty(t *testing.T) {
	check := func(ops []bool) bool {
		s := New()
		s.Seed("k", txn.EncodeInt(0))
		var want int64
		for i, commit := range ops {
			tid := id(uint64(i + 1))
			s.Execute(tid, ts(int64(i+1)), txn.IncrementPiece("k"))
			if commit {
				s.Commit(tid)
				want++
			} else {
				s.Revoke(tid)
			}
		}
		return txn.DecodeInt(s.Get("k")) == want
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// Reserve after a seed must grow the map without losing data — it used to
// be a silent no-op on any non-empty store, defeating two-pass pre-sizing.
func TestReserveGrowsNonEmptyMap(t *testing.T) {
	s := New()
	s.SeedBulk([]string{"a", "b"}, txn.EncodeInt(1))
	s.Reserve(100)
	if txn.DecodeInt(s.Get("a")) != 1 || txn.DecodeInt(s.Get("b")) != 1 {
		t.Fatal("Reserve dropped existing keys")
	}
	s.SeedBulk([]string{"c", "d"}, txn.EncodeInt(2))
	if s.Len() != 4 {
		t.Fatalf("store holds %d keys after two-pass seed, want 4", s.Len())
	}
	if txn.DecodeInt(s.Get("a")) != 1 || txn.DecodeInt(s.Get("c")) != 2 {
		t.Fatal("second seed pass corrupted values")
	}
	s.Reserve(0) // degenerate sizes are no-ops
	s.Reserve(-1)
	if s.Len() != 4 {
		t.Fatal("degenerate Reserve changed the store")
	}
}

func TestGetAtOrdering(t *testing.T) {
	s := New()
	s.EnableSnapshots()
	s.Seed("x", txn.EncodeInt(0))
	for i := uint64(1); i <= 5; i++ {
		s.Execute(id(i), ts(int64(i*10)), txn.IncrementPiece("x"))
		s.Commit(id(i))
	}
	cases := []struct {
		at   int64
		want int64
	}{
		{5, 0},   // before every write: the seeded value
		{10, 1},  // exactly at a commit timestamp: inclusive
		{15, 1},  // between commits: newest at or below
		{49, 4},  //
		{50, 5},  //
		{999, 5}, // after everything: the newest committed version
	}
	for _, c := range cases {
		val, seen, ok := s.GetAt("x", time.Duration(c.at))
		if !ok {
			t.Fatalf("GetAt(%d) found nothing", c.at)
		}
		if got := txn.DecodeInt(val); got != c.want {
			t.Fatalf("GetAt(%d) = %d, want %d", c.at, got, c.want)
		}
		if seen.Time > time.Duration(c.at) {
			t.Fatalf("GetAt(%d) returned a future version ts %v", c.at, seen)
		}
	}
	if _, _, ok := s.GetAt("missing", 100); ok {
		t.Fatal("GetAt found a key that does not exist")
	}
	if hw := s.HighWater("x"); hw.Time != 50 {
		t.Fatalf("high-water = %v, want 50ns", hw.Time)
	}
}

func TestGetAtSkipsUncommittedVersions(t *testing.T) {
	s := New()
	s.EnableSnapshots()
	s.Seed("x", txn.EncodeInt(0))
	s.Execute(id(1), ts(10), txn.IncrementPiece("x"))
	s.Commit(id(1))
	// An optimistic execution past the snapshot point must stay invisible
	// until committed, even though Get (protocol execution) sees it.
	s.Execute(id(2), ts(20), txn.IncrementPiece("x"))
	if val, _, _ := s.GetAt("x", 30); txn.DecodeInt(val) != 1 {
		t.Fatal("snapshot read observed an uncommitted version")
	}
	if txn.DecodeInt(s.Get("x")) != 2 {
		t.Fatal("Get no longer reads optimistic state")
	}
	s.Commit(id(2))
	if val, _, _ := s.GetAt("x", 30); txn.DecodeInt(val) != 2 {
		t.Fatal("committed version still invisible")
	}
	// A revoked execution never becomes visible.
	s.Execute(id(3), ts(25), txn.IncrementPiece("x"))
	s.Revoke(id(3))
	if val, _, _ := s.GetAt("x", 30); txn.DecodeInt(val) != 2 {
		t.Fatal("revoked version leaked into a snapshot read")
	}
}

func TestPutCommittedAndRetainedHistory(t *testing.T) {
	s := New()
	s.EnableSnapshots()
	s.PutCommitted("k", txn.Timestamp{Time: 10}, txn.EncodeInt(1))
	s.PutCommitted("k", txn.Timestamp{Time: 20}, txn.EncodeInt(2))
	if val, seen, ok := s.GetAt("k", 15); !ok || txn.DecodeInt(val) != 1 || seen.Time != 10 {
		t.Fatalf("GetAt(15) = %v @%v ok=%v, want 1 @10", val, seen, ok)
	}
	if txn.DecodeInt(s.Get("k")) != 2 {
		t.Fatal("Get should return the newest version")
	}
	if hw := s.HighWater("k"); hw.Time != 20 {
		t.Fatalf("high-water = %v, want 20", hw.Time)
	}
	cp := s.Snapshot()
	cp.PutCommitted("k", txn.Timestamp{Time: 30}, txn.EncodeInt(3))
	if val, _, _ := s.GetAt("k", 40); txn.DecodeInt(val) != 2 {
		t.Fatal("snapshot write leaked into the original")
	}
	if val, _, _ := cp.GetAt("k", 40); txn.DecodeInt(val) != 3 {
		t.Fatal("snapshot copy lost retain mode")
	}
}

// In retain mode commits keep the whole history instead of collapsing it.
func TestRetainModeKeepsVersions(t *testing.T) {
	s := New()
	s.EnableSnapshots()
	s.Seed("x", txn.EncodeInt(0))
	for i := uint64(1); i <= 10; i++ {
		s.Execute(id(i), ts(int64(i)), txn.IncrementPiece("x"))
		s.Commit(id(i))
	}
	if got := len(s.data["x"].vs); got != 11 {
		t.Fatalf("retained key holds %d versions, want 11", got)
	}
	if txn.DecodeInt(s.Get("x")) != 10 {
		t.Fatal("newest value wrong in retain mode")
	}
	for at := int64(1); at <= 10; at++ {
		if val, _, _ := s.GetAt("x", time.Duration(at)); txn.DecodeInt(val) != at {
			t.Fatalf("GetAt(%d) = %d in retain mode", at, txn.DecodeInt(val))
		}
	}
}

// Property: Snapshot + replay of the same transactions reproduces the store.
func TestSnapshotReplayProperty(t *testing.T) {
	check := func(keys []uint8, split uint8) bool {
		s := New()
		for i := 0; i < 16; i++ {
			s.Seed(fmt.Sprintf("k%d", i), txn.EncodeInt(0))
		}
		var pieces []*txn.Piece
		for _, k := range keys {
			pieces = append(pieces, txn.IncrementPiece(fmt.Sprintf("k%d", k%16)))
		}
		cut := 0
		if len(pieces) > 0 {
			cut = int(split) % (len(pieces) + 1)
		}
		for i := 0; i < cut; i++ {
			s.Execute(id(uint64(i+1)), ts(int64(i+1)), pieces[i])
			s.Commit(id(uint64(i + 1)))
		}
		cp := s.Snapshot()
		for i := cut; i < len(pieces); i++ {
			s.Execute(id(uint64(i+1)), ts(int64(i+1)), pieces[i])
			s.Commit(id(uint64(i + 1)))
			cp.Execute(id(uint64(i+1)), ts(int64(i+1)), pieces[i])
			cp.Commit(id(uint64(i + 1)))
		}
		return s.Equal(cp)
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}
