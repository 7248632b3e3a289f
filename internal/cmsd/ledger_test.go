package cmsd

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"scalla/internal/bitvec"
	"scalla/internal/cache"
	"scalla/internal/cluster"
	"scalla/internal/names"
	"scalla/internal/proto"
	"scalla/internal/vclock"
)

// newLedgerCore returns a Manual-mode core on a fake clock with two
// logged-in servers and the given full delay.
func newLedgerCore(tb testing.TB, fullDelay time.Duration) (*Core, *vclock.Fake) {
	tb.Helper()
	clk := vclock.NewFake()
	c := NewCore(Config{Manual: true, Clock: clk, FullDelay: fullDelay,
		Cache: cache.Config{InitialBuckets: 89}})
	tb.Cleanup(c.Close)
	for i := 0; i < 2; i++ {
		if _, _, err := c.Table().Login(cluster.Member{
			Name: fmt.Sprintf("srv%d", i), Role: proto.RoleServer,
			DataAddr: fmt.Sprintf("srv%d:data", i), Prefixes: names.NewPrefixSet("/"),
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return c, clk
}

// noteFloods issues ops unanswered floods, step apart, with QIDs from
// first on.
func noteFloods(c *Core, clk *vclock.Fake, step time.Duration, first uint64, ops int) {
	for i := 0; i < ops; i++ {
		clk.Advance(step)
		c.noteFlood(first+uint64(i), "/f", false, bitvec.Of(0))
	}
}

// checkLedger asserts that the map and the FIFO's live segment hold the
// same QIDs, want of them, and that the FIFO is compacted.
func checkLedger(t *testing.T, c *Core, want int) {
	t.Helper()
	c.inflightMu.Lock()
	defer c.inflightMu.Unlock()
	live := 0
	for _, id := range c.floods[c.floodHead:] {
		if _, ok := c.inflight[id]; ok {
			live++
		}
	}
	if len(c.inflight) != want || live != want {
		t.Fatalf("map holds %d floods, FIFO %d of them; want %d", len(c.inflight), live, want)
	}
	if n := len(c.floods); n > 2*(n-c.floodHead)+1 {
		t.Fatalf("FIFO holds %d QIDs with head at %d: not compacted", n, c.floodHead)
	}
}

// Expired floods must leave both the map and the FIFO, and the FIFO must
// stay bounded by the floods issued per full delay, answered or not.
func TestFloodLedgerPrunesExpiredFloods(t *testing.T) {
	const step = 10 * time.Millisecond
	c, clk := newLedgerCore(t, 5*time.Second)
	perDelay := int(5*time.Second/step) + 1 // a flood expires once now is after its deadline

	noteFloods(c, clk, step, 1, 4*perDelay)
	checkLedger(t, c, perDelay)
	if n := len(c.floods); n > 2*perDelay+1 {
		t.Fatalf("FIFO length %d exceeds twice the %d floods per full delay", n, perDelay)
	}

	// Answered floods leave the map at once and the FIFO lazily.
	for qid := uint64(4*perDelay - 99); qid <= uint64(4*perDelay); qid++ {
		c.HandleHave(0, proto.Have{QID: qid, Path: "/gone", Hash: names.Hash("/gone")})
	}
	checkLedger(t, c, perDelay-100)

	// One full delay later every earlier flood has expired.
	clk.Advance(5 * time.Second)
	noteFloods(c, clk, step, uint64(4*perDelay+1), 1)
	checkLedger(t, c, 1)
	if n := len(c.floods) - c.floodHead; n != 1 {
		t.Fatalf("FIFO live segment holds %d QIDs, want 1", n)
	}
}

// MemberDown re-floods exactly the live floods that queried the lost
// member, MemberUp every live flood: expired and answered floods stay
// silent whatever the ledger still holds of them.
func TestFloodLedgerMemberEventsRefloodLiveFloods(t *testing.T) {
	c, clk := newLedgerCore(t, 5*time.Second)
	c.SetQuerySender(func(int, proto.Query) bool { return true })
	c.Tracer().SetEnabled(true)
	seen := 0
	reflooded := func() string { // paths of the reflood spans since the last call
		var out []string
		for _, sp := range c.Tracer().Spans(0) {
			if sp.Op == "reflood" {
				out = append(out, sp.Path)
			}
		}
		out, seen = out[:len(out)-seen], len(out)
		sort.Strings(out)
		return fmt.Sprint(out)
	}
	vm := c.table.VmFor("/")
	flood := func(qid uint64, path string, queried bitvec.Vec) {
		c.cache.Add(path, vm, 0)
		c.noteFlood(qid, path, false, queried)
	}

	flood(101, "/a1", bitvec.Of(0)) // expires before the member events
	flood(102, "/a2", bitvec.Of(0, 1))
	clk.Advance(3 * time.Second)
	flood(103, "/b1", bitvec.Of(0))
	flood(104, "/b2", bitvec.Of(1))
	flood(105, "/b3", bitvec.Of(0, 1)) // answered below
	c.HandleHave(1, proto.Have{QID: 105, Path: "/b3", Hash: names.Hash("/b3")})
	clk.Advance(2500 * time.Millisecond)

	c.MemberDown(0)
	if got := reflooded(); got != "[/b1]" {
		t.Fatalf("MemberDown(0) re-flooded %s, want [/b1]", got)
	}
	c.MemberUp(1)
	if got := reflooded(); got != "[/b1 /b2]" {
		t.Fatalf("MemberUp(1) re-flooded %s, want [/b1 /b2]", got)
	}
	if n := c.Metrics().Counter("resolve.refloods").Value(); n != 3 {
		t.Fatalf("resolve.refloods = %d, want 3", n)
	}
	// MemberUp left only the re-issued floods (QIDs from NextQID) live.
	for _, f := range c.InflightFloods() {
		if f.QID > 100 {
			t.Errorf("flood %d for %s outlived the member events", f.QID, f.Path)
		}
	}
}

// noteFloodCost returns the mean cost of one noteFlood on a ledger that
// holds outstanding unanswered floods throughout: the full delay spans
// exactly that many floods, so each call expires the oldest.
func noteFloodCost(tb testing.TB, outstanding, ops int) time.Duration {
	const step = time.Millisecond
	c, clk := newLedgerCore(tb, time.Duration(outstanding)*step)
	// Two full delays of warm-up let the map reach its steady size.
	noteFloods(c, clk, step, 1, 2*outstanding)
	start := time.Now()
	noteFloods(c, clk, step, uint64(2*outstanding+1), ops)
	return time.Since(start) / time.Duration(ops)
}

// BenchmarkNoteFlood measures flood registration with 10² and 10⁴
// unanswered floods outstanding (a supervisor whose subtree lacks the
// file never hears a Have). The two should cost the same.
func BenchmarkNoteFlood(b *testing.B) {
	for _, n := range []int{100, 10000} {
		b.Run(fmt.Sprintf("outstanding=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			c, clk := newLedgerCore(b, time.Duration(n)*time.Millisecond)
			noteFloods(c, clk, time.Millisecond, 1, 2*n)
			b.ResetTimer()
			noteFloods(c, clk, time.Millisecond, uint64(2*n+1), b.N)
		})
	}
}

// The cost of registering a flood must not grow with the number of
// unanswered floods outstanding. A full scan of the ledger per flood
// makes the 10⁴ case about 75 times dearer than the 10² one. The map's
// larger working set alone costs up to 2× (BenchmarkNoteFlood), so the
// bound is 4×, and the best of five rounds keeps scheduler noise out of
// the ratio.
func TestNoteFloodCostFlat(t *testing.T) {
	best := func(n int) time.Duration {
		min := time.Duration(1<<63 - 1)
		for r := 0; r < 5; r++ {
			if d := noteFloodCost(t, n, 20000); d < min {
				min = d
			}
		}
		return min
	}
	small, large := best(100), best(10000)
	if large > 4*small {
		t.Fatalf("noteFlood costs %v with 10⁴ floods outstanding vs %v with 10²: not flat", large, small)
	}
	t.Logf("noteFlood: %v at 10², %v at 10⁴ outstanding", small, large)
}
