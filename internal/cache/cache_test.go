package cache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"scalla/internal/bitvec"
	"scalla/internal/fib"
	"scalla/internal/names"
	"scalla/internal/vclock"
)

func testCache(fc *vclock.Fake) *Cache {
	return New(Config{
		Lifetime:       8 * time.Hour,
		Deadline:       5 * time.Second,
		InitialBuckets: 13,
		SyncSweep:      true,
		Clock:          fc,
	})
}

// sameShardName generates a name (pattern + counter) that the cache
// assigns to shard want, for tests that exercise per-shard state such as
// the free list.
func sameShardName(t *testing.T, c *Cache, want int, pattern string) string {
	t.Helper()
	for i := 0; i < 1<<20; i++ {
		n := fmt.Sprintf("%s%d", pattern, i)
		if int(names.Hash(n)>>c.shift) == want {
			return n
		}
	}
	t.Fatalf("no name under %q maps to shard %d", pattern, want)
	return ""
}

func TestAddFetchRoundTrip(t *testing.T) {
	fc := vclock.NewFake()
	c := testCache(fc)
	vm := bitvec.Of(0, 1, 2)

	ref, v, created := c.Add("/store/a.root", vm, 0)
	if !created {
		t.Fatal("Add reported existing object")
	}
	if v.Vq != vm || !v.Vh.IsEmpty() || !v.Vp.IsEmpty() {
		t.Fatalf("new object state = %+v", v)
	}
	if ref.Name() != "/store/a.root" || ref.Hash() != names.Hash("/store/a.root") {
		t.Error("ref name/hash wrong")
	}

	ref2, v2, ok := c.Fetch("/store/a.root", vm, 0)
	if !ok || ref2.Zero() {
		t.Fatal("Fetch missed a cached name")
	}
	if v2.Vq != vm {
		t.Fatalf("fetched Vq = %v, want %v", v2.Vq, vm)
	}
	if _, _, ok := c.Fetch("/other", vm, 0); ok {
		t.Error("Fetch hit an uncached name")
	}
}

func TestAddExistingBehavesLikeFetch(t *testing.T) {
	c := testCache(vclock.NewFake())
	vm := bitvec.Of(3)
	c.Add("/f", vm, 0)
	_, _, created := c.Add("/f", vm, 0)
	if created {
		t.Error("second Add must not create")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestUpdateSetsVectorsAndReturnsWaiters(t *testing.T) {
	c := testCache(vclock.NewFake())
	vm := bitvec.Of(0, 1, 2, 3)
	ref, _, _ := c.Add("/f", vm, 0)

	if !c.SetWaiters(ref, false, 77) {
		t.Fatal("SetWaiters(read) failed")
	}
	if !c.SetWaiters(ref, true, 88) {
		t.Fatal("SetWaiters(write) failed")
	}
	// A second association for the same mode must be refused.
	if c.SetWaiters(ref, false, 99) {
		t.Error("second SetWaiters(read) must fail")
	}

	res, ok := c.Update("/f", ref.Hash(), 2, false, false)
	if !ok {
		t.Fatal("Update missed")
	}
	if res.ReadWaiters != 77 {
		t.Errorf("ReadWaiters = %d, want 77", res.ReadWaiters)
	}
	if res.WriteWaiters != 0 {
		t.Errorf("WriteWaiters = %d, want 0 (server not writable)", res.WriteWaiters)
	}

	_, v, _ := c.Fetch("/f", vm, 0)
	if !v.Vh.Has(2) {
		t.Error("Vh missing responding server")
	}
	if v.Vq.Has(2) {
		t.Error("Vq still contains responding server")
	}

	// Writable response releases the write waiters too.
	res, _ = c.Update("/f", ref.Hash(), 3, false, true)
	if res.WriteWaiters != 88 {
		t.Errorf("WriteWaiters = %d, want 88", res.WriteWaiters)
	}
}

func TestUpdatePendingThenOnline(t *testing.T) {
	c := testCache(vclock.NewFake())
	vm := bitvec.Of(5)
	ref, _, _ := c.Add("/f", vm, 0)
	c.Update("/f", ref.Hash(), 5, true, false)
	_, v, _ := c.Fetch("/f", vm, 0)
	if !v.Vp.Has(5) || v.Vh.Has(5) {
		t.Fatalf("staging state wrong: %+v", v)
	}
	c.Update("/f", ref.Hash(), 5, false, false)
	_, v, _ = c.Fetch("/f", vm, 0)
	if !v.Vh.Has(5) || v.Vp.Has(5) {
		t.Fatalf("online state wrong: %+v", v)
	}
}

func TestUpdateUnknownNameDropped(t *testing.T) {
	c := testCache(vclock.NewFake())
	if _, ok := c.Update("/ghost", names.Hash("/ghost"), 1, false, false); ok {
		t.Error("Update must drop responses for unknown names")
	}
}

func TestUpdateRejectsBadServerIndex(t *testing.T) {
	c := testCache(vclock.NewFake())
	c.Add("/f", bitvec.Full, 0)
	if _, ok := c.Update("/f", names.Hash("/f"), 64, false, false); ok {
		t.Error("server index 64 must be rejected")
	}
	if _, ok := c.Update("/f", names.Hash("/f"), -1, false, false); ok {
		t.Error("server index -1 must be rejected")
	}
}

func TestMarkQueried(t *testing.T) {
	c := testCache(vclock.NewFake())
	vm := bitvec.Of(0, 1, 2)
	ref, _, _ := c.Add("/f", vm, 0)
	c.MarkQueried(ref, bitvec.Of(0, 1))
	_, v, _ := c.Fetch("/f", vm, 0)
	if v.Vq != bitvec.Of(2) {
		t.Errorf("Vq = %v, want {2}", v.Vq)
	}
}

func TestEvict(t *testing.T) {
	c := testCache(vclock.NewFake())
	vm := bitvec.Of(0, 1)
	ref, _, _ := c.Add("/f", vm, 0)
	c.Update("/f", ref.Hash(), 0, false, false)
	c.Update("/f", ref.Hash(), 1, false, false)
	c.Evict(ref, 0)
	_, v, _ := c.Fetch("/f", vm, 0)
	if v.Vh.Has(0) {
		t.Error("evicted server still in Vh")
	}
	if !v.Vh.Has(1) {
		t.Error("other server lost from Vh")
	}
}

func TestClaimQueryDeadline(t *testing.T) {
	fc := vclock.NewFake()
	c := testCache(fc)
	ref, _, _ := c.Add("/f", bitvec.Of(0), 0)
	// Add armed the deadline for its caller; a second claim must defer.
	claimed, ok := c.ClaimQuery(ref)
	if !ok || claimed {
		t.Fatalf("claim while armed: claimed=%v ok=%v", claimed, ok)
	}
	fc.Advance(6 * time.Second)
	claimed, ok = c.ClaimQuery(ref)
	if !ok || !claimed {
		t.Fatalf("claim after deadline: claimed=%v ok=%v", claimed, ok)
	}
	// And immediately re-armed for the new claimant.
	claimed, _ = c.ClaimQuery(ref)
	if claimed {
		t.Error("second concurrent claim must defer")
	}
}

func TestResizeFollowsFibonacciAndPreservesEntries(t *testing.T) {
	c := New(Config{InitialBuckets: 13, SyncSweep: true, Clock: vclock.NewFake()})
	n := 2000
	for i := 0; i < n; i++ {
		c.Add(fmt.Sprintf("/store/file-%06d.root", i), bitvec.Full, 0)
	}
	st := c.Stats()
	if st.Resizes == 0 {
		t.Fatal("expected at least one resize")
	}
	// Each shard sizes its own table along the Fibonacci sequence; the
	// aggregate Buckets is a sum of Fibonacci numbers.
	for si, ss := range c.ShardStats() {
		if !fib.IsFib(ss.Buckets) {
			t.Errorf("shard %d bucket count %d is not Fibonacci", si, ss.Buckets)
		}
	}
	if st.Entries != int64(n) {
		t.Errorf("Entries = %d, want %d", st.Entries, n)
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("/store/file-%06d.root", i)
		if _, _, ok := c.Fetch(name, bitvec.Full, 0); !ok {
			t.Fatalf("entry %q lost across resize", name)
		}
	}
}

func TestPowerOfTwoSizing(t *testing.T) {
	c := New(Config{InitialBuckets: 13, Sizing: SizingPowerOfTwo, Shards: 1, Clock: vclock.NewFake()})
	st := c.Stats()
	if st.Buckets != 16 {
		t.Errorf("initial buckets = %d, want 16", st.Buckets)
	}
	for i := 0; i < 100; i++ {
		c.Add(fmt.Sprintf("/f%d", i), bitvec.Full, 0)
	}
	for si, ss := range c.ShardStats() {
		if ss.Buckets&(ss.Buckets-1) != 0 {
			t.Errorf("shard %d bucket count %d not a power of two", si, ss.Buckets)
		}
	}
	// Sharded power-of-two tables keep a power-of-two aggregate too.
	c16 := New(Config{InitialBuckets: 1024, Sizing: SizingPowerOfTwo, Clock: vclock.NewFake()})
	for i := 0; i < 2000; i++ {
		c16.Add(fmt.Sprintf("/g%d", i), bitvec.Full, 0)
	}
	for si, ss := range c16.ShardStats() {
		if ss.Buckets&(ss.Buckets-1) != 0 {
			t.Errorf("16-shard: shard %d bucket count %d not a power of two", si, ss.Buckets)
		}
	}
}

func TestWaitersLifecycle(t *testing.T) {
	c := testCache(vclock.NewFake())
	ref, _, _ := c.Add("/f", bitvec.Of(0), 0)
	c.SetWaiters(ref, false, 42)
	tok, _, ok := c.Waiters(ref, false)
	if !ok || tok != 42 {
		t.Fatalf("Waiters = %d,%v", tok, ok)
	}
	// Clearing with the wrong token is a no-op.
	c.ClearWaiters(ref, false, 41)
	if tok, _, _ := c.Waiters(ref, false); tok != 42 {
		t.Error("ClearWaiters with wrong token must not clear")
	}
	c.ClearWaiters(ref, false, 42)
	if tok, _, _ := c.Waiters(ref, false); tok != 0 {
		t.Error("ClearWaiters failed")
	}
}

// A token must not be installed once the object has a holder the
// installer did not see: the response that added it already detached
// the object's waiters, so nothing would release the new entry.
func TestSwapWaitersRefusesUnseenHolder(t *testing.T) {
	c := testCache(vclock.NewFake())
	ref, _, _ := c.Add("/f", bitvec.Of(0, 1), 0)
	c.Update("/f", ref.Hash(), 1, true, false) // server 1 stages it
	if c.SwapWaiters(ref, false, 0, 7, 0) {
		t.Fatal("installed a token over an unseen holder")
	}
	tok, v, ok := c.Waiters(ref, false)
	if !ok || tok != 0 || v.Vp != bitvec.Of(1) {
		t.Fatalf("Waiters = %d %+v %v", tok, v, ok)
	}
	// A holder the caller saw (and could not select) does not block it.
	if !c.SwapWaiters(ref, false, 0, 7, bitvec.Of(1)) {
		t.Fatal("refused a token although every holder was seen")
	}
	if tok, _, _ := c.Waiters(ref, false); tok != 7 {
		t.Fatalf("token = %d, want 7", tok)
	}
}

func TestConcurrentMixedOperations(t *testing.T) {
	c := New(Config{InitialBuckets: 89, SyncSweep: false, Clock: vclock.NewFake()})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				name := fmt.Sprintf("/f%d", i%97)
				ref, _, _ := c.Add(name, bitvec.Full, 0)
				c.Update(name, ref.Hash(), (g+i)%64, i%5 == 0, i%3 == 0)
				c.Fetch(name, bitvec.Full, 0)
				if i%50 == 0 {
					c.Refresh(ref, bitvec.Full, -1)
				}
			}
		}(g)
	}
	for i := 0; i < 70; i++ {
		c.Tick()
	}
	wg.Wait()
	c.WaitSweeps()
}

func TestStatsCounters(t *testing.T) {
	c := testCache(vclock.NewFake())
	c.Add("/a", bitvec.Full, 0)
	c.Fetch("/a", bitvec.Full, 0)
	c.Fetch("/nope", bitvec.Full, 0)
	st := c.Stats()
	if st.Inserts != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}
