package respq

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scalla/internal/vclock"
)

// collector gathers results delivered to waiters.
type collector struct {
	mu      sync.Mutex
	results []Result
}

func (c *collector) waiter() Waiter {
	return func(r Result) {
		c.mu.Lock()
		c.results = append(c.results, r)
		c.mu.Unlock()
	}
}

func (c *collector) get() []Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Result, len(c.results))
	copy(out, c.results)
	return out
}

func (c *collector) waitN(t *testing.T, n int) []Result {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if rs := c.get(); len(rs) >= n {
			return rs
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d results, have %d", n, len(c.get()))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReleaseDeliversToAllWaiters(t *testing.T) {
	q := New(Config{Slots: 8, Clock: vclock.NewFake()})
	stop := make(chan struct{})
	defer close(stop)
	go q.Run(stop)

	var col collector
	tok, err := q.NewEntry(col.waiter())
	if err != nil {
		t.Fatal(err)
	}
	if tok == 0 {
		t.Fatal("token must be nonzero")
	}
	for i := 0; i < 3; i++ {
		if !q.Join(tok, col.waiter()) {
			t.Fatal("Join failed on live entry")
		}
	}
	q.Release(tok, 7, false)
	rs := col.waitN(t, 4)
	for _, r := range rs {
		if r.Expired || r.Server != 7 || r.Pending {
			t.Errorf("bad result %+v", r)
		}
	}
	st := q.Stats()
	if st.Entries != 1 || st.Joins != 3 || st.Released != 1 || st.InUse != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestReleasePendingFlagPropagates(t *testing.T) {
	q := New(Config{Slots: 4, Clock: vclock.NewFake()})
	stop := make(chan struct{})
	defer close(stop)
	go q.Run(stop)
	var col collector
	tok, _ := q.NewEntry(col.waiter())
	q.Release(tok, 3, true)
	rs := col.waitN(t, 1)
	if !rs[0].Pending || rs[0].Server != 3 {
		t.Errorf("result = %+v", rs[0])
	}
}

func TestStaleTokenRejected(t *testing.T) {
	q := New(Config{Slots: 4, Clock: vclock.NewFake()})
	stop := make(chan struct{})
	defer close(stop)
	go q.Run(stop)
	var col collector
	tok, _ := q.NewEntry(col.waiter())
	q.Release(tok, 1, false)
	col.waitN(t, 1)

	// The slot is free; its old token must now fail everywhere.
	if q.Join(tok, col.waiter()) {
		t.Error("Join accepted a stale token")
	}
	q.Release(tok, 2, false) // must be ignored
	time.Sleep(10 * time.Millisecond)
	if len(col.get()) != 1 {
		t.Error("stale Release delivered results")
	}
}

func TestGarbageTokensIgnored(t *testing.T) {
	q := New(Config{Slots: 4, Clock: vclock.NewFake()})
	if q.Join(0, func(Result) {}) {
		t.Error("Join(0) must fail")
	}
	q.Release(0, 0, false)
	q.Release(token(9999, 1), 0, false) // out-of-range slot
	if q.Join(token(9999, 1), func(Result) {}) {
		t.Error("out-of-range token accepted")
	}
}

func TestQueueFull(t *testing.T) {
	q := New(Config{Slots: 2, Clock: vclock.NewFake()})
	if _, err := q.NewEntry(func(Result) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.NewEntry(func(Result) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.NewEntry(func(Result) {}); err != ErrFull {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	if q.Stats().Full != 1 {
		t.Error("Full not counted")
	}
}

// A full queue whose entries have outwaited a period — the clocked
// expiry has not reached them yet — must reap them for a newcomer
// instead of refusing it.
func TestFullQueueReapsEntriesPastTheirWindow(t *testing.T) {
	fc := vclock.NewFake()
	q := New(Config{Slots: 2, Period: 133 * time.Millisecond, Clock: fc})
	var old, young collector
	if _, err := q.NewEntry(old.waiter()); err != nil {
		t.Fatal(err)
	}
	fc.Advance(133 * time.Millisecond)
	if _, err := q.NewEntry(young.waiter()); err != nil {
		t.Fatal(err)
	}
	if _, err := q.NewEntry(func(Result) {}); err != nil {
		t.Fatalf("NewEntry = %v with an entry past its window", err)
	}
	if rs := old.get(); len(rs) != 1 || !rs[0].Expired {
		t.Fatalf("reaped waiter got %+v, want one Expired result", rs)
	}
	if rs := young.get(); len(rs) != 0 {
		t.Fatalf("young waiter got %+v before its window passed", rs)
	}
	if st := q.Stats(); st.Full != 0 || st.Expired != 1 || st.InUse != 2 {
		t.Errorf("stats = %+v, want Full 0, Expired 1, InUse 2", st)
	}
	// Every remaining entry is inside its window: the queue is full.
	if _, err := q.NewEntry(func(Result) {}); err != ErrFull {
		t.Fatalf("err = %v, want ErrFull", err)
	}
}

func TestEntriesExpireAfterPeriod(t *testing.T) {
	fc := vclock.NewFake()
	q := New(Config{Slots: 4, Period: 133 * time.Millisecond, Clock: fc})
	stop := make(chan struct{})
	defer close(stop)
	go q.Run(stop)
	fc.BlockUntil(1) // response thread armed its ticker

	var col collector
	tok, _ := q.NewEntry(col.waiter())
	q.Join(tok, col.waiter())

	fc.Advance(133 * time.Millisecond)
	rs := col.waitN(t, 2)
	for _, r := range rs {
		if !r.Expired {
			t.Errorf("result = %+v, want Expired", r)
		}
	}
	if st := q.Stats(); st.Expired != 1 || st.InUse != 0 {
		t.Errorf("stats = %+v", st)
	}
	// The expired entry's token is dead.
	if q.Join(tok, col.waiter()) {
		t.Error("token survived expiry")
	}
}

func TestYoungEntriesSurviveTick(t *testing.T) {
	fc := vclock.NewFake()
	q := New(Config{Slots: 4, Period: 133 * time.Millisecond, Clock: fc})
	stop := make(chan struct{})
	defer close(stop)
	go q.Run(stop)
	fc.BlockUntil(1)

	var col collector
	// First tick at t=133ms; entry added at t=100ms is only 33ms old
	// then and must survive until the second tick.
	fc.Advance(100 * time.Millisecond)
	tok, _ := q.NewEntry(col.waiter())
	fc.Advance(33 * time.Millisecond) // tick 1: age 33ms < 133ms
	time.Sleep(5 * time.Millisecond)  // let the thread process
	if len(col.get()) != 0 {
		t.Fatal("young entry expired early")
	}
	if !q.Join(tok, col.waiter()) {
		t.Fatal("young entry's token invalid")
	}
	fc.Advance(133 * time.Millisecond) // tick 2: age 166ms
	rs := col.waitN(t, 2)
	for _, r := range rs {
		if !r.Expired {
			t.Errorf("result = %+v", r)
		}
	}
}

func TestSlotReuseBumpsTag(t *testing.T) {
	q := New(Config{Slots: 1, Clock: vclock.NewFake()})
	stop := make(chan struct{})
	defer close(stop)
	go q.Run(stop)
	var col collector
	tok1, _ := q.NewEntry(col.waiter())
	q.Release(tok1, 0, false)
	col.waitN(t, 1)
	tok2, _ := q.NewEntry(col.waiter())
	if tok1 == tok2 {
		t.Error("reused slot issued the same token")
	}
	s1, _ := untoken(tok1)
	s2, _ := untoken(tok2)
	if s1 != s2 {
		t.Error("single-slot queue must reuse the slot")
	}
}

// TestTokenAliasingLargeQueue is the regression test for the 16-bit
// token packing bug: with Slots > 65536, token(65536, tag=1) decoded as
// (slot 0, tag 2) — exactly the state slot 0 reaches after one
// retire/reallocate cycle — so releasing file A's high-slot entry
// delivered file A's server to whatever file B had parked on slot 0.
// With the 32-bit index packing the two tokens cannot collide.
func TestTokenAliasingLargeQueue(t *testing.T) {
	const slots = 1 << 17
	q := New(Config{Slots: slots, Clock: vclock.NewFake()})

	// Allocation order is slot 0, 1, 2, ...: grab slot 0 for file A and
	// walk the allocator up to slot 65536 (the first index that the old
	// packing truncated).
	var colA collector
	tokA, err := q.NewEntry(colA.waiter())
	if err != nil {
		t.Fatal(err)
	}
	var colHigh collector
	var tokHigh uint64
	for i := 1; i <= 1<<16; i++ {
		w := func(Result) {}
		if i == 1<<16 {
			w = colHigh.waiter()
		}
		tok, err := q.NewEntry(w)
		if err != nil {
			t.Fatal(err)
		}
		if i == 1<<16 {
			tokHigh = tok
		}
	}
	if i, _ := untoken(tokA); i != 0 {
		t.Fatalf("file A landed on slot %d, want 0", i)
	}
	if i, _ := untoken(tokHigh); i != 1<<16 {
		t.Fatalf("high entry landed on slot %d, want %d", i, 1<<16)
	}
	if tokA == tokHigh {
		t.Fatal("tokens for distinct slots collide")
	}

	// Retire slot 0 once and let file B reallocate it, bumping its tag to
	// 2 — the state the truncated decoding of tokHigh used to match.
	if n := q.Release(tokA, 1, false); n != 1 {
		t.Fatalf("Release(tokA) delivered to %d waiters, want 1", n)
	}
	var colB collector
	tokB, err := q.NewEntry(colB.waiter())
	if err != nil {
		t.Fatal(err)
	}
	if i, tag := untoken(tokB); i != 0 || tag != 2 {
		t.Fatalf("file B got slot %d tag %d, want slot 0 tag 2", i, tag)
	}

	// Releasing the high slot must touch only the high slot.
	if n := q.Release(tokHigh, 9, false); n != 1 {
		t.Fatalf("Release(tokHigh) delivered to %d waiters, want 1", n)
	}
	if rs := colHigh.get(); len(rs) != 1 || rs[0].Server != 9 {
		t.Fatalf("high-slot waiter got %+v", colHigh.get())
	}
	if rs := colB.get(); len(rs) != 0 {
		t.Fatalf("file B's waiter received file A's release: %+v", rs)
	}
	if !q.Join(tokB, colB.waiter()) {
		t.Fatal("file B's entry was clobbered by the high-slot release")
	}
}

func TestNewRejectsOversizedSlots(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted Slots > MaxSlots")
		}
	}()
	New(Config{Slots: MaxSlots + 1})
}

// Without a Run thread, Release must invoke waiters inline — the ready
// channel has no consumer, and the old queue-first path parked batches
// there undelivered until saturation.
func TestReleaseSynchronousWithoutRun(t *testing.T) {
	q := New(Config{Slots: 8, Clock: vclock.NewFake()})
	var col collector
	tok, err := q.NewEntry(col.waiter())
	if err != nil {
		t.Fatal(err)
	}
	if !q.Join(tok, col.waiter()) {
		t.Fatal("Join failed")
	}
	if n := q.Release(tok, 5, false); n != 2 {
		t.Fatalf("Release returned %d, want 2", n)
	}
	rs := col.get() // no waitN: delivery must already have happened
	if len(rs) != 2 || rs[0].Server != 5 || rs[1].Server != 5 {
		t.Fatalf("results = %+v", rs)
	}
}

func TestExpireNow(t *testing.T) {
	fc := vclock.NewFake()
	q := New(Config{Slots: 4, Period: 133 * time.Millisecond, Clock: fc})
	var col collector
	if _, err := q.NewEntry(col.waiter()); err != nil {
		t.Fatal(err)
	}
	if n := q.ExpireNow(); n != 0 {
		t.Fatalf("young entry expired: %d waiters", n)
	}
	fc.Advance(133 * time.Millisecond)
	if n := q.ExpireNow(); n != 1 {
		t.Fatalf("ExpireNow notified %d waiters, want 1", n)
	}
	if rs := col.get(); len(rs) != 1 || !rs[0].Expired {
		t.Fatalf("results = %+v", rs)
	}
	if st := q.Stats(); st.Expired != 1 || st.InUse != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestConcurrentChurn(t *testing.T) {
	q := New(Config{Slots: 64, Clock: vclock.Real(), Period: 5 * time.Millisecond})
	stop := make(chan struct{})
	go q.Run(stop)
	defer close(stop)

	var delivered atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tok, err := q.NewEntry(func(Result) { delivered.Add(1) })
				if err != nil {
					continue // full under churn is fine
				}
				q.Join(tok, func(Result) { delivered.Add(1) })
				if i%2 == 0 {
					q.Release(tok, i%64, false)
				} // odd entries expire via the period ticker
			}
		}()
	}
	wg.Wait()
	// Every parked waiter must eventually get exactly one result.
	st := q.Stats()
	want := st.Entries + st.Joins
	deadline := time.Now().Add(5 * time.Second)
	for delivered.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d", delivered.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
	if delivered.Load() != want {
		t.Errorf("delivered %d, want %d", delivered.Load(), want)
	}
}
