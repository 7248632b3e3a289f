package cmsd

import (
	"testing"
	"time"

	"scalla/internal/cache"
	"scalla/internal/cluster"
	"scalla/internal/names"
	"scalla/internal/proto"
	"scalla/internal/respq"
	"scalla/internal/vclock"
)

// manualRig builds a Manual-mode core on a fake clock with n silent
// subordinates (queries are recorded as sendable but never answered)
// and an OnAwait handshake channel — the same drive the deterministic
// harness uses, minimized for regression tests.
type manualRig struct {
	core    *Core
	clk     *vclock.Fake
	awaitCh chan struct{}
}

func newManualRig(t *testing.T, n, slots int) *manualRig {
	t.Helper()
	rig := &manualRig{clk: vclock.NewFake(), awaitCh: make(chan struct{})}
	rig.core = NewCore(Config{
		Manual:    true,
		OnAwait:   func() { rig.awaitCh <- struct{}{} },
		Clock:     rig.clk,
		FullDelay: 5 * time.Second,
		Cache:     cache.Config{InitialBuckets: 89},
		Queue:     respq.Config{Slots: slots},
	})
	t.Cleanup(rig.core.Close)
	for i := 0; i < n; i++ {
		if _, _, err := rig.core.Table().Login(cluster.Member{
			Name:     "srv" + string(rune('a'+i)),
			Role:     proto.RoleServer,
			DataAddr: "srv" + string(rune('a'+i)) + ":data",
			Prefixes: names.NewPrefixSet("/"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	rig.core.SetQuerySender(func(int, proto.Query) bool { return true })
	return rig
}

// TestCreateReleasesParkedWaiters is the minimized regression for a
// lost-waiter bug the detsim sweep surfaced: a client that deferred
// just before the processing deadline lapsed was left parked when a
// later create resolved the same path. The optimistic location update
// in notFound detaches the object's fast-response tokens, and the
// original code dropped them — the parked client sat until guard-window
// expiry and paid the full delay despite the location being known. The
// fix releases the detached tokens at the creation target.
func TestCreateReleasesParkedWaiters(t *testing.T) {
	rig := newManualRig(t, 2, 0)

	// A reader misses, floods, and parks. Nobody answers.
	done := make(chan Outcome, 1)
	go func() { done <- rig.core.Resolve(Request{Path: "/fresh"}) }()
	<-rig.awaitCh // the reader reached its park point

	// The processing deadline lapses with the reader still parked (in
	// Manual mode nothing expires the guard window behind our back).
	rig.clk.Advance(6 * time.Second)

	// A writer creates the path: non-existence is its green light.
	out := rig.core.Resolve(Request{Path: "/fresh", Write: true, Create: true})
	if out.Kind != KindRedirect {
		t.Fatalf("create outcome = %+v, want redirect", out)
	}

	// The parked reader must be released at the creation target now —
	// not after guard-window expiry plus a full delay.
	select {
	case r := <-done:
		if r.Kind != KindRedirect || r.Index != out.Index {
			t.Fatalf("released reader got %+v, want redirect to index %d", r, out.Index)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked reader not released by the create; it would pay the full delay")
	}
}

// TestRespqFullImposesFullDelayNotSpin pins the ErrFull contract at the
// core's only NewEntry call site: when the fast response queue has no
// free anchor, the resolve must return one wait verdict carrying the
// full delay — exactly one allocation attempt, no retry loop, and no
// park.
func TestRespqFullImposesFullDelayNotSpin(t *testing.T) {
	rig := newManualRig(t, 1, 1)

	// The first client occupies the queue's only anchor.
	done := make(chan Outcome, 1)
	go func() { done <- rig.core.Resolve(Request{Path: "/a"}) }()
	<-rig.awaitCh

	// The second client finds the queue full: full delay, synchronously.
	out := rig.core.Resolve(Request{Path: "/b"})
	if out.Kind != KindWait {
		t.Fatalf("outcome = %+v, want wait", out)
	}
	if out.Millis != 5000 {
		t.Fatalf("wait = %d ms, want the 5000 ms full delay", out.Millis)
	}
	st := rig.core.Queue().Stats()
	if st.Full != 1 {
		t.Errorf("Full = %d, want exactly 1 (no allocation spin)", st.Full)
	}
	if st.Entries != 1 {
		t.Errorf("Entries = %d, want 1 (the parked client's)", st.Entries)
	}
	// The refused client never parked: no second await handshake fired.
	select {
	case <-rig.awaitCh:
		t.Fatal("full-queue resolve parked")
	default:
	}

	// Drain: expire the first client's entry so its goroutine finishes.
	rig.clk.Advance(time.Second)
	if n := rig.core.Queue().ExpireNow(); n != 1 {
		t.Fatalf("ExpireNow = %d, want 1", n)
	}
	if r := <-done; r.Kind != KindWait || r.Millis != 5000 {
		t.Fatalf("expired client got %+v, want the full-delay wait", r)
	}
}

// TestDeferredParkAfterHaveIsNotStranded is the minimized regression for
// a lost wake-up that stalled joined cold opens for the full delay: a
// resolver that deferred read its view (nothing known, a flood out),
// then the answering Have landed and detached the object's waiter token
// before the resolver parked. The resolver then installed a fresh
// response-queue entry that no response would ever release, so only
// expiry answered it, with the full-delay wait. The fix refuses the
// install once the object has a holder the view lacked and re-selects.
func TestDeferredParkAfterHaveIsNotStranded(t *testing.T) {
	rig := newManualRig(t, 2, 0)
	c := rig.core

	// A first reader misses, floods and parks.
	first := make(chan Outcome, 1)
	go func() { first <- c.Resolve(Request{Path: "/f"}) }()
	<-rig.awaitCh

	// A second reader reads its view while the flood is out.
	ref, view, ok := c.cache.Fetch("/f", c.table.VmFor("/f"), c.table.OfflineVec())
	if !ok || view.HasLocation() || !view.Vq.IsEmpty() {
		t.Fatalf("view = %+v, %v; want nothing known, nothing left to ask", view, ok)
	}

	// Server 1 answers before the second reader parks.
	floods := c.InflightFloods()
	if len(floods) != 1 {
		t.Fatalf("%d floods in flight, want 1", len(floods))
	}
	if n := c.HandleHave(1, proto.Have{QID: floods[0].QID, Path: "/f",
		Hash: names.Hash("/f"), CanWrite: true}); n != 1 {
		t.Fatalf("Have released %d waiters, want the first reader", n)
	}
	if out := <-first; out.Kind != KindRedirect || out.Index != 1 {
		t.Fatalf("first reader got %+v, want redirect to server 1", out)
	}

	// The second reader now parks on the view it read before the Have.
	second := make(chan Outcome, 1)
	go func() { second <- c.parkAndWait(ref, view, false, -1, nil) }()
	select {
	case out := <-second:
		if out.Kind != KindRedirect || out.Index != 1 {
			t.Fatalf("second reader got %+v, want redirect to server 1", out)
		}
	case <-rig.awaitCh:
		rig.clk.Advance(time.Second)
		c.Queue().ExpireNow()
		t.Fatalf("second reader parked on an entry nothing releases; expiry answered %+v", <-second)
	}
	if st := c.Queue().Stats(); st.InUse != 0 || st.Expired != 0 {
		t.Errorf("queue stats %+v: want no entry left over or expired", st)
	}
}

// TestLostInstallRaceWithdrawsOrphanEntry is the minimized regression
// for response-queue entries that expired empty under cold-open races:
// two resolvers parked on a path nobody had looked up, the loser
// allocated its entry, found the winner's already installed and joined
// it — leaving its own entry, never published, to sit in the queue
// until expiry. The fix withdraws the orphan the moment the loser
// joins.
func TestLostInstallRaceWithdrawsOrphanEntry(t *testing.T) {
	clk := vclock.NewFake()
	awaitCh := make(chan struct{})
	var hook func()
	core := NewCore(Config{
		Manual:    true,
		OnAwait:   func() { awaitCh <- struct{}{} },
		Clock:     clk,
		FullDelay: 5 * time.Second,
		Cache:     cache.Config{InitialBuckets: 89},
		// Expiry passes run on the allocating goroutine when the queue
		// is full, between the loser's allocation and its install.
		Queue: respq.Config{Slots: 2, OnExpired: func(int) {
			if h := hook; h != nil {
				hook = nil
				h()
			}
		}},
	})
	t.Cleanup(core.Close)
	if _, _, err := core.Table().Login(cluster.Member{
		Name: "srva", Role: proto.RoleServer, DataAddr: "srva:data",
		Prefixes: names.NewPrefixSet("/"),
	}); err != nil {
		t.Fatal(err)
	}
	core.SetQuerySender(func(int, proto.Query) bool { return true })

	// Fill both anchors with readers that will have outwaited the fast
	// window by the time the race starts.
	olds := make(chan Outcome, 2)
	for _, p := range []string{"/old0", "/old1"} {
		go func() { olds <- core.Resolve(Request{Path: p}) }()
		<-awaitCh
	}
	clk.Advance(time.Second)

	// The loser claims /x, allocates (reaping both old entries), and —
	// inside that allocation — the winner parks on /x first.
	winner := make(chan Outcome, 1)
	staged := make(chan struct{})
	hook = func() {
		go func() { winner <- core.Resolve(Request{Path: "/x"}) }()
		<-awaitCh
		close(staged)
	}
	loser := make(chan Outcome, 1)
	go func() { loser <- core.Resolve(Request{Path: "/x"}) }()
	select {
	case <-staged:
	case <-time.After(5 * time.Second):
		t.Fatal("the loser's allocation never ran an expiry pass; the race was not staged")
	}
	<-awaitCh // the loser parked too
	for i := 0; i < 2; i++ {
		if out := <-olds; out.Kind != KindWait {
			t.Fatalf("expired reader got %+v, want wait", out)
		}
	}

	st := core.Queue().Stats()
	if st.InUse != 1 || st.Withdrawn != 1 {
		t.Fatalf("after the race: %d entries in use, %d withdrawn; want the shared entry only (1, 1)",
			st.InUse, st.Withdrawn)
	}

	// One Have answers both resolvers through the shared entry.
	var qids []uint64
	for _, f := range core.InflightFloods() {
		if f.Path == "/x" {
			qids = append(qids, f.QID)
		}
	}
	if len(qids) != 1 {
		t.Fatalf("%d floods for /x in flight, want 1", len(qids))
	}
	if n := core.HandleHave(0, proto.Have{QID: qids[0], Path: "/x",
		Hash: names.Hash("/x"), CanWrite: true}); n != 2 {
		t.Fatalf("Have released %d waiters, want both resolvers", n)
	}
	for _, ch := range []chan Outcome{winner, loser} {
		if out := <-ch; out.Kind != KindRedirect || out.Index != 0 {
			t.Fatalf("resolver got %+v, want redirect to server 0", out)
		}
	}

	// Nothing is left to expire empty.
	clk.Advance(time.Second)
	if n := core.Queue().ExpireNow(); n != 0 {
		t.Errorf("expiry answered %d waiters after every resolver was served", n)
	}
	st = core.Queue().Stats()
	if st.InUse != 0 || st.Expired != 2 {
		t.Errorf("final stats %+v: want no entry in use and only the two old readers expired", st)
	}
	if st.Entries != st.Released+st.Expired+st.Withdrawn+int64(st.InUse) {
		t.Errorf("entry conservation broken: %+v", st)
	}
	if st.Entries+st.Joins != st.ReleasedWaiters+st.ExpiredWaiters+st.Withdrawn {
		t.Errorf("waiter conservation broken: %+v", st)
	}
}
