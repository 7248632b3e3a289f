package cmsd

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"scalla/internal/cache"
	"scalla/internal/cluster"
	"scalla/internal/names"
	"scalla/internal/proto"
	"scalla/internal/respq"
)

// coreRig builds a Core with n fake subordinates whose query handling
// is scripted by answer: given a path and server index, return whether
// to respond and how.
type coreRig struct {
	core *Core
	mu   sync.Mutex
	sent map[int][]proto.Query
}

func newCoreRig(t *testing.T, n int, answer func(i int, q proto.Query) (respond, pending bool)) *coreRig {
	t.Helper()
	rig := &coreRig{sent: make(map[int][]proto.Query)}
	core := NewCore(Config{
		Cache:     cache.Config{InitialBuckets: 89},
		Queue:     respq.Config{Period: 40 * time.Millisecond},
		FullDelay: 150 * time.Millisecond,
	})
	t.Cleanup(core.Close)
	rig.core = core
	for i := 0; i < n; i++ {
		idx, _, err := core.Table().Login(cluster.Member{
			Name:     "srv" + string(rune('a'+i)),
			Role:     proto.RoleServer,
			DataAddr: "srv" + string(rune('a'+i)) + ":data",
			Prefixes: names.NewPrefixSet("/"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if idx != i {
			t.Fatalf("index %d, want %d", idx, i)
		}
	}
	core.SetQuerySender(func(i int, q proto.Query) bool {
		rig.mu.Lock()
		rig.sent[i] = append(rig.sent[i], q)
		rig.mu.Unlock()
		if answer == nil {
			return true
		}
		respond, pending := answer(i, q)
		if respond {
			// Answer asynchronously, like a real subordinate.
			go core.HandleHave(i, proto.Have{
				QID: q.QID, Path: q.Path, Hash: q.Hash,
				Pending: pending, CanWrite: true,
			})
		}
		return true
	})
	return rig
}

func (r *coreRig) queriesTo(i int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sent[i])
}

func TestCoreResolvePositiveResponse(t *testing.T) {
	rig := newCoreRig(t, 3, func(i int, q proto.Query) (bool, bool) {
		return i == 1, false // only server 1 has the file
	})
	out := rig.core.Resolve(Request{Path: "/f"})
	if out.Kind != KindRedirect || out.Index != 1 || out.Addr != "srvb:data" {
		t.Fatalf("outcome = %+v", out)
	}
	// Second resolve: served from cache, no new queries.
	before := rig.queriesTo(0) + rig.queriesTo(1) + rig.queriesTo(2)
	out = rig.core.Resolve(Request{Path: "/f"})
	if out.Kind != KindRedirect {
		t.Fatalf("outcome = %+v", out)
	}
	if after := rig.queriesTo(0) + rig.queriesTo(1) + rig.queriesTo(2); after != before {
		t.Error("cached resolve issued queries")
	}
}

func TestCoreResolveSilenceMeansWaitThenNoEnt(t *testing.T) {
	rig := newCoreRig(t, 2, func(int, proto.Query) (bool, bool) { return false, false })
	start := time.Now()
	out := rig.core.Resolve(Request{Path: "/ghost"})
	if out.Kind != KindWait {
		t.Fatalf("outcome = %+v", out)
	}
	if elapsed := time.Since(start); elapsed > 130*time.Millisecond {
		t.Errorf("silence path blocked %v; the fast window should cap it", elapsed)
	}
	time.Sleep(180 * time.Millisecond) // let the deadline lapse
	out = rig.core.Resolve(Request{Path: "/ghost"})
	if out.Kind != KindNoEnt {
		t.Fatalf("post-deadline outcome = %+v", out)
	}
}

func TestCoreResolvePendingResponse(t *testing.T) {
	rig := newCoreRig(t, 1, func(int, proto.Query) (bool, bool) { return true, true })
	out := rig.core.Resolve(Request{Path: "/staging"})
	if out.Kind != KindRedirect || !out.Pending {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestCoreResolveNoExportMatch(t *testing.T) {
	core := NewCore(Config{
		Cache:     cache.Config{InitialBuckets: 89},
		Queue:     respq.Config{Period: 40 * time.Millisecond},
		FullDelay: 150 * time.Millisecond,
	})
	t.Cleanup(core.Close)
	core.Table().Login(cluster.Member{
		Name: "a", Role: proto.RoleServer, DataAddr: "a:data",
		Prefixes: names.NewPrefixSet("/store"),
	})
	out := core.Resolve(Request{Path: "/elsewhere/f"})
	if out.Kind != KindNoEnt {
		t.Fatalf("outcome = %+v (must fail fast without queries)", out)
	}
}

func TestCoreResolveCreateSelectsBySpace(t *testing.T) {
	rig := newCoreRig(t, 2, func(int, proto.Query) (bool, bool) { return false, false })
	rig.core.Table().UpdateStats(0, 0, 10)
	rig.core.Table().UpdateStats(1, 0, 1_000_000)

	// First pass arms the deadline; after it lapses, create resolves.
	out := rig.core.Resolve(Request{Path: "/new", Create: true})
	if out.Kind != KindWait {
		t.Fatalf("first create outcome = %+v", out)
	}
	time.Sleep(180 * time.Millisecond)
	out = rig.core.Resolve(Request{Path: "/new", Create: true})
	if out.Kind != KindRedirect || out.Index != 1 {
		t.Fatalf("create outcome = %+v, want roomier server 1", out)
	}
	// The optimistic cache entry serves the next client immediately.
	out = rig.core.Resolve(Request{Path: "/new"})
	if out.Kind != KindRedirect || out.Index != 1 {
		t.Fatalf("post-create outcome = %+v", out)
	}
}

func TestCoreConcurrentStormSingleQuery(t *testing.T) {
	rig := newCoreRig(t, 4, func(i int, q proto.Query) (bool, bool) {
		runtime.Gosched() // yield so the storm interleaves
		return i == 2, false
	})
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A waiter that parks just after the release expires with
			// KindWait ("retry after the full delay"); retrying is what
			// a real client does, and it lands on the cached holder
			// without any further queries.
			out := rig.core.Resolve(Request{Path: "/hot"})
			for tries := 0; out.Kind == KindWait && tries < 5; tries++ {
				time.Sleep(5 * time.Millisecond)
				out = rig.core.Resolve(Request{Path: "/hot"})
			}
			if out.Kind != KindRedirect || out.Index != 2 {
				t.Errorf("outcome = %+v", out)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		if got := rig.queriesTo(i); got != 1 {
			t.Errorf("server %d queried %d times, want 1", i, got)
		}
	}
}

func TestCoreRefreshRequeriesAvoidingFailed(t *testing.T) {
	have := map[int]bool{0: true, 1: true}
	var mu sync.Mutex
	rig := newCoreRig(t, 2, func(i int, q proto.Query) (bool, bool) {
		mu.Lock()
		defer mu.Unlock()
		return have[i], false
	})
	out := rig.core.Resolve(Request{Path: "/f"})
	if out.Kind != KindRedirect {
		t.Fatalf("outcome = %+v", out)
	}
	// Server 0's copy vanishes; the client reports it as failing. A
	// stale in-flight response from server 0 may force one wait-retry
	// round (the timing edge effect of Section III-C1); the refresh
	// must never vector the client back at srva.
	mu.Lock()
	have[0] = false
	mu.Unlock()
	out = rig.core.Resolve(Request{Path: "/f", Refresh: true, Avoid: "srva:data"})
	for tries := 0; out.Kind == KindWait && tries < 5; tries++ {
		time.Sleep(5 * time.Millisecond)
		out = rig.core.Resolve(Request{Path: "/f", Refresh: true, Avoid: "srva:data"})
	}
	if out.Kind != KindRedirect || out.Index != 1 {
		t.Fatalf("refresh outcome = %+v, want surviving server 1", out)
	}
}

func TestCoreHandleHaveForUnknownNameDropped(t *testing.T) {
	rig := newCoreRig(t, 1, nil)
	// Must not panic or create entries.
	rig.core.HandleHave(0, proto.Have{Path: "/never-asked", Hash: names.Hash("/never-asked")})
	if rig.core.Cache().Len() != 0 {
		t.Error("stray Have created a cache entry")
	}
}

func TestCoreNextQIDMonotonic(t *testing.T) {
	rig := newCoreRig(t, 1, nil)
	a, b := rig.core.NextQID(), rig.core.NextQID()
	if b <= a {
		t.Errorf("qids not increasing: %d then %d", a, b)
	}
}

func TestCorePrepareReturnsImmediately(t *testing.T) {
	rig := newCoreRig(t, 2, func(int, proto.Query) (bool, bool) { return true, false })
	start := time.Now()
	n := rig.core.Prepare([]string{"/p1", "/p2", "/p3"}, false)
	if n != 3 {
		t.Errorf("Prepare queued %d", n)
	}
	if time.Since(start) > 50*time.Millisecond {
		t.Error("Prepare blocked")
	}
	// Background lookups land.
	deadline := time.Now().Add(5 * time.Second)
	for rig.core.Cache().Len() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("prepare lookups never cached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCoreMetricsRecorded(t *testing.T) {
	rig := newCoreRig(t, 2, func(i int, q proto.Query) (bool, bool) { return i == 0, false })
	rig.core.Resolve(Request{Path: "/m"}) // redirect via query flood
	rig.core.Resolve(Request{Path: "/m"}) // cached redirect

	reg := rig.core.Metrics()
	if got := reg.Counter("resolve.redirect").Value(); got != 2 {
		t.Errorf("redirect counter = %d", got)
	}
	if got := reg.Counter("resolve.queries").Value(); got != 2 {
		t.Errorf("queries counter = %d (2 servers, one flood)", got)
	}
	if got := reg.Counter("resolve.haves").Value(); got != 1 {
		t.Errorf("haves counter = %d", got)
	}
	if got := reg.Histogram("resolve.latency").Count(); got != 2 {
		t.Errorf("latency count = %d", got)
	}
}

func TestOutcomeReplyMapping(t *testing.T) {
	n := &Node{}
	if r, ok := n.outcomeReply(Outcome{Kind: KindRedirect, Addr: "x"}).(proto.Redirect); !ok || r.Addr != "x" {
		t.Error("redirect mapping wrong")
	}
	if w, ok := n.outcomeReply(Outcome{Kind: KindWait, Millis: 7}).(proto.Wait); !ok || w.Millis != 7 {
		t.Error("wait mapping wrong")
	}
	if w, ok := n.outcomeReply(Outcome{Kind: KindRetry}).(proto.Wait); !ok || w.Millis != 1 {
		t.Error("retry mapping wrong")
	}
	if e, ok := n.outcomeReply(Outcome{Kind: KindNoEnt}).(proto.Err); !ok || e.Code != proto.ENoEnt {
		t.Error("noent mapping wrong")
	}
}

// TestCachedResolveAllocsNothing gates the cached resolve — the path
// every open of a known file takes at each redirector — at 0 allocs/op
// with tracing off: span details are formatted only for a live span.
func TestCachedResolveAllocsNothing(t *testing.T) {
	rig := newCoreRig(t, 3, func(i int, q proto.Query) (bool, bool) {
		return i == 1, false
	})
	if out := rig.core.Resolve(Request{Path: "/f"}); out.Kind != KindRedirect {
		t.Fatalf("outcome = %+v", out)
	}
	var out Outcome
	allocs := testing.AllocsPerRun(200, func() { out = rig.core.Resolve(Request{Path: "/f"}) })
	if out.Kind != KindRedirect || out.Index != 1 {
		t.Fatalf("cached outcome = %+v", out)
	}
	if allocs != 0 {
		t.Fatalf("cached Resolve allocates %v times per call, want 0", allocs)
	}
}
