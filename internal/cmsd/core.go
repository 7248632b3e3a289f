// Package cmsd implements Scalla's cluster management daemon: the
// resolution core that ties the location cache, the fast response
// queue, and the membership table together (Core), and the network
// daemon that runs it as a manager, supervisor, or server node (Node).
package cmsd

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scalla/internal/bitvec"
	"scalla/internal/cache"
	"scalla/internal/cluster"
	"scalla/internal/metrics"
	"scalla/internal/names"
	"scalla/internal/obs"
	"scalla/internal/proto"
	"scalla/internal/respq"
	"scalla/internal/vclock"
)

// OutcomeKind classifies a resolution result.
type OutcomeKind int

const (
	// KindRedirect vectors the client at Addr.
	KindRedirect OutcomeKind = iota
	// KindWait tells the client to wait Millis and reissue the request
	// (the full delay of Section III-B).
	KindWait
	// KindNoEnt means the file does not exist anywhere in the subtree.
	KindNoEnt
	// KindRetry asks the client to retry immediately: a reference went
	// stale mid-operation and processing must restart from a consistent
	// state (Section III-B1).
	KindRetry
)

// Outcome is the result of resolving one client request.
type Outcome struct {
	Kind    OutcomeKind
	Index   int    // selected subordinate
	Addr    string // its data-plane address
	CtlAddr string // its control address (non-empty for supervisors)
	Pending bool   // subordinate is staging the file
	Millis  uint32 // for KindWait
}

// Request is one client resolution request.
type Request struct {
	Path   string
	Write  bool
	Create bool
	// Refresh forces re-querying all eligible servers, avoiding the
	// host that failed (Section III-C1).
	Refresh bool
	Avoid   string // data address of the failing host, with Refresh
}

// Config parameterizes a Core.
type Config struct {
	// Cache configures the location cache. Clock is overridden by the
	// Core clock.
	Cache cache.Config
	// Queue configures the fast response queue.
	Queue respq.Config
	// Cluster configures the membership table.
	Cluster cluster.Config
	// ReadPolicy selects among holders for reads. Default ByLoad.
	ReadPolicy cluster.Policy
	// WritePolicy selects among holders for writes and creation targets.
	// Default BySpace.
	WritePolicy cluster.Policy
	// FullDelay is the wait imposed when the fast window misses; it
	// should equal the cache's processing deadline. Default 5 s.
	FullDelay time.Duration
	// Levels is how many redirector levels run at or below this core: 1
	// for a leaf supervisor (whose children are data servers), up to the
	// tree's full redirector depth for the root manager. A core's
	// processing deadline must cover its subtree's worst-case resolution
	// time — a supervisor child needs its own full delay before its
	// silence means "no" (Section III-C1) — so the effective full delay
	// (and with it the cache deadline and the wait verdict) is
	// FullDelay × Levels. withDefaults folds the factor into FullDelay.
	// Without this, a depth-4 manager declares definitive not-found
	// while a grandchild supervisor is still legitimately querying, and
	// clients see spurious ENOENT for files that exist. Default 1.
	Levels int
	// Clock supplies time everywhere. Default vclock.Real().
	Clock vclock.Clock
	// Tracer records per-request resolution spans. Default: a disabled
	// tracer with obs.DefaultSpanCapacity slots, so tracing can be
	// switched on at runtime (via /tracez) without reconfiguring. While
	// disabled the resolve path pays one atomic load per request.
	Tracer *obs.Tracer
	// Manual suppresses the background machinery: NewCore starts neither
	// the fast-response thread nor the eviction clock, and the embedder
	// drives both explicitly (Queue().ExpireNow, Cache().Tick). The
	// deterministic simulation harness (internal/detsim) sets it so that
	// every timer firing is a scheduler decision rather than a goroutine
	// race.
	Manual bool
	// OnAwait, if set, is invoked on the resolving goroutine immediately
	// before it blocks on the fast response queue. The deterministic
	// harness uses it as the park handshake: the scheduler knows the
	// resolution has reached its single blocking point and can safely
	// take the next scheduling decision.
	OnAwait func()
}

func (c Config) withDefaults() Config {
	if c.FullDelay <= 0 {
		c.FullDelay = 5 * time.Second
	}
	if c.Levels > 1 {
		// Depth-aware deadline: from here on FullDelay is the effective
		// per-flood deadline for this level's subtree.
		c.FullDelay *= time.Duration(c.Levels)
		c.Levels = 1
	}
	if c.Clock == nil {
		c.Clock = vclock.Real()
	}
	if c.WritePolicy == cluster.ByLoad {
		c.WritePolicy = cluster.BySpace
	}
	c.Cache.Clock = c.Clock
	if c.Cache.Deadline <= 0 {
		c.Cache.Deadline = c.FullDelay
	}
	c.Queue.Clock = c.Clock
	c.Cluster.Clock = c.Clock
	return c
}

// QuerySender transmits a location query to subordinate index. It
// reports whether the query could be sent (a dead link counts as "could
// not be queried", leaving the bit in Vq for the next look-up).
type QuerySender func(index int, q proto.Query) bool

// Core is the resolution engine of a manager or supervisor cmsd.
type Core struct {
	cfg    Config
	cache  *cache.Cache
	queue  *respq.Queue
	table  *cluster.Table
	reg    *metrics.Registry
	tracer *obs.Tracer

	sendQuery atomic.Pointer[QuerySender]
	qid       atomic.Uint64

	// inflight tracks query floods whose processing deadline has not
	// passed, so MemberDown can re-flood the ones a dying member leaves
	// unanswered (graceful degradation inside the 5 s window). floods
	// holds their QIDs in issue order from floodHead on; every flood's
	// deadline is its issue time plus FullDelay, read under inflightMu,
	// so issue order is deadline order and the expired floods are always
	// a prefix. QIDs whose flood a Have or member event already removed
	// are skipped when they reach the head.
	inflightMu sync.Mutex
	inflight   map[uint64]inflightFlood
	floods     []uint64
	floodHead  int

	stop    chan struct{}
	stopped atomic.Bool
}

// inflightFlood is one outstanding query broadcast: who was asked, for
// what, and until when an answer is still awaited.
type inflightFlood struct {
	path     string
	write    bool
	queried  bitvec.Vec
	deadline time.Time
}

// NewCore builds a Core and starts its background machinery (response
// thread and eviction clock) unless cfg.Manual is set. Call Close when
// done.
func NewCore(cfg Config) *Core {
	cfg = cfg.withDefaults()
	if cfg.Tracer == nil {
		cfg.Tracer = obs.NewTracer(0, cfg.Clock)
	}
	c := &Core{cfg: cfg, stop: make(chan struct{}), reg: metrics.NewRegistry(),
		tracer: cfg.Tracer, inflight: make(map[uint64]inflightFlood)}

	// Wire membership events into the cache's connect-epoch counter.
	userNew := cfg.Cluster.OnNewServer
	cfg.Cluster.OnNewServer = func(i int) {
		c.cache.ServerConnected(i)
		if userNew != nil {
			userNew(i)
		}
	}
	// A dropped member bumps the epoch too: its slot leaves Vm, and if
	// the slot is ever reassigned the old bits must not resurrect.
	userDrop := cfg.Cluster.OnDrop
	cfg.Cluster.OnDrop = func(i int) {
		c.cache.ServerDropped(i)
		c.reg.Counter("cluster.drops").Inc()
		if userDrop != nil {
			userDrop(i)
		}
	}
	// A member death inside the processing deadline re-floods the
	// queries it was part of (Section III-B graceful degradation).
	userOffline := cfg.Cluster.OnOffline
	cfg.Cluster.OnOffline = func(i int) {
		c.MemberDown(i)
		if userOffline != nil {
			userOffline(i)
		}
	}
	// Surface the rare maintenance events (window ticks, guard-window
	// expiries) as metrics for the summary stream.
	userTick := cfg.Cache.OnTick
	cfg.Cache.OnTick = func(tick uint64, hidden int64) {
		c.reg.Counter("cache.ticks").Inc()
		c.reg.Counter("cache.tick_evictions").Add(hidden)
		if userTick != nil {
			userTick(tick, hidden)
		}
	}
	userExp := cfg.Queue.OnExpired
	cfg.Queue.OnExpired = func(n int) {
		c.reg.Counter("respq.expired").Add(int64(n))
		if userExp != nil {
			userExp(n)
		}
	}
	c.cache = cache.New(cfg.Cache)
	c.queue = respq.New(cfg.Queue)
	c.table = cluster.New(cfg.Cluster)

	if !cfg.Manual {
		go c.queue.Run(c.stop)
		go c.cache.Run(c.stop)
	}
	return c
}

// Close stops the background machinery.
func (c *Core) Close() {
	if c.stopped.CompareAndSwap(false, true) {
		close(c.stop)
	}
}

// Table exposes the membership table (the node layer registers logins
// and disconnects through it).
func (c *Core) Table() *cluster.Table { return c.table }

// Cache exposes the location cache (for stats and the bench harness).
func (c *Core) Cache() *cache.Cache { return c.cache }

// Queue exposes the fast response queue (for stats).
func (c *Core) Queue() *respq.Queue { return c.queue }

// Metrics exposes the resolution metrics registry: counters
// resolve.{redirect,wait,noent,retry}, resolve.queries, resolve.haves,
// cache.{ticks,tick_evictions}, respq.expired, and the resolve.latency
// histogram.
func (c *Core) Metrics() *metrics.Registry { return c.reg }

// Tracer exposes the event tracer (for the admin endpoint and tests).
func (c *Core) Tracer() *obs.Tracer { return c.tracer }

// SetQuerySender installs the function used to transmit queries to
// subordinates. The node layer sets it once links exist.
func (c *Core) SetQuerySender(fn QuerySender) { c.sendQuery.Store(&fn) }

// fullDelayMillis is the Wait payload for a full-delay retry.
func (c *Core) fullDelayMillis() uint32 {
	return uint32(c.cfg.FullDelay / time.Millisecond)
}

// NextQID returns a fresh query identifier.
func (c *Core) NextQID() uint64 { return c.qid.Add(1) }

// Resolve runs the resolution steps of Section III-B1 for one request,
// blocking until the client can be answered (a fast-window response, an
// immediate cached redirect, or a wait/doesn't-exist verdict).
func (c *Core) Resolve(req Request) Outcome {
	start := c.cfg.Clock.Now()
	sp := c.tracer.Start("resolve", req.Path)
	out := c.resolve(req, sp)
	c.reg.Histogram("resolve.latency").Observe(c.cfg.Clock.Now().Sub(start))
	switch out.Kind {
	case KindRedirect:
		c.reg.Counter("resolve.redirect").Inc()
		if sp != nil {
			sp.End("redirect " + out.Addr)
		}
	case KindWait:
		c.reg.Counter("resolve.wait").Inc()
		if sp != nil {
			sp.End(fmt.Sprintf("wait %dms", out.Millis))
		}
	case KindNoEnt:
		c.reg.Counter("resolve.noent").Inc()
		sp.End("noent")
	case KindRetry:
		c.reg.Counter("resolve.retry").Inc()
		sp.End("retry")
	}
	return out
}

func (c *Core) resolve(req Request, sp *obs.Span) Outcome {
	path := names.Clean(req.Path)
	vm := c.table.VmFor(path)
	if vm.IsEmpty() {
		// No registered subordinate exports the path.
		return Outcome{Kind: KindNoEnt}
	}
	offline := c.table.OfflineVec()
	avoid := c.indexByAddr(req.Avoid)

	var (
		ref     cache.Ref
		view    cache.View
		ok      bool
		claimed bool
	)
	if req.Refresh {
		ref, view, ok = c.cache.Fetch(path, vm, offline)
		if ok {
			sp.Event("refresh", req.Avoid)
			if v, rok := c.cache.Refresh(ref, vm, avoid); rok {
				view, claimed = v, true
			} else {
				return Outcome{Kind: KindRetry}
			}
			if avoid >= 0 {
				// Evict the failing server so selection avoids it even
				// if a stale response re-adds it later.
				c.cache.Evict(ref, avoid)
			}
		}
	} else {
		ref, view, ok = c.cache.Fetch(path, vm, offline)
	}
	if ok {
		sp.Event("cache.hit", "")
	} else {
		// Step 1: first access — cache the name with Vq = Vm. The
		// creator owns the processing deadline.
		sp.Event("cache.miss", "")
		var created bool
		ref, view, created = c.cache.Add(path, vm, offline)
		claimed = created
	}

	// Step 3: any known holder (or stager) wins immediately — this is
	// the <50 µs cached path.
	if out, done := c.redirectFrom(view, req.Write, avoid); done {
		return out
	}

	now := c.cfg.Clock.Now()
	if view.Empty() {
		// Step 2: nothing known and nothing left to ask.
		if now.After(view.Deadline) {
			return c.notFound(path, vm, req, sp)
		}
		// A deadline is pending: some other thread is querying. Defer
		// via the fast response queue.
		sp.Event("defer", "deadline pending")
		return c.parkAndWait(ref, view, req.Write, avoid, sp)
	}

	// Every candidate left in Vq may be offline — disconnected but
	// inside its drop-delay window, so still a member yet unqueryable.
	// Nothing can improve the verdict before a reconnect, so a lapsed
	// deadline resolves exactly like the nothing-left-to-ask case:
	// letting clients spin on "wait" here would stall reads of vanished
	// files and, worse, block creation of brand-new files cluster-wide
	// whenever one member is down. The offline bits stay in Vq, and a
	// reconnect re-queries them via MemberUp and Figure-3 correction.
	if view.Vq.Intersect(c.table.OnlineVec()).IsEmpty() {
		if now.After(view.Deadline) {
			sp.Event("offline.only", "")
			return c.notFound(path, vm, req, sp)
		}
		sp.Event("defer", "all candidates offline")
		return c.parkAndWait(ref, view, req.Write, avoid, sp)
	}

	// Step 4/5: Vq is non-empty. Exactly one thread issues the queries;
	// everyone parks on the fast response queue first so no response
	// can slip between query and park.
	if !claimed {
		cl, vok := c.cache.ClaimQuery(ref)
		if !vok {
			return Outcome{Kind: KindRetry}
		}
		claimed = cl
	}
	if !claimed {
		sp.Event("defer", "another thread querying")
		return c.parkAndWait(ref, view, req.Write, avoid, sp)
	}

	// The claim obliges us to query Vq, even should a holder turn up
	// while we park.
	waitCh, out, st := c.park(ref, view, req.Write, avoid)
	sp.Event("park", "")
	c.broadcast(ref, view.Vq, req.Write, sp)
	switch st {
	case parkHeld:
		return out
	case parkFull:
		// Queue full: the client pays the full delay (Section III-B1).
		sp.Event("respq.full", "")
		return Outcome{Kind: KindWait, Millis: c.fullDelayMillis()}
	}
	return c.await(waitCh, avoid, sp)
}

// notFound resolves the "file does not exist" verdict. For creation,
// non-existence is the green light: pick a target by the write policy
// and optimistically record the location (step "mitigating timeout
// delays" — the create path).
func (c *Core) notFound(path string, vm bitvec.Vec, req Request, sp *obs.Span) Outcome {
	if !req.Create {
		return Outcome{Kind: KindNoEnt}
	}
	idx, ok := c.table.Select(vm, c.cfg.WritePolicy)
	if !ok {
		return Outcome{Kind: KindNoEnt}
	}
	m, ok := c.table.Member(idx)
	if !ok {
		return Outcome{Kind: KindNoEnt}
	}
	// Optimistically record the impending location so the next client
	// finds it without a full delay. The update detaches any
	// fast-response tokens from the object, so the waiters behind them —
	// clients that deferred moments before the deadline lapsed — must be
	// released at the creation target here. Dropping the result instead
	// left them parked until guard-window expiry, paying the full delay
	// the optimistic record exists to avoid (found by the detsim sweep;
	// see TestCreateReleasesParkedWaiters).
	sp.Event("create", m.DataAddr)
	if res, ok := c.cache.Update(path, names.Hash(path), idx, false, true); ok {
		if res.ReadWaiters != 0 {
			c.queue.Release(res.ReadWaiters, idx, false)
		}
		if res.WriteWaiters != 0 {
			c.queue.Release(res.WriteWaiters, idx, false)
		}
	}
	return Outcome{Kind: KindRedirect, Index: idx, Addr: m.DataAddr, CtlAddr: ctlIfRedirector(m)}
}

// redirectFrom selects among the view's holders, never vectoring at the
// avoid index (the host the client just reported as failing, Section
// III-C1). done=false means no eligible online holder exists and
// resolution must continue.
func (c *Core) redirectFrom(view cache.View, write bool, avoid int) (Outcome, bool) {
	policy := c.cfg.ReadPolicy
	if write {
		policy = c.cfg.WritePolicy
	}
	vh := view.Vh.Minus(bitvec.Bit(avoid))
	vp := view.Vp.Minus(bitvec.Bit(avoid))
	if !vh.IsEmpty() {
		if idx, ok := c.table.Select(vh, policy); ok {
			if m, mok := c.table.Member(idx); mok {
				return Outcome{Kind: KindRedirect, Index: idx, Addr: m.DataAddr, CtlAddr: ctlIfRedirector(m)}, true
			}
		}
	}
	if !vp.IsEmpty() {
		if idx, ok := c.table.Select(vp, policy); ok {
			if m, mok := c.table.Member(idx); mok {
				return Outcome{Kind: KindRedirect, Index: idx, Addr: m.DataAddr, CtlAddr: ctlIfRedirector(m), Pending: true}, true
			}
		}
	}
	return Outcome{}, false
}

func ctlIfRedirector(m cluster.Member) string {
	if m.Role == proto.RoleSupervisor {
		return m.CtlAddr
	}
	return ""
}

// parkState says how park left the caller.
type parkState int

const (
	// parked: the waiter sits on a response-queue entry the object's
	// next positive response releases.
	parked parkState = iota
	// parkFull: the queue is full (or the reference went stale); the
	// client pays the full delay (Section III-B1).
	parkFull
	// parkHeld: a holder appeared while parking; the caller answers with
	// the redirect park returned instead of waiting.
	parkHeld
)

// park adds a waiter for ref to the fast response queue, joining the
// existing entry when one is live, and returns the channel the outcome
// arrives on. view is what the caller's failed selection saw. A fresh
// entry is installed only while the object has no holder outside that
// view: a positive response landing after the view was read has already
// detached and released the object's token, so an entry installed after
// it would be released by nothing and expire into the full delay. When
// such a holder appears, park re-selects and returns the redirect.
func (c *Core) park(ref cache.Ref, view cache.View, write bool, avoid int) (chan respq.Result, Outcome, parkState) {
	ch := make(chan respq.Result, 2)
	w := func(r respq.Result) {
		select {
		case ch <- r:
		default: // double delivery from a lost swap race; drop
		}
	}
	seen := view.Vh.Union(view.Vp)
	var ntok uint64 // our own entry once allocated, reused across retries
	for {
		tok, cur, ok := c.cache.Waiters(ref, write)
		if !ok {
			return ch, Outcome{}, parkFull
		}
		if !cur.Vh.Union(cur.Vp).Minus(seen).IsEmpty() {
			if out, done := c.redirectFrom(cur, write, avoid); done {
				if ntok != 0 {
					// Our uninstalled entry has nobody to answer: the
					// caller takes the redirect instead.
					c.queue.Withdraw(ntok)
				}
				return ch, out, parkHeld
			}
			seen = cur.Vh.Union(cur.Vp) // the new holders cannot serve this client
		}
		if tok != 0 && c.queue.Join(tok, w) {
			if ntok != 0 {
				// We lost the install race: w now waits on the winner's
				// entry, and ours, never published, would only expire.
				c.queue.Withdraw(ntok)
			}
			return ch, Outcome{}, parked
		}
		if ntok == 0 {
			var err error
			if ntok, err = c.queue.NewEntry(w); err != nil {
				return ch, Outcome{}, parkFull
			}
		}
		if c.cache.SwapWaiters(ref, write, tok, ntok, seen) {
			return ch, Outcome{}, parked
		}
		// Another thread installed an entry, or a response landed:
		// re-read and join or re-select.
	}
}

// parkAndWait parks and blocks for the outcome (deferral path).
func (c *Core) parkAndWait(ref cache.Ref, view cache.View, write bool, avoid int, sp *obs.Span) Outcome {
	ch, out, st := c.park(ref, view, write, avoid)
	switch st {
	case parkHeld:
		sp.Event("park.held", "")
		return out
	case parkFull:
		sp.Event("respq.full", "")
		return Outcome{Kind: KindWait, Millis: c.fullDelayMillis()}
	}
	sp.Event("park", "")
	return c.await(ch, avoid, sp)
}

// await converts the fast-response outcome into a client answer. A
// release naming the avoided host (possible when a stale in-flight
// response from it lands mid-refresh) is answered with a wait instead —
// the client must never be re-vectored at the host it just reported.
func (c *Core) await(ch chan respq.Result, avoid int, sp *obs.Span) Outcome {
	if c.cfg.OnAwait != nil {
		c.cfg.OnAwait()
	}
	select {
	case r := <-ch:
		if r.Expired {
			sp.Event("respq.expired", "")
			return Outcome{Kind: KindWait, Millis: c.fullDelayMillis()}
		}
		if sp != nil {
			sp.Event("respq.release", fmt.Sprintf("server %d", r.Server))
		}
		if r.Server == avoid {
			return Outcome{Kind: KindWait, Millis: c.fullDelayMillis()}
		}
		m, ok := c.table.Member(r.Server)
		if !ok {
			return Outcome{Kind: KindWait, Millis: c.fullDelayMillis()}
		}
		return Outcome{Kind: KindRedirect, Index: r.Server, Addr: m.DataAddr,
			CtlAddr: ctlIfRedirector(m), Pending: r.Pending}
	case <-c.stop:
		return Outcome{Kind: KindWait, Millis: c.fullDelayMillis()}
	}
}

// broadcast sends a location query to every online subordinate in vq
// and marks the successfully queried ones off the object's Vq (step 6).
func (c *Core) broadcast(ref cache.Ref, vq bitvec.Vec, write bool, sp *obs.Span) {
	fnp := c.sendQuery.Load()
	if fnp == nil {
		return
	}
	fn := *fnp
	q := proto.Query{QID: c.NextQID(), Path: ref.Name(), Hash: ref.Hash(), Write: write}
	online := c.table.OnlineVec()
	var queried bitvec.Vec
	vq.Intersect(online).ForEach(func(i int) bool {
		if fn(i, q) {
			queried = queried.With(i)
		}
		return true
	})
	if !queried.IsEmpty() {
		c.cache.MarkQueried(ref, queried)
		c.reg.Counter("resolve.queries").Add(int64(queried.Count()))
		c.noteFlood(q.QID, ref.Name(), write, queried)
	}
	if sp != nil {
		sp.Event("flood", fmt.Sprintf("queried %d of %d", queried.Count(), vq.Count()))
	}
}

// noteFlood registers an outstanding broadcast for MemberDown's re-flood
// scan, pruning entries whose deadline already passed. Pruning pops only
// the expired prefix of the issue-order ledger, so its cost is amortised
// O(1) per flood however many unanswered floods are outstanding.
func (c *Core) noteFlood(qid uint64, path string, write bool, queried bitvec.Vec) {
	c.inflightMu.Lock()
	now := c.cfg.Clock.Now() // under the lock: deadlines enter in order
	for ; c.floodHead < len(c.floods); c.floodHead++ {
		id := c.floods[c.floodHead]
		if f, ok := c.inflight[id]; ok {
			if !now.After(f.deadline) {
				break
			}
			delete(c.inflight, id)
		}
	}
	if c.floodHead > len(c.floods)/2 {
		// Compact once the popped prefix is at least half the slice, so
		// each QID is copied O(1) times on average.
		c.floods = c.floods[:copy(c.floods, c.floods[c.floodHead:])]
		c.floodHead = 0
	}
	c.inflight[qid] = inflightFlood{
		path: path, write: write, queried: queried,
		deadline: now.Add(c.cfg.FullDelay),
	}
	c.floods = append(c.floods, qid)
	c.inflightMu.Unlock()
}

// MemberDown reacts to the loss of subordinate index while queries to it
// may still be outstanding: every live flood that included it is
// re-issued against the corrected Vq (the dead member's bits have moved
// back into Vq via the offline set, and members that were unreachable at
// first flood are still there). Without this, a member that dies holding
// the only copy of an answer silently costs each parked client the full
// five-second delay; with it, surviving holders get a second chance to
// answer inside the window. The cluster layer invokes it via OnOffline.
func (c *Core) MemberDown(index int) {
	now := c.cfg.Clock.Now()
	c.inflightMu.Lock()
	var hit []qidFlood
	for id, f := range c.inflight {
		if now.After(f.deadline) {
			delete(c.inflight, id)
			continue
		}
		if f.queried.Has(index) {
			hit = append(hit, qidFlood{id, f})
			delete(c.inflight, id)
		}
	}
	c.inflightMu.Unlock()
	refloodOrdered(hit)
	for _, qf := range hit {
		c.reflood(qf.f, index, "member.down")
	}
}

// qidFlood pairs an inflight flood with its query ID so the re-flood
// passes can order their work deterministically.
type qidFlood struct {
	qid uint64
	f   inflightFlood
}

// refloodOrdered sorts re-flood work by query ID. Go's map iteration
// order would otherwise make the re-broadcast sequence — and with it the
// selection and RNG draw order downstream — differ from run to run,
// which the deterministic harness's replay guarantee cannot tolerate.
func refloodOrdered(hit []qidFlood) {
	sort.Slice(hit, func(i, j int) bool { return hit[i].qid < hit[j].qid })
}

// MemberUp reacts to subordinate index (re)joining while floods are in
// flight: every live flood is re-issued, because the corrected Vq now
// includes the newcomer (its connect epoch C[i] exceeds each cached
// object's Cn) plus any member the first flood could not reach. This is
// how a server that crashes and returns within the processing deadline
// — or joins for the first time mid-flood — still answers parked
// clients instead of leaving them to the full-delay fallback. The node
// layer calls it once the child's query link is installed.
func (c *Core) MemberUp(index int) {
	now := c.cfg.Clock.Now()
	c.inflightMu.Lock()
	var hit []qidFlood
	for id, f := range c.inflight {
		delete(c.inflight, id)
		if now.After(f.deadline) {
			continue
		}
		hit = append(hit, qidFlood{id, f})
	}
	c.inflightMu.Unlock()
	refloodOrdered(hit)
	for _, qf := range hit {
		c.reflood(qf.f, index, "member.up")
	}
}

// FloodInfo describes one outstanding query broadcast for invariant
// checking: the deterministic harness asserts that at most one live
// flood exists per path inside the processing deadline.
type FloodInfo struct {
	QID      uint64
	Path     string
	Write    bool
	Queried  bitvec.Vec
	Deadline time.Time
}

// InflightFloods returns a snapshot of the outstanding query broadcasts,
// sorted by QID. Entries whose deadline has already passed may linger
// until the next flood prunes them; callers filter by Deadline.
func (c *Core) InflightFloods() []FloodInfo {
	c.inflightMu.Lock()
	out := make([]FloodInfo, 0, len(c.inflight))
	for id, f := range c.inflight {
		out = append(out, FloodInfo{QID: id, Path: f.path, Write: f.write,
			Queried: f.queried, Deadline: f.deadline})
	}
	c.inflightMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].QID < out[j].QID })
	return out
}

// reflood re-broadcasts one interrupted query flood.
func (c *Core) reflood(f inflightFlood, index int, why string) {
	sp := c.tracer.Start("reflood", f.path)
	if sp != nil {
		sp.Event(why, fmt.Sprintf("server %d", index))
	}
	vm := c.table.VmFor(f.path)
	if vm.IsEmpty() {
		sp.End("no exporters")
		return
	}
	ref, view, ok := c.cache.Fetch(f.path, vm, c.table.OfflineVec())
	if !ok {
		sp.End("name evicted")
		return
	}
	c.reg.Counter("resolve.refloods").Inc()
	c.broadcast(ref, view.Vq, f.write, sp)
	sp.End("reflooded")
}

// HandleHave processes a positive response from subordinate index: it
// updates the cache (names and hash are passed straight through, no
// rehash) and releases any fast-response waiters (Section III-B1). It
// returns the number of waiters released, which the deterministic
// harness uses to collect exactly that many resolution completions.
func (c *Core) HandleHave(index int, h proto.Have) int {
	c.reg.Counter("resolve.haves").Inc()
	if h.QID != 0 {
		// The flood got an answer; MemberDown need not re-issue it.
		c.inflightMu.Lock()
		delete(c.inflight, h.QID)
		c.inflightMu.Unlock()
	}
	sp := c.tracer.Start("have", h.Path)
	res, ok := c.cache.Update(h.Path, h.Hash, index, h.Pending, h.CanWrite)
	if !ok {
		sp.End("dropped (name not cached)")
		return 0 // response for an evicted or unknown name; drop
	}
	released := 0
	if res.ReadWaiters != 0 {
		released += c.queue.Release(res.ReadWaiters, index, h.Pending)
	}
	if res.WriteWaiters != 0 {
		released += c.queue.Release(res.WriteWaiters, index, h.Pending)
	}
	if sp != nil {
		sp.End(fmt.Sprintf("server %d pending=%v", index, h.Pending))
	}
	return released
}

// Prepare spawns a background resolution per path (Section III-B2).
// Each suffers its own full delay internally, but the caller returns
// immediately, so a bulk workload pays at most one externally visible
// delay.
func (c *Core) Prepare(paths []string, write bool) uint32 {
	for _, p := range paths {
		go c.Resolve(Request{Path: p, Write: write})
	}
	return uint32(len(paths))
}

// indexByAddr maps a data address back to a member index, or -1.
func (c *Core) indexByAddr(addr string) int {
	if addr == "" {
		return -1
	}
	for _, m := range c.table.Members() {
		if m.DataAddr == addr {
			return m.Index
		}
	}
	return -1
}
