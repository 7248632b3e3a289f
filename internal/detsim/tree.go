package detsim

// tree.go is the simulation engine: a real cmsd.Core per redirector
// (manager → supervisor → supervisor), simulated data servers at the
// leaves, one discrete-event scheduler and one seeded RNG owning every
// nondeterministic choice.
//
//   - Resolutions exist at every level. A client operation is a walk:
//     resolve at the root, follow the redirect to a child supervisor,
//     resolve there, and so on until a leaf core vectors it at a data
//     server. Each hop is a scheduler event, so hop counts and
//     messages-per-resolve are measured, not assumed. In a flat cell
//     the root is the leaf and every walk is one hop.
//   - A Query delivered to a supervisor spawns a query proc: an async
//     resolve on that supervisor's core (exactly node.go's handleQuery),
//     whose outcome — if and only if it is a redirect — travels back up
//     as a Have echoing the parent's QID. Silence otherwise.
//   - A Query delivered to a data server is answered synchronously: an
//     online copy is a definitive Have, a mass-storage copy a pending
//     Have plus a staging request whose completion is a scheduled
//     event, silence otherwise.
//   - Depth-aware deadlines run through the production path: each
//     core's cmsd.Config.Levels is its redirector height, so the root's
//     processing deadline covers the whole subtree (Section III-C1).
//   - Manager restart is modeled: the root core closes (parked clients
//     get the full-delay wait through the production stop path), a
//     fresh core replaces it, and the root's children re-login
//     staggered by slot index over rejoinSpread — the bounded
//     re-subscription storm of node.go's parentLoop.
//
// All RNG and event-heap access happens either on the scheduler
// goroutine or on a resolution goroutine while the scheduler is blocked
// on that goroutine's handshake, so a seed fully determines the run and
// the trace hash is the replay assertion.

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"scalla/internal/cache"
	"scalla/internal/cluster"
	"scalla/internal/cmsd"
	"scalla/internal/faults"
	"scalla/internal/names"
	"scalla/internal/obs"
	"scalla/internal/proto"
	"scalla/internal/respq"
	"scalla/internal/store"
	"scalla/internal/vclock"
)

// ---------------------------------------------------------------------
// Topology.

// child is one slot of a redirector's subordinate set: a child
// supervisor or a data server.
type child struct {
	sup *redirector
	srv *server
}

// redirector is one redirector node: a real cmsd.Core plus the tree
// wiring around it.
type redirector struct {
	id    int // global order for deterministic iteration; 0 = root
	level int // 0 = root
	name  string

	core *cmsd.Core
	gen  uint64 // bumped when the core is replaced (root restart)

	parent *redirector
	pidx   int  // member index in the parent's table
	joined bool // logged into the parent (false mid restart storm)

	byIndex map[int]*child // member index → child
	parked  int            // procs currently parked on this core
}

// server is one simulated data server: a real store, no goroutine —
// query handling is an atomic scheduler sub-step.
type server struct {
	id     int
	name   string
	leaf   *redirector
	idx    int  // member index in the leaf's table
	joined bool // logged into the leaf (false mid root restart storm)
	online bool
	gen    uint64 // bumped per crash/restart; kills in-flight frames
	st     *store.Store
}

// fileModel is the ground truth the harness validates redirects
// against: which servers (by stable id) hold the file online and which
// only in mass storage.
type fileModel struct {
	exists bool
	online map[int]bool
	mss    map[int]bool
}

func newFileModel() *fileModel {
	return &fileModel{online: make(map[int]bool), mss: make(map[int]bool)}
}

func fileContent(path string) []byte { return []byte("data:" + path) }

// stageKey identifies one in-flight stage for the Vp service fence.
type stageKey struct {
	sv   *server
	path string
}

// ---------------------------------------------------------------------
// Procs: one resolution in flight on some core.

const (
	procIdle = iota
	procParked
	procDone
)

const (
	procClient = iota // a client walk step
	procQuery         // a supervisor answering its parent's Query
)

// proc is one resolution process. Client procs walk the tree; query
// procs live and die on a single core and report upward via Have.
type proc struct {
	id    int
	kind  int
	state int
	at    *redirector // core the current resolve runs on

	// Client-walk fields.
	ops          []op
	cur          int
	attempts     int
	hops         int
	opStart      time.Time
	forceRefresh bool // next root attempt carries Refresh (stale walk)

	// Query-proc fields.
	qid    uint64 // parent QID to echo upward
	path   string
	hash   uint32
	parent *redirector
	egen   uint64 // at's core generation at spawn
	pgen   uint64 // parent's core generation at spawn
}

// op is one client operation.
type op struct {
	kind    string // "read", "create", "write", "refresh"
	path    string
	write   bool
	create  bool
	refresh bool
}

// doneMsg is one finished resolution, reported back to the scheduler.
type doneMsg struct {
	p   *proc
	out cmsd.Outcome
}

// ---------------------------------------------------------------------
// Events.

type evKind int

const (
	evClientOp   evKind = iota // start or retry one client walk step
	evQuery                    // deliver a Query to a supervisor or server
	evHave                     // deliver a Have to a redirector
	evRespqTick                // fast-response clock, all cores
	evCacheTick                // cache window tick, all cores
	evCrash                    // server crash
	evRestart                  // server restart
	evDrop                     // drop-delay lapse for an offline slot
	evStage                    // a staging request completes
	evMgrRestart               // root core restart
	evLogin                    // a root child's re-login after a restart
)

// event is one scheduled occurrence. The heap orders by (due, seq), so
// ties break in scheduling order and the execution is a total order.
type event struct {
	due  time.Time
	seq  uint64
	kind evKind

	p     *proc
	toR   *redirector
	fromR *redirector
	srv   *server // a data server's end of the link (query target, Have source)
	q     proto.Query
	have  proto.Have
	hIdx  int    // member index the Have claims to come from
	egen  uint64 // receiving core generation at send time
	sgen  uint64 // server connection generation at send time
	idx   int    // table index for evDrop
	dgen  uint64 // cluster generation for evDrop
	path  string // for evStage
}

type evHeap []*event

func (h evHeap) Len() int { return len(h) }
func (h evHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h evHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *evHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *evHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// ---------------------------------------------------------------------
// The simulation.

// sim is one running simulation. All fields are owned by the scheduler
// goroutine; resolution goroutines touch shared state only while the
// scheduler is blocked on their handshake.
type sim struct {
	cfg   Config
	rng   *rand.Rand
	clk   *vclock.Fake
	epoch time.Time

	levels  int // redirector levels
	root    *redirector
	reds    []*redirector // all redirectors, by id (root first)
	servers []*server
	clients []*proc
	files   map[string]*fileModel
	nextPID int

	eq  evHeap
	seq uint64

	awaitCh chan struct{} // park handshake from cmsd.Config.OnAwait
	// done carries finished resolutions. Its buffer lets a released
	// resolution finish without waiting for the scheduler, which counts
	// completions by the ledger rather than pacing them.
	done chan doneMsg

	trace *obs.TraceHash
	steps int

	// checkEvery runs the full per-core invariant scan every N scheduler
	// steps (always at the end): every step in small trees, every 64th
	// in large ones so the scan does not dominate the run.
	checkEvery int
	// maxOpTime bounds one client operation end to end: 12 root
	// deadlines (a strict-mode deep create pays roughly the triangular
	// sum of the per-level deadlines).
	maxOpTime time.Duration

	// refreshGuard records, per path, until when a client-forced
	// refresh at the root may coexist with an earlier live flood.
	refreshGuard map[string]time.Time
	rootDeadline time.Duration // fullDelay × levels
	// staging holds the stages requested but not yet completed — the
	// harness's Vp interval. Invariant 4 asserts no store serves bytes
	// for a (server, path) inside it.
	staging map[stageKey]bool

	opsLeft    int
	violations []string
	abort      bool
	endTime    time.Time

	opLat  []time.Duration
	opHops []int

	nRedirects, nWaits, nNoEnts, nRetries int
	nQueries, nHaves                      int64
	nCrashed, nStaged, nMgrRestarts       int
}

func newSim(cfg Config) *sim {
	s := &sim{
		cfg:          cfg,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		clk:          vclock.NewFake(),
		files:        make(map[string]*fileModel),
		awaitCh:      make(chan struct{}),
		done:         make(chan doneMsg, 4096),
		trace:        obs.NewTraceHash(),
		refreshGuard: make(map[string]time.Time),
		staging:      make(map[stageKey]bool),
		checkEvery:   1,
	}
	if cfg.Servers >= 512 {
		s.checkEvery = 64
	}
	s.epoch = s.clk.Now()
	s.endTime = s.epoch.Add(maxSimTime)
	s.buildTree()
	s.rootDeadline = fullDelay * time.Duration(s.levels)
	s.maxOpTime = 12 * s.rootDeadline
	s.tracef("init seed=%d servers=%d fanout=%d levels=%d cores=%d clients=%d ops=%d paths=%d faults=%v crashes=%d mgrRestarts=%d",
		cfg.Seed, cfg.Servers, cfg.Fanout, s.levels, len(s.reds),
		cfg.Clients, cfg.OpsPerClient, cfg.Paths, cfg.Plan.Active(),
		cfg.Crashes, cfg.ManagerRestarts)
	s.preload()
	s.buildClients()
	s.scheduleBackground()
	return s
}

// newCore builds one redirector core at the given height (1 = leaf)
// and installs its query sender.
func (s *sim) newCore(r *redirector, height int) *cmsd.Core {
	core := cmsd.NewCore(cmsd.Config{
		Manual:    true,
		OnAwait:   func() { s.awaitCh <- struct{}{} },
		FullDelay: fullDelay,
		Levels:    height,
		Clock:     s.clk,
		Cache: cache.Config{
			Lifetime:       lifetime,
			Shards:         4,
			InitialBuckets: 64,
			SyncSweep:      true,
		},
		Queue:   respq.Config{Slots: slots, Period: period},
		Cluster: cluster.Config{DropDelay: dropDelay, Capacity: s.cfg.Fanout},
	})
	gen := r.gen
	core.SetQuerySender(func(index int, q proto.Query) bool {
		return s.sendQuery(r, gen, index, q)
	})
	return core
}

// buildTree constructs the redirector levels (widths computed bottom-up
// exactly like StartCluster) and logs every node into its parent. Up to
// Fanout servers log straight into the root: a depth-1 tree.
func (s *sim) buildTree() {
	var widths []int
	for n := s.cfg.Servers; n > s.cfg.Fanout; {
		n = (n + s.cfg.Fanout - 1) / s.cfg.Fanout
		widths = append([]int{n}, widths...)
	}
	s.levels = len(widths) + 1

	s.root = &redirector{id: 0, name: "root", pidx: -1, byIndex: make(map[int]*child)}
	s.root.core = s.newCore(s.root, s.levels)
	s.reds = []*redirector{s.root}

	parents := []*redirector{s.root}
	for li, w := range widths {
		level := li + 1
		next := make([]*redirector, 0, w)
		for i := 0; i < w; i++ {
			r := &redirector{
				id:      len(s.reds),
				level:   level,
				name:    fmt.Sprintf("sup%d-%d", level, i),
				parent:  parents[i%len(parents)],
				byIndex: make(map[int]*child),
			}
			r.core = s.newCore(r, s.levels-level)
			s.loginSup(r)
			s.reds = append(s.reds, r)
			next = append(next, r)
		}
		parents = next
	}

	for i := 0; i < s.cfg.Servers; i++ {
		sv := &server{
			id:     i,
			name:   fmt.Sprintf("s%d", i),
			leaf:   parents[i%len(parents)],
			online: true,
			st:     store.New(store.Config{Clock: s.clk}),
		}
		s.loginServer(sv)
		s.servers = append(s.servers, sv)
	}
}

// loginSup registers supervisor r with its parent's table.
func (s *sim) loginSup(r *redirector) {
	idx, _, err := r.parent.core.Table().Login(cluster.Member{
		Name:     r.name,
		Role:     proto.RoleSupervisor,
		DataAddr: r.name + ":data",
		CtlAddr:  r.name + ":ctl",
		Prefixes: names.NewPrefixSet("/"),
		Free:     1 << 40,
	})
	if err != nil {
		panic(fmt.Sprintf("detsim: login %s: %v", r.name, err))
	}
	r.pidx = idx
	r.joined = true
	r.parent.byIndex[idx] = &child{sup: r}
}

// loginServer (re-)registers server sv with its leaf's table and fixes
// the index mapping (a post-drop re-login may land in a new slot).
func (s *sim) loginServer(sv *server) {
	idx, _, err := sv.leaf.core.Table().Login(cluster.Member{
		Name:     sv.name,
		Role:     proto.RoleServer,
		DataAddr: sv.name + ":data",
		Prefixes: names.NewPrefixSet("/"),
		Free:     sv.st.Free(),
	})
	if err != nil {
		panic(fmt.Sprintf("detsim: login %s: %v", sv.name, err))
	}
	if old, ok := sv.leaf.byIndex[sv.idx]; ok && old.srv == sv && sv.idx != idx {
		delete(sv.leaf.byIndex, sv.idx)
	}
	sv.idx = idx
	sv.joined = true
	sv.leaf.byIndex[idx] = &child{srv: sv}
}

// preload places the namespace: a quarter of the paths do not exist;
// each existing one has one or two holders, each of which holds it
// online or — three times in ten — only in mass storage, to be staged
// on first query.
func (s *sim) preload() {
	for i := 0; i < s.cfg.Paths; i++ {
		path := fmt.Sprintf("/data/f%02d", i)
		fm := newFileModel()
		s.files[path] = fm
		if s.rng.Float64() >= 0.75 {
			continue
		}
		fm.exists = true
		holders := s.rng.Perm(s.cfg.Servers)[:1+s.rng.Intn(2)]
		sort.Ints(holders)
		for _, h := range holders {
			sv := s.servers[h]
			if s.rng.Float64() < 0.3 {
				sv.st.PutOffline(path, fileContent(path))
				fm.mss[h] = true
				continue
			}
			if err := sv.st.Put(path, fileContent(path)); err != nil {
				panic(err)
			}
			fm.online[h] = true
		}
	}
}

func (s *sim) buildClients() {
	for c := 0; c < s.cfg.Clients; c++ {
		p := &proc{id: s.nextPID, kind: procClient, at: s.root}
		s.nextPID++
		for k := 0; k < s.cfg.OpsPerClient; k++ {
			p.ops = append(p.ops, s.drawOp(c, k))
		}
		s.clients = append(s.clients, p)
		s.opsLeft += len(p.ops)
		s.schedule(s.epoch.Add(s.jitter(50*time.Millisecond)),
			&event{kind: evClientOp, p: p})
	}
}

func (s *sim) drawOp(client, k int) op {
	r := s.rng.Float64()
	switch {
	case r < 0.55:
		return op{kind: "read", path: s.somePath()}
	case r < 0.70:
		return op{kind: "create", path: fmt.Sprintf("/new/c%d-n%d", client, k),
			write: true, create: true}
	case r < 0.80:
		return op{kind: "write", path: s.somePath(), write: true}
	default:
		return op{kind: "refresh", path: s.somePath(), refresh: true}
	}
}

func (s *sim) somePath() string {
	return fmt.Sprintf("/data/f%02d", s.rng.Intn(s.cfg.Paths))
}

func (s *sim) scheduleBackground() {
	s.schedule(s.epoch.Add(period), &event{kind: evRespqTick})
	s.schedule(s.epoch.Add(lifetime/64), &event{kind: evCacheTick})
	for k := 0; k < s.cfg.Crashes; k++ {
		sv := s.servers[s.rng.Intn(s.cfg.Servers)]
		at := s.epoch.Add(500*time.Millisecond + s.jitter(10*time.Second))
		s.schedule(at, &event{kind: evCrash, srv: sv})
		s.schedule(at.Add(restartDelay), &event{kind: evRestart, srv: sv})
	}
	for k := 0; k < s.cfg.ManagerRestarts; k++ {
		at := s.epoch.Add(time.Second + s.jitter(10*time.Second))
		s.schedule(at, &event{kind: evMgrRestart})
	}
}

// run is the scheduler loop: pop the next event, advance the one clock
// to its due time, execute it, then model-check the world.
func (s *sim) run() Result {
	for len(s.eq) > 0 && !s.abort {
		ev := heap.Pop(&s.eq).(*event)
		if ev.due.After(s.endTime) {
			s.tracef("sim: time limit reached")
			break
		}
		s.clk.AdvanceTo(ev.due)
		s.steps++
		s.exec(ev)
		if s.steps%s.checkEvery == 0 {
			s.checkInvariants()
		}
	}
	s.checkInvariants()
	return s.finish()
}

func (s *sim) exec(ev *event) {
	switch ev.kind {
	case evClientOp:
		s.stepClient(ev.p)
	case evQuery:
		if ev.srv != nil {
			s.deliverServerQuery(ev)
		} else {
			s.deliverSupQuery(ev)
		}
	case evHave:
		s.deliverHave(ev)
	case evRespqTick:
		for _, r := range s.reds {
			before := s.ledger(r)
			if n := r.core.Queue().ExpireNow(); n > 0 {
				s.tracef("t=%d respq expire %s waiters=%d", s.us(), r.name, n)
			}
			s.collectReleased(r, before)
			if s.abort {
				return
			}
		}
		if s.opsLeft > 0 {
			s.schedule(s.clk.Now().Add(period), &event{kind: evRespqTick})
		}
	case evCacheTick:
		for _, r := range s.reds {
			r.core.Cache().Tick()
		}
		if s.opsLeft > 0 {
			s.schedule(s.clk.Now().Add(lifetime/64), &event{kind: evCacheTick})
		}
	case evCrash:
		s.crashServer(ev.srv)
	case evRestart:
		s.restartServer(ev.srv)
	case evDrop:
		s.tracef("t=%d drop-delay lapsed %s idx=%d gen=%d", s.us(), ev.toR.name, ev.idx, ev.dgen)
		ev.toR.core.Table().MaybeDrop(ev.idx, ev.dgen)
	case evStage:
		s.stageDone(ev.srv, ev.path)
	case evMgrRestart:
		s.restartManager()
	case evLogin:
		s.execLogin(ev)
	}
}

// ---------------------------------------------------------------------
// Query transmission and delivery.

// sendQuery is the QuerySender for redirector r: it validates the link
// and schedules the delivery event after a latency/fault draw. It runs
// either on the scheduler goroutine (refloods) or on a resolving
// goroutine while the scheduler is blocked on its handshake.
func (s *sim) sendQuery(r *redirector, gen uint64, index int, q proto.Query) bool {
	if gen != r.gen {
		return false // a replaced core's flood; the link died with it
	}
	c := r.byIndex[index]
	if c == nil {
		return false
	}
	if c.sup != nil {
		if !c.sup.joined {
			return false
		}
		s.nQueries++
		s.enqueue(&event{kind: evQuery, toR: c.sup, fromR: r, q: q, egen: r.gen})
		return true
	}
	if !c.srv.online {
		return false
	}
	s.nQueries++
	s.enqueue(&event{kind: evQuery, srv: c.srv, fromR: r, q: q, egen: r.gen, sgen: c.srv.gen})
	return true
}

// enqueue applies the fault plan and a latency draw, then schedules the
// delivery.
func (s *sim) enqueue(ev *event) {
	dec, extra := faults.PassThrough, time.Duration(0)
	if s.cfg.Plan.Active() {
		dec, extra = s.cfg.Plan.Decide(s.rng)
	}
	switch dec {
	case faults.DropFrame:
		s.tracef("t=%d fault drop kind=%d", s.us(), ev.kind)
		return
	case faults.DupFrame:
		s.tracef("t=%d fault dup kind=%d", s.us(), ev.kind)
		dup := *ev
		s.schedule(s.clk.Now().Add(s.latency()), ev)
		s.schedule(s.clk.Now().Add(s.latency()), &dup)
		return
	case faults.DelayFrame:
		s.tracef("t=%d fault delay kind=%d by=%dus", s.us(), ev.kind, extra.Microseconds())
		s.schedule(s.clk.Now().Add(s.latency()+extra), ev)
		return
	case faults.ReorderFrame:
		// An adjacent swap in a discrete-event world: push the frame one
		// extra latency draw into the future so later traffic overtakes it.
		s.tracef("t=%d fault reorder kind=%d", s.us(), ev.kind)
		s.schedule(s.clk.Now().Add(s.latency()+s.latency()), ev)
		return
	}
	s.schedule(s.clk.Now().Add(s.latency()), ev)
}

// deliverServerQuery answers a Query at a data server exactly like a
// real one: an online copy is a definitive Have, a mass-storage copy a
// pending Have plus a staging request, silence otherwise.
func (s *sim) deliverServerQuery(ev *event) {
	sv := ev.srv
	if ev.egen != sv.leaf.gen || ev.sgen != sv.gen || !sv.online {
		s.tracef("t=%d query qid=%d -> %s dropped (conn gone)", s.us(), ev.q.QID, sv.name)
		return
	}
	s.tracef("t=%d query qid=%d -> %s", s.us(), ev.q.QID, sv.name)
	pending := false
	switch {
	case sv.st.HasOnline(ev.q.Path):
	case sv.st.Has(ev.q.Path):
		pending = true
		s.requestStage(sv, ev.q.Path)
	default:
		return
	}
	s.nHaves++
	s.enqueue(&event{
		kind: evHave, toR: sv.leaf, srv: sv, hIdx: sv.idx,
		have: proto.Have{QID: ev.q.QID, Path: ev.q.Path, Hash: ev.q.Hash,
			Pending: pending, CanWrite: true},
		egen: sv.leaf.gen, sgen: sv.gen,
	})
}

// requestStage schedules the staging completion for (sv, path) unless
// one is already under way. The real store spawns a clock-sleeping
// goroutine for this; the harness models it as an explicit event so the
// promotion instant is a scheduler decision.
func (s *sim) requestStage(sv *server, path string) {
	k := stageKey{sv, path}
	if s.staging[k] {
		return
	}
	s.staging[k] = true
	s.schedule(s.clk.Now().Add(stageBase+s.jitter(stageBase)),
		&event{kind: evStage, srv: sv, path: path})
}

// stageDone promotes a staged file online and updates the ground truth.
func (s *sim) stageDone(sv *server, path string) {
	delete(s.staging, stageKey{sv, path})
	if err := sv.st.Put(path, fileContent(path)); err != nil {
		s.violate("stage promote failed on %s: %v", sv.name, err)
		return
	}
	s.nStaged++
	if fm := s.files[path]; fm != nil {
		delete(fm.mss, sv.id)
		fm.online[sv.id] = true
	}
	s.tracef("t=%d staged %s path=%s", s.us(), sv.name, path)
}

// deliverSupQuery spawns a query proc on the target supervisor's core —
// the discrete-event twin of node.go handleQuery's async resolve.
func (s *sim) deliverSupQuery(ev *event) {
	r := ev.toR
	if ev.egen != ev.fromR.gen || !r.joined {
		s.tracef("t=%d query qid=%d -> %s dropped (link gone)", s.us(), ev.q.QID, r.name)
		return
	}
	s.tracef("t=%d query qid=%d -> %s", s.us(), ev.q.QID, r.name)
	p := &proc{
		id: s.nextPID, kind: procQuery, at: r,
		qid: ev.q.QID, path: ev.q.Path, hash: ev.q.Hash,
		parent: ev.fromR, egen: r.gen, pgen: ev.fromR.gen,
	}
	s.nextPID++
	s.stepProc(p, cmsd.Request{Path: ev.q.Path, Write: ev.q.Write})
}

// deliverHave hands a Have to redirector r and absorbs every completion
// it released before the next scheduler decision.
func (s *sim) deliverHave(ev *event) {
	r := ev.toR
	if ev.egen != r.gen || (ev.srv != nil && ev.sgen != ev.srv.gen) {
		s.tracef("t=%d have qid=%d -> %s dropped (conn gone)", s.us(), ev.have.QID, r.name)
		return
	}
	before := s.ledger(r)
	n := r.core.HandleHave(ev.hIdx, ev.have)
	s.tracef("t=%d have qid=%d -> %s idx=%d path=%s pending=%v released=%d",
		s.us(), ev.have.QID, r.name, ev.hIdx, ev.have.Path, ev.have.Pending, n)
	s.collectReleased(r, before)
}

// ---------------------------------------------------------------------
// Proc stepping and exactly-once collection.

// ledger returns core r's cumulative delivered-waiter count — the
// scheduler's ledger for exactly-once accounting.
func (s *sim) ledger(r *redirector) int64 {
	st := r.core.Queue().Stats()
	return st.ReleasedWaiters + st.ExpiredWaiters
}

// stepProc runs one resolution attempt for p on core p.at on its own
// goroutine, blocking until it parks (OnAwait handshake) or completes.
// Completions of other procs released mid-step (the optimistic-create
// path) are collected before the scheduler moves on, so the step is
// atomic.
func (s *sim) stepProc(p *proc, req cmsd.Request) {
	r := p.at
	before := s.ledger(r)
	go func() { s.done <- doneMsg{p, r.core.Resolve(req)} }()

	var own *doneMsg
	var strays []doneMsg
	parkedHere := false
	wedge := time.After(wedgeTimeout)
	for own == nil && !parkedHere {
		select {
		case <-s.awaitCh:
			parkedHere = true
		case d := <-s.done:
			if d.p == p {
				dd := d
				own = &dd
			} else {
				strays = append(strays, d)
			}
		case <-wedge:
			s.violate("proc %d resolution wedged on %s at %s", p.id, req.Path, r.name)
			s.abort = true
			return
		}
	}
	if parkedHere {
		if len(strays) != 0 {
			s.violate("proc %d parked at %s but %d completions appeared mid-step",
				p.id, r.name, len(strays))
		}
		p.state = procParked
		r.parked++
		s.tracef("t=%d p%d parked at %s", s.us(), p.id, r.name)
		return
	}

	// The step released this many parked waiters; each is a completion
	// the scheduler must absorb before the next decision.
	expect := int(s.ledger(r) - before)
	for len(strays) < expect {
		select {
		case d := <-s.done:
			strays = append(strays, d)
		case <-time.After(wedgeTimeout):
			s.violate("exactly-once at %s: %d of %d completions released by p%d's step arrived",
				r.name, len(strays), expect, p.id)
			s.abort = true
			return
		}
	}
	s.applyOutcome(p, own.out)
	s.applyReleased(strays)
}

// collectReleased blocks until every completion implied by core r's
// waiter-delivery delta since before has arrived, then applies them in
// proc order. A shortfall is a lost waiter: the exactly-once violation.
func (s *sim) collectReleased(r *redirector, before int64) {
	s.collect(int(s.ledger(r)-before), "exactly-once at "+r.name)
}

// collect absorbs exactly n completions and applies them in proc order.
// The root-restart path calls it directly: there parked procs are
// released through the core's stop channel rather than the fast
// response queue, so the respq ledger does not count them.
func (s *sim) collect(n int, what string) {
	if n == 0 {
		return
	}
	msgs := make([]doneMsg, 0, n)
	wedge := time.After(wedgeTimeout)
	for len(msgs) < n {
		select {
		case d := <-s.done:
			msgs = append(msgs, d)
		case <-wedge:
			s.violate("%s: %d of %d released completions arrived", what, len(msgs), n)
			s.abort = true
			return
		}
	}
	s.applyReleased(msgs)
}

// applyReleased applies completions of parked procs in proc order.
func (s *sim) applyReleased(msgs []doneMsg) {
	sort.Slice(msgs, func(i, j int) bool { return msgs[i].p.id < msgs[j].p.id })
	for _, d := range msgs {
		if d.p.state != procParked {
			s.violate("completion for proc %d which was not parked", d.p.id)
			continue
		}
		s.applyOutcome(d.p, d.out)
	}
}

// applyOutcome routes one finished resolution: query procs report
// upward, client procs walk.
func (s *sim) applyOutcome(p *proc, out cmsd.Outcome) {
	if p.state == procParked {
		p.at.parked--
	}
	p.state = procIdle
	if p.kind == procQuery {
		s.finishQueryProc(p, out)
		return
	}
	s.finishClientAttempt(p, out)
}

// finishQueryProc implements the supervisor's half of
// request-rarely-respond: a redirect outcome compresses into one Have
// upward (echoing the parent's QID, passing Pending through); every
// other outcome is silence.
func (s *sim) finishQueryProc(p *proc, out cmsd.Outcome) {
	p.state = procDone
	if out.Kind != cmsd.KindRedirect {
		s.tracef("t=%d p%d %s silent (%d)", s.us(), p.id, p.at.name, out.Kind)
		return
	}
	if p.egen != p.at.gen || p.pgen != p.parent.gen || !p.at.joined {
		s.tracef("t=%d p%d have up dropped (link gone)", s.us(), p.id)
		return
	}
	s.nHaves++
	s.tracef("t=%d p%d %s have up qid=%d pending=%v", s.us(), p.id, p.at.name, p.qid, out.Pending)
	s.enqueue(&event{
		kind: evHave, toR: p.parent, hIdx: p.at.pidx,
		have: proto.Have{QID: p.qid, Path: p.path, Hash: p.hash,
			Pending: out.Pending, CanWrite: true},
		egen: p.parent.gen,
	})
}

// ---------------------------------------------------------------------
// Client walks.

// stepClient runs one attempt of the client's current op at its current
// tree position.
func (s *sim) stepClient(p *proc) {
	if p.state != procIdle || p.cur >= len(p.ops) {
		s.violate("client proc %d stepped in state %d", p.id, p.state)
		return
	}
	o := p.ops[p.cur]
	now := s.clk.Now()
	if p.attempts == 0 {
		p.opStart = now
		p.at = s.root
		p.hops = 0
	}
	p.attempts++
	if p.attempts > maxAttempts {
		s.violate("client proc %d livelocked on op %d (%s %s)", p.id, p.cur, o.kind, o.path)
		p.state = procDone
		s.opsLeft--
		return
	}
	req := cmsd.Request{Path: o.path, Write: o.write, Create: o.create}
	if p.at == s.root && ((o.refresh && p.attempts == 1) || p.forceRefresh) {
		// A refresh deliberately re-floods; remember so the
		// flood-uniqueness invariant tolerates the overlap.
		req.Refresh = true
		p.forceRefresh = false
		s.refreshGuard[names.Clean(o.path)] = now.Add(s.rootDeadline)
	}
	s.tracef("t=%d c%d %s %s at=%s attempt=%d", s.us(), p.id, o.kind, o.path, p.at.name, p.attempts)
	s.stepProc(p, req)
}

// finishClientAttempt applies one walk-step outcome: schedule the retry
// or the next hop, or validate and complete the operation.
func (s *sim) finishClientAttempt(p *proc, out cmsd.Outcome) {
	o := p.ops[p.cur]
	now := s.clk.Now()
	switch out.Kind {
	case cmsd.KindRetry:
		s.nRetries++
		s.tracef("t=%d c%d retry at %s", s.us(), p.id, p.at.name)
		s.schedule(now.Add(time.Millisecond), &event{kind: evClientOp, p: p})
	case cmsd.KindWait:
		s.nWaits++
		s.tracef("t=%d c%d wait %dms at %s", s.us(), p.id, out.Millis, p.at.name)
		s.schedule(now.Add(time.Duration(out.Millis)*time.Millisecond),
			&event{kind: evClientOp, p: p})
	case cmsd.KindNoEnt:
		if p.at == s.root {
			s.nNoEnts++
			s.validateNoEnt(p, o)
			s.completeOp(p, "noent", "")
			return
		}
		// A stale interior location: the file moved (or never landed)
		// under this subtree. The client's recovery is a refreshed
		// relocate at the manager (Section III-C1).
		s.tracef("t=%d c%d stale noent at %s, refreshing from root", s.us(), p.id, p.at.name)
		p.forceRefresh = true
		p.at = s.root
		s.schedule(now.Add(s.latency()), &event{kind: evClientOp, p: p})
	case cmsd.KindRedirect:
		s.nRedirects++
		c := p.at.byIndex[out.Index]
		if c == nil {
			s.violate("c%d redirected to unknown index %d at %s", p.id, out.Index, p.at.name)
			s.completeOp(p, "bad-redirect", "")
			return
		}
		p.hops++
		if c.sup != nil {
			s.tracef("t=%d c%d hop %s -> %s", s.us(), p.id, p.at.name, c.sup.name)
			p.at = c.sup
			s.schedule(now.Add(s.latency()), &event{kind: evClientOp, p: p})
			return
		}
		s.validateRedirect(p, o, c.srv)
		s.completeOp(p, "redirect", c.srv.name)
	default:
		s.violate("c%d got unknown outcome kind %d", p.id, out.Kind)
		s.completeOp(p, "unknown", "")
	}
}

func (s *sim) completeOp(p *proc, how, where string) {
	now := s.clk.Now()
	took := now.Sub(p.opStart)
	o := p.ops[p.cur]
	s.tracef("t=%d c%d %s %s done %s %s hops=%d took=%dus attempts=%d",
		s.us(), p.id, o.kind, o.path, how, where, p.hops, took.Microseconds(), p.attempts)
	if took > s.maxOpTime {
		s.violate("c%d op %d (%s %s) took %s, past the %s resolution bound",
			p.id, p.cur, o.kind, o.path, took, s.maxOpTime)
	}
	s.opLat = append(s.opLat, took)
	s.opHops = append(s.opHops, p.hops)
	p.cur++
	p.attempts = 0
	p.forceRefresh = false
	s.opsLeft--
	if p.cur >= len(p.ops) {
		p.state = procDone
		return
	}
	s.schedule(now.Add(s.jitter(20*time.Millisecond)), &event{kind: evClientOp, p: p})
}

// validateRedirect checks a final-hop redirect against the ground
// truth: the target server must be online and hold the file (online or
// staging), or be the landing site of a create.
func (s *sim) validateRedirect(p *proc, o op, sv *server) {
	if !sv.online {
		s.violate("c%d redirected to offline server %s for %s", p.id, sv.name, o.path)
		return
	}
	fm := s.files[o.path]
	if o.create && (fm == nil || !fm.exists) {
		// Creation lands here: the redirect target becomes the holder.
		if fm == nil {
			fm = newFileModel()
			s.files[o.path] = fm
		}
		if err := sv.st.Put(o.path, fileContent(o.path)); err != nil {
			s.violate("create install on %s failed: %v", sv.name, err)
			return
		}
		fm.exists = true
		fm.online[sv.id] = true
		return
	}
	if fm == nil || !fm.exists {
		s.violate("c%d redirected to %s for %s which does not exist", p.id, sv.name, o.path)
		return
	}
	if !fm.online[sv.id] && !fm.mss[sv.id] {
		s.violate("c%d redirected to %s which does not hold %s", p.id, sv.name, o.path)
	}
}

func (s *sim) validateNoEnt(p *proc, o op) {
	if !s.cfg.strict() {
		return
	}
	if o.create {
		s.violate("c%d create %s returned noent in a strict run", p.id, o.path)
		return
	}
	if fm := s.files[o.path]; fm != nil && fm.exists {
		s.violate("c%d got noent for existing file %s in a strict run", p.id, o.path)
	}
}

// ---------------------------------------------------------------------
// Churn and restart.

func (s *sim) crashServer(sv *server) {
	if !sv.online {
		s.tracef("t=%d crash %s skipped (already down)", s.us(), sv.name)
		return
	}
	sv.online = false
	sv.gen++
	s.nCrashed++
	s.tracef("t=%d crash %s", s.us(), sv.name)
	if !sv.joined {
		return // not in the (fresh) leaf table yet; nothing to disconnect
	}
	// DisconnectManual fires OnOffline synchronously → MemberDown
	// refloods on this goroutine, keeping the RNG draws ordered.
	if gen, ok := sv.leaf.core.Table().DisconnectManual(sv.idx); ok {
		s.schedule(s.clk.Now().Add(dropDelay),
			&event{kind: evDrop, toR: sv.leaf, idx: sv.idx, dgen: gen})
	}
}

func (s *sim) restartServer(sv *server) {
	if sv.online {
		s.tracef("t=%d restart %s skipped (already up)", s.us(), sv.name)
		return
	}
	sv.online = true
	sv.gen++
	s.loginServer(sv)
	s.tracef("t=%d restart %s idx=%d", s.us(), sv.name, sv.idx)
	sv.leaf.core.MemberUp(sv.idx)
}

// restartManager models a head-node process restart: the old root core
// dies (its parked procs surface through the production stop path and
// retry), a fresh core with a fresh connect epoch replaces it, and each
// child schedules its re-login staggered by old slot index over
// rejoinSpread — node.go parentLoop's bounded re-subscription storm, as
// a deterministic schedule. In a flat cell the children are the data
// servers themselves.
func (s *sim) restartManager() {
	root := s.root
	s.nMgrRestarts++
	s.tracef("t=%d manager restart (parked=%d)", s.us(), root.parked)
	root.gen++
	parked := root.parked
	root.core.Close()
	s.collect(parked, "root restart")
	if s.abort {
		return
	}

	old := root.byIndex
	root.byIndex = make(map[int]*child)
	root.core = s.newCore(root, s.levels)

	// Children re-login in old slot order: first redial after
	// reconnectDelay, plus the index-proportional jittered spread.
	idxs := make([]int, 0, len(old))
	for i := range old {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		ev := &event{kind: evLogin, egen: root.gen}
		if c := old[i]; c.sup != nil {
			c.sup.joined = false
			ev.toR = c.sup
		} else {
			c.srv.joined = false
			ev.srv = c.srv
		}
		spread := time.Duration(float64(rejoinSpread) *
			(float64(i) + s.rng.Float64()) / float64(cluster.MaxMembers))
		s.schedule(s.clk.Now().Add(reconnectDelay+spread), ev)
	}
}

// execLogin re-registers a root child with the (possibly fresh) root
// core. A server that crashed meanwhile logs in on its restart instead.
func (s *sim) execLogin(ev *event) {
	if sv := ev.srv; sv != nil {
		if ev.egen != s.root.gen || sv.joined || !sv.online {
			s.tracef("t=%d login %s skipped (stale)", s.us(), sv.name)
			return
		}
		s.loginServer(sv)
		s.tracef("t=%d login %s idx=%d", s.us(), sv.name, sv.idx)
		s.root.core.MemberUp(sv.idx)
		return
	}
	r := ev.toR
	if ev.egen != s.root.gen || r.joined {
		s.tracef("t=%d login %s skipped (stale)", s.us(), r.name)
		return
	}
	s.loginSup(r)
	s.tracef("t=%d login %s idx=%d", s.us(), r.name, r.pidx)
	s.root.core.MemberUp(r.pidx)
}

// ---------------------------------------------------------------------
// Invariants.

// checkInvariants runs the model checks of the package comment:
// per-core vector disjointness, flood uniqueness (root refreshes
// exempted while their guard lives) and respq conservation against the
// per-core parked ledger, then the per-server Vp fence. It runs with no
// other goroutine active, so the snapshots are consistent.
// Exactly-once delivery is enforced structurally by the collect paths.
func (s *sim) checkInvariants() {
	if s.abort {
		return
	}
	now := s.clk.Now()
	for _, r := range s.reds {
		// 1. Vector disjointness: a server is queried, or known, never
		// both; and a holder is definitive or pending, never both.
		for _, e := range r.core.Cache().Entries() {
			known := e.Vh.Union(e.Vp)
			if !e.Vq.Intersect(known).IsEmpty() {
				s.violate("cache %s %s: Vq %s intersects Vh|Vp %s", r.name, e.Name, e.Vq, known)
			}
			if !e.Vh.Intersect(e.Vp).IsEmpty() {
				s.violate("cache %s %s: Vh %s intersects Vp %s", r.name, e.Name, e.Vh, e.Vp)
			}
		}
		// 2. Flood uniqueness. InflightFloods is sorted by QID, so a
		// violation is detected at a deterministic point.
		livePaths := make(map[string]uint64)
		for _, f := range r.core.InflightFloods() {
			if now.After(f.Deadline) {
				continue
			}
			if first, dup := livePaths[f.Path]; dup {
				if r == s.root {
					if g, ok := s.refreshGuard[f.Path]; ok && !now.After(g) {
						continue
					}
				}
				s.violate("%s: two live floods for %s (qid %d and %d)", r.name, f.Path, first, f.QID)
				continue
			}
			livePaths[f.Path] = f.QID
		}
		// 3. Fast-queue conservation, in entry units and waiter units.
		// The waiter form is the lost-client detector: every registered
		// waiter is still parked, was delivered exactly once, or sat
		// alone on a withdrawn entry.
		st := r.core.Queue().Stats()
		if st.Entries != st.Released+st.Expired+st.Withdrawn+int64(st.InUse) {
			s.violate("%s respq entry leak: %d entries != %d released + %d expired + %d withdrawn + %d in use",
				r.name, st.Entries, st.Released, st.Expired, st.Withdrawn, st.InUse)
		}
		if st.Entries+st.Joins != st.ReleasedWaiters+st.ExpiredWaiters+st.Withdrawn+int64(r.parked) {
			s.violate("%s respq waiter leak: %d registered != %d released + %d expired + %d withdrawn + %d parked",
				r.name, st.Entries+st.Joins, st.ReleasedWaiters, st.ExpiredWaiters, st.Withdrawn, r.parked)
		}
	}

	// 4. Vp service fence: a file still being staged never serves bytes.
	// While a (server, path) stage is pending the server's store must
	// still report it offline; and a store may never report a path both
	// online and in its own staging set (the structural form the disk
	// backend relies on — a file enters the online index only after the
	// MSS move completes).
	for k := range s.staging {
		if k.sv.st.HasOnline(k.path) {
			s.violate("%s serves %s while it is still staging (Vp)", k.sv.name, k.path)
		}
	}
	for _, sv := range s.servers {
		for _, p := range sv.st.StagingPaths() {
			if sv.st.HasOnline(p) {
				s.violate("%s store reports %s both online and staging", sv.name, p)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Plumbing.

func (s *sim) latency() time.Duration {
	return minLatency + time.Duration(s.rng.Int63n(int64(maxLatency-minLatency)+1))
}

func (s *sim) jitter(max time.Duration) time.Duration {
	return time.Duration(s.rng.Int63n(int64(max)))
}

func (s *sim) schedule(due time.Time, ev *event) {
	ev.due = due
	ev.seq = s.seq
	s.seq++
	heap.Push(&s.eq, ev)
}

func (s *sim) us() int64 { return s.clk.Now().Sub(s.epoch).Microseconds() }

func (s *sim) tracef(format string, args ...any) {
	s.trace.Addf(format, args...)
	if s.cfg.Debug != nil {
		fmt.Fprintf(s.cfg.Debug, format+"\n", args...)
	}
}

func (s *sim) violate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	s.violations = append(s.violations, msg)
	s.tracef("VIOLATION: %s", msg)
	if len(s.violations) >= 8 {
		s.abort = true
	}
}

// pctOf returns the p-th percentile of a sorted duration slice.
func pctOf(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

func (s *sim) finish() Result {
	for _, p := range s.clients {
		if p.cur < len(p.ops) && !s.abort {
			o := p.ops[p.cur]
			s.violate("client proc %d stalled: op %d (%s %s) never resolved",
				p.id, p.cur, o.kind, o.path)
		}
	}
	st := s.root.core.Queue().Stats()
	s.tracef("final root respq entries=%d joins=%d released=%d expired=%d withdrawn=%d full=%d inuse=%d rw=%d ew=%d",
		st.Entries, st.Joins, st.Released, st.Expired, st.Withdrawn, st.Full, st.InUse,
		st.ReleasedWaiters, st.ExpiredWaiters)
	s.tracef("final steps=%d redirects=%d waits=%d noents=%d retries=%d queries=%d haves=%d crashed=%d staged=%d mgrRestarts=%d",
		s.steps, s.nRedirects, s.nWaits, s.nNoEnts, s.nRetries,
		s.nQueries, s.nHaves, s.nCrashed, s.nStaged, s.nMgrRestarts)

	// Tear down: close every core (parked resolutions drain into the
	// done buffer through the stop path) and absorb the leftovers so no
	// goroutine outlives the run.
	totalParked := 0
	for _, r := range s.reds {
		totalParked += r.parked
		r.core.Close()
	}
	drain := time.After(wedgeTimeout)
	for k := 0; k < totalParked; k++ {
		select {
		case <-s.done:
		case <-drain:
			k = totalParked
		}
	}

	lat := append([]time.Duration(nil), s.opLat...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	hops := append([]int(nil), s.opHops...)
	sort.Ints(hops)
	hopP50, hopMax := 0, 0
	if len(hops) > 0 {
		hopP50 = hops[len(hops)/2]
		hopMax = hops[len(hops)-1]
	}

	return Result{
		Seed:        s.cfg.Seed,
		Hash:        s.trace.Sum(),
		Lines:       s.trace.Len(),
		Steps:       s.steps,
		Levels:      s.levels,
		Cores:       len(s.reds),
		Servers:     len(s.servers),
		Ops:         s.cfg.Clients*s.cfg.OpsPerClient - s.opsLeft,
		Redirects:   s.nRedirects,
		Waits:       s.nWaits,
		NoEnts:      s.nNoEnts,
		Retries:     s.nRetries,
		Queries:     s.nQueries,
		Haves:       s.nHaves,
		HopP50:      hopP50,
		HopMax:      hopMax,
		LatP50:      pctOf(lat, 0.50),
		LatP99:      pctOf(lat, 0.99),
		Crashed:     s.nCrashed,
		Staged:      s.nStaged,
		MgrRestarts: s.nMgrRestarts,
		Violations:  s.violations,
	}
}
