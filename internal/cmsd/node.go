package cmsd

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"scalla/internal/backoff"
	"scalla/internal/cluster"
	"scalla/internal/mux"
	"scalla/internal/names"
	"scalla/internal/obs"
	"scalla/internal/proto"
	"scalla/internal/store"
	"scalla/internal/transport"
	"scalla/internal/vclock"
	"scalla/internal/xrd"
)

// NodeConfig assembles one Scalla node (the paper's xrootd+cmsd pair).
type NodeConfig struct {
	// Name is the node's stable identity; reconnections under the same
	// name reclaim the same subordinate slot.
	Name string
	// Role determines behaviour: servers serve data and answer queries
	// from their store; supervisors and managers run a resolution Core.
	Role proto.Role
	// DataAddr is the data-plane listen address (clients and redirected
	// clients dial it).
	DataAddr string
	// CtlAddr is the control-plane listen address (subordinates dial
	// it). Unused by servers.
	CtlAddr string
	// Parents are control addresses of the node's parent redirectors.
	// Servers and supervisors log into every parent (manager
	// replication); managers leave it empty.
	Parents []string
	// Prefixes are the path prefixes this node exports at login.
	Prefixes []string
	// Net supplies transport.
	Net transport.Network
	// Store backs a server-role node.
	Store *store.Store
	// ReadOnly refuses writes on a server-role node.
	ReadOnly bool
	// RespondAlways makes a server answer every query, sending explicit
	// negatives. This is the protocol baseline for experiment E10; the
	// paper's request-rarely-respond protocol never sends negatives.
	RespondAlways bool
	// Core configures the resolution engine (manager/supervisor).
	Core Config
	// StageWaitMillis is the wait hint while files stage. Default 300.
	StageWaitMillis uint32
	// DataWorkers sizes the node's data-plane scheduler: how many
	// requests execute concurrently summed over all of its data
	// connections (DESIGN.md §11). Default 8 on servers, 16 on
	// redirectors (whose handlers may block in the fast response queue
	// for a full delay).
	DataWorkers int
	// DispatchQueue bounds queued-but-not-executing data-plane requests
	// across all of the node's data connections; arrivals beyond it shed
	// with RetryAfter (DESIGN.md §11). Default 1024.
	DispatchQueue int
	// RetryAfterMillis is the nominal shed backoff hint. Default 100.
	RetryAfterMillis int
	// SchedSeed seeds the shed-jitter RNG for deterministic verdicts.
	SchedSeed int64
	// PingInterval is how often a redirector pings subordinates for
	// load/liveness. Default 1 s.
	PingInterval time.Duration
	// MissedPings is how many ping intervals a subordinate may stay
	// completely silent (no pong, no have) before the redirector
	// declares the link dead and closes it, marking the member offline —
	// the missed-heartbeat eviction that keeps Vh/Vp free of dead
	// servers between TCP-level failures. Default 5.
	MissedPings int
	// ReconnectDelay paces a subordinate's redial loop: it is the base
	// of a jittered exponential backoff that doubles per failed attempt
	// (capped at 20× the base) and resets after a successful login.
	// Default 200 ms.
	ReconnectDelay time.Duration
	// RejoinSpread bounds the re-login storm after an established parent
	// link dies (a manager restart severs every child at once): the
	// first redial of a previously-logged-in link is additionally
	// delayed by up to RejoinSpread, staggered by the slot index the
	// parent had assigned plus seeded jitter, so the subtree's
	// re-logins — and the connect-epoch corrections each one triggers
	// (Figure 3: Nc bump, C[i] stamp) — arrive spread over the window
	// instead of as one thundering herd. Never-logged-in links (initial
	// cluster bring-up) are not delayed. Default 4× ReconnectDelay;
	// negative disables.
	RejoinSpread time.Duration
	// LoginTimeout bounds the login request/reply exchange with a
	// parent, so a dropped LoginOK frame cannot wedge the redial loop
	// forever. Default 3 s.
	LoginTimeout time.Duration
	// Clock supplies time. Default vclock.Real().
	Clock vclock.Clock
	// Logf, if set, receives diagnostics.
	Logf func(format string, args ...any)
	// Tracer records per-request spans (shared with the Core on
	// redirector roles). Default: a disabled tracer that can be enabled
	// at runtime through the admin endpoint.
	Tracer *obs.Tracer
	// Summary, if set, receives this node's summary-monitoring stream:
	// one JSON frame every SummaryEvery. Start launches the emitter;
	// Stop closes the sink.
	Summary obs.Sink
	// SummaryEvery is the summary emission period. Default 10 s.
	SummaryEvery time.Duration
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.StageWaitMillis == 0 {
		c.StageWaitMillis = 300
	}
	if c.PingInterval <= 0 {
		c.PingInterval = time.Second
	}
	if c.MissedPings <= 0 {
		c.MissedPings = 5
	}
	if c.ReconnectDelay <= 0 {
		c.ReconnectDelay = 200 * time.Millisecond
	}
	if c.RejoinSpread == 0 {
		c.RejoinSpread = 4 * c.ReconnectDelay
	}
	if c.LoginTimeout <= 0 {
		c.LoginTimeout = 3 * time.Second
	}
	if c.Clock == nil {
		c.Clock = vclock.Real()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Tracer == nil {
		c.Tracer = obs.NewTracer(0, c.Clock)
	}
	c.Core.Clock = c.Clock
	c.Core.Tracer = c.Tracer
	return c
}

// Node is a running Scalla node.
type Node struct {
	cfg       NodeConfig
	core      *Core          // redirector roles
	data      *xrd.Server    // server role
	dataSched *mux.Scheduler // redirector data face (nil on servers)

	dataL transport.Listener
	ctlL  transport.Listener

	mu       sync.Mutex
	conns    map[int]transport.Conn      // child control links by index
	lastSeen map[int]time.Time           // last frame time per child index
	live     map[transport.Conn]struct{} // every open connection, closed on Stop

	parentsUp atomic.Int32 // successfully logged-in parent links
	queries   atomic.Int64 // location queries received from parents
	haves     atomic.Int64 // positive responses sent upward
	negatives atomic.Int64 // explicit negatives (sent or received; baseline only)

	stop    chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup
}

// NewNode builds a Node; call Start to bring it up.
func NewNode(cfg NodeConfig) (*Node, error) {
	cfg = cfg.withDefaults()
	n := &Node{
		cfg:      cfg,
		conns:    make(map[int]transport.Conn),
		lastSeen: make(map[int]time.Time),
		live:     make(map[transport.Conn]struct{}),
		stop:     make(chan struct{}),
	}
	switch cfg.Role {
	case proto.RoleServer:
		if cfg.Store == nil {
			return nil, fmt.Errorf("cmsd: server node %q requires a Store", cfg.Name)
		}
		n.data = xrd.New(xrd.Config{
			Store: cfg.Store, ReadOnly: cfg.ReadOnly,
			StageWaitMillis: cfg.StageWaitMillis, Logf: cfg.Logf,
			Workers: cfg.DataWorkers, Tracer: cfg.Tracer,
			DispatchQueue:    cfg.DispatchQueue,
			RetryAfterMillis: cfg.RetryAfterMillis,
			SchedSeed:        cfg.SchedSeed,
		})
	case proto.RoleSupervisor, proto.RoleManager:
		n.core = NewCore(cfg.Core)
		n.core.SetQuerySender(n.querySender)
		workers := cfg.DataWorkers
		if workers <= 0 {
			// Redirector handlers park in the fast response queue for up
			// to a full delay; a deeper default keeps one slow path from
			// stalling unrelated requests.
			workers = 16
		}
		n.dataSched = mux.NewScheduler(mux.SchedConfig{
			Workers:          workers,
			QueueLimit:       cfg.DispatchQueue,
			RetryAfterMillis: cfg.RetryAfterMillis,
			Seed:             cfg.SchedSeed,
			Clock:            cfg.Clock,
		})
	default:
		return nil, fmt.Errorf("cmsd: unknown role %v", cfg.Role)
	}
	return n, nil
}

// Core returns the resolution engine (nil on server-role nodes).
func (n *Node) Core() *Core { return n.core }

// DataServer returns the xrd server (nil on redirector-role nodes).
func (n *Node) DataServer() *xrd.Server { return n.data }

// DataAddr returns the node's data-plane address.
func (n *Node) DataAddr() string { return n.cfg.DataAddr }

// CtlAddr returns the node's control-plane address.
func (n *Node) CtlAddr() string { return n.cfg.CtlAddr }

// Name returns the node's identity.
func (n *Node) Name() string { return n.cfg.Name }

// Start binds listeners and launches the node's loops.
func (n *Node) Start() error {
	var err error
	if n.cfg.DataAddr != "" {
		n.dataL, err = n.cfg.Net.Listen(n.cfg.DataAddr)
		if err != nil {
			return fmt.Errorf("cmsd: %s: data listen: %w", n.cfg.Name, err)
		}
		if n.cfg.Role == proto.RoleServer {
			n.wg.Add(1)
			go func() { defer n.wg.Done(); n.data.Serve(n.dataL) }()
		} else {
			n.wg.Add(1)
			go func() { defer n.wg.Done(); n.serveRedirector(n.dataL) }()
		}
	}
	if n.cfg.Role != proto.RoleServer && n.cfg.CtlAddr != "" {
		n.ctlL, err = n.cfg.Net.Listen(n.cfg.CtlAddr)
		if err != nil {
			if n.dataL != nil {
				n.dataL.Close()
			}
			return fmt.Errorf("cmsd: %s: ctl listen: %w", n.cfg.Name, err)
		}
		n.wg.Add(1)
		go func() { defer n.wg.Done(); n.acceptChildren(n.ctlL) }()
		n.wg.Add(1)
		go func() { defer n.wg.Done(); n.pinger() }()
	}
	for _, p := range n.cfg.Parents {
		n.wg.Add(1)
		go func() { defer n.wg.Done(); n.parentLoop(p) }()
	}
	if n.cfg.Summary != nil {
		em := obs.NewEmitter(n.cfg.SummaryEvery, n.cfg.Clock, n.Frame, n.cfg.Summary, n.cfg.Logf)
		n.wg.Add(1)
		go func() { defer n.wg.Done(); em.Run(n.stop) }()
	}
	return nil
}

// Stop shuts the node down and waits for its loops to exit.
func (n *Node) Stop() {
	if !n.stopped.CompareAndSwap(false, true) {
		return
	}
	close(n.stop)
	if n.dataL != nil {
		n.dataL.Close()
	}
	if n.ctlL != nil {
		n.ctlL.Close()
	}
	// Close live connections before the schedulers: scheduler Close
	// waits for in-flight handlers, and a handler blocked replying to a
	// wedged peer only unblocks once its connection dies.
	n.mu.Lock()
	for c := range n.live {
		c.Close()
	}
	n.mu.Unlock()
	if n.data != nil {
		n.data.Close()
	}
	if n.dataSched != nil {
		n.dataSched.Close()
	}
	if n.core != nil {
		n.core.Close()
	}
	n.wg.Wait()
}

// track registers a connection for closure on Stop. It returns false if
// the node is already stopping (the caller should abandon the conn).
func (n *Node) track(c transport.Conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped.Load() {
		c.Close()
		return false
	}
	n.live[c] = struct{}{}
	return true
}

func (n *Node) untrack(c transport.Conn) {
	n.mu.Lock()
	delete(n.live, c)
	n.mu.Unlock()
}

// ParentsUp reports how many parent links are currently logged in.
func (n *Node) ParentsUp() int { return int(n.parentsUp.Load()) }

// ---------------------------------------------------------------------
// Parent side: accept subordinate logins, receive Have/Pong.

func (n *Node) acceptChildren(l transport.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go func() { defer n.wg.Done(); n.childConn(conn) }()
	}
}

func (n *Node) childConn(conn transport.Conn) {
	if !n.track(conn) {
		return
	}
	defer n.untrack(conn)
	defer conn.Close()
	f, err := transport.RecvFrame(conn)
	if err != nil {
		return
	}
	msg, err := proto.Unmarshal(f.Bytes())
	f.Release() // control messages copy their strings at decode
	if err != nil {
		return
	}
	login, ok := msg.(proto.Login)
	if !ok {
		transport.SendMessage(conn, proto.LoginRej{Reason: "expected login"})
		return
	}
	idx, _, err := n.core.Table().Login(cluster.Member{
		Name: login.Name, Role: login.Role,
		DataAddr: login.DataAddr, CtlAddr: login.CtlAddr,
		Prefixes: names.NewPrefixSet(login.Prefixes...),
		Load:     login.Load, Free: login.Free,
	})
	if err != nil {
		if errors.Is(err, cluster.ErrFull) {
			// Cell overflow: a full cell with supervisor children vectors
			// the newcomer at one of them instead of refusing outright —
			// the 65th server finds a deeper slot rather than redialing a
			// full parent forever (DESIGN.md §12). Leaf cells (no
			// supervisor children) still reject.
			if addr, ok := n.core.Table().OverflowTarget(); ok {
				n.cfg.Logf("cmsd %s: cell full, vectoring %s at %s",
					n.cfg.Name, login.Name, addr)
				transport.SendMessage(conn, proto.LoginRedirect{CtlAddr: addr})
				return
			}
		}
		transport.SendMessage(conn, proto.LoginRej{Reason: err.Error()})
		return
	}
	wireIdx, ok := proto.SlotIndex(idx)
	if !ok {
		// Table handed out an index the wire cannot carry — a fanout
		// widened past proto.SlotLimit without widening LoginOK.Index.
		// Refuse loudly rather than alias the slot mod 256.
		n.core.Table().Disconnect(idx)
		transport.SendMessage(conn, proto.LoginRej{
			Reason: fmt.Sprintf("index %d exceeds wire slot range", idx)})
		return
	}
	if err := transport.SendMessage(conn, proto.LoginOK{Index: wireIdx}); err != nil {
		n.core.Table().Disconnect(idx)
		return
	}
	n.cfg.Logf("cmsd %s: child %s logged in as index %d", n.cfg.Name, login.Name, idx)

	n.mu.Lock()
	old := n.conns[idx]
	n.conns[idx] = conn
	n.lastSeen[idx] = n.cfg.Clock.Now()
	n.mu.Unlock()
	if old != nil {
		old.Close()
	}
	// Now that the query link exists, give the newcomer a chance to
	// answer any flood still inside its processing deadline.
	n.core.MemberUp(idx)

	for {
		f, err := transport.RecvFrame(conn)
		if err != nil {
			break
		}
		msg, err := proto.Unmarshal(f.Bytes())
		f.Release()
		if err != nil {
			break
		}
		// Any frame proves the child alive for heartbeat purposes.
		n.mu.Lock()
		if n.conns[idx] == conn {
			n.lastSeen[idx] = n.cfg.Clock.Now()
		}
		n.mu.Unlock()
		switch m := msg.(type) {
		case proto.Have:
			n.core.HandleHave(idx, m)
		case proto.HaveNot:
			// Baseline traffic only; counted and otherwise ignored.
			n.negatives.Add(1)
		case proto.Pong:
			n.core.Table().UpdateStats(idx, m.Load, m.Free)
		}
	}

	n.mu.Lock()
	if n.conns[idx] == conn {
		delete(n.conns, idx)
		delete(n.lastSeen, idx)
		n.mu.Unlock()
		n.core.Table().Disconnect(idx)
		n.cfg.Logf("cmsd %s: child index %d disconnected", n.cfg.Name, idx)
	} else {
		n.mu.Unlock()
	}
}

// querySender transmits a Query to child index (Core callback).
func (n *Node) querySender(index int, q proto.Query) bool {
	n.mu.Lock()
	conn := n.conns[index]
	n.mu.Unlock()
	if conn == nil {
		return false
	}
	return transport.SendMessage(conn, q) == nil
}

// pinger probes subordinates for load/liveness and evicts the ones that
// have been silent for MissedPings intervals: their link is closed,
// which unwinds the child's recv loop and marks the member offline in
// the table (so selection, Vm, and the correction machinery all see the
// death without waiting for a transport-level error).
func (n *Node) pinger() {
	t := n.cfg.Clock.NewTicker(n.cfg.PingInterval)
	defer t.Stop()
	ping := proto.Marshal(proto.Ping{})
	silence := time.Duration(n.cfg.MissedPings) * n.cfg.PingInterval
	for {
		select {
		case <-n.stop:
			return
		case <-t.C():
			cutoff := n.cfg.Clock.Now().Add(-silence)
			n.mu.Lock()
			conns := make([]transport.Conn, 0, len(n.conns))
			var stale []transport.Conn
			var staleIdx []int
			for idx, c := range n.conns {
				if seen, ok := n.lastSeen[idx]; ok && seen.Before(cutoff) {
					stale = append(stale, c)
					staleIdx = append(staleIdx, idx)
					continue
				}
				conns = append(conns, c)
			}
			n.mu.Unlock()
			for i, c := range stale {
				n.cfg.Logf("cmsd %s: child index %d missed %d pings, evicting",
					n.cfg.Name, staleIdx[i], n.cfg.MissedPings)
				c.Close() // childConn's recv loop exits and disconnects it
			}
			for _, c := range conns {
				_ = c.Send(ping)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Child side: log into parents, answer queries.

// maxLoginRedirects bounds a cell-overflow redirect chain: a login may
// be vectored at most this many levels deeper before the child starts
// over at its configured parent (guards against redirect cycles from a
// confused or malicious tree).
const maxLoginRedirects = 4

func (n *Node) parentLoop(parent string) {
	// Jittered exponential redial pacing: a dead parent is not hammered
	// in lockstep by its whole subtree, yet a healthy reconnection
	// resets to the base delay. The seed is derived from the link's
	// identity so a fixed-seed chaos run reproduces the same schedule.
	bo := backoff.New(backoff.Policy{
		Base:   n.cfg.ReconnectDelay,
		Max:    20 * n.cfg.ReconnectDelay,
		Factor: 2,
		Jitter: 0.2,
	}, int64(names.Hash(n.cfg.Name+"->"+parent)))
	rng := rand.New(rand.NewSource(int64(names.Hash(n.cfg.Name + "@" + parent))))
	target := parent // current login target; overflow redirects re-point it
	hops := 0        // redirect chain depth from the configured parent
	for {
		select {
		case <-n.stop:
			return
		default:
		}
		conn, err := n.cfg.Net.Dial(target)
		if err != nil {
			if target != parent {
				// The supervisor we were vectored at is unreachable; fall
				// back to the configured parent rather than wedging on a
				// dead overflow target.
				target, hops = parent, 0
			}
			n.sleepOrStop(bo.Next())
			continue
		}
		res := n.runParentConn(target, conn)
		if res.loggedIn {
			bo.Reset()
		}
		select {
		case <-n.stop:
			conn.Close()
			return
		default:
		}
		if res.redirect != "" {
			if hops < maxLoginRedirects {
				// Cell overflow: follow the vector immediately — a
				// redirect is placement progress, not a failure.
				target = res.redirect
				hops++
				continue
			}
			n.cfg.Logf("cmsd %s: login redirect chain exceeded %d hops, restarting at %s",
				n.cfg.Name, maxLoginRedirects, parent)
			target, hops = parent, 0
		}
		if res.rejected && target != parent {
			// A full leaf cell refused us; restarting at the configured
			// parent lets its overflow round-robin vector the next
			// attempt at a different subtree, instead of redialing the
			// same full cell forever.
			target, hops = parent, 0
		}
		delay := bo.Next()
		if res.loggedIn && n.cfg.RejoinSpread > 0 {
			// An established link died — likely alongside every sibling's
			// (manager restart). Stagger the re-login by the slot index
			// the parent had assigned, plus jitter, so the subtree's
			// re-subscription storm is spread over RejoinSpread instead
			// of arriving at once (FAULTS.md: restart storm).
			delay += time.Duration(float64(n.cfg.RejoinSpread) *
				(float64(res.index) + rng.Float64()) / float64(cluster.MaxMembers))
		}
		n.sleepOrStop(delay)
	}
}

func (n *Node) sleepOrStop(d time.Duration) {
	select {
	case <-n.stop:
	case <-n.cfg.Clock.After(d):
	}
}

func (n *Node) loginMsg() proto.Login {
	free := int64(1 << 40)
	load := uint32(0)
	if n.data != nil {
		free = n.data.Store().Free()
		load = n.data.Load()
	}
	return proto.Login{
		Role: n.cfg.Role, Name: n.cfg.Name,
		DataAddr: n.cfg.DataAddr, CtlAddr: n.cfg.CtlAddr,
		Prefixes: n.cfg.Prefixes, Free: free, Load: load,
	}
}

// parentResult is what one parent-connection attempt reports back to
// the redial loop.
type parentResult struct {
	loggedIn bool   // login succeeded; backoff resets, index is valid
	index    int    // slot index assigned by the parent (LoginOK.Index)
	redirect string // non-empty: cell overflow, retry login at this address
	rejected bool   // parent sent LoginRej; an overflow target must be abandoned
}

// runParentConn performs the login exchange and then serves the parent
// link until it breaks. It reports whether login succeeded (the redial
// loop resets its backoff only then), the slot index the parent
// assigned, and any overflow redirect target.
func (n *Node) runParentConn(parent string, conn transport.Conn) parentResult {
	if !n.track(conn) {
		return parentResult{}
	}
	defer n.untrack(conn)
	defer conn.Close()
	if err := transport.SendMessage(conn, n.loginMsg()); err != nil {
		return parentResult{}
	}
	// The login reply is awaited under a timeout: a dropped LoginOK
	// frame must surface as a failed attempt, not a wedged loop. A reply
	// abandoned by the timeout falls to the GC unreleased, which pooled
	// frames tolerate.
	type recvResult struct {
		f   *proto.Frame
		err error
	}
	replyCh := make(chan recvResult, 1)
	go func() {
		f, err := transport.RecvFrame(conn)
		replyCh <- recvResult{f, err}
	}()
	var f *proto.Frame
	select {
	case r := <-replyCh:
		if r.err != nil {
			return parentResult{}
		}
		f = r.f
	case <-n.cfg.Clock.After(n.cfg.LoginTimeout):
		n.cfg.Logf("cmsd %s: login to %s timed out", n.cfg.Name, parent)
		conn.Close() // unblocks the Recv goroutine
		return parentResult{}
	case <-n.stop:
		conn.Close()
		return parentResult{}
	}
	msg, err := proto.Unmarshal(f.Bytes())
	f.Release()
	if err != nil {
		return parentResult{}
	}
	if rej, isRej := msg.(proto.LoginRej); isRej {
		n.cfg.Logf("cmsd %s: login rejected by %s: %s", n.cfg.Name, parent, rej.Reason)
		n.sleepOrStop(5 * n.cfg.ReconnectDelay)
		return parentResult{rejected: true}
	}
	if rd, isRd := msg.(proto.LoginRedirect); isRd {
		n.cfg.Logf("cmsd %s: login vectored by full cell %s at %s", n.cfg.Name, parent, rd.CtlAddr)
		return parentResult{redirect: rd.CtlAddr}
	}
	loginOK, isOK := msg.(proto.LoginOK)
	if !isOK {
		return parentResult{}
	}
	res := parentResult{loggedIn: true, index: int(loginOK.Index)}
	n.parentsUp.Add(1)
	defer n.parentsUp.Add(-1)
	n.cfg.Logf("cmsd %s: logged into %s as index %d", n.cfg.Name, parent, res.index)

	for {
		f, err := transport.RecvFrame(conn)
		if err != nil {
			return res
		}
		msg, err := proto.Unmarshal(f.Bytes())
		f.Release()
		if err != nil {
			return res
		}
		switch m := msg.(type) {
		case proto.Query:
			n.handleQuery(conn, m)
		case proto.Ping:
			pong := proto.Pong{Free: 1 << 40}
			if n.data != nil {
				pong = proto.Pong{Load: n.data.Load(), Free: n.data.Store().Free()}
			}
			if err := transport.SendMessage(conn, pong); err != nil {
				return res
			}
		}
	}
}

// handleQuery implements the request-rarely-respond protocol: answer
// only when this subtree has (or is staging) the file; silence
// otherwise.
func (n *Node) handleQuery(conn transport.Conn, q proto.Query) {
	n.queries.Add(1)
	switch n.cfg.Role {
	case proto.RoleServer:
		st := n.data.Store()
		switch {
		case st.HasOnline(q.Path):
			n.haves.Add(1)
			transport.SendMessage(conn, proto.Have{
				QID: q.QID, Path: q.Path, Hash: q.Hash,
				Pending: false, CanWrite: !n.cfg.ReadOnly,
			})
		case st.Has(q.Path):
			// In mass storage: begin making it ready and report Vp.
			st.Stage(q.Path)
			n.haves.Add(1)
			transport.SendMessage(conn, proto.Have{
				QID: q.QID, Path: q.Path, Hash: q.Hash,
				Pending: true, CanWrite: !n.cfg.ReadOnly,
			})
		default:
			if n.cfg.RespondAlways {
				// E10 baseline: explicit negative instead of silence.
				n.negatives.Add(1)
				transport.SendMessage(conn, proto.HaveNot{QID: q.QID, Path: q.Path, Hash: q.Hash})
			}
		}
		// Silence means "no" (Section III-B).
	case proto.RoleSupervisor:
		// Resolve among our own subtree asynchronously; multiple child
		// responses compress into (at most) this one upward Have.
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			out := n.core.Resolve(Request{Path: q.Path, Write: q.Write})
			if out.Kind == KindRedirect {
				n.haves.Add(1)
				transport.SendMessage(conn, proto.Have{
					QID: q.QID, Path: q.Path, Hash: q.Hash,
					Pending: out.Pending, CanWrite: true,
				})
			}
		}()
	}
}

// QueriesReceived reports how many location queries this node has been
// asked by its parents (the harness uses it for the message-count
// experiments E10/E13).
func (n *Node) QueriesReceived() int64 { return n.queries.Load() }

// HavesSent reports how many positive responses this node sent upward.
func (n *Node) HavesSent() int64 { return n.haves.Load() }

// Negatives reports the explicit negative responses this node sent (as
// a respond-always server) or received (as a manager). Always zero for
// the production protocol.
func (n *Node) Negatives() int64 { return n.negatives.Load() }

// ---------------------------------------------------------------------
// Redirector data plane.

func (n *Node) serveRedirector(l transport.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go func() { defer n.wg.Done(); n.redirectorConn(conn) }()
	}
}

func (n *Node) redirectorConn(conn transport.Conn) {
	if !n.track(conn) {
		return
	}
	defer n.untrack(conn)
	defer conn.Close()
	mux.Serve(conn, n.redirectorRequest, mux.ServeOptions{
		Sched:  n.dataSched,
		Tracer: n.cfg.Tracer,
		OnError: func(err error) {
			n.cfg.Logf("cmsd %s: bad data-plane frame from %s: %v", n.cfg.Name, conn.RemoteAddr(), err)
		},
	})
}

// redirectorRequest resolves one data-plane request on a redirector;
// it may block in the fast response queue, so concurrent dispatch runs
// it on a bounded worker per request.
func (n *Node) redirectorRequest(msg proto.Message, _ mux.Responder) proto.Message {
	var reply proto.Message
	switch m := msg.(type) {
	case proto.Locate:
		reply = n.outcomeReply(n.core.Resolve(Request{
			Path: m.Path, Write: m.Write, Create: m.Create,
			Refresh: m.Refresh, Avoid: m.Avoid,
		}))
	case proto.Open:
		reply = n.outcomeReply(n.core.Resolve(Request{
			Path: m.Path, Write: m.Write, Create: m.Create,
		}))
	case proto.Stat, proto.Unlink:
		var path string
		if s, isStat := m.(proto.Stat); isStat {
			path = s.Path
		} else {
			path = m.(proto.Unlink).Path
		}
		out := n.core.Resolve(Request{Path: path})
		if out.Kind == KindNoEnt {
			if _, isStat := m.(proto.Stat); isStat {
				reply = proto.StatOK{Exists: false}
			} else {
				reply = proto.Err{Code: proto.ENoEnt, Msg: "no such file"}
			}
		} else {
			reply = n.outcomeReply(out)
		}
	case proto.Prepare:
		reply = proto.PrepareOK{Queued: n.core.Prepare(m.Paths, m.Write)}
	case proto.Ping:
		reply = proto.Pong{Free: 1 << 40}
	default:
		reply = proto.Err{Code: proto.EInval, Msg: "unexpected message"}
	}
	return reply
}

func (n *Node) outcomeReply(out Outcome) proto.Message {
	switch out.Kind {
	case KindRedirect:
		return proto.Redirect{Addr: out.Addr, CtlAddr: out.CtlAddr, Pending: out.Pending}
	case KindWait:
		return proto.Wait{Millis: out.Millis}
	case KindRetry:
		return proto.Wait{Millis: 1}
	default:
		return proto.Err{Code: proto.ENoEnt, Msg: "no such file"}
	}
}
