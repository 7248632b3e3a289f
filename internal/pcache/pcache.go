// Package pcache is Scalla's edge proxy-cache tier: a daemon that
// speaks the client protocol upstream (toward an origin cmsd/xrd
// federation) and the server protocol downstream (toward unmodified
// clients), absorbing repeat opens and hot reads at the edge so they
// never cross the WAN.
//
// Real XRootD deployments put exactly this tier between analysis farms
// and origin storage: a proxy that caches both halves of the paper's
// workload. The location half reuses internal/cache — the lock-striped
// hash table, 64 eviction windows, and Figure-3 connect-epoch
// correction — keyed by origin data-server slots instead of cluster
// subscriber indices, with staleness driven through the existing
// Locate{Refresh, Avoid} protocol (Section III-C1) so bad redirects
// self-correct. The data half is a block-granular cache with LRU
// capacity eviction plus the Section III-A window lifetime mechanics,
// serving hits zero-copy into pooled frames (the DESIGN.md §7 contract)
// and filling misses through a pipelined readahead window toward the
// origin server.
//
// Clients need no changes: they point Managers at the proxy's address
// and every walk terminates there. On a stale hit the normal client
// recovery (Locate{Refresh} and reopen) flows through the proxy, which
// refreshes upstream before answering — both caches converge without
// the 5 s miss-storm an uncached federation would pay.
package pcache

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"scalla/internal/bitvec"
	"scalla/internal/cache"
	"scalla/internal/client"
	"scalla/internal/mux"
	"scalla/internal/obs"
	"scalla/internal/proto"
	"scalla/internal/transport"
	"scalla/internal/vclock"
)

// DefaultBlockSize is the block granularity of the data cache. It is
// chosen to keep a full hit frame under the proto pool's retention cap
// so the hit path recycles frames instead of allocating.
const DefaultBlockSize = 64 << 10

// DefaultCacheBytes bounds the resident block data by default.
const DefaultCacheBytes = 256 << 20

// Config parameterizes a Proxy.
type Config struct {
	// Net supplies transport for both faces.
	Net transport.Network
	// Addr is the data-plane address the proxy listens on; clients use
	// it as their manager address.
	Addr string
	// Origins are the data addresses of the origin cluster's managers.
	Origins []string
	// Name identifies the proxy in summary frames. Default "pcache".
	Name string
	// BlockSize is the data-cache block granularity. Blocks above the
	// frame pool's retention cap (128 KiB) still work but allocate a
	// frame per fill and per hit. Default DefaultBlockSize.
	BlockSize int
	// CacheBytes caps the memory resident blocks pin (each block's
	// frame buffer); LRU eviction enforces it. Default
	// DefaultCacheBytes.
	CacheBytes int64
	// BlockLifetime ages blocks out via the 64 eviction windows: a
	// block untouched by sweeps is dropped one lifetime after insert.
	// Default 10 minutes.
	BlockLifetime time.Duration
	// LocLifetime is the location-cache object lifetime (the paper's
	// 8-hour default divided across its 64 windows).
	LocLifetime time.Duration
	// OriginReadahead is how many consecutive blocks a miss fetches
	// from origin (1 = just the missing block). Default 4.
	OriginReadahead int
	// Workers bounds concurrent request dispatch across all downstream
	// connections (the scheduled dispatch of DESIGN.md §11). Default 8.
	Workers int
	// DispatchQueue bounds queued-but-not-executing downstream data
	// requests; arrivals beyond it shed with RetryAfter. Default 1024.
	DispatchQueue int
	// RetryAfterMillis is the nominal shed backoff hint. Default 100.
	RetryAfterMillis int
	// SchedSeed seeds the shed-jitter RNG for deterministic verdicts.
	SchedSeed int64
	// RPCTimeout bounds one origin exchange. Default 15 s.
	RPCTimeout time.Duration
	// MaxInFlight bounds streams multiplexed per origin connection.
	MaxInFlight int
	// Clock supplies time. Default vclock.Real().
	Clock vclock.Clock
	// Tracer records proxy spans (open, fill, refresh) when enabled.
	Tracer *obs.Tracer
	// Summary, when set, receives periodic summary frames.
	Summary obs.Sink
	// SummaryEvery paces summary emission. Default 1 s.
	SummaryEvery time.Duration
	// Logf receives diagnostics. Default: discard.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "pcache"
	}
	if c.BlockSize <= 0 {
		c.BlockSize = DefaultBlockSize
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = DefaultCacheBytes
	}
	if c.BlockLifetime <= 0 {
		c.BlockLifetime = 10 * time.Minute
	}
	if c.OriginReadahead <= 0 {
		c.OriginReadahead = 4
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 15 * time.Second
	}
	if c.Clock == nil {
		c.Clock = vclock.Real()
	}
	if c.Tracer == nil {
		c.Tracer = obs.NewTracer(0, c.Clock)
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Proxy is one edge proxy-cache daemon. It is safe for concurrent use;
// start it with Start and stop it with Close.
type Proxy struct {
	cfg Config

	up    *client.Client // origin control plane: walks, refreshes, writes
	pool  *mux.Pool      // origin data servers: opens and block fills
	sched *mux.Scheduler // downstream face dispatch

	loc *cache.Cache // location answers, keyed by origin-server slots

	// Slot table: origin data-server addresses mapped onto the location
	// cache's 64 server indices, assigned as locates discover them.
	smu    sync.Mutex
	slotOf map[string]int
	addrOf [bitvec.Width]string
	mask   bitvec.Vec // assigned slots
	nextRR int        // recycle cursor once all slots are taken

	// slotEpoch is bumped whenever a slot's origin binding is
	// invalidated; entries stamp it at bind time and the hit path
	// refuses to serve from an entry whose stamp has been passed. This
	// is the proxy-local mirror of the Figure-3 connect epoch.
	slotEpoch [bitvec.Width]atomic.Uint64

	// Block cache state (blocks.go) under one mutex: entry map, the
	// intrusive LRU list, the 64 lifetime windows, and byte accounting.
	bmu        sync.Mutex
	entries    map[string]*entry
	lruFront   *block
	lruBack    *block
	windows    [cache.Windows]*block
	tw         uint64
	blockBytes int64
	nblocks    int

	// Downstream handle table.
	hmu     sync.Mutex
	handles map[uint64]*phandle
	nextFH  uint64

	st stats

	lis    transport.Listener
	cmu    sync.Mutex
	conns  map[transport.Conn]struct{}
	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// phandle is one downstream file handle: either a cached read handle
// bound to an entry, or a pass-through write handle wrapping an
// upstream client File.
type phandle struct {
	path string
	ent  *entry       // read path; re-bound by fill when it goes stale
	pass *client.File // write/create path; nil for cached handles
}

// New constructs a Proxy without starting its listener; most callers
// want Start.
func New(cfg Config) *Proxy {
	cfg = cfg.withDefaults()
	p := &Proxy{
		cfg: cfg,
		up: client.New(client.Config{
			Net:         cfg.Net,
			Managers:    cfg.Origins,
			RPCTimeout:  cfg.RPCTimeout,
			MaxInFlight: cfg.MaxInFlight,
			Clock:       cfg.Clock,
			Tracer:      cfg.Tracer,
		}),
		pool: mux.NewPool(cfg.Net, mux.Options{
			MaxInFlight: cfg.MaxInFlight,
			Clock:       cfg.Clock,
		}),
		sched: mux.NewScheduler(mux.SchedConfig{
			Workers:          cfg.Workers,
			QueueLimit:       cfg.DispatchQueue,
			RetryAfterMillis: cfg.RetryAfterMillis,
			Seed:             cfg.SchedSeed,
			Clock:            cfg.Clock,
		}),
		loc: cache.New(cache.Config{
			Lifetime: cfg.LocLifetime,
			Clock:    cfg.Clock,
		}),
		slotOf:  make(map[string]int),
		entries: make(map[string]*entry),
		handles: make(map[uint64]*phandle),
		conns:   make(map[transport.Conn]struct{}),
		stop:    make(chan struct{}),
	}
	return p
}

// Start binds the proxy's listener and begins serving downstream
// connections and running the cache maintenance tickers.
func (p *Proxy) Start() error {
	l, err := p.cfg.Net.Listen(p.cfg.Addr)
	if err != nil {
		return fmt.Errorf("pcache: listen %s: %w", p.cfg.Addr, err)
	}
	p.lis = l
	p.wg.Add(1)
	go p.acceptLoop(l)
	p.wg.Add(1)
	go p.tickLoop()
	if p.cfg.Summary != nil {
		every := p.cfg.SummaryEvery
		if every <= 0 {
			every = time.Second
		}
		em := obs.NewEmitter(every, p.cfg.Clock, p.Frame, p.cfg.Summary, p.cfg.Logf)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			em.Run(p.stop)
		}()
	}
	return nil
}

// Addr returns the address downstream clients dial.
func (p *Proxy) Addr() string { return p.cfg.Addr }

// Close stops the listener, tears down downstream and origin
// connections, and waits for the serve loops to drain.
func (p *Proxy) Close() {
	if p.closed.Swap(true) {
		return
	}
	close(p.stop)
	if p.lis != nil {
		p.lis.Close()
	}
	p.cmu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.cmu.Unlock()
	// Connections are dead; now the scheduler can drain its in-flight
	// handlers without any of them wedging on a reply send.
	p.sched.Close()
	p.pool.Close()
	p.up.Close()
	p.wg.Wait()
}

func (p *Proxy) acceptLoop(l transport.Listener) {
	defer p.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		p.cmu.Lock()
		p.conns[conn] = struct{}{}
		p.cmu.Unlock()
		p.wg.Add(1)
		go p.handleConn(conn)
	}
}

// tickLoop drives the two window clocks: the location cache's sweep
// (lifetime/64 per window, as in the origin cmsd) and the block
// cache's lifetime windows.
func (p *Proxy) tickLoop() {
	defer p.wg.Done()
	period := p.cfg.BlockLifetime / cache.Windows
	if period <= 0 {
		period = time.Second
	}
	bt := p.cfg.Clock.NewTicker(period)
	defer bt.Stop()
	locPeriod := p.cfg.LocLifetime / cache.Windows
	if locPeriod <= 0 {
		locPeriod = 8 * time.Hour / cache.Windows
	}
	lt := p.cfg.Clock.NewTicker(locPeriod)
	defer lt.Stop()
	for {
		select {
		case <-bt.C():
			p.tickBlocks()
		case <-lt.C():
			p.loc.Tick()
		case <-p.stop:
			return
		}
	}
}

func (p *Proxy) handleConn(conn transport.Conn) {
	defer p.wg.Done()
	defer func() {
		p.cmu.Lock()
		delete(p.conns, conn)
		p.cmu.Unlock()
		conn.Close()
	}()
	// Handles are per-connection: a dropped client leaks nothing, and
	// its pass-through upstream files are closed with it.
	var mineMu sync.Mutex
	var mine []uint64
	defer func() {
		mineMu.Lock()
		fhs := mine
		mineMu.Unlock()
		for _, fh := range fhs {
			p.dropHandle(fh)
		}
	}()
	mux.Serve(conn, func(msg proto.Message, r mux.Responder) proto.Message {
		if p.closed.Load() {
			return nil
		}
		reply, opened := p.dispatch(msg, r)
		if opened != 0 {
			mineMu.Lock()
			mine = append(mine, opened)
			mineMu.Unlock()
		}
		return reply
	}, mux.ServeOptions{
		Sched:  p.sched,
		Tracer: p.cfg.Tracer,
		OnError: func(err error) {
			p.cfg.Logf("pcache: bad frame from %s: %v", conn.RemoteAddr(), err)
		},
	})
}

// dispatch handles one downstream request, returning the reply and,
// for successful opens, the issued handle. Cached reads reply through
// the responder's single-copy frame path and return nil.
func (p *Proxy) dispatch(msg proto.Message, r mux.Responder) (reply proto.Message, opened uint64) {
	switch m := msg.(type) {
	case proto.Open:
		return p.open(m)
	case proto.Read:
		return p.read(m, r), 0
	case proto.Write:
		return p.write(m), 0
	case proto.Trunc:
		return p.trunc(m), 0
	case proto.Close:
		return p.closeHandle(m), 0
	case proto.Stat:
		return p.stat(m), 0
	case proto.Locate:
		return p.locateDown(m), 0
	case proto.Unlink:
		return p.unlink(m), 0
	case proto.Prepare:
		return p.prepare(m), 0
	case proto.Ping:
		return proto.Pong{}, 0
	case proto.List:
		return proto.Err{Code: proto.EInval, Msg: "pcache: listings are not proxied"}, 0
	default:
		return proto.Err{Code: proto.EInval, Msg: "unexpected message"}, 0
	}
}

// open answers a downstream Open. Read opens bind to a cached entry —
// on a hit no frame reaches the origin at all; write and create opens
// pass through to the origin via the upstream client, invalidating any
// cached state for the path.
func (p *Proxy) open(m proto.Open) (proto.Message, uint64) {
	outcome := "error"
	sp := p.cfg.Tracer.Start("pcache.open", m.Path)
	defer func() { sp.End(outcome) }()
	if m.Write || m.Create {
		var f *client.File
		var err error
		if m.Create {
			f, err = p.up.Create(m.Path)
		} else {
			f, err = p.up.OpenWrite(m.Path)
		}
		if err != nil {
			return errReply(err), 0
		}
		p.invalidatePath(m.Path)
		outcome = "write-through"
		fh := p.issueHandle(&phandle{path: m.Path, pass: f})
		return proto.OpenOK{FH: fh, Size: f.Size()}, fh
	}
	if ent := p.liveEntry(m.Path); ent != nil {
		p.st.openHits.Add(1)
		outcome = "hit " + ent.addr
		fh := p.issueHandle(&phandle{path: m.Path, ent: ent})
		return proto.OpenOK{FH: fh, Size: ent.size}, fh
	}
	p.st.openMisses.Add(1)
	ent, msg := p.resolveEntry(m.Path)
	if msg != nil {
		return msg, 0
	}
	outcome = "miss " + ent.addr
	fh := p.issueHandle(&phandle{path: m.Path, ent: ent})
	return proto.OpenOK{FH: fh, Size: ent.size}, fh
}

// read answers a downstream Read: from the block cache when resident,
// otherwise filling the containing block (and a readahead window of
// followers) from origin first. Pass-through handles read via the
// upstream File.
func (p *Proxy) read(m proto.Read, r mux.Responder) proto.Message {
	h := p.handleFor(m.FH)
	if h == nil {
		return proto.Err{Code: proto.EInval, Msg: "bad file handle"}
	}
	if h.pass != nil {
		return p.readThrough(h, m, r)
	}
	// First pass over the cache is the hot path; each fill attempt
	// re-resolves a stale entry, so two rounds cover "block absent" and
	// "entry went stale under us".
	for attempt := 0; attempt < 3; attempt++ {
		if f, n, ok := p.readFrame(m, r.Stream()); ok {
			if attempt == 0 {
				p.st.hits.Add(1)
			}
			p.st.bytesServed.Add(int64(n))
			if err := r.SendFrame(f); err != nil {
				return nil
			}
			return nil
		}
		if attempt == 0 {
			p.st.misses.Add(1)
		}
		if msg := p.fill(h, m); msg != nil {
			return msg
		}
	}
	return proto.Err{Code: proto.EIO, Msg: "pcache: block fill did not converge"}
}

// readThrough serves a Read on a pass-through (write-side) handle by
// delegating to the upstream File, still single-copy into a pooled
// frame.
func (p *Proxy) readThrough(h *phandle, m proto.Read, r mux.Responder) proto.Message {
	n := int(m.N)
	if max := transport.MaxFrame / 2; n > max {
		n = max
	}
	f, dst := proto.StartDataFrame(r.Stream(), m.FH, n)
	got, err := h.pass.ReadAt(dst, m.Off)
	if err != nil && err != io.EOF {
		f.Release()
		return errReply(err)
	}
	f.FinishData(got, err == io.EOF)
	p.st.bytesServed.Add(int64(got))
	r.SendFrame(f)
	return nil
}

// write forwards a downstream Write through the pass-through handle
// and keeps the block cache honest by invalidating the path.
func (p *Proxy) write(m proto.Write) proto.Message {
	h := p.handleFor(m.FH)
	if h == nil {
		return proto.Err{Code: proto.EInval, Msg: "bad file handle"}
	}
	if h.pass == nil {
		return proto.Err{Code: proto.EInval, Msg: "handle not open for writing"}
	}
	n, err := h.pass.WriteAt(m.Bytes, m.Off)
	if err != nil {
		return errReply(err)
	}
	p.invalidatePath(h.path)
	return proto.WriteOK{FH: m.FH, N: uint32(n)}
}

func (p *Proxy) trunc(m proto.Trunc) proto.Message {
	h := p.handleFor(m.FH)
	if h == nil {
		return proto.Err{Code: proto.EInval, Msg: "bad file handle"}
	}
	if h.pass == nil {
		return proto.Err{Code: proto.EInval, Msg: "handle not open for writing"}
	}
	if err := h.pass.Truncate(m.Size); err != nil {
		return errReply(err)
	}
	p.invalidatePath(h.path)
	return proto.TruncOK{FH: m.FH}
}

func (p *Proxy) closeHandle(m proto.Close) proto.Message {
	p.dropHandle(m.FH)
	return proto.CloseOK{FH: m.FH}
}

// stat answers from the cached entry when one is live (no origin
// traffic), otherwise walks upstream.
func (p *Proxy) stat(m proto.Stat) proto.Message {
	if ent := p.liveEntry(m.Path); ent != nil {
		p.st.locHits.Add(1)
		return proto.StatOK{Exists: true, Size: ent.size, Online: true}
	}
	st, err := p.up.Stat(m.Path)
	if err == client.ErrNotExist {
		return proto.StatOK{Exists: false}
	}
	if err != nil {
		return errReply(err)
	}
	return st
}

// locateDown answers a downstream Locate. The proxy is the terminal
// data server for everything it can resolve, so the answer is always
// its own address — but the path is resolved first so nonexistent
// files fail honestly, and a Refresh request invalidates the edge
// caches and propagates the refresh upstream (the Section III-C1
// protocol carrying invalidation through the tier).
func (p *Proxy) locateDown(m proto.Locate) proto.Message {
	outcome := "error"
	sp := p.cfg.Tracer.Start("pcache.locate", m.Path)
	defer func() { sp.End(outcome) }()
	if m.Refresh {
		p.invalidatePath(m.Path)
		// The client's Avoid names this proxy; what failed from our
		// vantage is whatever origin binding we held, which
		// invalidatePath just evicted. Walk upstream with Refresh so
		// the origin cmsd re-resolves too.
		if _, _, msg := p.resolveLocation(m.Path, true, ""); msg != nil {
			return msg
		}
		outcome = "refreshed"
		return proto.Redirect{Addr: p.cfg.Addr}
	}
	if ent := p.liveEntry(m.Path); ent != nil {
		p.st.locHits.Add(1)
		outcome = "hit"
		return proto.Redirect{Addr: p.cfg.Addr}
	}
	if _, _, msg := p.resolveLocation(m.Path, false, ""); msg != nil {
		return msg
	}
	outcome = "resolved"
	return proto.Redirect{Addr: p.cfg.Addr}
}

func (p *Proxy) unlink(m proto.Unlink) proto.Message {
	if err := p.up.Unlink(m.Path); err != nil {
		p.invalidatePath(m.Path)
		return errReply(err)
	}
	p.invalidatePath(m.Path)
	return proto.UnlinkOK{}
}

func (p *Proxy) prepare(m proto.Prepare) proto.Message {
	if err := p.up.Prepare(m.Paths, m.Write); err != nil {
		return errReply(err)
	}
	return proto.PrepareOK{Queued: uint32(len(m.Paths))}
}

// ------------------------------------------------------------ handles

func (p *Proxy) issueHandle(h *phandle) uint64 {
	p.hmu.Lock()
	p.nextFH++
	fh := p.nextFH
	p.handles[fh] = h
	p.hmu.Unlock()
	return fh
}

func (p *Proxy) handleFor(fh uint64) *phandle {
	p.hmu.Lock()
	h := p.handles[fh]
	p.hmu.Unlock()
	return h
}

func (p *Proxy) dropHandle(fh uint64) {
	p.hmu.Lock()
	h := p.handles[fh]
	delete(p.handles, fh)
	p.hmu.Unlock()
	if h != nil && h.pass != nil {
		h.pass.Close()
	}
}

// errReply maps an upstream client error onto the downstream protocol.
func errReply(err error) proto.Message {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, client.ErrNotExist):
		return proto.Err{Code: proto.ENoEnt, Msg: "no such file"}
	case errors.Is(err, client.ErrExist):
		return proto.Err{Code: proto.EExist, Msg: "file exists"}
	case errors.Is(err, client.ErrTimeout):
		return proto.Err{Code: proto.EBusy, Msg: "origin busy: " + err.Error()}
	default:
		return proto.Err{Code: proto.EIO, Msg: err.Error()}
	}
}
