// Package scalla is a from-scratch Go implementation of Scalla — the
// Structured Cluster Architecture for Low Latency Access (Hanushevsky &
// Wang, IPDPS 2012), the architecture behind XRootD/cmsd.
//
// A Scalla cluster is a 64-ary tree of nodes: a manager (head node,
// optionally replicated), supervisors (interior redirectors), and data
// servers (leaves). Clients contact the manager, which locates files by
// flooding positive-response-only queries down the tree, caches the
// answers in its location cache, and redirects clients to a selected
// server. The package wires the internal subsystems (location cache,
// fast response queue, membership, transports, data servers) into a
// small public API:
//
//	cl, _ := scalla.StartCluster(scalla.Options{Servers: 8})
//	defer cl.Stop()
//	cl.Store(3).Put("/store/a.root", data)
//	c := cl.NewClient()
//	f, _ := c.Open("/store/a.root")
//
// Everything runs over an in-process network by default; pass a
// transport.TCP()-backed network via Options.Net (or run cmd/scallad)
// to deploy over real sockets.
package scalla

import (
	"errors"
	"fmt"
	"time"

	"scalla/internal/cache"
	"scalla/internal/client"
	"scalla/internal/cluster"
	"scalla/internal/cmsd"
	"scalla/internal/nsd"
	"scalla/internal/obs"
	"scalla/internal/pcache"
	"scalla/internal/proto"
	"scalla/internal/respq"
	"scalla/internal/store"
	"scalla/internal/transport"
)

// Re-exported client types and errors — the surface applications code
// against.
type (
	// Client is a Scalla client handle; see internal/client.
	Client = client.Client
	// File is an open remote file with transparent refresh recovery.
	File = client.File
	// Node is one running Scalla daemon (manager, supervisor, or
	// server).
	Node = cmsd.Node
)

// Errors surfaced by the client API.
var (
	ErrNotExist = client.ErrNotExist
	ErrExist    = client.ErrExist
	ErrIO       = client.ErrIO
	ErrTimeout  = client.ErrTimeout
)

// SelectionPolicy picks among multiple servers holding a file.
type SelectionPolicy = cluster.Policy

// Selection policies (paper Section II-B3: "load, selection frequency,
// space, etc.").
const (
	ByLoad      = cluster.ByLoad
	BySpace     = cluster.BySpace
	ByFrequency = cluster.ByFrequency
	RoundRobin  = cluster.RoundRobin
)

// Options configures StartCluster.
type Options struct {
	// Servers is the number of data servers. Required.
	Servers int
	// ManagerReplicas is the number of head nodes. Every subordinate
	// logs into all of them ("the logical head node … can be one of
	// many", Section II-B2) and clients fail over between them.
	// Default 1.
	ManagerReplicas int
	// Fanout is the maximum subordinates per node — the paper's cluster
	// set size. Default 64 (the paper's value); benchmarks shrink it to
	// build deep trees cheaply.
	Fanout int
	// Net is the transport. Default: a fresh in-process network.
	Net transport.Network
	// Prefixes are the path prefixes every server exports. Default "/".
	Prefixes []string
	// FullDelay is the paper's 5-second full delay. Default 5 s.
	FullDelay time.Duration
	// FastPeriod is the fast-response window. Default 133 ms.
	FastPeriod time.Duration
	// Lifetime is the location-object lifetime Lt. Default 8 h.
	Lifetime time.Duration
	// StageDelay simulates Mass Storage System staging time.
	StageDelay time.Duration
	// StoreRoot, when set, gives every server a disk-backed store
	// under <StoreRoot>/srvN (see STORAGE.md). Empty keeps the
	// in-memory backend.
	StoreRoot string
	// StoreFsync is the disk backend's fsync policy (used only with
	// StoreRoot). Default store.FsyncInterval.
	StoreFsync store.FsyncPolicy
	// ReadPolicy and WritePolicy select among file holders.
	ReadPolicy  SelectionPolicy
	WritePolicy SelectionPolicy
	// PingInterval paces liveness/load probes. Default 1 s.
	PingInterval time.Duration
	// MissedPings is how many ping intervals a subordinate may stay
	// silent before its redirector evicts it as dead (see
	// cmsd.NodeConfig.MissedPings). Default 5.
	MissedPings int
	// DropDelay is how long a disconnected member keeps its membership
	// slot before being dropped (see cluster.Config.DropDelay).
	// Default 10 min.
	DropDelay time.Duration
	// ReconnectDelay is the base of the subordinate redial backoff.
	// Default 50 ms.
	ReconnectDelay time.Duration
	// RejoinSpread bounds the re-login storm after a parent restart by
	// staggering each child's first redial by its slot index (see
	// cmsd.NodeConfig.RejoinSpread). Default 4× ReconnectDelay;
	// negative disables.
	RejoinSpread time.Duration
	// Tracer, if set, records resolution spans on every redirector node
	// (and is where a faults.Network should send its fault spans, so
	// /tracez interleaves injections with the resolutions they disturb).
	Tracer *obs.Tracer
	// RespondAlways switches servers to the explicit-negative protocol
	// baseline (experiment E10 only).
	RespondAlways bool
}

func (o Options) withDefaults() Options {
	if o.ManagerReplicas <= 0 {
		o.ManagerReplicas = 1
	}
	if o.Fanout <= 0 {
		o.Fanout = 64
	}
	if o.Net == nil {
		o.Net = transport.NewInProc(transport.InProcConfig{})
	}
	if len(o.Prefixes) == 0 {
		o.Prefixes = []string{"/"}
	}
	if o.FullDelay <= 0 {
		o.FullDelay = 5 * time.Second
	}
	if o.FastPeriod <= 0 {
		o.FastPeriod = respq.DefaultPeriod
	}
	return o
}

// Cluster is a running Scalla tree plus handles to its pieces.
type Cluster struct {
	opts Options

	// Net is the network the cluster runs on; clients must dial
	// through it.
	Net transport.Network
	// Manager is the first head node.
	Manager *Node
	// Managers holds every head-node replica (Managers[0] == Manager).
	Managers []*Node
	// Supervisors are the interior redirectors, top level first.
	Supervisors []*Node
	// Servers are the leaf data servers.
	Servers []*Node

	stores        []*store.Store
	serverCfgs    []cmsd.NodeConfig // for RestartServer
	expectedLinks int               // total parent links the tree should establish
}

// StartCluster builds and starts a Scalla tree with the given shape:
// the minimum number of supervisor levels such that no node has more
// than Fanout subordinates (Figure 1's organization).
func StartCluster(o Options) (*Cluster, error) {
	o = o.withDefaults()
	if o.Servers <= 0 {
		return nil, errors.New("scalla: Options.Servers must be positive")
	}
	c := &Cluster{opts: o, Net: o.Net}

	// Compute the supervisor level widths bottom-up: each level must
	// fan its subordinates out at no more than Fanout per node, so a
	// level of width w needs ceil(w/Fanout) parents above it. widths
	// ends up ordered top (just under the managers) to bottom.
	var widths []int
	for n := o.Servers; n > o.Fanout; {
		n = (n + o.Fanout - 1) / o.Fanout
		widths = append([]int{n}, widths...)
	}

	// coreFor parameterizes one redirector level: levels counts the
	// redirector tiers at or below that core (1 = leaf supervisor), and
	// scales its processing deadline so a deep subtree's legitimate
	// resolution time never reads as definitive not-found upstream
	// (cmsd.Config.Levels, Section III-C1).
	coreFor := func(levels int) cmsd.Config {
		return cmsd.Config{
			Cache: cache.Config{Lifetime: o.Lifetime},
			Queue: respq.Config{Period: o.FastPeriod},
			// Capacity=Fanout makes each cell actually fill at the
			// planned width, so cell overflow engages at any scale, not
			// only at the wire's 64-member ceiling.
			Cluster:     cluster.Config{DropDelay: o.DropDelay, Capacity: o.Fanout},
			FullDelay:   o.FullDelay,
			Levels:      levels,
			ReadPolicy:  o.ReadPolicy,
			WritePolicy: o.WritePolicy,
		}
	}

	// Head node replicas: every direct subordinate logs into all of
	// them ("the logical head node … can be one of many", II-B2).
	topParents := make([]string, 0, o.ManagerReplicas)
	for r := 0; r < o.ManagerReplicas; r++ {
		name := fmt.Sprintf("mgr%d", r)
		mgr, err := c.startNode(cmsd.NodeConfig{
			Name: name, Role: proto.RoleManager,
			DataAddr: name + ":data", CtlAddr: name + ":ctl",
			Net: o.Net, Core: coreFor(len(widths) + 1), PingInterval: o.PingInterval,
			MissedPings: o.MissedPings, ReconnectDelay: o.ReconnectDelay,
			RejoinSpread: o.RejoinSpread,
			Tracer:       o.Tracer,
		})
		if err != nil {
			c.Stop()
			return nil, err
		}
		c.Managers = append(c.Managers, mgr)
		topParents = append(topParents, name+":ctl")
	}
	c.Manager = c.Managers[0]

	// parents holds, per slot at the current level, the set of parent
	// control addresses a subordinate there must log into. The top
	// level is replicated (all managers); lower levels have one parent.
	parents := [][]string{topParents}
	for level, width := range widths {
		next := make([][]string, 0, width)
		for i := 0; i < width; i++ {
			name := fmt.Sprintf("sup%d-%d", level+1, i)
			sup, err := c.startNode(cmsd.NodeConfig{
				Name: name, Role: proto.RoleSupervisor,
				DataAddr: name + ":data", CtlAddr: name + ":ctl",
				Parents: parents[i%len(parents)], Prefixes: o.Prefixes,
				Net: o.Net, Core: coreFor(len(widths) - level), PingInterval: o.PingInterval,
				MissedPings: o.MissedPings, ReconnectDelay: o.ReconnectDelay,
				RejoinSpread: o.RejoinSpread,
				Tracer:       o.Tracer,
			})
			if err != nil {
				c.Stop()
				return nil, err
			}
			c.Supervisors = append(c.Supervisors, sup)
			c.expectedLinks += len(parents[i%len(parents)])
			next = append(next, []string{name + ":ctl"})
		}
		parents = next
	}

	for i := 0; i < o.Servers; i++ {
		scfg := store.Config{StageDelay: o.StageDelay}
		if o.StoreRoot != "" {
			scfg.Root = fmt.Sprintf("%s/srv%d", o.StoreRoot, i)
			scfg.Fsync = o.StoreFsync
		}
		st, err := store.Open(scfg)
		if err != nil {
			c.Stop()
			return nil, err
		}
		name := fmt.Sprintf("srv%d", i)
		cfg := cmsd.NodeConfig{
			Name: name, Role: proto.RoleServer,
			DataAddr: name + ":data",
			Parents:  parents[i%len(parents)],
			Prefixes: o.Prefixes,
			Net:      o.Net, Store: st,
			RespondAlways:  o.RespondAlways,
			PingInterval:   o.PingInterval,
			ReconnectDelay: o.ReconnectDelay,
			RejoinSpread:   o.RejoinSpread,
		}
		srv, err := c.startNode(cfg)
		if err != nil {
			c.Stop()
			return nil, err
		}
		c.Servers = append(c.Servers, srv)
		c.stores = append(c.stores, st)
		c.serverCfgs = append(c.serverCfgs, cfg)
		c.expectedLinks += len(parents[i%len(parents)])
	}

	if err := c.WaitFormed(30 * time.Second); err != nil {
		c.Stop()
		return nil, err
	}
	return c, nil
}

func (c *Cluster) startNode(cfg cmsd.NodeConfig) (*Node, error) {
	if cfg.ReconnectDelay == 0 {
		cfg.ReconnectDelay = 50 * time.Millisecond
	}
	n, err := cmsd.NewNode(cfg)
	if err != nil {
		return nil, err
	}
	if err := n.Start(); err != nil {
		return nil, err
	}
	return n, nil
}

// WaitFormed blocks until every server and supervisor has logged into
// all of its parents.
func (c *Cluster) WaitFormed(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		up := 0
		for _, s := range c.Servers {
			up += s.ParentsUp()
		}
		for _, s := range c.Supervisors {
			up += s.ParentsUp()
		}
		if up == c.expectedLinks {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("scalla: cluster did not form: %d/%d links up",
				up, c.expectedLinks)
		}
		time.Sleep(time.Millisecond)
	}
}

// Stop shuts the whole tree down, leaves first, then closes the
// backing stores (disk-backed ones flush and release their fds).
func (c *Cluster) Stop() {
	for _, s := range c.Servers {
		s.Stop()
	}
	for i := len(c.Supervisors) - 1; i >= 0; i-- {
		c.Supervisors[i].Stop()
	}
	for _, m := range c.Managers {
		m.Stop()
	}
	for _, st := range c.stores {
		st.Close()
	}
}

// NewClient returns a client aimed at the cluster's managers (all
// replicas). Callers own the client and should Close it.
func (c *Cluster) NewClient() *Client {
	addrs := make([]string, len(c.Managers))
	for i, m := range c.Managers {
		addrs[i] = m.DataAddr()
	}
	return client.New(client.Config{Net: c.Net, Managers: addrs})
}

// Store returns server i's backing store — tests and workload
// generators place files through it directly.
func (c *Cluster) Store(i int) *store.Store { return c.stores[i] }

// ManagerAddrs returns the data addresses of every head-node replica,
// in the order clients should try them.
func (c *Cluster) ManagerAddrs() []string {
	addrs := make([]string, len(c.Managers))
	for i, m := range c.Managers {
		addrs[i] = m.DataAddr()
	}
	return addrs
}

// CrashServer stops data server i abruptly, simulating a node death:
// its listeners close and every link drops, so a client's open data
// connection reads EOF and fails its in-flight calls rather than being
// answered. Its backing store and identity are preserved;
// RestartServer brings it back. Combine with a faults.Network Sever of
// its addresses to also cut frames already in flight.
func (c *Cluster) CrashServer(i int) {
	c.Servers[i].Stop()
}

// AddServer starts one brand-new data server after the cluster has
// formed, aimed at the head nodes like any other direct subordinate. If
// the manager's cell is already full, the login is vectored at a
// supervisor child via cell overflow (proto.LoginRedirect) and the
// newcomer converges to a deeper slot instead of redial-looping — this
// is how a 65th server joins a full 64-wide cell (DESIGN.md §12). The
// call returns once the node is started; use WaitFormed to block until
// its login (possibly after following redirects) lands.
func (c *Cluster) AddServer() (*Node, error) {
	i := len(c.Servers)
	scfg := store.Config{StageDelay: c.opts.StageDelay}
	if c.opts.StoreRoot != "" {
		scfg.Root = fmt.Sprintf("%s/srv%d", c.opts.StoreRoot, i)
		scfg.Fsync = c.opts.StoreFsync
	}
	st, err := store.Open(scfg)
	if err != nil {
		return nil, err
	}
	parents := make([]string, len(c.Managers))
	for r, m := range c.Managers {
		parents[r] = m.CtlAddr()
	}
	cfg := cmsd.NodeConfig{
		Name: fmt.Sprintf("srv%d", i), Role: proto.RoleServer,
		DataAddr: fmt.Sprintf("srv%d:data", i),
		Parents:  parents,
		Prefixes: c.opts.Prefixes,
		Net:      c.Net, Store: st,
		RespondAlways:  c.opts.RespondAlways,
		PingInterval:   c.opts.PingInterval,
		ReconnectDelay: c.opts.ReconnectDelay,
		RejoinSpread:   c.opts.RejoinSpread,
	}
	srv, err := c.startNode(cfg)
	if err != nil {
		st.Close()
		return nil, err
	}
	c.Servers = append(c.Servers, srv)
	c.stores = append(c.stores, st)
	c.serverCfgs = append(c.serverCfgs, cfg)
	c.expectedLinks += len(parents)
	return srv, nil
}

// RestartServer restarts a crashed data server with its original
// configuration and store. Logging back in under the same name reclaims
// the same membership slot; whether that counts as a new connect epoch
// is the table's call (same exports within the drop delay → locations
// stay valid; after a drop → new server, old cache bits cannot
// resurrect).
func (c *Cluster) RestartServer(i int) error {
	n, err := c.startNode(c.serverCfgs[i])
	if err != nil {
		return err
	}
	c.Servers[i] = n
	return nil
}

// Depth returns the number of redirector levels above the servers
// (1 = manager only).
func (c *Cluster) Depth() int {
	if len(c.Supervisors) == 0 {
		return 1
	}
	levels := 1
	seen := map[string]bool{}
	for _, s := range c.Supervisors {
		var l int
		fmt.Sscanf(s.Name(), "sup%d-", &l)
		if !seen[fmt.Sprint(l)] {
			seen[fmt.Sprint(l)] = true
			levels++
		}
	}
	return levels
}

// Namespace returns a Cluster Name Space daemon over all the cluster's
// data servers (paper footnote 3).
func (c *Cluster) Namespace() *nsd.Daemon {
	addrs := make([]string, len(c.Servers))
	for i, s := range c.Servers {
		addrs[i] = s.DataAddr()
	}
	return nsd.New(c.Net, addrs...)
}

// Proxy is an edge proxy-cache daemon; see internal/pcache.
type Proxy = pcache.Proxy

// ProxyOptions configures StartProxy. Zero values take the pcache
// defaults.
type ProxyOptions struct {
	// Addr is the address the proxy listens on; clients use it as
	// their manager address. Default "pcache:data".
	Addr string
	// BlockSize is the data-cache block granularity.
	BlockSize int
	// CacheBytes caps resident block data.
	CacheBytes int64
	// BlockLifetime ages blocks out via the eviction windows.
	BlockLifetime time.Duration
	// OriginReadahead is the miss-fill window in blocks.
	OriginReadahead int
	// Workers bounds concurrent dispatch per downstream connection.
	Workers int
	// RPCTimeout bounds one origin exchange.
	RPCTimeout time.Duration
	// Tracer records proxy spans when enabled.
	Tracer *obs.Tracer
}

// StartProxy starts an edge proxy cache in front of the cluster's
// managers on the cluster's network. Clients created with
// NewProxyClient (or any client whose Managers name the proxy's
// address) resolve and read through it; repeat opens and hot reads are
// absorbed at the edge.
func (c *Cluster) StartProxy(o ProxyOptions) (*Proxy, error) {
	if o.Addr == "" {
		o.Addr = "pcache:data"
	}
	p := pcache.New(pcache.Config{
		Net:             c.Net,
		Addr:            o.Addr,
		Origins:         c.ManagerAddrs(),
		BlockSize:       o.BlockSize,
		CacheBytes:      o.CacheBytes,
		BlockLifetime:   o.BlockLifetime,
		OriginReadahead: o.OriginReadahead,
		Workers:         o.Workers,
		RPCTimeout:      o.RPCTimeout,
		Tracer:          o.Tracer,
	})
	if err := p.Start(); err != nil {
		return nil, err
	}
	return p, nil
}

// NewProxyClient returns a client aimed at an edge proxy instead of
// the cluster's managers; everything else about the client — walks,
// readahead, refresh recovery — works unmodified. Callers own the
// client and should Close it.
func (c *Cluster) NewProxyClient(p *Proxy) *Client {
	return client.New(client.Config{Net: c.Net, Managers: []string{p.Addr()}})
}
