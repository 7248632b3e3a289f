package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"scalla/internal/cmsd"
	"scalla/internal/proto"
	"scalla/internal/store"
	"scalla/internal/transport"
)

// The benchmark cluster: one manager over four supervisors over 32 data
// servers (fanout 8), every link a real loopback TCP connection. An open
// crosses all three tiers, and a cold lookup floods 4 + 32 queries.
// Deadlines and client settings stay at the shipped defaults.
const (
	supervisors = 4
	servers     = 32
	fanout      = servers / supervisors
)

// Endpoint roles, as the trace labels them.
const (
	roleManager    = "manager"
	roleSupervisor = "supervisor"
	roleServer     = "server"
	roleProxy      = "proxy"
)

type tree struct {
	mgr    *cmsd.Node
	sups   []*cmsd.Node
	srvs   []*cmsd.Node
	stores []*store.Store
	// roles maps every data-face address to the tier serving it.
	roles    map[string]string
	diskRoot string
}

// treeOptions selects the per-tree settings a workload may vary.
type treeOptions struct {
	net transport.Network
	// diskRoot, when set, gives every server a disk store under
	// diskRoot/srvN with the shipped fsync policy; empty means memory
	// stores.
	diskRoot string
	seed     int64
}

// reserveAddrs returns n distinct free loopback addresses. All
// listeners are held until every port is chosen, so no two nodes get
// the same port; they are released before the nodes bind them.
func reserveAddrs(n int) ([]string, error) {
	ls := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		ls = append(ls, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// startTree brings the three tiers up and waits until every child is
// logged into its parent.
func startTree(o treeOptions) (*tree, error) {
	addrs, err := reserveAddrs(2 + 2*supervisors + servers)
	if err != nil {
		return nil, err
	}
	next := func() string { a := addrs[0]; addrs = addrs[1:]; return a }
	t := &tree{roles: make(map[string]string), diskRoot: o.diskRoot}
	start := func(cfg cmsd.NodeConfig) (*cmsd.Node, error) {
		cfg.Net = o.net
		cfg.Prefixes = []string{"/"}
		cfg.SchedSeed = o.seed
		n, err := cmsd.NewNode(cfg)
		if err != nil {
			return nil, err
		}
		if err := n.Start(); err != nil {
			return nil, err
		}
		return n, nil
	}

	mgrData, mgrCtl := next(), next()
	// The manager's processing deadline covers its two redirector
	// levels, as the shipped cluster builder sets it.
	t.mgr, err = start(cmsd.NodeConfig{Name: "mgr", Role: proto.RoleManager,
		DataAddr: mgrData, CtlAddr: mgrCtl, Core: cmsd.Config{Levels: 2}})
	if err != nil {
		t.stop()
		return nil, err
	}
	t.roles[mgrData] = roleManager
	supCtl := make([]string, supervisors)
	for i := range supervisors {
		data, ctl := next(), next()
		sup, err := start(cmsd.NodeConfig{Name: fmt.Sprintf("sup%d", i),
			Role: proto.RoleSupervisor, DataAddr: data, CtlAddr: ctl,
			Parents: []string{mgrCtl}, Core: cmsd.Config{Levels: 1}})
		if err != nil {
			t.stop()
			return nil, err
		}
		t.sups = append(t.sups, sup)
		t.roles[data] = roleSupervisor
		supCtl[i] = ctl
	}
	for i := range servers {
		scfg := store.Config{}
		if o.diskRoot != "" {
			scfg.Root = filepath.Join(o.diskRoot, fmt.Sprintf("srv%d", i))
			scfg.Fsync = store.FsyncInterval
		}
		st, err := store.Open(scfg)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.stores = append(t.stores, st)
		data := next()
		srv, err := start(cmsd.NodeConfig{Name: fmt.Sprintf("srv%d", i),
			Role: proto.RoleServer, DataAddr: data,
			Parents: []string{supCtl[i/fanout]}, Store: st})
		if err != nil {
			t.stop()
			return nil, err
		}
		t.srvs = append(t.srvs, srv)
		t.roles[data] = roleServer
	}
	if err := t.waitFormed(30 * time.Second); err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

func (t *tree) waitFormed(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		up := t.mgr.Core().Table().Summary().Online == supervisors
		for _, s := range t.sups {
			up = up && s.ParentsUp() == 1 && s.Core().Table().Summary().Online == fanout
		}
		for _, s := range t.srvs {
			up = up && s.ParentsUp() == 1
		}
		if up {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tree not formed after %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop shuts every node down (children first, so no parent sees a
// storm of redials), closes the stores and removes the disk root.
func (t *tree) stop() {
	for _, s := range t.srvs {
		s.Stop()
	}
	for _, s := range t.sups {
		s.Stop()
	}
	if t.mgr != nil {
		t.mgr.Stop()
	}
	for _, st := range t.stores {
		st.Close()
	}
	if t.diskRoot != "" {
		os.RemoveAll(t.diskRoot)
	}
}

func (t *tree) redirectors() []*cmsd.Node {
	return append([]*cmsd.Node{t.mgr}, t.sups...)
}

// placeChunk bounds the buffer a placement writes from, so placing large
// files leaves no large garbage behind to move the peak memory.
const placeChunk = 64 << 10

// place stores a pattern file of size bytes for path on server srv,
// writing it in chunks from buf (at least placeChunk bytes).
func (t *tree) place(path string, srv int, seed int64, size int, buf []byte) error {
	st := t.stores[srv]
	ph := pathHash(path)
	err := st.Create(path)
	for off := 0; off < size && err == nil; off += placeChunk {
		n := min(placeChunk, size-off)
		fillPattern(buf[:n], ph, seed, int64(off))
		_, err = st.WriteAt(path, int64(off), buf[:n])
	}
	if err != nil {
		return fmt.Errorf("place %s on srv%d: %w", path, srv, err)
	}
	return nil
}
