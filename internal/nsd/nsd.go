// Package nsd implements the Cluster Name Space daemon.
//
// Scalla deliberately keeps no global namespace: managers track only
// the names clients actually request, which is what makes registration
// light and restarts fast (paper Sections II-B4 and V). When users do
// need an ls-type view across the cluster, the paper points at a
// separate Cluster Name Space daemon (footnote 3). This package is that
// daemon: it fans a List out to every data server, merges the results,
// and can itself serve the merged namespace over the data plane.
package nsd

import (
	"sort"
	"strings"
	"sync"

	"scalla/internal/mux"
	"scalla/internal/proto"
	"scalla/internal/transport"
)

// Daemon aggregates the namespaces of a set of data servers.
type Daemon struct {
	net  transport.Network
	face *mux.Face

	mu      sync.Mutex
	servers []string // data addresses of leaf servers
}

// New returns a Daemon that will consult the given servers.
func New(net transport.Network, servers ...string) *Daemon {
	d := &Daemon{net: net, servers: append([]string(nil), servers...)}
	d.face = mux.NewFace(mux.FaceConfig{
		Name: "nsd",
		// Listing fans out to every server, so a few concurrent workers
		// overlap fan-outs nicely without needing a deep pool. The shared
		// scheduler keeps one greedy lister from monopolizing them and
		// sheds (rather than queues without bound) under surge.
		Sched: mux.SchedConfig{Workers: 4},
		NewConn: func() (mux.Handler, func()) {
			return d.handle, nil
		},
	})
	return d
}

// AddServer registers another data server with the daemon.
func (d *Daemon) AddServer(addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, s := range d.servers {
		if s == addr {
			return
		}
	}
	d.servers = append(d.servers, addr)
}

// Servers returns the registered server addresses.
func (d *Daemon) Servers() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.servers...)
}

// List fans the prefix query out to every server and merges the
// results: duplicates (replicas) collapse into one entry, preferring
// the online copy's metadata. Unreachable servers are skipped — the
// namespace view is best-effort by design.
func (d *Daemon) List(prefix string) []proto.Entry {
	servers := d.Servers()
	type result struct {
		entries []proto.Entry
	}
	results := make([]result, len(servers))
	var wg sync.WaitGroup
	for i, addr := range servers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entries, err := listOne(d.net, addr, prefix)
			if err == nil {
				results[i].entries = entries
			}
		}()
	}
	wg.Wait()

	merged := make(map[string]proto.Entry)
	for _, r := range results {
		for _, e := range r.entries {
			if prev, ok := merged[e.Path]; ok {
				// Replica: prefer online metadata.
				if !prev.Online && e.Online {
					merged[e.Path] = e
				}
				continue
			}
			merged[e.Path] = e
		}
	}
	out := make([]proto.Entry, 0, len(merged))
	for _, e := range merged {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

func listOne(net transport.Network, addr, prefix string) ([]proto.Entry, error) {
	c, err := net.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := transport.SendMessage(c, proto.List{Prefix: prefix}); err != nil {
		return nil, err
	}
	frame, err := c.Recv()
	if err != nil {
		return nil, err
	}
	m, err := proto.Unmarshal(frame)
	if err != nil {
		return nil, err
	}
	lk, ok := m.(proto.ListOK)
	if !ok {
		return nil, transport.ErrClosed
	}
	return lk.Entries, nil
}

// Serve exposes the merged namespace on addr: clients send proto.List
// and receive the cluster-wide merged proto.ListOK. It returns once the
// listener is bound; call Stop to shut down.
func (d *Daemon) Serve(addr string) error {
	l, err := d.net.Listen(addr)
	if err != nil {
		return err
	}
	go d.face.Serve(l)
	return nil
}

// Stop closes the daemon's listener and connections and drains its
// dispatch scheduler.
func (d *Daemon) Stop() { d.face.Close() }

func (d *Daemon) handle(m proto.Message, _ mux.Responder) proto.Message {
	switch q := m.(type) {
	case proto.List:
		return proto.ListOK{Entries: d.List(q.Prefix)}
	case proto.Ping:
		return proto.Pong{}
	default:
		return proto.Err{Code: proto.EInval, Msg: "nsd: expected list"}
	}
}

// Tree renders the merged namespace under prefix as an indented tree,
// the view the paper's FUSE integration offers. Directories are
// inferred from path components.
func (d *Daemon) Tree(prefix string) string {
	entries := d.List(prefix)
	var b strings.Builder
	seenDirs := make(map[string]bool)
	for _, e := range entries {
		parts := strings.Split(strings.TrimPrefix(e.Path, "/"), "/")
		for i := 0; i < len(parts)-1; i++ {
			dir := strings.Join(parts[:i+1], "/")
			if !seenDirs[dir] {
				seenDirs[dir] = true
				b.WriteString(strings.Repeat("  ", i))
				b.WriteString(parts[i])
				b.WriteString("/\n")
			}
		}
		b.WriteString(strings.Repeat("  ", len(parts)-1))
		b.WriteString(parts[len(parts)-1])
		if !e.Online {
			b.WriteString(" [offline]")
		}
		b.WriteString("\n")
	}
	return b.String()
}
