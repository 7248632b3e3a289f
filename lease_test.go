package scalla

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"scalla/internal/client"
	"scalla/internal/proto"
	"scalla/internal/transport"
)

// destCounting gives every destination address its own
// transport.CountingNetwork, so a test can tell how many frames a
// client sent to the manager, a supervisor or a data server.
type destCounting struct {
	transport.Network
	mu  sync.Mutex
	per map[string]*transport.CountingNetwork
}

func newDestCounting(inner transport.Network) *destCounting {
	return &destCounting{Network: inner, per: map[string]*transport.CountingNetwork{}}
}

func (d *destCounting) Dial(addr string) (transport.Conn, error) {
	d.mu.Lock()
	cn := d.per[addr]
	if cn == nil {
		cn = transport.Counting(d.Network)
		d.per[addr] = cn
	}
	d.mu.Unlock()
	return cn.Dial(addr)
}

// sent returns the frames sent so far, by destination.
func (d *destCounting) sent() map[string]int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]int64, len(d.per))
	for addr, cn := range d.per {
		out[addr] = cn.Stats().FramesSent
	}
	return out
}

// since returns the frames sent per destination after snapshot before.
func (d *destCounting) since(before map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for addr, n := range d.sent() {
		if n -= before[addr]; n > 0 {
			out[addr] = n
		}
	}
	return out
}

func total(m map[string]int64) (n int64) {
	for _, v := range m {
		n += v
	}
	return n
}

// A repeat read-open of a path is one request frame, to the data
// server that served the first; the manager and the supervisor see
// nothing of it.
func TestLeasedOpenIsOneFrameToTheDataServer(t *testing.T) {
	c, err := StartCluster(quickOptions(4, 2)) // manager, 2 supervisors, 4 servers
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if c.Depth() != 2 {
		t.Fatalf("depth %d, want a supervisor tier", c.Depth())
	}
	const path = "/lease/hot"
	c.Store(3).Put(path, []byte("hot bytes"))
	net := newDestCounting(c.Net)
	cl := client.New(client.Config{Net: net, Managers: c.ManagerAddrs()})
	defer cl.Close()
	srv := c.Servers[3].DataAddr()

	before := net.sent()
	f, err := cl.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	walk := net.since(before)
	f.Close()
	if len(walk) != 3 || walk[c.ManagerAddrs()[0]] != 1 || walk[srv] != 1 {
		t.Fatalf("first open sent %v; want one frame each to manager, supervisor, server", walk)
	}

	before = net.sent()
	f, err = cl.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	hit := net.since(before)
	if total(hit) != 1 || hit[srv] != 1 {
		t.Fatalf("leased open sent %v; want exactly one frame, to %s", hit, srv)
	}
	buf := make([]byte, 64)
	n, _ := f.ReadAt(buf, 0)
	f.Close()
	if string(buf[:n]) != "hot bytes" {
		t.Fatalf("leased open read %q", buf[:n])
	}

	before = net.sent()
	if st, err := cl.Stat(path); err != nil || st.Size != 9 {
		t.Fatalf("Stat = %+v, %v", st, err)
	}
	if hit := net.since(before); total(hit) != 1 || hit[srv] != 1 {
		t.Fatalf("leased stat sent %v; want exactly one frame, to %s", hit, srv)
	}
	if ls := cl.LeaseStats(); ls.Hits != 2 || ls.Fallbacks != 0 {
		t.Fatalf("LeaseStats = %+v, want 2 hits, 0 fallbacks", ls)
	}
}

// A file unlinked at server A and recreated with new bytes at server B:
// the client whose lease names A pays one failed exchange plus one walk,
// reads B's bytes, and holds a lease on B from then on.
func TestStaleLeaseCostsOneExtraWalk(t *testing.T) {
	c, err := StartCluster(quickOptions(4, 64))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	const path = "/lease/moving"
	c.Store(0).Put(path, []byte("old bytes at A"))
	net := newDestCounting(c.Net)
	cl := client.New(client.Config{Net: net, Managers: c.ManagerAddrs()})
	defer cl.Close()

	got, err := cl.ReadFile(path)
	if err != nil || string(got) != "old bytes at A" {
		t.Fatalf("first read = %q, %v", got, err)
	}
	before := net.sent()
	f, err := cl.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := total(net.since(before)); n != 1 {
		t.Fatalf("leased open sent %d frames, want 1", n)
	}
	f.Close()

	// Another client moves the file and refreshes the manager's cache.
	c.Store(0).Unlink(path)
	c.Store(1).Put(path, []byte("new bytes at B"))
	other := c.NewClient()
	defer other.Close()
	if addr, err := other.Relocate(path, false, ""); err != nil || addr != c.Servers[1].DataAddr() {
		t.Fatalf("Relocate = %q, %v", addr, err)
	}

	before = net.sent()
	f, err = cl.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	sent := net.since(before)
	buf := make([]byte, 64)
	n, _ := f.ReadAt(buf, 0)
	f.Close()
	if string(buf[:n]) != "new bytes at B" {
		t.Fatalf("after the move the client read %q", buf[:n])
	}
	// One Open to A that fails, then the walk: manager, then B.
	a, b := c.Servers[0].DataAddr(), c.Servers[1].DataAddr()
	if total(sent) != 3 || sent[a] != 1 || sent[c.ManagerAddrs()[0]] != 1 || sent[b] != 1 {
		t.Fatalf("stale open sent %v; want one frame each to A, the manager and B", sent)
	}
	if ls := cl.LeaseStats(); ls.Hits != 1 || ls.Fallbacks != 1 {
		t.Fatalf("LeaseStats = %+v, want 1 hit, 1 fallback", ls)
	}
	before = net.sent()
	if got, err := cl.ReadFile(path); err != nil || string(got) != "new bytes at B" {
		t.Fatalf("re-read = %q, %v", got, err)
	}
	if sent := net.since(before); sent[c.ManagerAddrs()[0]] != 0 {
		t.Fatalf("the renewed lease still walked: %v", sent)
	}
}

// A negative ReadAt offset on a handle-backed File is the caller's
// mistake, not the server's: it fails with ErrIO before any frame is
// sent, and the lease and the handle stay good.
func TestNegativeReadAtSendsNothing(t *testing.T) {
	c, err := StartCluster(quickOptions(1, 64))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	const path = "/lease/negative"
	body := bytes.Repeat([]byte("neg"), proto.InlineMax/3+1)
	c.Store(0).Put(path, body)
	net := newDestCounting(c.Net)
	cl := client.New(client.Config{Net: net, Managers: c.ManagerAddrs()})
	defer cl.Close()
	if _, err := cl.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := cl.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	before := net.sent()
	buf := make([]byte, 64)
	if n, err := f.ReadAt(buf, -1); n != 0 || !errors.Is(err, client.ErrIO) {
		t.Fatalf("ReadAt(-1) = %d, %v; want 0, ErrIO", n, err)
	}
	if sent := net.since(before); total(sent) != 0 {
		t.Fatalf("a negative-offset read sent %v; want nothing", sent)
	}
	n, err := f.ReadAt(buf, 3)
	if err != nil || !bytes.Equal(buf[:n], body[3:3+len(buf)]) {
		t.Fatalf("ReadAt(3) after the bad call = %q, %v", buf[:n], err)
	}
	if ls := cl.LeaseStats(); ls.Fallbacks != 0 {
		t.Fatalf("LeaseStats = %+v; the bad call dropped the lease", ls)
	}
	before = net.sent()
	g, err := cl.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	if sent := net.since(before); sent[c.Servers[0].DataAddr()] == 0 || sent[c.ManagerAddrs()[0]] != 0 {
		t.Fatalf("open after the bad call sent %v; want the leased server only", sent)
	}
}
