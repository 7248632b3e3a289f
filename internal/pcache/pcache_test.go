package pcache

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"scalla/internal/cache"
	"scalla/internal/client"
	"scalla/internal/cmsd"
	"scalla/internal/proto"
	"scalla/internal/respq"
	"scalla/internal/store"
	"scalla/internal/transport"
	"scalla/internal/workload"
)

// Short timings so full-delay paths complete quickly in tests.
const (
	tFullDelay  = 150 * time.Millisecond
	tFastPeriod = 20 * time.Millisecond
)

// origin is a miniature origin federation: one manager, N data
// servers, their stores.
type origin struct {
	net    *transport.InProc
	mgr    *cmsd.Node
	srvs   []*cmsd.Node
	stores []*store.Store
}

func startOrigin(t testing.TB, servers int) *origin {
	t.Helper()
	net := transport.NewInProc(transport.InProcConfig{})
	o := &origin{net: net}
	o.mgr = startNode(t, cmsd.NodeConfig{
		Name: "mgr", Role: proto.RoleManager,
		DataAddr: "mgr:data", CtlAddr: "mgr:ctl",
		Net: net,
		Core: cmsd.Config{
			Cache:     cache.Config{InitialBuckets: 89},
			Queue:     respq.Config{Period: tFastPeriod},
			FullDelay: tFullDelay,
		},
		PingInterval:   50 * time.Millisecond,
		ReconnectDelay: 20 * time.Millisecond,
	})
	for i := 0; i < servers; i++ {
		st := store.New(store.Config{})
		name := fmt.Sprintf("srv%d", i)
		srv := startNode(t, cmsd.NodeConfig{
			Name: name, Role: proto.RoleServer,
			DataAddr: name + ":data",
			Parents:  []string{"mgr:ctl"}, Prefixes: []string{"/"},
			Net: net, Store: st,
			ReconnectDelay: 20 * time.Millisecond,
		})
		o.srvs = append(o.srvs, srv)
		o.stores = append(o.stores, st)
	}
	deadline := time.Now().Add(10 * time.Second)
	for o.mgr.Core().Table().Count() < servers {
		if time.Now().After(deadline) {
			t.Fatalf("origin did not form: %d/%d children", o.mgr.Core().Table().Count(), servers)
		}
		time.Sleep(time.Millisecond)
	}
	return o
}

func startNode(t testing.TB, cfg cmsd.NodeConfig) *cmsd.Node {
	t.Helper()
	n, err := cmsd.NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return n
}

// startProxy runs a proxy in front of the origin and returns it with a
// downstream client pointed at it.
func startProxy(t testing.TB, o *origin, cfg Config) (*Proxy, *client.Client) {
	t.Helper()
	cfg.Net = o.net
	if cfg.Addr == "" {
		cfg.Addr = "edge:data"
	}
	cfg.Origins = []string{o.mgr.DataAddr()}
	if cfg.RPCTimeout == 0 {
		cfg.RPCTimeout = 5 * time.Second
	}
	p := New(cfg)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	cl := client.New(client.Config{
		Net: o.net, Managers: []string{cfg.Addr},
		WaitBudget: 5 * time.Second,
	})
	t.Cleanup(cl.Close)
	return p, cl
}

// payload builds a deterministic, offset-identifiable file body.
func payload(tag byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag ^ byte(i*7)
	}
	return b
}

// TestProxyServesThrough exercises the basic edge flow: a client
// pointed at the proxy reads a file it has never seen (miss fill from
// origin), then again (all hits), with correct bytes both times.
func TestProxyServesThrough(t *testing.T) {
	o := startOrigin(t, 2)
	want := payload(1, 200<<10) // 200 KiB: spans several 64 KiB blocks
	if err := o.stores[0].Put("/store/a.root", want); err != nil {
		t.Fatal(err)
	}
	p, cl := startProxy(t, o, Config{})

	for pass := 0; pass < 2; pass++ {
		got, err := cl.ReadFile("/store/a.root")
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pass %d: bytes differ (%d vs %d)", pass, len(got), len(want))
		}
	}
	s := p.Stats()
	if s.Hits == 0 {
		t.Fatalf("no block hits after a repeat read: %+v", s)
	}
	if s.OriginBytes > int64(2*len(want)) {
		t.Fatalf("origin pulled %d bytes for a %d byte file", s.OriginBytes, len(want))
	}
	if s.Blocks == 0 || s.Entries != 1 {
		t.Fatalf("expected one cached entry with blocks, got %+v", s)
	}
}

// TestRepeatOpensBypassOrigin pins the acceptance criterion: once a
// file is cached at the edge, repeat opens and reads complete without
// ANY frame reaching the origin — neither the cmsd control plane (the
// manager's cache sees no new lookups, the tree floods no queries) nor
// the origin data server (no new opens or reads).
func TestRepeatOpensBypassOrigin(t *testing.T) {
	o := startOrigin(t, 2)
	want := payload(2, 96<<10)
	if err := o.stores[1].Put("/store/hot.root", want); err != nil {
		t.Fatal(err)
	}
	p, cl := startProxy(t, o, Config{})

	// Warm: one open+read through the proxy.
	if _, err := cl.ReadFile("/store/hot.root"); err != nil {
		t.Fatal(err)
	}

	mgrCache := o.mgr.Core().Cache().Stats()
	baseLookups := mgrCache.Hits + mgrCache.Misses
	baseQueries := make([]int64, len(o.srvs))
	baseOpens := make([]int64, len(o.srvs))
	baseReads := make([]int64, len(o.srvs))
	for i, srv := range o.srvs {
		baseQueries[i] = int64(srv.QueriesReceived())
		ds := srv.DataServer().Stats()
		baseOpens[i] = ds.Opens
		baseReads[i] = ds.Reads
	}
	openHits := p.Stats().OpenHits

	const repeats = 25
	for i := 0; i < repeats; i++ {
		f, err := cl.Open("/store/hot.root")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("repeat %d: bytes differ", i)
		}
		f.Close()
	}

	mgrCache = o.mgr.Core().Cache().Stats()
	if got := mgrCache.Hits + mgrCache.Misses; got != baseLookups {
		t.Fatalf("origin manager cache saw %d new lookups during repeat opens", got-baseLookups)
	}
	for i, srv := range o.srvs {
		if q := int64(srv.QueriesReceived()); q != baseQueries[i] {
			t.Fatalf("origin server %d received %d new control queries", i, q-baseQueries[i])
		}
		ds := srv.DataServer().Stats()
		if ds.Opens != baseOpens[i] {
			t.Fatalf("origin server %d saw %d new opens", i, ds.Opens-baseOpens[i])
		}
		if ds.Reads != baseReads[i] {
			t.Fatalf("origin server %d saw %d new reads", i, ds.Reads-baseReads[i])
		}
	}
	if got := p.Stats().OpenHits - openHits; got != repeats {
		t.Fatalf("proxy open hits = %d, want %d", got, repeats)
	}
}

// TestProxyWriteThroughInvalidates checks the write path: writes pass
// through to origin and drop the edge's cached state, so a reader
// through the proxy sees the new bytes immediately.
func TestProxyWriteThroughInvalidates(t *testing.T) {
	o := startOrigin(t, 2)
	old := payload(3, 80<<10)
	if err := o.stores[0].Put("/store/w.root", old); err != nil {
		t.Fatal(err)
	}
	p, cl := startProxy(t, o, Config{})

	if got, err := cl.ReadFile("/store/w.root"); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("warm read: %v", err)
	}
	if p.Stats().Entries != 1 {
		t.Fatalf("expected a cached entry, got %+v", p.Stats())
	}

	fresh := payload(4, 40<<10)
	if err := cl.WriteFile("/store/w.root", fresh); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFile("/store/w.root")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatalf("read after write-through returned stale bytes (%d vs %d)", len(got), len(fresh))
	}
}

// TestProxyStaleMoveConverges moves a file between origin servers
// behind the proxy's back. The next fill hits ENoEnt at the stale
// server; the proxy invalidates its binding and re-resolves through
// the refresh protocol (Locate{Refresh, Avoid}) — the client sees
// correct bytes with no error and no full-delay miss-storm.
func TestProxyStaleMoveConverges(t *testing.T) {
	o := startOrigin(t, 2)
	want := payload(5, 150<<10)
	if err := o.stores[0].Put("/store/m.root", want); err != nil {
		t.Fatal(err)
	}
	p, cl := startProxy(t, o, Config{})

	// Warm only the first block so later blocks must fill from origin.
	f, err := cl.Open("/store/m.root")
	if err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 4<<10)
	if _, err := f.ReadAt(head, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	f.Close()

	// Move the file: srv0 loses it, srv1 gains it.
	if err := o.stores[1].Put("/store/m.root", want); err != nil {
		t.Fatal(err)
	}
	if err := o.stores[0].Unlink("/store/m.root"); err != nil {
		t.Fatal(err)
	}
	// Let prefetches racing the move settle so the tail blocks are a
	// deterministic miss against the now-empty srv0.
	time.Sleep(50 * time.Millisecond)
	p.InvalidateOrigin(o.srvs[0].DataAddr())

	start := time.Now()
	got, err := cl.ReadFile("/store/m.root")
	if err != nil {
		t.Fatalf("read after move: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read after move returned wrong bytes")
	}
	// Convergence must ride the refresh protocol, not the full delay:
	// well under even this test's shortened miss-storm bound.
	if d := time.Since(start); d > 2*tFullDelay {
		t.Fatalf("convergence took %v, smells like a miss-storm (full delay %v)", d, tFullDelay)
	}
}

// TestProxyUnlinkThroughProxy checks namespace deletes propagate and
// invalidate.
func TestProxyUnlinkThroughProxy(t *testing.T) {
	o := startOrigin(t, 2)
	if err := o.stores[0].Put("/store/d.root", payload(6, 8<<10)); err != nil {
		t.Fatal(err)
	}
	_, cl := startProxy(t, o, Config{})
	if _, err := cl.ReadFile("/store/d.root"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Unlink("/store/d.root"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Open("/store/d.root"); err == nil {
		t.Fatal("open after unlink succeeded from the edge cache")
	}
}

// TestProxyLifetimeExpiresBlocks drives the block window clock a full
// lifetime and checks resident blocks age out.
func TestProxyLifetimeExpiresBlocks(t *testing.T) {
	o := startOrigin(t, 1)
	if err := o.stores[0].Put("/store/t.root", payload(7, 64<<10)); err != nil {
		t.Fatal(err)
	}
	p, cl := startProxy(t, o, Config{})
	if _, err := cl.ReadFile("/store/t.root"); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Blocks == 0 {
		t.Fatal("no resident blocks after a read")
	}
	for i := 0; i <= 64; i++ {
		p.tickBlocks()
	}
	s := p.Stats()
	if s.Blocks != 0 {
		t.Fatalf("blocks survived a full lifetime of window sweeps: %+v", s)
	}
	if s.ExpiredWindow == 0 {
		t.Fatalf("expiry not accounted: %+v", s)
	}
}

// TestProxyLifecycleHitRate replays the paper-motivating lifecycle
// workload — Zipf(s=1.1) opens over a dataset — through the proxy and
// pins the acceptance criteria: ≥80%% open hit-rate at steady state
// and origin traffic reduced accordingly.
func TestProxyLifecycleHitRate(t *testing.T) {
	o := startOrigin(t, 2)
	const files = 48
	dataset := make([]string, files)
	body := payload(8, 32<<10)
	for i := range dataset {
		dataset[i] = fmt.Sprintf("/store/ds/file-%03d.root", i)
		if err := o.stores[i%2].Put(dataset[i], body); err != nil {
			t.Fatal(err)
		}
	}
	p, cl := startProxy(t, o, Config{})

	z := workload.NewZipf(files, 1.1, 42)
	read := func(path string) {
		f, err := cl.Open(path)
		if err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
		buf := make([]byte, 16<<10)
		if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		f.Close()
	}

	// Warmup phase: populate the edge.
	for i := 0; i < 2*files; i++ {
		read(dataset[z.Next()])
	}
	base := p.Stats()

	// Steady state: measure open hit-rate and origin offload.
	const draws = 600
	for i := 0; i < draws; i++ {
		read(dataset[z.Next()])
	}
	s := p.Stats()
	opens := float64(s.OpenHits - base.OpenHits + s.OpenMisses - base.OpenMisses)
	hitRate := float64(s.OpenHits-base.OpenHits) / opens
	if hitRate < 0.8 {
		t.Fatalf("steady-state open hit-rate %.2f, want >= 0.80 (zipf s=1.1)", hitRate)
	}
	originDelta := s.OriginBytes - base.OriginBytes
	servedDelta := s.BytesServed - base.BytesServed
	if originDelta*5 > servedDelta {
		t.Fatalf("origin traffic not offloaded: pulled %d of %d served bytes", originDelta, servedDelta)
	}
}

// TestProxyFrameAndAdmin smoke-tests the obs wiring: the summary frame
// carries the pcache section and renders, and the admin handler is
// constructible.
func TestProxyFrameAndAdmin(t *testing.T) {
	o := startOrigin(t, 1)
	if err := o.stores[0].Put("/store/o.root", payload(9, 8<<10)); err != nil {
		t.Fatal(err)
	}
	p, cl := startProxy(t, o, Config{Name: "edge0"})
	if _, err := cl.ReadFile("/store/o.root"); err != nil {
		t.Fatal(err)
	}
	fr := p.Frame()
	if fr.PCache == nil || fr.Cache == nil {
		t.Fatalf("frame missing sections: %+v", fr)
	}
	if fr.PCache.Hits+fr.PCache.Misses == 0 {
		t.Fatalf("frame counted no reads: %+v", fr.PCache)
	}
	if fr.Node != "edge0" || fr.Role != "pcache" {
		t.Fatalf("frame identity wrong: %s/%s", fr.Node, fr.Role)
	}
	if s := fr.String(); s == "" {
		t.Fatal("frame did not render")
	}
	if p.AdminHandler() == nil {
		t.Fatal("no admin handler")
	}
}

// TestProxyRecycledFramesServeRightBytes stresses the adopted-frame
// ownership of the block cache (DESIGN.md §9.3). Readers fetch random
// spans of several files through a cache far smaller than the data,
// while other goroutines sweep the lifetime windows, invalidate whole
// origin servers and write files through the proxy (with their own
// bytes, so every file keeps its payload). A frame released twice, or
// released while its block is still resident, is handed out again and
// overwritten by another block's or reply's bytes; the readers then
// see bytes that differ from the payload. Run it under -race.
func TestProxyRecycledFramesServeRightBytes(t *testing.T) {
	const (
		files  = 6
		size   = 4 * DefaultBlockSize
		reads  = 120
		reader = 4
	)
	o := startOrigin(t, 2)
	paths := make([]string, files)
	bodies := make([][]byte, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/store/stress-%d.root", i)
		bodies[i] = payload(byte(10+i), size)
		if err := o.stores[i%2].Put(paths[i], bodies[i]); err != nil {
			t.Fatal(err)
		}
	}
	p, cl := startProxy(t, o, Config{CacheBytes: 6 * DefaultBlockSize, OriginReadahead: 2})

	stop := make(chan struct{})
	var chaos sync.WaitGroup
	loop := func(every time.Duration, step func(i int)) {
		chaos.Add(1)
		go func() {
			defer chaos.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				step(i)
				time.Sleep(every)
			}
		}()
	}
	loop(10*time.Millisecond, func(int) {
		// A whole lifetime at once: every block resident now expires.
		for k := 0; k < cache.Windows; k++ {
			p.tickBlocks()
		}
	})
	loop(7*time.Millisecond, func(i int) { p.InvalidateOrigin(o.srvs[i%2].DataAddr()) })
	loop(3*time.Millisecond, func(i int) {
		path, want := paths[i%files], bodies[i%files]
		f, err := cl.OpenWrite(path)
		if err != nil {
			t.Errorf("write-open %s: %v", path, err)
			return
		}
		off := int64(i*7919) % size
		if _, err := f.WriteAt(want[off:min(off+8<<10, size)], off); err != nil {
			t.Errorf("write %s at %d: %v", path, off, err)
		}
		if err := f.Close(); err != nil {
			t.Errorf("close %s: %v", path, err)
		}
	})

	var readers sync.WaitGroup
	for r := 0; r < reader; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			buf := make([]byte, 96<<10)
			for i := 0; i < reads; i++ {
				fi := rng.Intn(files)
				want := bodies[fi]
				off := rng.Int63n(size)
				n := 1 + rng.Intn(len(buf))
				// Under this much churn a read may exhaust the proxy's
				// bounded fill retries; it is tried again, but wrong
				// bytes fail at once.
				var err error
				for try := 0; try < 3; try++ {
					var f *client.File
					if f, err = cl.Open(paths[fi]); err != nil {
						continue
					}
					var got int
					got, err = f.ReadAt(buf[:n], off)
					f.Close()
					if err != nil && err != io.EOF {
						continue
					}
					if got == 0 || !bytes.Equal(buf[:got], want[off:off+int64(got)]) {
						t.Errorf("reader %d: %s at %d served %d wrong bytes", r, paths[fi], off, got)
						return
					}
					err = nil
					break
				}
				if err != nil {
					t.Errorf("reader %d: read %s at %d: %v", r, paths[fi], off, err)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	chaos.Wait()

	s := p.Stats()
	if s.EvictedLRU == 0 || s.ExpiredWindow == 0 || s.Invalidated == 0 {
		t.Fatalf("schedule went vacuous, every drop path must run: %+v", s)
	}
}
