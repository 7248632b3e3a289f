package nsd

import (
	"strings"
	"testing"

	"scalla/internal/proto"
	"scalla/internal/store"
	"scalla/internal/transport"
	"scalla/internal/xrd"
)

func startXrd(t *testing.T, net transport.Network, addr string, st *store.Store) {
	t.Helper()
	l, err := net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := xrd.New(xrd.Config{Store: st})
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close(); l.Close() })
}

func TestListMergesAcrossServers(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	stA := store.New(store.Config{})
	stB := store.New(store.Config{})
	stA.Put("/store/a", []byte("1"))
	stA.Put("/store/shared", []byte("22"))
	stB.Put("/store/b", []byte("333"))
	stB.PutOffline("/store/shared", []byte("22")) // replica, offline here
	stB.PutOffline("/store/tape-only", []byte("4444"))
	startXrd(t, net, "srvA", stA)
	startXrd(t, net, "srvB", stB)

	d := New(net, "srvA", "srvB")
	got := d.List("/store")
	want := []string{"/store/a", "/store/b", "/store/shared", "/store/tape-only"}
	if len(got) != len(want) {
		t.Fatalf("List = %d entries (%v), want %d", len(got), got, len(want))
	}
	for i, p := range want {
		if got[i].Path != p {
			t.Errorf("entry %d = %s, want %s", i, got[i].Path, p)
		}
	}
	// The replica merge prefers the online copy.
	for _, e := range got {
		if e.Path == "/store/shared" && !e.Online {
			t.Error("merged replica reported offline despite online copy")
		}
		if e.Path == "/store/tape-only" && e.Online {
			t.Error("tape-only file reported online")
		}
	}
}

func TestListSkipsUnreachableServers(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	st := store.New(store.Config{})
	st.Put("/f", []byte("1"))
	startXrd(t, net, "up", st)

	d := New(net, "up", "down") // "down" never listens
	got := d.List("/")
	if len(got) != 1 || got[0].Path != "/f" {
		t.Fatalf("List = %v", got)
	}
}

func TestAddServerDedupes(t *testing.T) {
	d := New(transport.NewInProc(transport.InProcConfig{}))
	d.AddServer("a")
	d.AddServer("a")
	d.AddServer("b")
	if len(d.Servers()) != 2 {
		t.Errorf("Servers = %v", d.Servers())
	}
}

func TestServeNamespaceOverNetwork(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	st := store.New(store.Config{})
	st.Put("/data/x", []byte("1"))
	startXrd(t, net, "srv", st)

	d := New(net, "srv")
	if err := d.Serve("nsd"); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()

	entries, err := listOne(net, "nsd", "/data")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Path != "/data/x" {
		t.Fatalf("remote list = %v", entries)
	}
}

func TestServeRejectsNonList(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	d := New(net)
	if err := d.Serve("nsd"); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	c, err := net.Dial("nsd")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Send(proto.Marshal(proto.Stat{Path: "/x"}))
	frame, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	m, _ := proto.Unmarshal(frame)
	if e, ok := m.(proto.Err); !ok || e.Code != proto.EInval {
		t.Fatalf("reply = %#v", m)
	}
}

func TestTreeRendering(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	st := store.New(store.Config{})
	st.Put("/a/b/c.root", []byte("1"))
	st.PutOffline("/a/d.root", []byte("2"))
	startXrd(t, net, "srv", st)

	d := New(net, "srv")
	tree := d.Tree("/")
	if !strings.Contains(tree, "a/") || !strings.Contains(tree, "c.root") {
		t.Errorf("tree = %q", tree)
	}
	if !strings.Contains(tree, "d.root [offline]") {
		t.Errorf("offline marker missing: %q", tree)
	}
}

// TestStopDropsConnections: after Stop a client's open connection
// reads EOF instead of being answered.
func TestStopDropsConnections(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	d := New(net)
	if err := d.Serve("nsd"); err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("nsd")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Send(proto.Marshal(proto.Ping{}))
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}
	d.Stop()
	c.Send(proto.Marshal(proto.Ping{}))
	if frame, err := c.Recv(); err == nil {
		m, _ := proto.Unmarshal(frame)
		t.Fatalf("stopped daemon answered %#v; want the link dropped", m)
	}
}
