package cmsd

import (
	"testing"
	"time"

	"scalla/internal/proto"
	"scalla/internal/store"
	"scalla/internal/transport"
)

// stopRig starts a parentless server node on net serving one 40 KiB
// file at /f, and dials its data face.
func stopRig(t *testing.T, net transport.Network) (*Node, transport.Conn) {
	t.Helper()
	st := store.New(store.Config{})
	if err := st.Put("/f", make([]byte, 40<<10)); err != nil {
		t.Fatal(err)
	}
	n := startNode(t, NodeConfig{
		Name: "srv", Role: proto.RoleServer,
		DataAddr: "srv:data", Net: net, Store: st,
	})
	conn, err := net.Dial(n.DataAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return n, conn
}

// TestServerStopWithWedgedPeer: a client opens a file, pipelines 32
// reads over a link that buffers one frame, and never receives, so
// every data worker blocks sending to it. Stop (the CrashServer path)
// must drop that link before it drains the scheduler and return
// promptly.
func TestServerStopWithWedgedPeer(t *testing.T) {
	n, conn := stopRig(t, transport.NewInProc(transport.InProcConfig{QueueLen: 1}))
	open, ok := rpc(t, conn, proto.Open{Path: "/f"}).(proto.OpenOK)
	if !ok {
		t.Fatal("open failed")
	}
	for i := 0; i < 32; i++ {
		if err := transport.SendMessageStream(conn, proto.Read{FH: open.FH, N: 40 << 10}, uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	sched := n.DataServer().Sched()
	deadline := time.Now().Add(5 * time.Second)
	for sched.Stats().InFlight < 8 {
		if time.Now().After(deadline) {
			t.Fatalf("handlers never wedged: %+v", sched.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	stopped := make(chan struct{})
	go func() { n.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(time.Second):
		t.Fatal("Stop did not return within 1 s of a wedged peer")
	}
}

// TestServerStopDropsDataLinks: after Stop a client's open data
// connection reads EOF instead of being answered, as a crashed server
// would leave it.
func TestServerStopDropsDataLinks(t *testing.T) {
	n, conn := stopRig(t, transport.NewInProc(transport.InProcConfig{}))
	open, ok := rpc(t, conn, proto.Open{Path: "/f"}).(proto.OpenOK)
	if !ok {
		t.Fatal("open failed")
	}
	n.Stop()
	conn.Send(proto.Marshal(proto.Read{FH: open.FH, N: 4096}))
	if f, err := conn.Recv(); err == nil {
		reply, _ := proto.Unmarshal(f)
		t.Fatalf("stopped server answered %#v; want the link dropped", reply)
	}
}
