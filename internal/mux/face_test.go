package mux

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"scalla/internal/proto"
	"scalla/internal/transport"
)

// faceRig serves a Face on an in-process network whose links buffer one
// frame each way. Its handler answers every Stat with a 40 KiB Data
// frame, so a peer that stops reading wedges the handlers in Send.
func faceRig(t *testing.T) (transport.Network, *Face, *atomic.Int64) {
	t.Helper()
	net := transport.NewInProc(transport.InProcConfig{QueueLen: 1})
	l, err := net.Listen("face")
	if err != nil {
		t.Fatal(err)
	}
	var cleanups atomic.Int64
	payload := make([]byte, 40<<10)
	f := NewFace(FaceConfig{
		Name:  "test",
		Sched: SchedConfig{Workers: 4},
		NewConn: func() (Handler, func()) {
			return func(m proto.Message, _ Responder) proto.Message {
				return proto.Data{Bytes: payload}
			}, func() { cleanups.Add(1) }
		},
	})
	go f.Serve(l)
	t.Cleanup(f.Close)
	return net, f, &cleanups
}

// TestFaceCloseUnwedgesBlockedHandlers: a peer pipelines 32 requests
// and never reads a reply, so every worker blocks sending into the
// full link. Close must close the connection before it drains the
// scheduler, and return promptly.
func TestFaceCloseUnwedgesBlockedHandlers(t *testing.T) {
	net, f, cleanups := faceRig(t)
	c, err := net.Dial("face")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 32; i++ {
		if err := transport.SendMessageStream(c, proto.Stat{Path: "/x"}, uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.Sched().Stats().InFlight < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("handlers never wedged: %+v", f.Sched().Stats())
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	f.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v with a wedged peer", d)
	}
	if n := cleanups.Load(); n != 1 {
		t.Fatalf("%d per-connection cleanups ran, want 1", n)
	}
}

// TestFaceCloseDropsLiveConnections: after Close a client's open
// connection fails with ErrClosed rather than being answered.
func TestFaceCloseDropsLiveConnections(t *testing.T) {
	net, f, _ := faceRig(t)
	mc, err := Dial(net, "face", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	if _, err := mc.Call(proto.Ping{}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	f.Close()
	reply, err := mc.Call(proto.Ping{}, 5*time.Second)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("call after Close = %#v, %v; want ErrClosed", reply, err)
	}
}

// TestFaceServeAfterClose: a listener handed to a closed face is
// closed at once, not served.
func TestFaceServeAfterClose(t *testing.T) {
	net, f, _ := faceRig(t)
	f.Close()
	l, err := net.Listen("late")
	if err != nil {
		t.Fatal(err)
	}
	f.Serve(l)
	if _, err := net.Dial("late"); err == nil {
		t.Fatal("a closed face accepted a connection")
	}
}

// TestHandlesShareOneSpace: tables sharing a space never reuse a
// number, and the space counts every open handle until it is dropped.
func TestHandlesShareOneSpace(t *testing.T) {
	var space HandleSpace
	a, b := NewHandles[string](&space), NewHandles[string](&space)
	fa := a.Issue("a")
	fb := b.Issue("b")
	if fa == fb {
		t.Fatalf("two tables issued handle %d", fa)
	}
	if _, ok := b.Lookup(fa); ok {
		t.Fatal("a handle resolved on another connection's table")
	}
	if h, ok := a.Lookup(fa); !ok || h != "a" {
		t.Fatalf("Lookup(%d) = %q, %v", fa, h, ok)
	}
	a.Issue("a2")
	if space.Open() != 3 {
		t.Fatalf("Open = %d, want 3", space.Open())
	}
	if _, ok := a.Drop(fb); ok {
		t.Fatal("dropped another table's handle")
	}
	if h, ok := b.Drop(fb); !ok || h != "b" || space.Open() != 2 {
		t.Fatalf("Drop = %q, %v; Open = %d", h, ok, space.Open())
	}
	if hs := a.DropAll(); len(hs) != 2 || space.Open() != 0 {
		t.Fatalf("DropAll = %v; Open %d", hs, space.Open())
	}
	if _, ok := a.Lookup(fa); ok {
		t.Fatal("a handle resolved after DropAll")
	}
}
