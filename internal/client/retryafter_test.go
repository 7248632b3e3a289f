package client

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scalla/internal/mux"
	"scalla/internal/proto"
	"scalla/internal/transport"
)

// serve answers every connection accepted on lis with h, through a
// mux Face closed when the test ends.
func serve(t *testing.T, lis transport.Listener, h mux.Handler) {
	f := mux.NewFace(mux.FaceConfig{
		NewConn: func() (mux.Handler, func()) { return h, nil },
	})
	go f.Serve(lis)
	t.Cleanup(f.Close)
}

// shedServer serves one address, answering every Open with RetryAfter
// until `admit` sheds have been issued, then with OpenOK. It records
// whether any Locate{Refresh} arrived — the stale-location recovery a
// shed must never trigger.
type shedServer struct {
	sheds     atomic.Int64
	admitAt   int64 // answer OpenOK once sheds reaches this; <0 = never
	refreshes atomic.Int64
}

func startShedServer(t *testing.T, net transport.Network, addr string, admitAt int64) *shedServer {
	t.Helper()
	lis, err := net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	s := &shedServer{admitAt: admitAt}
	serve(t, lis, func(m proto.Message, r mux.Responder) proto.Message {
		switch v := m.(type) {
		case proto.Locate:
			if v.Refresh {
				s.refreshes.Add(1)
			}
			return proto.RetryAfter{Millis: 10}
		case proto.Open:
			if s.admitAt >= 0 && s.sheds.Load() >= s.admitAt {
				return proto.OpenOK{FH: 7, Size: 1}
			}
			s.sheds.Add(1)
			return proto.RetryAfter{Millis: 10}
		default:
			return proto.Err{Code: proto.EInval, Msg: "unexpected"}
		}
	})
	return s
}

// TestRetryAfterIsNotAReplicaFailure pins the shed classification from
// ISSUE 8: when a server sheds an operation past the wait budget, the
// error is the typed ErrRetryAfter — it must NOT match
// ErrAllReplicasFailed and must NOT trigger a stale-location refresh
// walk (the host is healthy; re-resolving it would stampede the
// manager).
func TestRetryAfterIsNotAReplicaFailure(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	srv := startShedServer(t, net, "mgr", -1) // sheds forever
	cl := New(Config{
		Net:        net,
		Managers:   []string{"mgr"},
		WaitBudget: 30 * time.Millisecond,
		RetrySeed:  1,
	})
	defer cl.Close()

	_, err := cl.Open("/store/hot.root")
	if err == nil {
		t.Fatal("open succeeded against an always-shedding server")
	}
	if !errors.Is(err, ErrRetryAfter) {
		t.Fatalf("error is %v, want ErrRetryAfter in its chain", err)
	}
	if errors.Is(err, ErrAllReplicasFailed) {
		t.Fatalf("shed counted toward ErrAllReplicasFailed: %v", err)
	}
	var are *AllReplicasError
	if errors.As(err, &are) {
		t.Fatalf("shed wrapped in AllReplicasError (tried=%v)", are.Tried)
	}
	if n := srv.refreshes.Load(); n != 0 {
		t.Fatalf("shed triggered %d stale-location refresh walks, want 0", n)
	}
	if srv.sheds.Load() < 2 {
		t.Fatalf("client retried %d times within the budget, want >= 2 (backoff, not fail-fast)", srv.sheds.Load())
	}
}

// TestRetryAfterBacksOffThenSucceeds pins the recovery half: a client
// shed twice must retry with backoff against the same host and succeed
// once admitted, with no error surfaced and no refresh issued.
func TestRetryAfterBacksOffThenSucceeds(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	srv := startShedServer(t, net, "mgr", 2) // admit after 2 sheds
	cl := New(Config{
		Net:        net,
		Managers:   []string{"mgr"},
		WaitBudget: 5 * time.Second,
		RetrySeed:  1,
	})
	defer cl.Close()

	start := time.Now()
	f, err := cl.Open("/store/hot.root")
	if err != nil {
		t.Fatalf("open after sheds: %v", err)
	}
	f.Close()
	if got := srv.sheds.Load(); got != 2 {
		t.Fatalf("server shed %d times, want 2", got)
	}
	// Two 10 ms hints jittered into [5 ms, 10 ms] each: the client must
	// actually have paused, not spun.
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("open returned in %v; client retried without backing off", elapsed)
	}
	if n := srv.refreshes.Load(); n != 0 {
		t.Fatalf("successful shed recovery issued %d refreshes, want 0", n)
	}
}

// TestReadAtRetriesSheds covers the data path: a Read answered with
// RetryAfter retries in place and succeeds, without failing over.
func TestReadAtRetriesSheds(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	lis, err := net.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	readSheds := 0
	serve(t, lis, func(m proto.Message, r mux.Responder) proto.Message {
		switch m.(type) {
		case proto.Open:
			return proto.OpenOK{FH: 9, Size: 4}
		case proto.Read:
			mu.Lock()
			defer mu.Unlock()
			if readSheds < 2 {
				readSheds++
				return proto.RetryAfter{Millis: 5}
			}
			return proto.Data{FH: 9, Bytes: []byte("data"), EOF: true}
		default:
			return proto.Err{Code: proto.EInval, Msg: "unexpected"}
		}
	})
	cl := New(Config{Net: net, Managers: []string{"srv"}, WaitBudget: 5 * time.Second, Readahead: 1})
	defer cl.Close()
	f, err := cl.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4)
	n, err := f.ReadAt(buf, 0)
	if err != nil && err != io.EOF {
		t.Fatalf("ReadAt: %v", err)
	}
	if n != 4 || string(buf) != "data" {
		t.Fatalf("ReadAt got %d bytes %q, want 4 bytes \"data\"", n, buf[:n])
	}
	mu.Lock()
	defer mu.Unlock()
	if readSheds != 2 {
		t.Fatalf("server shed %d reads, want 2", readSheds)
	}
}
