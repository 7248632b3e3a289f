package mux

import (
	"sync"
	"sync/atomic"

	"scalla/internal/obs"
	"scalla/internal/proto"
	"scalla/internal/transport"
)

// FaceConfig parameterizes a Face.
type FaceConfig struct {
	// Name prefixes the face's log lines.
	Name string
	// Sched configures the scheduler every connection of the face
	// shares.
	Sched SchedConfig
	// Tracer records one span per dispatched request when enabled.
	Tracer *obs.Tracer
	// Logf, if set, receives one line per connection dropped for an
	// undecodable frame.
	Logf func(format string, args ...any)
	// NewConn builds one accepted connection's handler, and the
	// cleanup that runs once the connection is closed and every one of
	// its handlers has returned — the place to drop its handle table.
	// cleanup may be nil.
	NewConn func() (h Handler, cleanup func())
}

// Face is the one way a server speaking the client protocol serves
// connections (DESIGN.md §8.3): it owns the accept loop, the set of
// live connections and the Scheduler they share. Create one with
// NewFace, run Serve on a listener, and Close it on shutdown.
type Face struct {
	cfg   FaceConfig
	sched *Scheduler

	mu     sync.Mutex
	ls     []transport.Listener
	conns  map[transport.Conn]struct{}
	closed bool
	wg     sync.WaitGroup // accept loops and serve goroutines
}

// NewFace builds a Face and starts its scheduler's workers.
func NewFace(cfg FaceConfig) *Face {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Face{
		cfg:   cfg,
		sched: startScheduler(cfg.Sched),
		conns: make(map[transport.Conn]struct{}),
	}
}

// Sched exposes the face's scheduler for observability snapshots.
func (f *Face) Sched() *Scheduler { return f.sched }

// Serve accepts connections on l and serves each on its own goroutine
// until l fails; Close closes it. It blocks; run it in a goroutine.
func (f *Face) Serve(l transport.Listener) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		l.Close()
		return
	}
	f.ls = append(f.ls, l)
	f.wg.Add(1)
	f.mu.Unlock()
	defer f.wg.Done()
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			c.Close()
			return
		}
		f.conns[c] = struct{}{}
		f.wg.Add(1)
		f.mu.Unlock()
		go f.serve(c)
	}
}

// serve reads, decodes and enqueues c's requests until c fails or
// sends an undecodable frame; requests the scheduler sheds are
// answered RetryAfter here, without blocking the reader. Once c's last
// handler has returned it closes c and runs the cleanup.
func (f *Face) serve(c transport.Conn) {
	defer f.wg.Done()
	h, cleanup := f.cfg.NewConn()
	sc := f.sched.register(c, h, f.cfg.Tracer)
	for {
		fr, err := transport.RecvFrame(c)
		if err != nil {
			break
		}
		m, sid, err := proto.UnmarshalStream(fr.Bytes())
		if err != nil {
			fr.Release()
			f.cfg.Logf("%s: bad frame from %s: %v", f.cfg.Name, c.RemoteAddr(), err)
			break
		}
		if shed, millis := f.sched.enqueue(sc, m, sid, fr); shed {
			fr.Release()
			// Best effort: if the conn is failing the reader sees it.
			_ = transport.SendMessageStream(c, proto.RetryAfter{Millis: millis}, sid)
		}
	}
	f.sched.unregister(sc)
	c.Close()
	f.mu.Lock()
	delete(f.conns, c)
	f.mu.Unlock()
	if cleanup != nil {
		cleanup()
	}
}

// Close shuts the face down in the one safe order: close the listeners
// so nothing new arrives; close every live connection, which unblocks
// a handler stuck sending to a peer that stopped reading; close the
// scheduler, which discards queued requests and waits for running
// handlers; then wait for every accept loop, serve goroutine and
// per-connection cleanup. Later calls return at once.
func (f *Face) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	ls := f.ls
	conns := make([]transport.Conn, 0, len(f.conns))
	for c := range f.conns {
		conns = append(conns, c)
	}
	f.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	f.sched.Close()
	f.wg.Wait()
}

// HandleSpace numbers one server's file handles and counts the open
// ones. The server's per-connection Handles tables share it, so a
// number is never reused while the server lives: a handle left over
// from a dropped connection cannot name a file opened on a new one.
type HandleSpace struct {
	next atomic.Uint64
	open atomic.Int64
}

// Open reports how many handles are open across every table.
func (s *HandleSpace) Open() int { return int(s.open.Load()) }

// Handles is one connection's table of open file handles. It is safe
// for the connection's concurrent handlers; the face's cleanup calls
// DropAll once the connection is gone.
type Handles[H any] struct {
	space *HandleSpace
	mu    sync.Mutex
	m     map[uint64]H
}

// NewHandles returns an empty table numbering its handles in space.
func NewHandles[H any](space *HandleSpace) *Handles[H] {
	return &Handles[H]{space: space, m: make(map[uint64]H)}
}

// Issue records h under a fresh handle number and returns it.
func (t *Handles[H]) Issue(h H) uint64 {
	fh := t.space.next.Add(1)
	t.mu.Lock()
	t.m[fh] = h
	t.mu.Unlock()
	t.space.open.Add(1)
	return fh
}

// Lookup returns the handle recorded under fh.
func (t *Handles[H]) Lookup(fh uint64) (H, bool) {
	t.mu.Lock()
	h, ok := t.m[fh]
	t.mu.Unlock()
	return h, ok
}

// Drop removes fh and returns what it named.
func (t *Handles[H]) Drop(fh uint64) (H, bool) {
	t.mu.Lock()
	h, ok := t.m[fh]
	delete(t.m, fh)
	t.mu.Unlock()
	if ok {
		t.space.open.Add(-1)
	}
	return h, ok
}

// DropAll empties the table and returns what it held.
func (t *Handles[H]) DropAll() []H {
	t.mu.Lock()
	hs := make([]H, 0, len(t.m))
	for _, h := range t.m {
		hs = append(hs, h)
	}
	clear(t.m)
	t.mu.Unlock()
	t.space.open.Add(-int64(len(hs)))
	return hs
}
