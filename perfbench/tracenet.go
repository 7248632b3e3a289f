package main

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"scalla/internal/proto"
	"scalla/internal/transport"
)

// traceNet decorates a transport.Network for the traced run. It counts
// every frame and byte that crosses its connections, and while
// recording is on it logs one event per stream-tagged frame: which
// connection, which direction, the stream ID, the message kind and a
// fingerprint of the request. Matching a request with its reply on the
// same connection and stream gives a hop (dialing side) or a residence
// (accepting side); the analysis happens after the run, so the hot path
// only appends to a preallocated log.
//
// The decorator keeps the paths it wraps intact: RecvFrame forwards the
// pooled zero-allocation receive, and Unwrap lets transport.WireOf reach
// the TCPNet's wire counters through it.
type traceNet struct {
	inner transport.Network
	rec   *recorder
	// client marks the network the benchmark's own clients dial
	// through; hops on it are the ones an operation is made of.
	client bool

	framesOut, bytesOut atomic.Int64
	framesIn, bytesIn   atomic.Int64
}

// Event flags.
const (
	evSend     = 1 << iota // frame sent (else received)
	evAccepted             // on an accepted connection (else dialed)
	evClient               // on a connection of the benchmark's clients
)

// event is one logged frame. Times are nanoseconds since the
// recorder's base.
type event struct {
	t     int64
	fp    uint64 // fingerprint of the frame's leading bytes
	key   uint64 // path hash for Open/Stat/Locate frames, else 0
	conn  uint32
	sid   uint32
	ep    uint16 // endpoint: index of the daemon address
	kind  uint8
	flags uint8
}

// recorder is the in-memory span log shared by every decorated
// network of one run.
type recorder struct {
	base   time.Time
	on     atomic.Bool
	busy   atomic.Int64 // frames being logged; see begin
	n      atomic.Int64
	events []event
	conns  atomic.Uint32

	mu    sync.Mutex
	eps   map[string]uint16
	addrs []string
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), eps: make(map[string]uint16)}
}

// start empties the log, sized for capacity frames, and turns
// recording on.
func (r *recorder) start(capacity int) {
	r.events = make([]event, capacity)
	r.n.Store(0)
	r.on.Store(true)
}

// now returns the recorder clock in nanoseconds.
func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) endpoint(addr string) uint16 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.eps[addr]; ok {
		return i
	}
	i := uint16(len(r.addrs))
	r.eps[addr] = i
	r.addrs = append(r.addrs, addr)
	return i
}

// begin reports whether recording is on, and if so holds the log open
// until the matching end, so that stop can wait for frames already
// being logged.
func (r *recorder) begin() bool {
	r.busy.Add(1)
	if r.on.Load() {
		return true
	}
	r.busy.Add(-1)
	return false
}

func (r *recorder) end() { r.busy.Add(-1) }

// stop turns recording off and waits until no frame is being logged;
// the log may then be read.
func (r *recorder) stop() {
	r.on.Store(false)
	for r.busy.Load() != 0 {
		runtime.Gosched()
	}
}

// log appends one event; once the log is full further events are
// dropped and counted by recorded.
func (r *recorder) log(ev event) {
	i := r.n.Add(1) - 1
	if i < int64(len(r.events)) {
		r.events[i] = ev
	}
}

// recorded returns the logged events and how many were dropped.
func (r *recorder) recorded() ([]event, int64) {
	n := r.n.Load()
	if n > int64(len(r.events)) {
		return r.events, n - int64(len(r.events))
	}
	return r.events[:n], 0
}

func newTraceNet(inner transport.Network, rec *recorder, client bool) *traceNet {
	return &traceNet{inner: inner, rec: rec, client: client}
}

// Unwrap returns the decorated network.
func (n *traceNet) Unwrap() transport.Network { return n.inner }

// Listen wraps every accepted connection.
func (n *traceNet) Listen(addr string) (transport.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &traceListener{Listener: l, n: n, ep: n.rec.endpoint(addr)}, nil
}

// Dial wraps the dialed connection.
func (n *traceNet) Dial(addr string) (transport.Conn, error) {
	c, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	var flags uint8
	if n.client {
		flags = evClient
	}
	return n.wrap(c, n.rec.endpoint(addr), flags), nil
}

func (n *traceNet) wrap(c transport.Conn, ep uint16, flags uint8) *traceConn {
	return &traceConn{Conn: c, n: n, id: n.rec.conns.Add(1), ep: ep, flags: flags}
}

type traceListener struct {
	transport.Listener
	n  *traceNet
	ep uint16
}

func (l *traceListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.n.wrap(c, l.ep, evAccepted), nil
}

type traceConn struct {
	transport.Conn
	n     *traceNet
	id    uint32
	ep    uint16
	flags uint8
}

func (c *traceConn) Send(frame []byte) error {
	if c.n.rec.begin() {
		c.note(frame, evSend)
		c.n.rec.end()
	}
	err := c.Conn.Send(frame)
	if err == nil {
		c.n.framesOut.Add(1)
		c.n.bytesOut.Add(int64(len(frame)))
	}
	return err
}

func (c *traceConn) Recv() ([]byte, error) {
	b, err := c.Conn.Recv()
	if err == nil {
		c.received(b)
	}
	return b, err
}

// RecvFrame forwards the pooled receive path of the wrapped connection.
func (c *traceConn) RecvFrame() (*proto.Frame, error) {
	f, err := transport.RecvFrame(c.Conn)
	if err == nil {
		c.received(f.Bytes())
	}
	return f, err
}

func (c *traceConn) received(b []byte) {
	c.n.framesIn.Add(1)
	c.n.bytesIn.Add(int64(len(b)))
	if c.n.rec.begin() {
		c.note(b, 0)
		c.n.rec.end()
	}
}

// note logs a stream-tagged frame. Control-plane frames (stream 0) are
// counted but not logged: no operation waits on a reply to them.
func (c *traceConn) note(frame []byte, dir uint8) {
	sid := proto.StreamID(frame)
	if sid == 0 {
		return
	}
	c.n.rec.log(event{
		t:     c.n.rec.now(),
		fp:    fingerprint(frame),
		key:   frameKey(frame),
		conn:  c.id,
		sid:   sid,
		ep:    c.ep,
		kind:  frame[0],
		flags: c.flags | dir,
	})
}

// fingerprintLen bounds the bytes hashed per frame: it covers the
// header and the fixed fields of every request, and keeps a 64 KiB
// write from costing a 64 KiB hash.
const fingerprintLen = 64

// fingerprint is FNV-1a over the frame's leading bytes. A request has
// the same fingerprint on the sending and the receiving side, which is
// how a hop is matched with the daemon's residence.
func fingerprint(frame []byte) uint64 {
	if len(frame) > fingerprintLen {
		frame = frame[:fingerprintLen]
	}
	h := uint64(14695981039346656037)
	for _, b := range frame {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// headerLen is the proto frame prefix: kind byte and 4-byte stream ID.
const headerLen = 5

// frameKey returns the path hash of an Open, Stat or Locate frame (the
// path is their first field: a uvarint length and the bytes), or 0.
func frameKey(frame []byte) uint64 {
	switch proto.Kind(frame[0]) {
	case proto.KOpen, proto.KStat, proto.KLocate:
	default:
		return 0
	}
	n, w := binary.Uvarint(frame[headerLen:])
	if w <= 0 || n > uint64(len(frame)-headerLen-w) {
		return 0
	}
	h := uint64(14695981039346656037)
	for _, b := range frame[headerLen+w : headerLen+w+int(n)] {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}
