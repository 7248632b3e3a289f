// Package client implements the Scalla client library: it contacts a
// manager (or any of its replicas), follows redirects down the tree,
// honours wait/retry verdicts, and transparently recovers from stale
// location information by requesting a cache refresh that names the
// failing host (paper Sections II-B2/3 and III-C1). A bounded location
// lease sends repeat read-opens and stats of a path straight to the
// data server that last served it (DESIGN.md §15).
package client

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scalla/internal/backoff"
	"scalla/internal/mux"
	"scalla/internal/names"
	"scalla/internal/obs"
	"scalla/internal/proto"
	"scalla/internal/transport"
	"scalla/internal/vclock"
)

// Errors reported by the client.
var (
	ErrNotExist = errors.New("scalla: file does not exist")
	ErrExist    = errors.New("scalla: file already exists")
	ErrIO       = errors.New("scalla: I/O error")
	ErrTimeout  = errors.New("scalla: wait budget exhausted")
	ErrNoServer = errors.New("scalla: no manager reachable")
	// ErrAllReplicasFailed marks a walk on which every attempted host
	// failed at the transport level. Match it with errors.Is; errors.As
	// against *AllReplicasError recovers the tried-host set.
	ErrAllReplicasFailed = errors.New("scalla: all replicas failed")
	// ErrRetryAfter marks an operation the server shed under overload
	// protection (proto.RetryAfter) for longer than the client's wait
	// budget. A shed host is healthy — it answered — so this error is
	// deliberately never wrapped in AllReplicasError and never triggers
	// stale-location refresh (FAULTS.md, "Shed versus drop").
	ErrRetryAfter = errors.New("scalla: shed by overloaded server")
)

// AllReplicasError reports a walk that failed at every host it reached:
// each manager replica (and any redirect target a replica handed out)
// either was unreachable or broke mid-exchange. It lets callers
// distinguish retryable cluster-side trouble from fatal verdicts like
// ErrNotExist. errors.Is matches both ErrAllReplicasFailed and the last
// underlying failure's chain.
type AllReplicasError struct {
	// Tried lists the addresses that failed, in attempt order. The last
	// entry is the host whose failure ended the walk — when it is not a
	// manager, the walk died following a redirect to a stale location.
	Tried []string
	// Err is the last underlying failure.
	Err error
}

func (e *AllReplicasError) Error() string {
	return fmt.Sprintf("scalla: all replicas failed (tried %s): %v",
		strings.Join(e.Tried, ", "), e.Err)
}

// Unwrap exposes both the sentinel and the last cause to errors.Is/As.
func (e *AllReplicasError) Unwrap() []error {
	return []error{ErrAllReplicasFailed, e.Err}
}

// LastTried returns the final failing address (empty if none recorded).
func (e *AllReplicasError) LastTried() string {
	if len(e.Tried) == 0 {
		return ""
	}
	return e.Tried[len(e.Tried)-1]
}

// Config parameterizes a Client.
type Config struct {
	// Net supplies transport.
	Net transport.Network
	// Managers are the data addresses of the (replicated) head nodes.
	Managers []string
	// MaxHops bounds a redirect chain. Default 8 (a 3-level tree uses 3).
	MaxHops int
	// WaitBudget bounds the cumulative time spent obeying Wait verdicts
	// for a single operation. Default 30 s.
	WaitBudget time.Duration
	// RPCTimeout bounds one request/reply exchange. A dropped frame
	// surfaces as a failed attempt (the connection is torn down and
	// redialed) instead of a hang. It must comfortably exceed the
	// cluster's full delay, since redirectors block a Locate up to that
	// long before answering. Default 15 s.
	RPCTimeout time.Duration
	// RPCAttempts is how many times one exchange is tried before the
	// walk gives up on the host, redialing between attempts. Default 2.
	RPCAttempts int
	// Retry paces the gap between RPC attempts (jittered exponential
	// backoff, reset after each success). The zero value uses the
	// backoff package defaults scaled down for a client: Base 25 ms,
	// Max 500 ms.
	Retry backoff.Policy
	// RetrySeed seeds the retry jitter for reproducible schedules.
	RetrySeed int64
	// Readahead is how many sequential Read requests a File keeps in
	// flight over its server connection (the pipelined window of
	// DESIGN.md §8). 1 disables readahead — every Read is a lock-step
	// request/reply round trip. Default 4.
	Readahead int
	// WriteWindow is how many WriteAt requests a File keeps in flight
	// before blocking on the oldest acknowledgment (the write mirror
	// of Readahead; DESIGN.md §10). 1 (the default) is lock-step:
	// every write waits for its WriteOK before returning. With a
	// larger window WriteAt returns optimistically once the request
	// is on the wire; a later failure is reported by Flush, by the
	// next File operation, or at Close — there is no transparent
	// recovery for pipelined writes (the client no longer holds the
	// bytes), so callers that need the stronger guarantee keep the
	// default.
	WriteWindow int
	// MaxInFlight bounds the concurrent streams multiplexed onto one
	// pooled server connection; further requests queue. Default 64.
	MaxInFlight int
	// Clock supplies time. Default vclock.Real().
	Clock vclock.Clock
	// Tracer records one span per walk (redirect chain) with the hops
	// and waits as events. Default: a disabled tracer.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.MaxHops <= 0 {
		c.MaxHops = 8
	}
	if c.WaitBudget <= 0 {
		c.WaitBudget = 30 * time.Second
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 15 * time.Second
	}
	if c.RPCAttempts <= 0 {
		c.RPCAttempts = 2
	}
	if c.Retry.Base <= 0 {
		c.Retry.Base = 25 * time.Millisecond
	}
	if c.Retry.Max <= 0 {
		c.Retry.Max = 500 * time.Millisecond
	}
	if c.Readahead <= 0 {
		c.Readahead = 4
	}
	if c.WriteWindow <= 0 {
		c.WriteWindow = 1
	}
	if c.Clock == nil {
		c.Clock = vclock.Real()
	}
	if c.Tracer == nil {
		c.Tracer = obs.NewTracer(0, c.Clock)
	}
	return c
}

// Client is a Scalla client. It is safe for concurrent use; requests to
// the same server pipeline over one shared multiplexed connection, so N
// goroutines (or one File's readahead window) share a single socket
// instead of serializing on it (DESIGN.md §8).
type Client struct {
	cfg   Config
	retry *backoff.Backoff
	pool  *mux.Pool

	leases leaseTable

	// shedRng jitters retry-after pauses so a cohort of shed clients
	// does not stampede back in lockstep; seeded for reproducibility.
	shedMu  sync.Mutex
	shedRng *rand.Rand
}

// New returns a Client.
func New(cfg Config) *Client {
	cfg = cfg.withDefaults()
	return &Client{
		cfg:     cfg,
		retry:   backoff.New(cfg.Retry, cfg.RetrySeed),
		shedRng: rand.New(rand.NewSource(cfg.RetrySeed + 0x5ca11a)),
		pool: mux.NewPool(cfg.Net, mux.Options{
			MaxInFlight: cfg.MaxInFlight,
			Clock:       cfg.Clock,
		}),
	}
}

// shedDelay converts a RetryAfter hint into a jittered pause in
// [hint/2, hint]: the server already jittered the hint upward, the
// client jitters downward, and the product is a spread cohort rather
// than a synchronized retry storm.
func (cl *Client) shedDelay(r proto.RetryAfter) time.Duration {
	h := time.Duration(r.Millis) * time.Millisecond
	if h < time.Millisecond {
		h = time.Millisecond
	}
	cl.shedMu.Lock()
	d := h/2 + time.Duration(cl.shedRng.Int63n(int64(h/2)+1))
	cl.shedMu.Unlock()
	return d
}

// leaseSlots caps the location lease table. It is direct-mapped by
// path hash, so its memory stays flat however many distinct paths a
// client touches; 1<<14 slots keep ~95 % of opens of a Zipf 1.1 hot
// set over 10⁴ files (perfbench's meta-hot) on their lease.
const leaseSlots = 1 << 14

// lease names the data server that last served path.
type lease struct {
	path, addr string
}

// leaseTable maps a path to the data server that last answered an Open
// of it, or a Stat that found it (DESIGN.md §15). A lookup compares the
// full path, so two paths sharing a slot evict each other but never
// read each other's server. The slots are allocated on the first fill,
// so the many clients that only Locate (E3, E13) cost nothing.
type leaseTable struct {
	mu    sync.Mutex
	slots *[leaseSlots]lease

	hits, fallbacks atomic.Int64
}

func leaseSlot(path string) uint32 { return names.Hash(path) & (leaseSlots - 1) }

// get returns the server path is leased to.
func (t *leaseTable) get(path string) (string, bool) {
	i := leaseSlot(path)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.slots == nil || t.slots[i].addr == "" || t.slots[i].path != path {
		return "", false
	}
	return t.slots[i].addr, true
}

// put leases path to addr, evicting whatever shared its slot.
func (t *leaseTable) put(path, addr string) {
	i := leaseSlot(path)
	t.mu.Lock()
	if t.slots == nil {
		t.slots = new([leaseSlots]lease)
	}
	t.slots[i] = lease{path: path, addr: addr}
	t.mu.Unlock()
}

// drop forgets path's lease. With addr set it forgets it only while it
// still names addr, so a failed lease does not discard a fresher one a
// concurrent open recorded.
func (t *leaseTable) drop(path, addr string) {
	i := leaseSlot(path)
	t.mu.Lock()
	if t.slots != nil && t.slots[i].path == path && (addr == "" || t.slots[i].addr == addr) {
		t.slots[i] = lease{}
	}
	t.mu.Unlock()
}

// LeaseStats counts location-lease outcomes: Hits are read-opens and
// stats a leased data server answered directly; Fallbacks are leased
// requests that failed there and walked from a manager instead.
type LeaseStats struct {
	Hits, Fallbacks int64
}

// LeaseStats returns the client's lease counters.
func (cl *Client) LeaseStats() LeaseStats {
	return LeaseStats{Hits: cl.leases.hits.Load(), Fallbacks: cl.leases.fallbacks.Load()}
}

// leased sends m once to the data server path is leased to, over the
// pooled connection and without backoff. It returns the reply and the
// server, or a nil reply when there is no lease or the exchange failed;
// the caller judges the reply and calls leaseFailed on anything but
// the answer it wanted. A reply that aliases its frame (an inline
// OpenOK) comes with that frame, which the caller must Release.
func (cl *Client) leased(path string, m proto.Message) (proto.Message, *proto.Frame, string) {
	addr, ok := cl.leases.get(path)
	if !ok {
		return nil, nil, ""
	}
	mc, err := cl.pool.Get(addr)
	if err != nil {
		cl.leaseFailed(path, addr)
		return nil, nil, ""
	}
	ca, err := mc.Start(m)
	var reply proto.Message
	var frame *proto.Frame
	if err == nil {
		reply, frame, err = ca.WaitFrame(cl.cfg.RPCTimeout)
	}
	if err != nil {
		cl.pool.Drop(addr, mc)
		cl.leaseFailed(path, addr)
		return nil, nil, ""
	}
	return reply, keepAliased(reply, frame), addr
}

// leaseFailed drops a lease whose server did not serve path, so the
// caller's walk from a manager decides afresh.
func (cl *Client) leaseFailed(path, addr string) {
	cl.leases.drop(path, addr)
	cl.leases.fallbacks.Add(1)
}

// leaseFrom records that the data server addr served path. An answer
// from a manager replica (a proxy standing in for the tree) is no
// shortcut and is not leased.
func (cl *Client) leaseFrom(path, addr string) {
	if !cl.isManager(addr) {
		cl.leases.put(path, addr)
	}
}

// Close drops all cached connections, failing any in-flight requests.
func (cl *Client) Close() {
	cl.pool.Close()
}

// rpc performs one request/reply exchange with addr over the pooled
// multiplexed connection. Each attempt is bounded by RPCTimeout; a
// failed attempt drops the pooled connection (preserving the fault
// semantics of FAULTS.md — concurrent streams on it fail fast with
// their own retries) and redials after a jittered backoff so a
// struggling host is not hammered in a tight loop.
func (cl *Client) rpc(addr string, m proto.Message) (proto.Message, error) {
	var lastErr error
	for attempt := 0; attempt < cl.cfg.RPCAttempts; attempt++ {
		if attempt > 0 {
			cl.cfg.Clock.Sleep(cl.retry.Next())
		}
		mc, err := cl.pool.Get(addr)
		if err != nil {
			return nil, err
		}
		reply, err := mc.Call(m, cl.cfg.RPCTimeout)
		if err != nil {
			cl.pool.Drop(addr, mc)
			lastErr = err
			continue
		}
		cl.retry.Reset()
		return reply, nil
	}
	return nil, fmt.Errorf("%w: %s unreachable: %v", ErrIO, addr, lastErr)
}

// rpcFrame is rpc for the data path: it additionally returns the pooled
// reply frame — which the decoded message's byte fields may alias — and
// the caller must Release it on every outcome once done with the reply.
func (cl *Client) rpcFrame(addr string, m proto.Message) (proto.Message, *proto.Frame, error) {
	var lastErr error
	for attempt := 0; attempt < cl.cfg.RPCAttempts; attempt++ {
		if attempt > 0 {
			cl.cfg.Clock.Sleep(cl.retry.Next())
		}
		mc, err := cl.pool.Get(addr)
		if err != nil {
			return nil, nil, err
		}
		ca, err := mc.Start(m)
		if err == nil {
			var reply proto.Message
			var frame *proto.Frame
			reply, frame, err = ca.WaitFrame(cl.cfg.RPCTimeout)
			if err == nil {
				cl.retry.Reset()
				return reply, frame, nil
			}
		}
		cl.pool.Drop(addr, mc)
		lastErr = err
	}
	return nil, nil, fmt.Errorf("%w: %s unreachable: %v", ErrIO, addr, lastErr)
}

// keepAliased releases a reply's pooled frame unless the reply aliases
// it (proto.AliasesFrame), in which case the frame is returned for the
// caller to Release once done with the reply — mux.Call.Wait's rule,
// minus leaving an aliased frame to the garbage collector.
func keepAliased(reply proto.Message, frame *proto.Frame) *proto.Frame {
	if proto.AliasesFrame(reply) {
		return frame
	}
	frame.Release()
	return nil
}

// walk sends m starting at a manager, following Redirects and obeying
// Waits, until a terminal reply arrives. It returns the reply, the
// pooled frame when the reply aliases it (an inline OpenOK; nil
// otherwise), which the caller must Release, and the address that
// produced the reply. When every replica fails the error is a typed
// *AllReplicasError carrying the tried-host set, so callers can tell
// retryable cluster trouble from fatal verdicts.
func (cl *Client) walk(m proto.Message) (proto.Message, *proto.Frame, string, error) {
	var lastErr error
	var tried []string
	for _, mgr := range cl.cfg.Managers {
		reply, frame, addr, err := cl.walkFrom(mgr, m)
		if err == nil {
			return reply, frame, addr, nil
		}
		tried = append(tried, addr)
		lastErr = err
		if errors.Is(err, ErrTimeout) || errors.Is(err, ErrRetryAfter) {
			// The wait budget is an end-to-end bound; another replica
			// would only wait on the same pending resolution (or the
			// same overloaded cluster).
			break
		}
	}
	if lastErr == nil {
		return nil, nil, "", ErrNoServer
	}
	if errors.Is(lastErr, ErrRetryAfter) {
		// A shed is backpressure from a healthy host, not a replica
		// failure: surface it bare so callers neither count it toward
		// ErrAllReplicasFailed nor run stale-location recovery on it.
		return nil, nil, "", lastErr
	}
	return nil, nil, "", &AllReplicasError{Tried: tried, Err: lastErr}
}

// walkFrom is walk starting at addr.
func (cl *Client) walkFrom(addr string, m proto.Message) (proto.Message, *proto.Frame, string, error) {
	_, isLocate := m.(proto.Locate)
	waited := time.Duration(0)
	hops := 0
	sp := cl.cfg.Tracer.Start("walk", walkPath(m))
	for {
		reply, frame, err := cl.rpcFrame(addr, m)
		if err != nil {
			if sp != nil {
				sp.End("error " + addr)
			}
			return nil, nil, addr, err
		}
		// Only a terminal reply can alias its frame.
		frame = keepAliased(reply, frame)
		// A walk requests a refresh at most once: re-sending Refresh on
		// every Wait retry would re-arm the object's processing deadline
		// at the manager each round, turning a vanished file into a
		// wait-budget livelock instead of an honest no-entry verdict
		// after one full delay.
		if lc, ok := m.(proto.Locate); ok && lc.Refresh {
			lc.Refresh, lc.Avoid = false, ""
			m = lc
		}
		switch r := reply.(type) {
		case proto.Redirect:
			// A redirect to a data server answers a Locate; only
			// redirects to another redirector (CtlAddr set) are
			// followed for location queries.
			if isLocate && r.CtlAddr == "" {
				if sp != nil {
					sp.End("redirect " + r.Addr)
				}
				return reply, nil, addr, nil
			}
			hops++
			if hops > cl.cfg.MaxHops {
				sp.End("too many hops")
				return nil, nil, addr, fmt.Errorf("%w: redirect chain exceeded %d hops", ErrIO, cl.cfg.MaxHops)
			}
			sp.Event("hop", r.Addr)
			addr = r.Addr
		case proto.Wait:
			d := time.Duration(r.Millis) * time.Millisecond
			if d <= 0 {
				d = time.Millisecond
			}
			waited += d
			if waited > cl.cfg.WaitBudget {
				sp.End("wait budget exhausted")
				return nil, nil, addr, ErrTimeout
			}
			sp.Event("wait", d.String())
			cl.cfg.Clock.Sleep(d)
		case proto.RetryAfter:
			// Overload shed: the host is healthy and told us when to
			// come back, so back off (jittered, against the same wait
			// budget) and retry rather than marking the replica failed.
			d := cl.shedDelay(r)
			waited += d
			if waited > cl.cfg.WaitBudget {
				sp.End("shed budget exhausted")
				return nil, nil, addr, ErrRetryAfter
			}
			sp.Event("shed", d.String())
			cl.cfg.Clock.Sleep(d)
		default:
			if sp != nil {
				sp.End(fmt.Sprintf("%T from %s", reply, addr))
			}
			return reply, frame, addr, nil
		}
	}
}

// walkPath extracts the path a walk operates on, for its trace span.
func walkPath(m proto.Message) string {
	switch r := m.(type) {
	case proto.Locate:
		return r.Path
	case proto.Open:
		return r.Path
	case proto.Stat:
		return r.Path
	case proto.Unlink:
		return r.Path
	default:
		return ""
	}
}

func errFrom(e proto.Err) error {
	switch e.Code {
	case proto.ENoEnt:
		return ErrNotExist
	case proto.EExist:
		return ErrExist
	default:
		return fmt.Errorf("%w: %s", ErrIO, e.Msg)
	}
}

// Locate resolves path to a data server address without opening it.
func (cl *Client) Locate(path string, write bool) (string, error) {
	return cl.locate(proto.Locate{Path: path, Write: write})
}

// Relocate forces a cache refresh for path before resolving it,
// optionally avoiding a known-bad host. Use it to discover files
// created after the manager cached their non-existence (the timing
// edge effects of Section III-C1).
func (cl *Client) Relocate(path string, write bool, avoid string) (string, error) {
	cl.leases.drop(path, "")
	return cl.locate(proto.Locate{Path: path, Write: write, Refresh: true, Avoid: avoid})
}

func (cl *Client) locate(req proto.Locate) (string, error) {
	reply, _, addr, err := cl.walk(req)
	if err != nil {
		return "", err
	}
	switch r := reply.(type) {
	case proto.Redirect:
		return r.Addr, nil
	case proto.Err:
		return "", errFrom(r)
	default:
		// A terminal Locate reply from a server-less walk; the last
		// addr answered something unexpected.
		return addr, fmt.Errorf("%w: unexpected locate reply %T", ErrIO, reply)
	}
}

// File is an open remote file. Sequential Reads pipeline a readahead
// window of Config.Readahead outstanding requests over the shared
// server connection; any non-sequential access (Seek, ReadAt, writes)
// cancels the window.
//
// A read-only File of a small file is usually inline (DESIGN.md §16):
// the server sent the whole file with its open reply and kept no
// handle, so reads are served from that open-time snapshot and Close
// sends nothing.
type File struct {
	cl    *Client
	path  string
	addr  string
	fh    uint64
	write bool
	size  int64
	off   int64 // sequential read/write cursor
	mu    sync.Mutex
	ra    []raChunk // outstanding readahead window, ascending offsets
	ww    []wwChunk // outstanding pipelined writes, issue order
	werr  error     // sticky pipelined-write failure, cleared by Flush

	// An inline File's bytes alias its open reply's pooled frame
	// (nil for an empty file) until Close releases it.
	inline, closed bool
	data           []byte
	frame          *proto.Frame
}

// newFile returns the File an OpenOK from addr opened. A handle-less
// reply makes an inline File, which adopts the reply's frame.
func (cl *Client) newFile(path, addr string, write bool, r proto.OpenOK, frame *proto.Frame) *File {
	f := &File{cl: cl, path: path, addr: addr, fh: r.FH, write: write, size: r.Size}
	if r.FH == 0 {
		f.inline, f.data, f.frame = true, r.Data, frame
	} else if frame != nil {
		frame.Release()
	}
	return f
}

// raChunk is one in-flight readahead request.
type raChunk struct {
	off  int64
	n    uint32
	call *mux.Call
	mc   *mux.Conn
}

// wwChunk is one in-flight pipelined write awaiting its WriteOK.
type wwChunk struct {
	off  int64
	n    int
	call *mux.Call
	mc   *mux.Conn
}

// cancelReadahead abandons every outstanding readahead request. Caller
// holds f.mu. Safe on an empty window.
func (f *File) cancelReadahead() {
	for _, c := range f.ra {
		c.call.Cancel()
	}
	f.ra = nil
}

// fillReadahead tops the window up to Readahead outstanding requests of
// want bytes each, starting at the cursor and advancing by want.
// Requests are not issued past the known size (the size can grow; the
// lock-step path still sees appended data). Caller holds f.mu.
func (f *File) fillReadahead(want uint32) error {
	for len(f.ra) < f.cl.cfg.Readahead {
		next := f.off
		if n := len(f.ra); n > 0 {
			last := f.ra[n-1]
			next = last.off + int64(last.n)
		}
		if next >= f.size && next > f.off {
			break // don't speculate past EOF
		}
		mc, err := f.cl.pool.Get(f.addr)
		if err != nil {
			return err
		}
		call, err := mc.Start(proto.Read{FH: f.fh, Off: next, N: want})
		if err != nil {
			f.cl.pool.Drop(f.addr, mc)
			return err
		}
		f.ra = append(f.ra, raChunk{off: next, n: want, call: call, mc: mc})
	}
	return nil
}

// readSequential serves one sequential Read from the readahead window,
// filling it first and consuming the head chunk. Any surprise — a Wait
// verdict, an error, a short chunk — drains the window and falls back
// to the recovering lock-step path. Caller holds f.mu.
func (f *File) readSequential(p []byte) (int, error) {
	want := uint32(len(p))
	// A window built for a different cursor or chunk size is useless.
	if len(f.ra) > 0 && (f.ra[0].off != f.off || f.ra[0].n != want) {
		f.cancelReadahead()
	}
	if err := f.fillReadahead(want); err != nil {
		f.cancelReadahead()
		return f.readAtLocked(p, f.off, true)
	}
	head := f.ra[0]
	f.ra = f.ra[1:]
	reply, frame, err := head.call.WaitFrame(f.cl.cfg.RPCTimeout)
	if err != nil {
		// Timeout or connection death: the rest of the window is dead or
		// stale either way. The lock-step path redials and recovers.
		f.cancelReadahead()
		f.cl.pool.Drop(f.addr, head.mc)
		return f.readAtLocked(p, f.off, true)
	}
	data, ok := reply.(proto.Data)
	if !ok {
		// Wait verdict (staging) or an error: the speculative window was
		// issued against the wrong state of the file. Drain it and let
		// the lock-step path sleep/recover.
		frame.Release()
		f.cancelReadahead()
		return f.readAtLocked(p, f.off, true)
	}
	// data.Bytes aliases the pooled reply frame; copy out, then recycle.
	n := copy(p, data.Bytes)
	frame.Release()
	if data.EOF || uint32(n) != want {
		// The tail of the window overshot the end of the file.
		f.cancelReadahead()
	}
	if data.EOF {
		return n, io.EOF
	}
	return n, nil
}

// Open opens path for reading.
func (cl *Client) Open(path string) (*File, error) {
	return cl.open(path, false, false)
}

// OpenWrite opens path for writing (the file must exist).
func (cl *Client) OpenWrite(path string) (*File, error) {
	return cl.open(path, true, false)
}

// Create creates path exclusively and opens it for writing. Note the
// paper's caveat: proving non-existence costs one full delay, so bulk
// creators should Prepare first.
func (cl *Client) Create(path string) (*File, error) {
	return cl.open(path, true, true)
}

func (cl *Client) open(path string, write, create bool) (*File, error) {
	req := proto.Open{Path: path, Write: write, Create: create, Inline: !write && !create}
	if req.Inline {
		if reply, frame, addr := cl.leased(path, req); reply != nil {
			if r, ok := reply.(proto.OpenOK); ok {
				cl.leases.hits.Add(1)
				return cl.newFile(path, addr, false, r, frame), nil
			}
			cl.leaseFailed(path, addr)
		}
	}
	reply, frame, addr, err := cl.walk(req)
	if err != nil {
		// Stale-location recovery (Section III-C1): when the walk died
		// at a redirect target rather than at a manager, the manager
		// vectored us at a host that stopped serving. Ask for a cache
		// refresh that names the failing host, then follow the fresh
		// location — once; repeated failure surfaces the typed error.
		var are *AllReplicasError
		if errors.As(err, &are) && !errors.Is(err, ErrTimeout) &&
			are.LastTried() != "" && !cl.isManager(are.LastTried()) {
			if f, rerr := cl.openRefreshed(path, write, create, are.LastTried()); rerr == nil {
				return f, nil
			}
		}
		return nil, err
	}
	return cl.opened(path, write || create, reply, frame, addr)
}

// opened turns a walk's terminal reply to an Open into a File, leasing
// path to the server that opened it.
func (cl *Client) opened(path string, write bool, reply proto.Message, frame *proto.Frame, addr string) (*File, error) {
	switch r := reply.(type) {
	case proto.OpenOK:
		cl.leaseFrom(path, addr)
		return cl.newFile(path, addr, write, r, frame), nil
	case proto.Err:
		return nil, errFrom(r)
	default:
		if frame != nil {
			frame.Release()
		}
		return nil, fmt.Errorf("%w: unexpected open reply %T", ErrIO, reply)
	}
}

// isManager reports whether addr is one of the configured replicas.
func (cl *Client) isManager(addr string) bool {
	for _, m := range cl.cfg.Managers {
		if m == addr {
			return true
		}
	}
	return false
}

// openRefreshed retries an open after host avoid failed to serve path:
// it forces a cache refresh naming the failing host, then opens at the
// freshly resolved location.
func (cl *Client) openRefreshed(path string, write, create bool, avoid string) (*File, error) {
	reply, _, _, err := cl.walk(proto.Locate{Path: path, Write: write || create, Refresh: true, Avoid: avoid})
	if err != nil {
		return nil, err
	}
	rd, ok := reply.(proto.Redirect)
	if !ok {
		if e, isErr := reply.(proto.Err); isErr {
			return nil, errFrom(e)
		}
		return nil, fmt.Errorf("%w: refresh did not redirect (%T)", ErrIO, reply)
	}
	reply, frame, addr, err := cl.walkFrom(rd.Addr, proto.Open{Path: path, Write: write, Create: create, Inline: !write && !create})
	if err != nil {
		return nil, err
	}
	return cl.opened(path, write || create, reply, frame, addr)
}

// Path returns the file's path.
func (f *File) Path() string { return f.path }

// Server returns the data server currently serving the file.
func (f *File) Server() string { return f.addr }

// Size returns the size reported at open time.
func (f *File) Size() int64 { return f.size }

// recover reopens the file elsewhere after addr failed to serve it: it
// asks the manager for a cache refresh naming the failing host, then
// reopens at the fresh location (Section III-C1).
func (f *File) recover() error {
	f.cancelReadahead() // the window targets the failed server and handle
	f.cl.leases.drop(f.path, f.addr)
	reply, _, addr, err := f.cl.walk(proto.Locate{Path: f.path, Write: f.write, Refresh: true, Avoid: f.addr})
	if err != nil {
		return err
	}
	rd, ok := reply.(proto.Redirect)
	if !ok {
		if e, isErr := reply.(proto.Err); isErr {
			return errFrom(e)
		}
		return fmt.Errorf("%w: refresh did not redirect (%T)", ErrIO, reply)
	}
	_ = addr
	// Open directly at the fresh holder (it may itself redirect).
	reply, _, addr, err = f.cl.walkFrom(rd.Addr, proto.Open{Path: f.path, Write: f.write})
	if err != nil {
		return err
	}
	okMsg, isOK := reply.(proto.OpenOK)
	if !isOK {
		if e, isErr := reply.(proto.Err); isErr {
			return errFrom(e)
		}
		return fmt.Errorf("%w: reopen failed (%T)", ErrIO, reply)
	}
	f.cl.leaseFrom(f.path, addr)
	f.addr, f.fh, f.size = addr, okMsg.FH, okMsg.Size
	return nil
}

// ReadAt implements io.ReaderAt with transparent refresh recovery.
// Random access cancels any sequential readahead window.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.inline {
		return f.readInline(p, off)
	}
	f.cancelReadahead()
	if err := f.flushWrites(); err != nil {
		return 0, err
	}
	return f.readAtLocked(p, off, true)
}

// Errors an inline File reports where a handle's server would have
// answered with these verdicts.
var (
	errBadHandle = proto.Err{Code: proto.EInval, Msg: "bad file handle"}
	errReadOnly  = proto.Err{Code: proto.EInval, Msg: "handle is read-only"}
)

// readInline serves a read from an inline File's snapshot with the
// data server's rule (store.ReadAtInto): io.EOF when the read reaches
// the end of the file. Caller holds f.mu.
func (f *File) readInline(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, errFrom(errBadHandle)
	}
	if off < 0 {
		return 0, fmt.Errorf("%w: negative offset %d", ErrIO, off)
	}
	if off >= f.size {
		return 0, io.EOF
	}
	end := off + int64(len(p))
	if end < f.size {
		return copy(p, f.data[off:end]), nil
	}
	return copy(p, f.data[off:]), io.EOF
}

func (f *File) readAtLocked(p []byte, off int64, mayRecover bool) (int, error) {
	var shedWaited time.Duration
retry:
	// The frame-returning rpc keeps the hot read path pooled: the Data
	// bytes are copied out below and the frame recycled on every verdict.
	reply, frame, err := f.cl.rpcFrame(f.addr, proto.Read{FH: f.fh, Off: off, N: uint32(len(p))})
	if err == nil {
		if w, isWait := reply.(proto.Wait); isWait {
			frame.Release()
			f.cl.cfg.Clock.Sleep(time.Duration(w.Millis) * time.Millisecond)
			goto retry
		}
		if ra, isShed := reply.(proto.RetryAfter); isShed {
			// Overload shed: back off and re-send. The server is fine
			// (it answered), so recovery to another replica is wrong;
			// bound the patience by the wait budget.
			frame.Release()
			d := f.cl.shedDelay(ra)
			shedWaited += d
			if shedWaited > f.cl.cfg.WaitBudget {
				return 0, fmt.Errorf("read at %d: %w", off, ErrRetryAfter)
			}
			f.cl.cfg.Clock.Sleep(d)
			goto retry
		}
	}
	if err != nil {
		if !mayRecover {
			return 0, err
		}
		if rerr := f.recover(); rerr != nil {
			return 0, rerr
		}
		return f.readAtLocked(p, off, false)
	}
	switch r := reply.(type) {
	case proto.Data:
		n := copy(p, r.Bytes)
		eof := r.EOF
		frame.Release()
		if eof {
			return n, io.EOF
		}
		return n, nil
	case proto.Err:
		frame.Release()
		if mayRecover && (r.Code == proto.ENoEnt || r.Code == proto.EIO) {
			if rerr := f.recover(); rerr != nil {
				return 0, rerr
			}
			return f.readAtLocked(p, off, false)
		}
		return 0, errFrom(r)
	default:
		frame.Release()
		return 0, fmt.Errorf("%w: unexpected read reply %T", ErrIO, reply)
	}
}

// Read implements io.Reader (sequential). With Readahead > 1 it keeps
// a window of pipelined requests in flight so consecutive Reads stream
// instead of paying a round trip each.
func (f *File) Read(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	// Read-your-writes: pipelined writes settle before any read.
	if err := f.flushWrites(); err != nil {
		return 0, err
	}
	var (
		n   int
		err error
	)
	if f.inline {
		n, err = f.readInline(p, f.off)
	} else if f.cl.cfg.Readahead > 1 && len(p) > 0 {
		n, err = f.readSequential(p)
	} else {
		n, err = f.readAtLocked(p, f.off, true)
	}
	f.off += int64(n)
	return n, err
}

// Seek implements io.Seeker over the sequential cursor, making File a
// full io.ReadSeekCloser (what the Root framework expects of a file).
func (f *File) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.off
	case io.SeekEnd:
		base = f.size
	default:
		return 0, fmt.Errorf("%w: bad whence %d", ErrIO, whence)
	}
	pos := base + offset
	if pos < 0 {
		return 0, fmt.Errorf("%w: negative seek position", ErrIO)
	}
	if pos != f.off {
		f.cancelReadahead()
	}
	f.off = pos
	return pos, nil
}

// reapWrite settles the oldest in-flight pipelined write. Anything
// but a full WriteOK — a transport error, a Wait verdict, a server
// error, a short write — fails the whole window: the client no longer
// holds the bytes of the writes behind it, so nothing can be replayed.
// The failure is sticky in f.werr until Flush reports it. Caller
// holds f.mu and guarantees the window is non-empty.
func (f *File) reapWrite() error {
	c := f.ww[0]
	f.ww = f.ww[1:]
	reply, err := c.call.Wait(f.cl.cfg.RPCTimeout)
	if err != nil {
		f.cl.pool.Drop(f.addr, c.mc)
		f.failWindow(fmt.Errorf("%w: pipelined write at %d: %v", ErrIO, c.off, err))
		return f.werr
	}
	switch r := reply.(type) {
	case proto.WriteOK:
		if int(r.N) != c.n {
			f.failWindow(fmt.Errorf("%w: short pipelined write at %d: %d of %d bytes", ErrIO, c.off, r.N, c.n))
			return f.werr
		}
		return nil
	case proto.Wait:
		// The file went into staging under the window. A lock-step
		// write would sleep and retry; a pipelined one cannot (the
		// bytes are gone), so the caller must rewrite after Flush.
		f.failWindow(fmt.Errorf("%w: pipelined write at %d deferred by staging; rewrite after Flush", ErrIO, c.off))
		return f.werr
	case proto.RetryAfter:
		// Shed under overload. Same shape as Wait: the bytes are gone,
		// so the window cannot transparently retry — but the error is
		// the typed shed so callers back off instead of failing over.
		f.failWindow(fmt.Errorf("pipelined write at %d shed; rewrite after Flush: %w", c.off, ErrRetryAfter))
		return f.werr
	case proto.Err:
		f.failWindow(fmt.Errorf("pipelined write at %d: %w", c.off, errFrom(r)))
		return f.werr
	default:
		f.failWindow(fmt.Errorf("%w: unexpected pipelined write reply %T", ErrIO, reply))
		return f.werr
	}
}

// failWindow abandons every in-flight pipelined write and records the
// sticky error. Caller holds f.mu.
func (f *File) failWindow(err error) {
	for _, c := range f.ww {
		c.call.Cancel()
	}
	f.ww = nil
	f.werr = err
}

// flushWrites drains the pipelined-write window and returns (and
// clears) any sticky failure. Caller holds f.mu.
func (f *File) flushWrites() error {
	for len(f.ww) > 0 && f.werr == nil {
		f.reapWrite()
	}
	err := f.werr
	f.werr = nil
	return err
}

// Flush blocks until every pipelined write has been acknowledged,
// returning the first failure (which covers every write issued since
// the last Flush — on error the caller knows only that some suffix of
// the window did not land). A lock-step File (WriteWindow 1) always
// returns nil.
func (f *File) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.flushWrites()
}

// WriteAt implements io.WriterAt. With Config.WriteWindow > 1 writes
// pipeline: WriteAt returns once the request is on the wire and up to
// WriteWindow acknowledgments ride behind — mirroring the readahead
// window, so batch loads aren't lock-step round trips. Failures
// surface on a later call (see Flush).
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.inline {
		return 0, errFrom(errReadOnly)
	}
	f.cancelReadahead() // speculative reads may race the write
	if f.cl.cfg.WriteWindow > 1 {
		return f.writeAtPipelined(p, off)
	}
	var shedWaited time.Duration
	for {
		reply, err := f.cl.rpc(f.addr, proto.Write{FH: f.fh, Off: off, Bytes: p})
		if err != nil {
			return 0, err
		}
		switch r := reply.(type) {
		case proto.WriteOK:
			if end := off + int64(r.N); end > f.size {
				f.size = end
			}
			return int(r.N), nil
		case proto.RetryAfter:
			// Lock-step writes still hold the bytes, so a shed is fully
			// retryable after a jittered pause.
			d := f.cl.shedDelay(r)
			shedWaited += d
			if shedWaited > f.cl.cfg.WaitBudget {
				return 0, fmt.Errorf("write at %d: %w", off, ErrRetryAfter)
			}
			f.cl.cfg.Clock.Sleep(d)
		case proto.Err:
			return 0, errFrom(r)
		default:
			return 0, fmt.Errorf("%w: unexpected write reply %T", ErrIO, reply)
		}
	}
}

// writeAtPipelined issues one write into the window. Caller holds f.mu.
func (f *File) writeAtPipelined(p []byte, off int64) (int, error) {
	if f.werr != nil {
		return 0, f.werr
	}
	// Opportunistically settle writes whose acks already arrived, so a
	// streaming writer sees errors within a window's worth of bytes
	// rather than only at Flush.
	for len(f.ww) > 0 {
		select {
		case <-f.ww[0].call.Done():
			if err := f.reapWrite(); err != nil {
				return 0, err
			}
			continue
		default:
		}
		break
	}
	// Block on the oldest ack once the window is full.
	for len(f.ww) >= f.cl.cfg.WriteWindow {
		if err := f.reapWrite(); err != nil {
			return 0, err
		}
	}
	mc, err := f.cl.pool.Get(f.addr)
	if err != nil {
		return 0, err
	}
	call, err := mc.Start(proto.Write{FH: f.fh, Off: off, Bytes: p})
	if err != nil {
		f.cl.pool.Drop(f.addr, mc)
		return 0, err
	}
	f.ww = append(f.ww, wwChunk{off: off, n: len(p), call: call, mc: mc})
	// Optimistic: the reap checks the ack covered every byte.
	if end := off + int64(len(p)); end > f.size {
		f.size = end
	}
	return len(p), nil
}

// Write implements io.Writer (sequential).
func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	off := f.off
	f.mu.Unlock()
	n, err := f.WriteAt(p, off)
	f.mu.Lock()
	f.off = off + int64(n)
	f.mu.Unlock()
	return n, err
}

// Truncate resizes the file (write handles only).
func (f *File) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.inline {
		return errFrom(errReadOnly)
	}
	f.cancelReadahead()
	if err := f.flushWrites(); err != nil {
		return err
	}
	reply, err := f.cl.rpc(f.addr, proto.Trunc{FH: f.fh, Size: size})
	if err != nil {
		return err
	}
	switch r := reply.(type) {
	case proto.TruncOK:
		f.size = size
		return nil
	case proto.Err:
		return errFrom(r)
	default:
		return fmt.Errorf("%w: unexpected truncate reply %T", ErrIO, reply)
	}
}

// Close releases the remote handle, abandoning any readahead. It
// flushes the pipelined-write window first; a flush failure is
// reported after the handle is released, so no acked-but-failed write
// goes unnoticed. Closing an inline File releases its snapshot and
// sends nothing.
func (f *File) Close() error {
	f.mu.Lock()
	if f.inline {
		defer f.mu.Unlock()
		if f.closed {
			return errFrom(errBadHandle)
		}
		f.closed, f.data = true, nil
		if f.frame != nil {
			f.frame.Release()
			f.frame = nil
		}
		return nil
	}
	f.cancelReadahead()
	werr := f.flushWrites()
	f.mu.Unlock()
	reply, err := f.cl.rpc(f.addr, proto.Close{FH: f.fh})
	if werr != nil {
		return werr
	}
	if err != nil {
		return err
	}
	if e, isErr := reply.(proto.Err); isErr {
		return errFrom(e)
	}
	return nil
}

// Stat resolves path and reports its metadata. A leased path is asked
// of its data server first; only an answer that it exists is taken
// from there, anything else walks from a manager.
func (cl *Client) Stat(path string) (proto.StatOK, error) {
	if reply, _, addr := cl.leased(path, proto.Stat{Path: path}); reply != nil {
		if r, ok := reply.(proto.StatOK); ok && r.Exists {
			cl.leases.hits.Add(1)
			return r, nil
		}
		cl.leaseFailed(path, addr)
	}
	reply, _, addr, err := cl.walk(proto.Stat{Path: path})
	if err != nil {
		return proto.StatOK{}, err
	}
	switch r := reply.(type) {
	case proto.StatOK:
		if !r.Exists {
			return r, ErrNotExist
		}
		cl.leaseFrom(path, addr)
		return r, nil
	case proto.Err:
		return proto.StatOK{}, errFrom(r)
	default:
		return proto.StatOK{}, fmt.Errorf("%w: unexpected stat reply %T", ErrIO, reply)
	}
}

// Unlink removes path at its (selected) holder.
func (cl *Client) Unlink(path string) error {
	cl.leases.drop(path, "")
	reply, _, _, err := cl.walk(proto.Unlink{Path: path})
	if err != nil {
		return err
	}
	switch r := reply.(type) {
	case proto.UnlinkOK:
		return nil
	case proto.Err:
		return errFrom(r)
	default:
		return fmt.Errorf("%w: unexpected unlink reply %T", ErrIO, reply)
	}
}

// Prepare announces paths that will be needed soon. The manager spawns
// the look-ups (and staging) in the background, so a following bulk
// access pays at most one full delay (Section III-B2).
func (cl *Client) Prepare(paths []string, write bool) error {
	var lastErr error
	for _, mgr := range cl.cfg.Managers {
		reply, err := cl.rpc(mgr, proto.Prepare{Paths: paths, Write: write})
		if err != nil {
			lastErr = err
			continue
		}
		if _, ok := reply.(proto.PrepareOK); ok {
			return nil
		}
	}
	if lastErr == nil {
		lastErr = ErrNoServer
	}
	return lastErr
}

// ListNamespace asks a Cluster Name Space daemon (see internal/nsd) at
// nsdAddr for the merged cluster namespace under prefix. Managers do
// not serve listings — the paper keeps ls-type operations out of the
// resolution path (Section V) — so the NSD address is supplied
// explicitly.
func (cl *Client) ListNamespace(nsdAddr, prefix string) ([]proto.Entry, error) {
	reply, err := cl.rpc(nsdAddr, proto.List{Prefix: prefix})
	if err != nil {
		return nil, err
	}
	switch r := reply.(type) {
	case proto.ListOK:
		return r.Entries, nil
	case proto.Err:
		return nil, errFrom(r)
	default:
		return nil, fmt.Errorf("%w: unexpected list reply %T", ErrIO, reply)
	}
}

// ReadFile opens, fully reads, and closes path.
func (cl *Client) ReadFile(path string) ([]byte, error) {
	f, err := cl.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []byte
	buf := make([]byte, 64<<10)
	off := int64(0)
	for {
		n, err := f.ReadAt(buf, off)
		out = append(out, buf[:n]...)
		off += int64(n)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		if n == 0 {
			return out, nil
		}
	}
}

// WriteFile creates (or rewrites) path with data. An existing file is
// truncated before the new content is written.
func (cl *Client) WriteFile(path string, data []byte) error {
	f, err := cl.Create(path)
	if errors.Is(err, ErrExist) {
		f, err = cl.OpenWrite(path)
		if err == nil {
			err = f.Truncate(0)
			if err != nil {
				f.Close()
				return err
			}
		}
	}
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteAt(data, 0)
	return err
}
