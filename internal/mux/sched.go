package mux

// Scheduled dispatch: the overload-protection and QoS layer for the
// responder side of the multiplexed protocol (DESIGN.md §11). A
// Scheduler is shared by every connection a server accepts and gives
// them
//
//   - a strict-priority control lane, so cluster-control frames
//     (heartbeats, floods, subscriptions) never wait behind bulk data
//     frames;
//   - deficit-round-robin (DRR) fair queueing across connections, so
//     one greedy pipelined client cannot starve a single-stream reader;
//   - a bounded data-lane queue with typed RetryAfter shedding — the
//     respq 5 s full-delay generalized into an explicit backpressure
//     signal the client's backoff understands.
//
// The uncontended enqueue→dequeue path allocates nothing after warmup:
// jobs live in growable rings owned by the scheduler, and the decoded
// message is the only heap object, boxed once at frame decode.

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"scalla/internal/metrics"
	"scalla/internal/obs"
	"scalla/internal/proto"
	"scalla/internal/vclock"
)

// Lane classifies a request for scheduling: control frames preempt data
// frames.
type Lane uint8

// The two scheduling lanes.
const (
	// LaneControl carries cluster-control traffic: login, heartbeat,
	// flood, and subscription frames. It is served with strict priority
	// and is never shed.
	LaneControl Lane = iota
	// LaneData carries everything else — opens, reads, writes, locates.
	// It is DRR-scheduled across clients and shed when the queue fills.
	LaneData
	laneCount
)

// LaneOf returns the lane a message is scheduled on. The control set is
// exactly the cmsd control-plane kinds (Login through HaveNot) plus the
// data-plane Ping, so liveness probes keep working on a saturated data
// server.
func LaneOf(m proto.Message) Lane {
	switch m.Kind() {
	case proto.KLogin, proto.KLoginOK, proto.KLoginRej, proto.KQuery,
		proto.KHave, proto.KHaveNot, proto.KPing, proto.KPong:
		return LaneControl
	}
	return LaneData
}

// costUnit is the payload size that adds one unit of DRR cost: requests
// are charged 1 + payload/costUnit, so byte-heavy reads and writes
// drain a client's deficit faster than metadata operations and fairness
// approximates byte share, not op share.
const costUnit = 16 << 10

// maxCost caps one request's charge so a single huge transfer cannot
// force the dequeue loop through many replenish rounds while holding
// the scheduler lock.
const maxCost = 64

func costOf(m proto.Message) int32 {
	var payload int
	switch v := m.(type) {
	case proto.Read:
		payload = int(v.N)
	case proto.Write:
		payload = len(v.Bytes)
	}
	c := int32(1 + payload/costUnit)
	if c > maxCost {
		return maxCost
	}
	return c
}

// SchedConfig parameterizes a Scheduler.
type SchedConfig struct {
	// Workers bounds how many requests execute concurrently across all
	// connections sharing the scheduler. Default 8.
	Workers int
	// QueueLimit bounds queued-but-not-executing data-lane requests,
	// summed over all clients; an arrival beyond it is shed with a
	// RetryAfter verdict. Every client is guaranteed one queued request
	// regardless: a client with nothing queued is always admitted, so a
	// sparse (single-stream) client survives a queue pinned at its limit
	// by a pipelined cohort — admission fairness to match the DRR
	// dispatch fairness. Total queued is therefore bounded by QueueLimit
	// plus the client count. Control-lane frames are never shed. Default
	// 1024.
	QueueLimit int
	// Quantum is the DRR credit (in cost units; one unit ≈ one metadata
	// op or 16 KiB of payload) granted per round-robin visit, and the
	// starting credit of a newly active client. Default 8.
	Quantum int
	// RetryAfterMillis is the nominal shed backoff hint; each verdict
	// carries a jittered value in [base/2, 3·base/2] so a shed cohort
	// does not retry in lockstep. Default 100.
	RetryAfterMillis int
	// Seed seeds the shed-jitter RNG, making verdicts deterministic for
	// a given arrival order (the detsim invariant relies on this).
	Seed int64
	// Clock supplies time for wait histograms. Default vclock.Real().
	Clock vclock.Clock
}

func (c SchedConfig) withDefaults() SchedConfig {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 1024
	}
	if c.Quantum <= 0 {
		c.Quantum = 8
	}
	if c.RetryAfterMillis <= 0 {
		c.RetryAfterMillis = 100
	}
	if c.Clock == nil {
		c.Clock = vclock.Real()
	}
	return c
}

// job is one admitted request waiting for a worker. It carries the
// pooled frame the request decoded from (m's byte fields may alias it);
// whoever retires the job — worker after dispatch, or a discard site —
// releases the frame.
type job struct {
	c    *schedClient
	m    proto.Message
	sid  uint32
	f    *proto.Frame
	enq  time.Time
	cost int32
	lane Lane
}

// releaseFrame recycles the job's request frame, if it has one (jobs
// built by tests bypass the frame path).
func (j *job) releaseFrame() {
	if j.f != nil {
		j.f.Release()
	}
}

// jobRing is a growable FIFO of jobs backed by a circular buffer, so
// steady-state enqueue/dequeue allocates nothing.
type jobRing struct {
	buf  []job
	head int
	n    int
}

func (r *jobRing) push(j job) {
	if r.n == len(r.buf) {
		grown := make([]job, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = j
	r.n++
}

func (r *jobRing) pop() job {
	j := r.buf[r.head]
	r.buf[r.head] = job{} // release the message reference
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return j
}

func (r *jobRing) peek() *job { return &r.buf[r.head] }
func (r *jobRing) len() int   { return r.n }

// schedClient is one registered connection's scheduling state: its
// data-lane FIFO, DRR deficit, and position in the active ring.
type schedClient struct {
	st  *serveState
	h   Handler
	opt ServeOptions

	q       jobRing
	deficit int

	// Intrusive circular doubly-linked active ring; nil links when the
	// client has no queued data jobs.
	next, prev *schedClient
	active     bool
	// fresh marks a client activated since it was last visited by the
	// dequeue loop: fresh clients form a FIFO segment at the front of
	// the ring (see activateLocked).
	fresh bool
	// out counts outstanding data-lane jobs (queued or running); multi
	// latches when the client ever overlapped two, the signature of a
	// pipelined cohort; heavy carries the previous active period's
	// verdict and demotes the next activation to the round tail.
	out   int
	multi bool
	heavy bool

	running int  // dispatched, handler not yet returned
	gone    bool // unregistered; drop rather than dispatch
}

// Scheduler is a server-wide request scheduler shared by every
// connection passed to Serve with ServeOptions.Sched set. It owns the
// worker pool; per-connection Serve loops only decode frames and
// enqueue. Close it when the owning server shuts down.
type Scheduler struct {
	cfg SchedConfig

	mu      sync.Mutex
	cond    sync.Cond
	rng     *rand.Rand // shed jitter; guarded by mu
	ctl     jobRing    // control lane, global FIFO
	head    *schedClient
	newTail *schedClient // newest member of the fresh FIFO segment
	clients int
	queued  int // data-lane jobs across all clients
	maxq    int
	running int
	disp    [laneCount]int64
	shed    int64
	closed  bool

	wait [laneCount]*metrics.Histogram
	wg   sync.WaitGroup
}

// NewScheduler builds a Scheduler and starts its workers.
func NewScheduler(cfg SchedConfig) *Scheduler {
	s := newScheduler(cfg)
	s.wg.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// newScheduler builds the scheduler without starting workers; tests
// step nextLocked by hand for determinism.
func newScheduler(cfg SchedConfig) *Scheduler {
	s := &Scheduler{
		cfg: cfg.withDefaults(),
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	s.cond.L = &s.mu
	for i := range s.wait {
		s.wait[i] = &metrics.Histogram{}
	}
	return s
}

// Close drops every queued request, waits for in-flight handlers to
// finish, and stops the workers. Enqueues after Close shed.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for s.ctl.len() > 0 {
		j := s.ctl.pop()
		j.releaseFrame()
	}
	for s.head != nil {
		c := s.head
		s.queued -= c.q.len()
		for c.q.len() > 0 {
			j := c.q.pop()
			j.releaseFrame()
		}
		s.deactivateLocked(c)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// register adds one connection to the scheduler.
func (s *Scheduler) register(st *serveState, h Handler, opt ServeOptions) *schedClient {
	c := &schedClient{st: st, h: h, opt: opt}
	s.mu.Lock()
	s.clients++
	s.mu.Unlock()
	return c
}

// unregister drops the client's queued jobs and blocks until its
// in-flight handlers have returned — Serve's drain contract.
func (s *Scheduler) unregister(c *schedClient) {
	s.mu.Lock()
	c.gone = true
	s.queued -= c.q.len()
	for c.q.len() > 0 {
		j := c.q.pop()
		j.releaseFrame()
	}
	if c.active {
		s.deactivateLocked(c)
	}
	s.clients--
	for c.running > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// enqueue admits one decoded request, or sheds it: shed=true means the
// caller must answer RetryAfter{millis} itself, release the request
// frame, and the handler will never see the message. On admission the
// scheduler takes ownership of f (released when the job retires).
func (s *Scheduler) enqueue(c *schedClient, m proto.Message, sid uint32, f *proto.Frame) (shedded bool, millis uint32) {
	lane := LaneOf(m)
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	if s.closed || c.gone {
		s.shed++
		millis = s.shedHintLocked()
		s.mu.Unlock()
		return true, millis
	}
	j := job{c: c, m: m, sid: sid, f: f, enq: now, lane: lane}
	if lane == LaneControl {
		s.ctl.push(j)
	} else {
		// The guarantee slot: only clients that already hold a queued
		// request are shed at the limit, so a full queue starves the
		// cohort that filled it, not the sparse client arriving into it.
		if s.queued >= s.cfg.QueueLimit && c.q.len() > 0 {
			// Being shed proves this client overlaps requests (it already
			// holds a queued one), even though the overlapping arrival
			// itself never lands in the queue — without this latch a
			// cohort paced entirely by sheds would look lock-step and
			// crowd the fresh segment.
			c.multi = true
			s.shed++
			millis = s.shedHintLocked()
			s.mu.Unlock()
			return true, millis
		}
		j.cost = costOf(m)
		c.q.push(j)
		s.queued++
		c.out++
		if c.out > 1 {
			// Overlapping data requests: a lock-step client never has a
			// second one in flight, so this client is pipelining.
			c.multi = true
		}
		if s.queued > s.maxq {
			s.maxq = s.queued
		}
		if !c.active {
			s.activateLocked(c)
		}
	}
	s.cond.Signal()
	s.mu.Unlock()
	return false, 0
}

// shedHintLocked draws the jittered retry-after hint in
// [base/2, 3·base/2] milliseconds.
func (s *Scheduler) shedHintLocked() uint32 {
	base := s.cfg.RetryAfterMillis
	return uint32(base/2 + s.rng.Intn(base) + 1)
}

// activateLocked inserts a newly backlogged client into the active
// ring with a full quantum. Where it lands depends on its history
// (DESIGN.md §11):
//
//   - A light client — one that never overlapped two data requests in
//     its previous active period, i.e. a lock-step reader — joins the
//     fresh FIFO segment at the front of the ring, ahead of every
//     backlogged cohort. That is what keeps a sparse client's latency
//     flat under surge. Among themselves fresh clients are strictly
//     FIFO (each insert goes behind the previous one, at newTail):
//     inserting every activation at the absolute head would be LIFO,
//     and under a saturating surge of sparse clients — where every
//     dispatch empties a queue and every retry re-activates — LIFO
//     starves whoever is already waiting.
//
//   - A heavy client — its last period pipelined, the signature of a
//     bulk cohort — re-enters at the round tail and takes its turn
//     through plain DRR, so re-activating on every reply batch buys it
//     no position ahead of lock-step clients. One clean period
//     promotes it back. Depth, not per-period cost, is the classifier
//     because a backlog fragmented by scheduling jitter can make a
//     pipelined client's individual periods look arbitrarily cheap.
func (s *Scheduler) activateLocked(c *schedClient) {
	c.active = true
	c.deficit = s.cfg.Quantum
	if s.head == nil {
		c.next, c.prev = c, c
		s.head = c
		if !c.heavy {
			c.fresh = true
			s.newTail = c
		}
		return
	}
	if c.heavy {
		// Round tail: just behind head, visited last this round.
		tail := s.head.prev
		tail.next = c
		c.prev = tail
		c.next = s.head
		s.head.prev = c
		return
	}
	c.fresh = true
	if at := s.newTail; at != nil {
		c.prev, c.next = at, at.next
		at.next.prev = c
		at.next = c
	} else {
		// No fresh segment: start one ahead of the backlogged round.
		tail := s.head.prev
		tail.next = c
		c.prev = tail
		c.next = s.head
		s.head.prev = c
		s.head = c
	}
	s.newTail = c
}

// unfreshLocked retires c from the fresh segment: called when the
// dequeue loop reaches it, whether it is served or merely visited.
func (s *Scheduler) unfreshLocked(c *schedClient) {
	if !c.fresh {
		return
	}
	c.fresh = false
	if s.newTail == c {
		// The dequeue loop consumes the segment oldest-first, so c being
		// both oldest and newest means the segment is now empty.
		s.newTail = nil
	}
}

func (s *Scheduler) deactivateLocked(c *schedClient) {
	if s.newTail == c {
		// Unregister can remove the newest fresh client mid-segment; the
		// one activated just before it (its prev) becomes the insertion
		// point, unless c was the segment's only member.
		if p := c.prev; p != c && p.fresh {
			s.newTail = p
		} else {
			s.newTail = nil
		}
	}
	if c.next == c {
		s.head = nil
	} else {
		c.prev.next = c.next
		c.next.prev = c.prev
		if s.head == c {
			s.head = c.next
		}
	}
	c.next, c.prev = nil, nil
	c.active = false
	c.fresh = false
	c.heavy = c.multi
	c.multi = false
	c.deficit = 0
}

// nextLocked pops the next runnable job — control lane first, then DRR
// over active clients — and accounts it as started. ok=false means
// nothing is runnable.
func (s *Scheduler) nextLocked() (j job, ok bool) {
	for s.ctl.len() > 0 {
		j = s.ctl.pop()
		if j.c.gone { // connection died with control frames queued
			j.releaseFrame()
			continue
		}
		s.startLocked(&j)
		return j, true
	}
	for s.head != nil {
		c := s.head
		if int(c.q.peek().cost) <= c.deficit {
			j = c.q.pop()
			s.queued--
			c.deficit -= int(j.cost)
			s.unfreshLocked(c)
			if c.q.len() == 0 {
				s.deactivateLocked(c)
			}
			s.startLocked(&j)
			return j, true
		}
		// Visit exhausted: replenish and move on. Terminates because
		// each full ring pass grows every deficit by Quantum and cost
		// is capped at maxCost.
		c.deficit += s.cfg.Quantum
		s.unfreshLocked(c)
		s.head = c.next
	}
	return job{}, false
}

func (s *Scheduler) startLocked(j *job) {
	j.c.running++
	s.running++
	s.disp[j.lane]++
}

// dispatch runs one scheduled job: the per-connection dispatch helper
// split around replied(), so the outstanding count drops before the
// reply can trigger a lock-step client's next request.
func (s *Scheduler) dispatch(j job) {
	r := Responder{st: j.c.st, sid: j.sid}
	opt := j.c.opt
	var sp *obs.Span
	if opt.Tracer.Enabled() {
		sp = opt.Tracer.Start("dispatch", fmt.Sprintf("%T sid=%d", j.m, j.sid))
	}
	reply := j.c.h(j.m, r)
	s.replied(j)
	if reply == nil {
		sp.End("handled")
		return
	}
	if err := r.Send(reply); err != nil {
		sp.End("send failed")
		return
	}
	if sp != nil {
		sp.End(fmt.Sprintf("%T", reply))
	}
}

// replied retires a data-lane job from the client's outstanding count.
// It runs after the handler but before the reply is written: a
// lock-step client's next request can only be sent after it reads this
// reply, so decrementing any later would race that arrival and
// misclassify the client as pipelining (the reply write is a syscall —
// a preemption point — and under load the worker goroutine may not run
// again for milliseconds).
func (s *Scheduler) replied(j job) {
	if j.lane != LaneData {
		return
	}
	s.mu.Lock()
	j.c.out--
	s.mu.Unlock()
}

// finish accounts a completed dispatch and wakes any unregister waiting
// to drain the client.
func (s *Scheduler) finish(j job) {
	c := j.c
	s.mu.Lock()
	c.running--
	s.running--
	if c.gone && c.running == 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// worker pulls jobs until the scheduler closes.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		j, ok := s.nextLocked()
		for !ok {
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
			j, ok = s.nextLocked()
		}
		s.mu.Unlock()
		s.wait[j.lane].Observe(s.cfg.Clock.Now().Sub(j.enq))
		s.dispatch(j)
		s.finish(j)
		j.releaseFrame()
	}
}

// SchedStats is a point-in-time snapshot of a Scheduler's gauges and
// lane-wait histograms, exported through obs summary frames and
// /statusz.
type SchedStats struct {
	// Clients is the number of registered connections.
	Clients int
	// QueuedControl and QueuedData are current queue depths per lane.
	QueuedControl int
	// QueuedData is the data-lane depth summed across clients.
	QueuedData int
	// MaxQueuedData is the high-water data-lane depth since start.
	MaxQueuedData int
	// InFlight is the number of handlers currently executing.
	InFlight int
	// DispatchedControl and DispatchedData count handed-off requests.
	DispatchedControl int64
	// DispatchedData counts data-lane dispatches.
	DispatchedData int64
	// Shed counts requests answered with RetryAfter instead of queued.
	Shed int64
	// ControlWait and DataWait summarize enqueue-to-dispatch wait per
	// lane.
	ControlWait metrics.Snapshot
	// DataWait is the data-lane wait summary.
	DataWait metrics.Snapshot
}

// Summary renders the scheduler's stats as the obs summary-frame
// section, for daemons assembling their monitoring frames.
func (s *Scheduler) Summary() *obs.SchedSummary {
	st := s.Stats()
	return &obs.SchedSummary{
		Clients:    st.Clients,
		QueuedCtl:  st.QueuedControl,
		QueuedData: st.QueuedData,
		MaxQueued:  st.MaxQueuedData,
		InFlight:   st.InFlight,
		DispCtl:    st.DispatchedControl,
		DispData:   st.DispatchedData,
		Shed:       st.Shed,
		CtlWait:    obs.OpFromSnapshot(st.ControlWait),
		DataWait:   obs.OpFromSnapshot(st.DataWait),
	}
}

// Stats snapshots the scheduler.
func (s *Scheduler) Stats() SchedStats {
	s.mu.Lock()
	st := SchedStats{
		Clients:           s.clients,
		QueuedControl:     s.ctl.len(),
		QueuedData:        s.queued,
		MaxQueuedData:     s.maxq,
		InFlight:          s.running,
		DispatchedControl: s.disp[LaneControl],
		DispatchedData:    s.disp[LaneData],
		Shed:              s.shed,
	}
	s.mu.Unlock()
	st.ControlWait = s.wait[LaneControl].Snapshot()
	st.DataWait = s.wait[LaneData].Snapshot()
	return st
}
