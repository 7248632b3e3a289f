// Package respq implements Scalla's fast response queue (paper Section
// III-B).
//
// The request-rarely-respond query protocol never sends negative
// answers, so a querying manager cannot distinguish "no server has the
// file" from "no server has answered yet" except by waiting out a full
// delay (5 s by default). The fast response queue lowers the wait for
// files that do exist to roughly one server response time: clients
// park on a queue entry associated with the file's location object; when
// a positive response arrives the cache update hands the entry's token
// back and every parked client is answered immediately. A response
// thread clocks 133 ms periods and expires entries that have waited
// longer, imposing the full delay on those clients only.
//
// The queue is an array of 1024 anchors. Coupling with the cache is
// deliberately loose: the cache stores only an opaque token (slot index
// + generation tag). Either side may invalidate the association at any
// time; a stale token simply fails validation and is ignored.
package respq

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"scalla/internal/vclock"
)

// DefaultSlots is the paper's anchor count.
const DefaultSlots = 1024

// MaxSlots bounds Config.Slots: a token packs the slot index into its
// low 32 bits (the generation tag takes the high 32), so the index must
// fit 32 bits. The cap is set well below 1<<32 to keep the free list and
// slot array allocations sane; New panics on a Config that exceeds it.
const MaxSlots = 1 << 26

// DefaultPeriod is the paper's fast-response clock period.
const DefaultPeriod = 133 * time.Millisecond

// ErrFull is returned when no anchor is free; the client must be told to
// wait a full period and retry (Section III-B1).
var ErrFull = errors.New("respq: no free response queue entries")

// Result is delivered to each waiter exactly once.
type Result struct {
	// Server is the subordinate index that has (or is staging) the
	// file. Valid only when Expired is false.
	Server int
	// Pending reports that the server is staging the file rather than
	// already serving it.
	Pending bool
	// Expired reports that no response arrived within the fast window;
	// the client must wait the full delay and retry.
	Expired bool
}

// Waiter receives the outcome for one parked client. Waiters are invoked
// from the response thread (or from Release's caller before the thread
// starts); they must not block for long.
type Waiter func(Result)

// Config parameterizes a Queue.
type Config struct {
	// Slots is the anchor count. Default 1024.
	Slots int
	// Period is the fast-response clock period. Default 133 ms.
	Period time.Duration
	// Clock supplies time. Default vclock.Real().
	Clock vclock.Clock
	// OnExpired, if set, is invoked (without the queue lock held) after
	// each expiry pass that timed entries out, with the number expired.
	// Expiry passes run once per Period, off the allocation path, so
	// the hook costs the hot path nothing; the observability layer uses
	// it to count guard-window misses as they happen.
	OnExpired func(n int)
}

func (c Config) withDefaults() Config {
	if c.Slots <= 0 {
		c.Slots = DefaultSlots
	}
	if c.Period <= 0 {
		c.Period = DefaultPeriod
	}
	if c.Clock == nil {
		c.Clock = vclock.Real()
	}
	return c
}

// Stats are cumulative queue statistics.
type Stats struct {
	Entries  int64 // entries created
	Joins    int64 // waiters added to an existing entry
	Released int64 // entries satisfied by a server response
	Expired  int64 // entries timed out past the fast window
	Full     int64 // allocations refused because no anchor was free
	InUse    int   // anchors currently occupied

	// Waiter-unit counters: where Released and Expired count entries,
	// these count the individual waiters handed a result. Every waiter
	// registered (Entries + Joins) is delivered exactly once, so
	//
	//	Entries + Joins == ReleasedWaiters + ExpiredWaiters + parked
	//
	// where parked is the number of clients currently blocked on an
	// in-use entry. The deterministic harness checks this conservation
	// law after every scheduler step.
	ReleasedWaiters int64
	ExpiredWaiters  int64
}

type slot struct {
	tag     uint32 // generation; 0 is never used
	inUse   bool
	addedAt time.Time
	waiters []Waiter
}

type readyBatch struct {
	waiters []Waiter
	res     Result
}

// Queue is a fast response queue. It is safe for concurrent use.
type Queue struct {
	cfg Config

	mu    sync.Mutex
	slots []slot
	free  []int
	stats Stats

	ready  chan readyBatch
	notify chan struct{} // wakes the thread when work appears

	// running reports whether the Run response thread is active. While it
	// is not (Manual-mode cores, tests), deliver invokes waiters inline so
	// no batch can sit undelivered in the ready channel.
	running atomic.Bool
}

// New returns a Queue with the given configuration. It panics if
// cfg.Slots exceeds MaxSlots — a larger queue could not issue unambiguous
// tokens. Call Run in a goroutine to start the response thread.
func New(cfg Config) *Queue {
	cfg = cfg.withDefaults()
	if cfg.Slots > MaxSlots {
		panic(fmt.Sprintf("respq: Slots %d exceeds MaxSlots %d", cfg.Slots, MaxSlots))
	}
	q := &Queue{
		cfg:    cfg,
		slots:  make([]slot, cfg.Slots),
		free:   make([]int, 0, cfg.Slots),
		ready:  make(chan readyBatch, cfg.Slots),
		notify: make(chan struct{}, 1),
	}
	for i := cfg.Slots - 1; i >= 0; i-- {
		q.slots[i].tag = 1
		q.free = append(q.free, i)
	}
	return q
}

// token packs a slot index (low 32 bits) and its generation tag (high 32
// bits). Tags start at 1, so a valid token is never 0. The index field
// must be wide enough for every legal Config.Slots: an earlier 16-bit
// packing aliased slot 65536 of a large queue onto slot 0 with a
// shifted tag, letting Release/Join validate against the wrong slot and
// hand waiters another file's server (see TestTokenAliasingLargeQueue).
func token(slotIdx int, tag uint32) uint64 {
	return uint64(tag)<<32 | uint64(uint32(slotIdx))
}

func untoken(t uint64) (slotIdx int, tag uint32) {
	return int(uint32(t)), uint32(t >> 32)
}

// NewEntry allocates an anchor, parks w on it, and returns the token to
// store in the location object. When every anchor is occupied it first
// expires the entries that have outwaited a period, and returns ErrFull
// only if none has.
func (q *Queue) NewEntry(w Waiter) (uint64, error) {
	q.mu.Lock()
	var reaped []readyBatch
	if len(q.free) == 0 {
		// The clocked expiry reaps an entry between one and two periods
		// after it was added, so about half the anchors of a full queue
		// can belong to entries whose window has already passed. Reap
		// them now rather than refuse the newcomer.
		reaped = q.reap(q.cfg.Clock.Now())
	}
	if len(q.free) == 0 {
		q.stats.Full++
		q.mu.Unlock()
		return 0, ErrFull
	}
	i := q.free[len(q.free)-1]
	q.free = q.free[:len(q.free)-1]
	s := &q.slots[i]
	s.inUse = true
	s.addedAt = q.cfg.Clock.Now()
	s.waiters = append(s.waiters[:0], w)
	q.stats.Entries++
	q.stats.InUse++
	tok := token(i, s.tag)
	wasIdle := q.stats.InUse == 1
	q.mu.Unlock()
	q.noteExpired(reaped)
	for _, b := range reaped {
		q.deliver(b)
	}
	if wasIdle {
		q.wake()
	}
	return tok, nil
}

// Join parks w on the entry identified by tok. It reports false when the
// token is stale (the entry was released or expired), in which case the
// caller should allocate a new entry.
func (q *Queue) Join(tok uint64, w Waiter) bool {
	i, tag := untoken(tok)
	q.mu.Lock()
	defer q.mu.Unlock()
	if i < 0 || i >= len(q.slots) {
		return false
	}
	s := &q.slots[i]
	if !s.inUse || s.tag != tag {
		return false
	}
	s.waiters = append(s.waiters, w)
	q.stats.Joins++
	return true
}

// Release satisfies the entry identified by tok: every parked waiter is
// handed the responding server. Stale tokens are ignored (the paper's
// loose coupling — the cache reference may be behind). The waiters are
// delivered by the response thread if Run is active, synchronously
// otherwise. It returns the number of waiters handed the result (0 for a
// stale token), which the deterministic harness uses to account for
// exactly-once delivery.
func (q *Queue) Release(tok uint64, server int, pending bool) int {
	i, tag := untoken(tok)
	q.mu.Lock()
	if i < 0 || i >= len(q.slots) {
		q.mu.Unlock()
		return 0
	}
	s := &q.slots[i]
	if !s.inUse || s.tag != tag {
		q.mu.Unlock()
		return 0
	}
	ws := s.waiters
	s.waiters = nil
	q.retire(i)
	q.stats.Released++
	q.stats.ReleasedWaiters += int64(len(ws))
	q.mu.Unlock()
	q.deliver(readyBatch{waiters: ws, res: Result{Server: server, Pending: pending}})
	return len(ws)
}

// retire returns slot i to the free list, bumping its tag so outstanding
// tokens fail validation. Caller holds q.mu.
func (q *Queue) retire(i int) {
	s := &q.slots[i]
	s.inUse = false
	s.tag++
	if s.tag == 0 { // never issue tag 0
		s.tag = 1
	}
	q.stats.InUse--
	q.free = append(q.free, i)
}

func (q *Queue) deliver(b readyBatch) {
	if q.running.Load() {
		select {
		case q.ready <- b:
			q.wake()
			return
		default:
			// Ready queue saturated; deliver inline rather than drop.
		}
	}
	// No response thread is draining (Manual-mode core, or saturation):
	// deliver inline so the batch cannot sit parked in the channel.
	for _, w := range b.waiters {
		w(b.res)
	}
}

func (q *Queue) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// expire removes every entry that has waited at least one full period
// and hands its waiters the Expired result (full delay + retry).
// It returns the batches to deliver.
func (q *Queue) expire() []readyBatch {
	now := q.cfg.Clock.Now()
	q.mu.Lock()
	out := q.reap(now)
	q.mu.Unlock()
	q.noteExpired(out)
	return out
}

// reap retires every entry that has waited at least one full period and
// returns its waiters' Expired batches. Caller holds q.mu.
func (q *Queue) reap(now time.Time) []readyBatch {
	var out []readyBatch
	for i := range q.slots {
		s := &q.slots[i]
		if s.inUse && now.Sub(s.addedAt) >= q.cfg.Period {
			ws := s.waiters
			s.waiters = nil
			q.retire(i)
			q.stats.Expired++
			q.stats.ExpiredWaiters += int64(len(ws))
			out = append(out, readyBatch{waiters: ws, res: Result{Expired: true}})
		}
	}
	return out
}

func (q *Queue) noteExpired(out []readyBatch) {
	if len(out) > 0 && q.cfg.OnExpired != nil {
		q.cfg.OnExpired(len(out))
	}
}

// ExpireNow runs one expiry pass synchronously, delivering the Expired
// result to every waiter whose entry outlasted the fast window, and
// returns the number of waiters so notified. Embedders that own the
// response clock themselves — the deterministic simulation harness runs
// Manual-mode cores with no Run thread — call it in place of the ticker.
func (q *Queue) ExpireNow() int {
	n := 0
	for _, b := range q.expire() {
		n += len(b.waiters)
		for _, w := range b.waiters {
			w(b.res)
		}
	}
	return n
}

// Run is the response thread: it delivers satisfied entries and clocks
// Period-length windows, expiring entries that outwait one. It returns
// when stop is closed.
func (q *Queue) Run(stop <-chan struct{}) {
	q.running.Store(true)
	defer q.running.Store(false)
	t := q.cfg.Clock.NewTicker(q.cfg.Period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case b := <-q.ready:
			for _, w := range b.waiters {
				w(b.res)
			}
		case <-t.C():
			for _, b := range q.expire() {
				for _, w := range b.waiters {
					w(b.res)
				}
			}
		case <-q.notify:
			// Woken: loop back and service ready/ticker.
		}
	}
}

// Stats returns a snapshot of the cumulative statistics.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// Depth returns the number of anchors currently occupied — the queue
// depth the summary-monitoring stream reports.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats.InUse
}
