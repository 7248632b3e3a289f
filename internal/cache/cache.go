// Package cache implements Scalla's file-location cache — the core
// contribution of the paper (Section III).
//
// The cache maps file names to location objects holding three 64-bit
// server vectors (Vh/Vp/Vq). Objects live in a one-level hash table with
// linear chaining, keyed by CRC32 and sized to a Fibonacci number of
// buckets (growing at 80% occupancy). Objects expire after a fixed
// lifetime Lt enforced by a 64-slot sliding window: each tick hides one
// window's worth of entries and a background sweep removes them, so
// maintenance cost is spread evenly (~1.6% of the cache per tick).
// Cached information is approximate; it is corrected lazily at fetch
// time with the O(1) connect-epoch algorithm of Figure 3, memoized per
// window. References returned to callers carry a generation
// authenticator so no lock spans consecutive cache calls.
//
// For multi-core scaling the table is lock-striped into Config.Shards
// independent shards selected by the high bits of the CRC32 key (the low
// bits feed the per-shard Fibonacci modulo, so both dispersions stay
// uncorrelated). Every paper mechanism — Fibonacci sizing with the 80%
// grow trigger, the 64-slot eviction window, deferred re-chaining,
// hide-then-sweep, the memoized Figure-3 correction, the free list, and
// reference authenticators — operates per shard, so shards never take
// each other's locks. Statistics are per-shard atomics aggregated on
// read, and cluster-wide events (Tick, ServerConnected, ServerDropped)
// fan out shard by shard without any global lock.
package cache

import (
	"sync"
	"sync/atomic"
	"time"

	"scalla/internal/bitvec"
	"scalla/internal/fib"
	"scalla/internal/names"
	"scalla/internal/obs"
	"scalla/internal/vclock"
)

// Sizing selects the hash-table sizing policy.
type Sizing int

const (
	// SizingFibonacci sizes the table to Fibonacci numbers of buckets —
	// the paper's choice (Section III-A1, footnote 4).
	SizingFibonacci Sizing = iota
	// SizingPowerOfTwo sizes the table to powers of two. Provided only
	// as the baseline for experiment E4; the paper found it disperses
	// CRC32 keys much less uniformly.
	SizingPowerOfTwo
)

// Windows is the number of eviction windows; the paper fixes it at 64
// (lifetime Lt divided into Lt/64 ticks).
const Windows = 64

// MaxShards caps Config.Shards. 256 shards leave 24 high hash bits for
// shard selection headroom while keeping the fan-out paths (Tick,
// epoch bumps, Stats aggregation) trivially cheap.
const MaxShards = 256

// Config parameterizes a Cache. The zero value is usable after
// normalization; New applies the documented defaults.
type Config struct {
	// Lifetime is the location-object lifetime Lt. Default 8 hours.
	Lifetime time.Duration
	// Deadline is the processing-deadline duration (the "full delay").
	// Default 5 seconds.
	Deadline time.Duration
	// InitialBuckets is the initial table size summed over all shards;
	// each shard starts at InitialBuckets/Shards rounded to the sizing
	// policy's sequence. Default 17711 (a Fibonacci number).
	InitialBuckets int64
	// LoadFactor is the occupancy fraction that triggers growth.
	// Default 0.80 (the paper's 80%).
	LoadFactor float64
	// Sizing selects Fibonacci (default) or power-of-two bucket counts.
	Sizing Sizing
	// Shards is the number of lock stripes; it is rounded up to a power
	// of two and capped at MaxShards. Default 16. Shards=1 reproduces
	// the original single-mutex cache exactly.
	Shards int
	// EagerRechain, when true, re-chains a refreshed object into its new
	// window immediately instead of deferring to the sweep. This is the
	// ablation baseline for experiment E12; the paper argues deferral
	// turns a quadratic-ish cost into a single linear pass.
	EagerRechain bool
	// SyncSweep, when true, runs the eviction sweep synchronously inside
	// Tick instead of in a background goroutine. Used by tests and
	// benchmarks that need determinism.
	SyncSweep bool
	// OnTick, if set, is invoked (without any shard lock held) after
	// every window tick with the new tick count and how many objects
	// that tick hid across all shards. Ticks are rare (Lifetime/64
	// apart), so the hook adds nothing to the lookup path; the
	// observability layer uses it to stream window-tick eviction
	// figures.
	OnTick func(tick uint64, hidden int64)
	// Clock supplies time. Default vclock.Real().
	Clock vclock.Clock
}

func (c Config) withDefaults() Config {
	if c.Lifetime <= 0 {
		c.Lifetime = 8 * time.Hour
	}
	if c.Deadline <= 0 {
		c.Deadline = 5 * time.Second
	}
	if c.InitialBuckets <= 0 {
		c.InitialBuckets = 17711
	}
	if c.LoadFactor <= 0 || c.LoadFactor >= 1 {
		c.LoadFactor = 0.80
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.Shards > MaxShards {
		c.Shards = MaxShards
	}
	// Round up to a power of two so shard selection is a pure shift.
	s := 1
	for s < c.Shards {
		s <<= 1
	}
	c.Shards = s
	if c.Clock == nil {
		c.Clock = vclock.Real()
	}
	return c
}

// Stats are cumulative cache statistics aggregated across every shard,
// used by the status endpoints and by the benchmark harness.
type Stats struct {
	Entries     int64 // live (findable) objects
	Buckets     int64 // current table size (sum of shard tables)
	Inserts     int64 // objects added
	Hits        int64 // successful fetches
	Misses      int64 // failed lookups
	Resizes     int64 // table growths (any shard)
	Hidden      int64 // objects hidden by window ticks
	Swept       int64 // objects physically removed by sweeps
	Rechained   int64 // objects moved to their refreshed window by sweeps
	Refreshes   int64 // refresh operations
	CorrApplied int64 // Figure-3 corrections applied on fetch
	CorrMemoHit int64 // corrections served from a window's memoized Vwc
	Reused      int64 // allocations satisfied from the free list
	StaleRefs   int64 // operations that failed reference authentication
}

// ShardStat is the per-shard slice of the statistics that matter for
// skew visibility: how evenly the CRC32 high bits spread entries over
// the stripes. The obs layer exposes one per shard on /statusz.
type ShardStat struct {
	Entries int64 // live (findable) objects in this shard
	Buckets int64 // this shard's table size
	Inserts int64 // objects added to this shard
}

// Cache is a file-location cache. It is safe for concurrent use; see
// the package comment for the lock-striping scheme.
type Cache struct {
	cfg    Config
	shift  uint32 // shard index = hash >> shift (top log2(Shards) bits)
	shards []*shard

	tw      atomic.Uint64  // absolute window-clock tick counter (paper's T_w)
	sweepWG sync.WaitGroup // outstanding background sweeps
}

// shard is one lock stripe: a complete miniature of the paper's cache
// (table, eviction windows, correction memo, free list, epoch state)
// guarded by its own mutex.
type shard struct {
	cfg *Config // shared read-only configuration

	mu      sync.Mutex
	table   []*Loc
	growAt  int64
	windows [Windows]*Loc // window chains, indexed by ta % Windows
	tw      uint64        // shard's view of the window clock, set by Tick

	// Connect-epoch state (Section III-A4), replicated per shard so the
	// fetch-time correction never crosses a shard boundary. Every shard
	// sees the identical sequence of ServerConnected/ServerDropped
	// bumps, so the replicas stay equal (modulo fan-out timing).
	nc   uint64         // master connect counter (paper's N_c)
	conn [64]uint64     // C[i]: N_c value when subordinate i last connected
	memo [Windows]wmemo // per-window memoized correction vectors

	free *Loc // free list of removed objects (objects are never freed)

	// Mutated under mu, loaded without it by Stats/Len aggregation.
	count   atomic.Int64 // findable entries
	buckets atomic.Int64 // len(table) mirror for lock-free Stats
	stats   shardStats
}

// shardStats holds one shard's cumulative counters as atomics:
// incremented under the shard lock on the paths that already hold it,
// aggregated lock-free by Stats().
type shardStats struct {
	inserts     atomic.Int64
	hits        atomic.Int64
	misses      atomic.Int64
	resizes     atomic.Int64
	hidden      atomic.Int64
	swept       atomic.Int64
	rechained   atomic.Int64
	refreshes   atomic.Int64
	corrApplied atomic.Int64
	corrMemoHit atomic.Int64
	reused      atomic.Int64
	staleRefs   atomic.Int64
}

// wmemo memoizes a correction vector for one window: for objects whose
// Cn equals forCn, while the master counter is still atNc, the correction
// vector is vwc (paper's Vwc/Cwn optimization).
type wmemo struct {
	forCn uint64
	atNc  uint64
	vwc   bitvec.Vec
	valid bool
}

// New returns a Cache with the given configuration.
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	c := &Cache{cfg: cfg}
	// Shards is a power of two; the index is the top log2(Shards) bits
	// of the 32-bit key. (For Shards == 1, hash >> 32 is 0 in Go.)
	c.shift = 32
	for s := cfg.Shards; s > 1; s >>= 1 {
		c.shift--
	}
	perShard := (cfg.InitialBuckets + int64(cfg.Shards) - 1) / int64(cfg.Shards)
	if perShard < 1 {
		perShard = 1
	}
	c.shards = make([]*shard, cfg.Shards)
	for i := range c.shards {
		sh := &shard{cfg: &c.cfg}
		sh.table = make([]*Loc, sh.roundSize(perShard))
		sh.buckets.Store(int64(len(sh.table)))
		sh.setGrowAt()
		c.shards[i] = sh
	}
	return c
}

// shardFor returns the stripe owning hash.
func (c *Cache) shardFor(hash uint32) *shard {
	return c.shards[hash>>c.shift]
}

func (s *shard) roundSize(n int64) int64 {
	if s.cfg.Sizing == SizingPowerOfTwo {
		sz := int64(1)
		for sz < n {
			sz <<= 1
		}
		return sz
	}
	return fib.AtLeast(n)
}

func (s *shard) nextSize() int64 {
	n := int64(len(s.table))
	if s.cfg.Sizing == SizingPowerOfTwo {
		return n * 2
	}
	return fib.Next(n)
}

func (s *shard) setGrowAt() {
	s.growAt = int64(float64(len(s.table)) * s.cfg.LoadFactor)
}

// Stats returns a snapshot of the cumulative statistics, aggregated
// across shards without taking any lock.
func (c *Cache) Stats() Stats {
	var out Stats
	for _, s := range c.shards {
		out.Entries += s.count.Load()
		out.Buckets += s.buckets.Load()
		out.Inserts += s.stats.inserts.Load()
		out.Hits += s.stats.hits.Load()
		out.Misses += s.stats.misses.Load()
		out.Resizes += s.stats.resizes.Load()
		out.Hidden += s.stats.hidden.Load()
		out.Swept += s.stats.swept.Load()
		out.Rechained += s.stats.rechained.Load()
		out.Refreshes += s.stats.refreshes.Load()
		out.CorrApplied += s.stats.corrApplied.Load()
		out.CorrMemoHit += s.stats.corrMemoHit.Load()
		out.Reused += s.stats.reused.Load()
		out.StaleRefs += s.stats.staleRefs.Load()
	}
	return out
}

// ShardStats returns one entry per shard so callers (obs, tests) can see
// how evenly entries spread across the stripes.
func (c *Cache) ShardStats() []ShardStat {
	out := make([]ShardStat, len(c.shards))
	for i, s := range c.shards {
		out[i] = ShardStat{
			Entries: s.count.Load(),
			Buckets: s.buckets.Load(),
			Inserts: s.stats.inserts.Load(),
		}
	}
	return out
}

// Summary renders the cache's stats as the obs summary-frame section,
// for daemons assembling their monitoring frames.
func (c *Cache) Summary() *obs.CacheSummary {
	cs := c.Stats()
	lf := 0.0
	if cs.Buckets > 0 {
		lf = float64(cs.Entries) / float64(cs.Buckets)
	}
	conn := c.ConnStamps()
	shardEntries := make([]int64, len(c.shards))
	for i, s := range c.shards {
		shardEntries[i] = s.count.Load()
	}
	return &obs.CacheSummary{
		Entries: cs.Entries, Buckets: cs.Buckets, LoadFactor: lf,
		Inserts: cs.Inserts, Hits: cs.Hits, Misses: cs.Misses,
		Resizes: cs.Resizes, Hidden: cs.Hidden, Swept: cs.Swept,
		Refreshes:    cs.Refreshes,
		Ticks:        c.TickCount(),
		Epoch:        c.Epoch(),
		Conn:         obs.TrimConn(conn[:]),
		ShardEntries: shardEntries,
	}
}

// Len returns the number of findable entries.
func (c *Cache) Len() int64 {
	var n int64
	for _, s := range c.shards {
		n += s.count.Load()
	}
	return n
}

// ---------------------------------------------------------------------
// Connect-epoch maintenance (called by the cluster layer).

// ServerConnected records that subordinate i (re)connected as a new
// server. It advances the master counter Nc and stamps C[i], which is all
// the bookkeeping a registration costs the cache — the paper's "extremely
// light" node registration (Section V). The bump fans out shard by
// shard; no global lock is held, so look-ups in other shards proceed
// during the walk.
func (c *Cache) ServerConnected(i int) {
	if i < 0 || i >= 64 {
		return
	}
	for _, s := range c.shards {
		s.mu.Lock()
		s.nc++
		s.conn[i] = s.nc
		s.mu.Unlock()
	}
}

// ServerDropped records that subordinate i was dropped from the
// cluster. Dropping advances the epoch exactly like a connection: any
// cached bit stamped before C[i] is stale, so if the slot is later
// reassigned to a different server the old bits cannot resurrect as
// locations on the newcomer (Section III-A4's drop semantics,
// belt-and-braces on top of the Vm masking that erases dropped slots).
func (c *Cache) ServerDropped(i int) {
	if i < 0 || i >= 64 {
		return
	}
	for _, s := range c.shards {
		s.mu.Lock()
		s.nc++
		s.conn[i] = s.nc
		s.mu.Unlock()
	}
}

// Epoch returns the current master connect counter Nc. Every shard sees
// the same bump sequence, so shard 0's replica is authoritative.
func (c *Cache) Epoch() uint64 {
	s := c.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nc
}

// ConnStamps returns a copy of the per-subordinate connect stamps C[]
// (the Nc value at which each slot last connected) for status reporting.
func (c *Cache) ConnStamps() [64]uint64 {
	s := c.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn
}

// ---------------------------------------------------------------------
// Lookup / insert.

// find returns the findable object with the given hash and name, or nil.
// Caller holds s.mu.
func (s *shard) find(hash uint32, name string) *Loc {
	b := int64(hash) % int64(len(s.table))
	for l := s.table[b]; l != nil; l = l.hnext {
		if l.keyLen > 0 && l.hash == hash && l.key == name {
			return l
		}
	}
	return nil
}

// Fetch looks up name and, if present, lazily corrects its state against
// the current cluster configuration (Figure 3) using vm (the export mask
// for the file's path) and offline (subordinates currently disconnected
// but not yet dropped). It returns a validated reference and a corrected
// snapshot.
func (c *Cache) Fetch(name string, vm, offline bitvec.Vec) (Ref, View, bool) {
	hash := names.Hash(name)
	si := hash >> c.shift
	s := c.shards[si]
	s.mu.Lock()
	l := s.find(hash, name)
	if l == nil {
		s.mu.Unlock()
		s.stats.misses.Add(1)
		return Ref{}, View{}, false
	}
	s.correct(l, vm, offline)
	v := l.view()
	ref := Ref{obj: l, gen: l.gen, name: name, hash: hash, shard: si}
	s.mu.Unlock()
	s.stats.hits.Add(1)
	return ref, v, true
}

func (l *Loc) view() View {
	return View{Vh: l.vh, Vp: l.vp, Vq: l.vq, Deadline: l.deadline}
}

// Add inserts a location object for name with Vq = vm (every eligible
// server must be queried) and arms its processing deadline, making the
// caller the querying thread. If the name is already cached, Add behaves
// like Fetch. The boolean result reports whether a new object was
// created.
func (c *Cache) Add(name string, vm, offline bitvec.Vec) (Ref, View, bool) {
	hash := names.Hash(name)
	si := hash >> c.shift
	s := c.shards[si]
	now := c.cfg.Clock.Now()
	s.mu.Lock()
	if l := s.find(hash, name); l != nil {
		s.correct(l, vm, offline)
		v := l.view()
		ref := Ref{obj: l, gen: l.gen, name: name, hash: hash, shard: si}
		s.mu.Unlock()
		s.stats.hits.Add(1)
		return ref, v, false
	}
	if s.count.Load() >= s.growAt {
		s.grow()
	}
	l := s.alloc()
	l.key = name
	l.keyLen = len(name)
	l.hash = hash
	l.vh, l.vp = 0, 0
	l.vq = vm
	l.cn = s.nc
	l.ta = s.tw
	l.deadline = now.Add(c.cfg.Deadline)
	l.rr, l.rw = 0, 0

	b := int64(hash) % int64(len(s.table))
	l.hnext = s.table[b]
	s.table[b] = l
	w := int(l.ta % Windows)
	l.wnext = s.windows[w]
	s.windows[w] = l
	s.count.Add(1)
	s.stats.inserts.Add(1)
	v := l.view()
	ref := Ref{obj: l, gen: l.gen, name: name, hash: hash, shard: si}
	s.mu.Unlock()
	return ref, v, true
}

// alloc takes an object from the free list or allocates a fresh one.
// Caller holds s.mu.
func (s *shard) alloc() *Loc {
	if l := s.free; l != nil {
		s.free = l.hnext
		l.hnext, l.wnext = nil, nil
		s.stats.reused.Add(1)
		return l
	}
	return &Loc{}
}

// grow resizes the shard's table to the next size in the sizing policy's
// sequence and redistributes every entry. Caller holds s.mu.
func (s *shard) grow() {
	newSize := s.nextSize()
	nt := make([]*Loc, newSize)
	for _, head := range s.table {
		for l := head; l != nil; {
			next := l.hnext
			// Hidden objects awaiting sweep stay linked so the sweep can
			// still unlink them, in their new bucket.
			b := int64(l.hash) % newSize
			l.hnext = nt[b]
			nt[b] = l
			l = next
		}
	}
	s.table = nt
	s.buckets.Store(newSize)
	s.setGrowAt()
	s.stats.resizes.Add(1)
}

// ChainLengths returns the length of every hash bucket chain,
// concatenated shard by shard (shard 0's buckets first). The E4
// experiment uses it to compare key dispersion under the two sizing
// policies; dispersion statistics are unaffected by the concatenation
// order.
func (c *Cache) ChainLengths() []int {
	var out []int
	for _, s := range c.shards {
		s.mu.Lock()
		for _, head := range s.table {
			n := 0
			for l := head; l != nil; l = l.hnext {
				if l.keyLen > 0 {
					n++
				}
			}
			out = append(out, n)
		}
		s.mu.Unlock()
	}
	return out
}

// ---------------------------------------------------------------------
// Reference-validated mutation.

// valid reports whether ref still refers to the object it was issued
// for. Caller holds the owning shard's lock.
func (s *shard) valid(ref Ref) bool {
	return ref.obj != nil && ref.obj.gen == ref.gen
}

// ErrStale is reported (as ok=false) when a reference fails
// authentication; callers fall back to a full lookup or ask the client
// to retry (Section III-B1).

// ClaimQuery atomically claims the right to query the Vq servers of the
// referenced object: if the object's processing deadline has passed, it
// is re-armed Deadline from now and ClaimQuery returns claimed=true.
// Otherwise another thread is already querying and the caller must defer
// the client (Section III-C2). ok=false means the reference was stale.
func (c *Cache) ClaimQuery(ref Ref) (claimed, ok bool) {
	now := c.cfg.Clock.Now()
	s := c.shards[ref.shard&uint32(len(c.shards)-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.valid(ref) {
		s.stats.staleRefs.Add(1)
		return false, false
	}
	if now.After(ref.obj.deadline) {
		ref.obj.deadline = now.Add(c.cfg.Deadline)
		return true, true
	}
	return false, true
}

// MarkQueried clears the queried servers from Vq (resolution step 6: Vq
// is left holding only the servers that could NOT be queried).
func (c *Cache) MarkQueried(ref Ref, queried bitvec.Vec) bool {
	s := c.shards[ref.shard&uint32(len(c.shards)-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.valid(ref) {
		s.stats.staleRefs.Add(1)
		return false
	}
	ref.obj.vq = ref.obj.vq.Minus(queried)
	return true
}

// UpdateResult is returned by Update; it carries the fast-response-queue
// tokens that were associated with the object so the caller can release
// the matching waiters. Tokens are opaque to the cache (loose coupling).
type UpdateResult struct {
	ReadWaiters  uint64 // R_r token, 0 if none
	WriteWaiters uint64 // R_w token, 0 if none
}

// Update records a server's positive response for name: subordinate i has
// the file (pending=false) or is preparing it (pending=true). The hash is
// passed along from the original query, so no rehash occurs. If waiters
// are associated with the object they are detached and returned; the
// write token is returned only when canWrite is true. Update never
// creates an object: a response for an evicted name is dropped, matching
// the protocol's tolerance for late responses.
func (c *Cache) Update(name string, hash uint32, i int, pending, canWrite bool) (UpdateResult, bool) {
	var res UpdateResult
	if i < 0 || i >= 64 {
		return res, false
	}
	s := c.shardFor(hash)
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.find(hash, name)
	if l == nil {
		return res, false
	}
	bit := bitvec.Bit(i)
	if pending {
		l.vp = l.vp.Union(bit)
		l.vh = l.vh.Minus(bit)
	} else {
		l.vh = l.vh.Union(bit)
		l.vp = l.vp.Minus(bit)
	}
	l.vq = l.vq.Minus(bit)
	res.ReadWaiters, l.rr = l.rr, 0
	if canWrite {
		res.WriteWaiters, l.rw = l.rw, 0
	}
	return res, true
}

// Evict removes subordinate i from the referenced object's vectors —
// used when a client reports that the server it was vectored to cannot
// actually serve the file (Section III-C1).
func (c *Cache) Evict(ref Ref, i int) bool {
	s := c.shards[ref.shard&uint32(len(c.shards)-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.valid(ref) {
		s.stats.staleRefs.Add(1)
		return false
	}
	bit := bitvec.Bit(i)
	l := ref.obj
	l.vh = l.vh.Minus(bit)
	l.vp = l.vp.Minus(bit)
	l.vq = l.vq.Minus(bit)
	return true
}

// SetWaiters associates a fast-response-queue token with the object for
// the given access mode (write=false → R_r, write=true → R_w). It fails
// if the reference is stale or a token is already present (the caller
// should then join the existing queue entry instead).
func (c *Cache) SetWaiters(ref Ref, write bool, token uint64) bool {
	s := c.shards[ref.shard&uint32(len(c.shards)-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.valid(ref) {
		s.stats.staleRefs.Add(1)
		return false
	}
	if write {
		if ref.obj.rw != 0 {
			return false
		}
		ref.obj.rw = token
	} else {
		if ref.obj.rr != 0 {
			return false
		}
		ref.obj.rr = token
	}
	return true
}

// SwapWaiters replaces the token for the given mode only if the current
// token equals old (compare-and-swap) and the object has no holder
// outside seen, the Vh∪Vp the caller's failed selection saw. Callers
// use it to install a fresh response-queue entry over a stale token
// without racing other threads. The holder check closes a lost wake-up:
// a positive response that lands after the caller read its view has
// already detached and released whatever token the object held, so an
// entry installed now would be released by nothing and expire into the
// full delay. On failure the caller re-reads the object (Waiters) and
// re-selects.
func (c *Cache) SwapWaiters(ref Ref, write bool, old, new uint64, seen bitvec.Vec) bool {
	s := c.shards[ref.shard&uint32(len(c.shards)-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.valid(ref) {
		s.stats.staleRefs.Add(1)
		return false
	}
	l := ref.obj
	if !l.vh.Union(l.vp).Minus(seen).IsEmpty() {
		return false
	}
	if write {
		if l.rw != old {
			return false
		}
		l.rw = new
	} else {
		if l.rr != old {
			return false
		}
		l.rr = new
	}
	return true
}

// Waiters returns the current token for the given mode (0 if none) and
// the object's view, read under the same lock.
func (c *Cache) Waiters(ref Ref, write bool) (uint64, View, bool) {
	s := c.shards[ref.shard&uint32(len(c.shards)-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.valid(ref) {
		s.stats.staleRefs.Add(1)
		return 0, View{}, false
	}
	if write {
		return ref.obj.rw, ref.obj.view(), true
	}
	return ref.obj.rr, ref.obj.view(), true
}

// ClearWaiters drops the token for the given mode if it matches.
// The fast-response thread calls this when it times a queue entry out.
func (c *Cache) ClearWaiters(ref Ref, write bool, token uint64) {
	s := c.shards[ref.shard&uint32(len(c.shards)-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.valid(ref) {
		return
	}
	if write {
		if ref.obj.rw == token {
			ref.obj.rw = 0
		}
	} else {
		if ref.obj.rr == token {
			ref.obj.rr = 0
		}
	}
}

// Refresh re-initializes the referenced object as if it were a brand-new
// un-cached request (Section III-C1): every eligible server (vm, minus
// the reported failing server if any) must be re-queried, the deadline is
// re-armed, and Ta is updated to the current window. Per the paper's
// deferred re-chaining optimization the object is NOT moved between
// window chains here (unless the cache was configured with EagerRechain,
// the E12 baseline); the next sweep of its resident chain moves it.
// The caller becomes the querying thread.
func (c *Cache) Refresh(ref Ref, vm bitvec.Vec, avoid int) (View, bool) {
	now := c.cfg.Clock.Now()
	s := c.shards[ref.shard&uint32(len(c.shards)-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.valid(ref) {
		s.stats.staleRefs.Add(1)
		return View{}, false
	}
	l := ref.obj
	l.vh, l.vp = 0, 0
	l.vq = vm.Minus(bitvec.Bit(avoid))
	l.cn = s.nc
	l.deadline = now.Add(c.cfg.Deadline)
	oldTa := l.ta
	l.ta = s.tw
	s.stats.refreshes.Add(1)
	if c.cfg.EagerRechain && oldTa%Windows != l.ta%Windows {
		s.rechainNow(l, int(oldTa%Windows))
	}
	return l.view(), true
}

// rechainNow unlinks l from window chain w and links it into its current
// chain — the eager baseline. Unlinking from a singly linked chain costs
// a scan of that chain, which is what makes eager re-chaining
// quadratic-ish under refresh-heavy load. Caller holds s.mu.
func (s *shard) rechainNow(l *Loc, w int) {
	pp := &s.windows[w]
	for *pp != nil && *pp != l {
		pp = &(*pp).wnext
	}
	if *pp == l {
		*pp = l.wnext
	}
	nw := int(l.ta % Windows)
	l.wnext = s.windows[nw]
	s.windows[nw] = l
	s.stats.rechained.Add(1)
}
