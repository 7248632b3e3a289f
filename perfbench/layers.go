package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"scalla/internal/cache"
	"scalla/internal/pcache"
	"scalla/internal/respq"
	"scalla/internal/transport"
)

// layerSnap is one reading of every layer's public counters. The
// per-layer counts of a phase are differences of two readings.
type layerSnap struct {
	wire              transport.WireSnapshot
	mgrCache          cache.Stats
	supCache          cache.Stats // summed over the supervisors
	queue             respq.Stats // the manager's
	queries, haves    int64       // received / sent by supervisors and servers
	waits             int64       // resolve.wait verdicts at the manager
	shed              int64       // all schedulers
	fsyncs, fsyncNano int64
	proxy             pcache.Stats
	totalAlloc, numGC uint64
	pauseNs           uint64
}

func (b *bench) snapshot() layerSnap {
	var s layerSnap
	s.wire = b.tcp.Wire()
	t := b.t
	s.mgrCache = t.mgr.Core().Cache().Stats()
	// The fast response queue and wait verdicts are read at the manager
	// only: every request it resolves is a client's. A supervisor also
	// resolves the floods it is asked, and one without the file parks
	// the flood until the fast window expires and answers with silence;
	// those expiries and waits are the protocol working, not a client
	// paying a full delay.
	s.queue = t.mgr.Core().Queue().Stats()
	s.waits = t.mgr.Core().Metrics().Counter("resolve.wait").Value()
	for i, n := range t.redirectors() {
		if i > 0 {
			cs := n.Core().Cache().Stats()
			s.supCache.Hits += cs.Hits
			s.supCache.Misses += cs.Misses
			s.supCache.Inserts += cs.Inserts
			s.supCache.Resizes += cs.Resizes
			s.queries += n.QueriesReceived()
			s.haves += n.HavesSent()
		}
		if sched := n.Frame().Sched; sched != nil {
			s.shed += sched.Shed
		}
	}
	for i, n := range t.srvs {
		s.queries += n.QueriesReceived()
		s.haves += n.HavesSent()
		s.shed += n.DataServer().Sched().Stats().Shed
		st := t.stores[i].Stats()
		s.fsyncs += st.Fsyncs
		s.fsyncNano += st.FsyncNanos
	}
	if b.proxy != nil {
		s.proxy = b.proxy.Stats()
		if ps := b.proxy.Frame().Sched; ps != nil {
			s.shed += ps.Shed
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.totalAlloc, s.numGC, s.pauseNs = ms.TotalAlloc, uint64(ms.NumGC), ms.PauseTotalNs
	return s
}

// gauges samples instantaneous depths during a phase and keeps their
// maxima: always the process's resident set, and the layers' queues and
// dirty bytes when layers is set.
type gauges struct {
	stop      chan struct{}
	done      sync.WaitGroup
	layers    bool
	maxRSS    int64 // bytes
	maxInUse  int   // respq anchors in use at the manager
	maxQueued int   // data-lane requests queued, summed over every scheduler
	maxDirty  int64 // store dirty bytes, summed over servers
}

// gaugeEvery is the sampling period of the gauges.
const gaugeEvery = 10 * time.Millisecond

func (b *bench) startGauges(layers bool) *gauges {
	g := &gauges{stop: make(chan struct{}), layers: layers}
	g.done.Add(1)
	go func() {
		defer g.done.Done()
		tk := time.NewTicker(gaugeEvery)
		defer tk.Stop()
		g.sample(b)
		for {
			select {
			case <-g.stop:
				g.sample(b)
				return
			case <-tk.C:
				g.sample(b)
			}
		}
	}()
	return g
}

func (g *gauges) sample(b *bench) {
	g.maxRSS = max(g.maxRSS, residentBytes())
	if !g.layers {
		return
	}
	g.maxInUse = max(g.maxInUse, b.t.mgr.Core().Queue().Depth())
	queued := 0
	for _, n := range b.t.redirectors() {
		if sched := n.Frame().Sched; sched != nil {
			queued += sched.QueuedData
		}
	}
	var dirty int64
	for i, n := range b.t.srvs {
		queued += n.DataServer().Sched().Stats().QueuedData
		dirty += b.t.stores[i].Stats().DirtyBytes
	}
	if b.proxy != nil {
		if sched := b.proxy.Frame().Sched; sched != nil {
			queued += sched.QueuedData
		}
	}
	g.maxQueued = max(g.maxQueued, queued)
	g.maxDirty = max(g.maxDirty, dirty)
}

// halt stops the sampler after one last sample and waits for it; its
// maxima are then final.
func (g *gauges) halt() {
	close(g.stop)
	g.done.Wait()
}

// residentBytes reads the process's current resident set size; 0 when
// the system does not report it.
func residentBytes() int64 {
	statm, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(statm))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerCounts turns two readings taken around a phase of ops
// operations (coldPaths of them first lookups) into the per-layer
// count metrics.
func layerCounts(a, z layerSnap, g *gauges, ops, coldPaths int) map[string]float64 {
	w := z.wire.Sub(a.wire)
	m := map[string]float64{}
	m["mux.shed"] = float64(z.shed - a.shed)
	m["mux.max_queued_data"] = float64(g.maxQueued)
	m["transport.frames_per_writev"] = w.MeanBatch()
	m["transport.frames_per_read"] = w.MeanFramesPerRead()
	m["transport.frames_per_op"] = ratio(float64(w.FramesOut), float64(ops))
	m["transport.bytes_per_op"] = ratio(float64(w.BytesOut), float64(ops))
	m["cmsd.queries_per_cold_open"] = ratio(float64(z.queries-a.queries), float64(coldPaths))
	m["cmsd.haves_per_cold_open"] = ratio(float64(z.haves-a.haves), float64(coldPaths))
	m["cmsd.wait_verdicts"] = float64(z.waits - a.waits)
	hitRatio := func(a, z cache.Stats) float64 {
		hits := float64(z.Hits - a.Hits)
		return ratio(hits, hits+float64(z.Misses-a.Misses))
	}
	m["cache.hit_ratio_mgr"] = hitRatio(a.mgrCache, z.mgrCache)
	m["cache.hit_ratio_sup"] = hitRatio(a.supCache, z.supCache)
	m["cache.inserts"] = float64(z.mgrCache.Inserts - a.mgrCache.Inserts + z.supCache.Inserts - a.supCache.Inserts)
	m["cache.resizes"] = float64(z.mgrCache.Resizes - a.mgrCache.Resizes + z.supCache.Resizes - a.supCache.Resizes)
	entries := float64(z.queue.Entries - a.queue.Entries)
	m["respq.joins_per_entry"] = ratio(float64(z.queue.Joins-a.queue.Joins), entries)
	m["respq.expired"] = float64(z.queue.Expired - a.queue.Expired)
	m["respq.max_in_use"] = float64(g.maxInUse)
	fsyncs := z.fsyncs - a.fsyncs
	m["store.fsyncs"] = float64(fsyncs)
	m["store.fsync_mean_us"] = ratio(float64(z.fsyncNano-a.fsyncNano)/1e3, float64(fsyncs))
	m["store.dirty_bytes_max"] = float64(g.maxDirty)
	p, q := a.proxy, z.proxy
	hits, misses := float64(q.Hits-p.Hits), float64(q.Misses-p.Misses)
	m["pcache.hit_ratio"] = ratio(hits, hits+misses)
	served := float64(q.BytesServed - p.BytesServed)
	m["pcache.origin_offload"] = 0
	if served > 0 {
		m["pcache.origin_offload"] = max(0, 1-float64(q.OriginBytes-p.OriginBytes)/served)
	}
	m["pcache.evicted_lru"] = float64(q.EvictedLRU - p.EvictedLRU)
	m["pcache.origin_opens_per_op"] = ratio(float64(q.OriginOpens-p.OriginOpens), float64(ops))
	m["runtime.alloc_bytes_per_op"] = ratio(float64(z.totalAlloc-a.totalAlloc), float64(ops))
	m["runtime.gc_cycles"] = float64(z.numGC - a.numGC)
	m["runtime.gc_pause_ms"] = float64(z.pauseNs-a.pauseNs) / 1e6
	return m
}

// cpuTimes is the all-CPU line of /proc/stat: total and stolen ticks.
type cpuTimes struct{ total, steal int64 }

// hostCPU reads the host's CPU tick counters; zero when the system does
// not report them.
func hostCPU() cpuTimes {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(stat), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, f := range fields[1:9] { // user … steal
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

// stealPct is the stolen share of the ticks between a and z, in percent.
func (a cpuTimes) stealPct(z cpuTimes) float64 {
	return 100 * ratio(float64(z.steal-a.steal), float64(z.total-a.total))
}
