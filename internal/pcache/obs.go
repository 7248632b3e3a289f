package pcache

// Observability wiring: the counter block, the summary-monitoring
// frame, and the admin/status HTTP endpoint, mirroring cmsd.Node's
// wiring so a proxy slots into the same dashboards.

import (
	"net/http"
	"sync/atomic"

	"scalla/internal/obs"
	"scalla/internal/transport"
)

// stats is the proxy's hot-path counter block; everything is atomic so
// the read path never takes a statistics lock.
type stats struct {
	hits          atomic.Int64
	misses        atomic.Int64
	openHits      atomic.Int64
	openMisses    atomic.Int64
	locHits       atomic.Int64
	locMisses     atomic.Int64
	originBytes   atomic.Int64
	originOpens   atomic.Int64
	originLocates atomic.Int64
	bytesServed   atomic.Int64
	evictedLRU    atomic.Int64
	expiredWindow atomic.Int64
	invalidated   atomic.Int64
}

// Stats is a point-in-time snapshot of the proxy's caches and origin
// traffic.
type Stats struct {
	// Entries is the number of files with live cached state.
	Entries int
	// Blocks is the number of resident data blocks.
	Blocks int
	// BlockBytes is the bytes held by resident blocks.
	BlockBytes int64
	// Hits counts reads served from resident blocks.
	Hits int64
	// Misses counts reads that had to fetch from origin first.
	Misses int64
	// OpenHits counts opens satisfied without any origin frame.
	OpenHits int64
	// OpenMisses counts opens that resolved through origin.
	OpenMisses int64
	// LocHits counts location answers from the edge cache.
	LocHits int64
	// LocMisses counts location answers that walked to origin.
	LocMisses int64
	// OriginBytes is the data volume pulled from origin servers.
	OriginBytes int64
	// OriginOpens counts opens issued to origin data servers.
	OriginOpens int64
	// OriginLocates counts locate walks to the origin managers.
	OriginLocates int64
	// BytesServed is the data volume sent downstream.
	BytesServed int64
	// EvictedLRU counts blocks evicted for capacity.
	EvictedLRU int64
	// ExpiredWindow counts blocks expired by lifetime window sweeps.
	ExpiredWindow int64
	// Invalidated counts entries dropped as stale.
	Invalidated int64
}

// HitRate is the block-read hit ratio in [0, 1], or 0 before any read.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// OriginOffload is the fraction of served data bytes that did NOT have
// to be pulled from origin, in [0, 1]. A cold cache offloads nothing;
// a steady-state edge should approach its hit rate.
func (s Stats) OriginOffload() float64 {
	if s.BytesServed == 0 {
		return 0
	}
	off := 1 - float64(s.OriginBytes)/float64(s.BytesServed)
	if off < 0 {
		return 0
	}
	return off
}

// Stats snapshots the proxy's counters.
func (p *Proxy) Stats() Stats {
	p.bmu.Lock()
	entries := len(p.entries)
	blocks := p.nblocks
	bytes := p.blockBytes
	p.bmu.Unlock()
	return Stats{
		Entries:       entries,
		Blocks:        blocks,
		BlockBytes:    bytes,
		Hits:          p.st.hits.Load(),
		Misses:        p.st.misses.Load(),
		OpenHits:      p.st.openHits.Load(),
		OpenMisses:    p.st.openMisses.Load(),
		LocHits:       p.st.locHits.Load(),
		LocMisses:     p.st.locMisses.Load(),
		OriginBytes:   p.st.originBytes.Load(),
		OriginOpens:   p.st.originOpens.Load(),
		OriginLocates: p.st.originLocates.Load(),
		BytesServed:   p.st.bytesServed.Load(),
		EvictedLRU:    p.st.evictedLRU.Load(),
		ExpiredWindow: p.st.expiredWindow.Load(),
		Invalidated:   p.st.invalidated.Load(),
	}
}

// Frame assembles the proxy's summary-monitoring frame: the pcache
// section, the underlying location-cache section (same shape as a
// manager's, per-shard entries included), and transport counters when
// running over a counting network.
func (p *Proxy) Frame() obs.Frame {
	f := obs.Frame{Node: p.cfg.Name, Role: "pcache"}
	s := p.Stats()
	f.PCache = &obs.PCacheSummary{
		Entries:       s.Entries,
		Blocks:        s.Blocks,
		BlockBytes:    s.BlockBytes,
		Hits:          s.Hits,
		Misses:        s.Misses,
		OpenHits:      s.OpenHits,
		OpenMiss:      s.OpenMisses,
		LocHits:       s.LocHits,
		LocMisses:     s.LocMisses,
		OriginBytes:   s.OriginBytes,
		OriginOpens:   s.OriginOpens,
		OriginLocates: s.OriginLocates,
		BytesServed:   s.BytesServed,
		EvictedLRU:    s.EvictedLRU,
		ExpiredWindow: s.ExpiredWindow,
		Invalidated:   s.Invalidated,
	}
	f.Cache = p.loc.Summary()
	f.Sched = p.face.Sched().Summary()
	f.Net, f.Wire = transport.Summaries(p.cfg.Net)
	return f
}

// Tracer returns the proxy's event tracer (enable it to record spans).
func (p *Proxy) Tracer() *obs.Tracer { return p.cfg.Tracer }

// AdminHandler returns the proxy's admin/status endpoint serving
// /statusz, /metricsz, and /tracez.
func (p *Proxy) AdminHandler() http.Handler {
	return obs.NewHandler(obs.AdminState{Collect: p.Frame, Tracer: p.cfg.Tracer})
}
