package transport

import (
	"sync/atomic"

	"scalla/internal/obs"
)

// batchBuckets is the number of frames-per-writev histogram buckets:
// 1, 2, 3-4, 5-8, 9-16, 17-32, 33-64, 65+.
const batchBuckets = 8

// WireStats counts the kernel-boundary work of a TCPNet: how many
// frames and bytes crossed per writev batch and per read syscall, and
// why each flush happened. All counters are atomics; connections of one
// network share a single block, so the numbers describe the process's
// whole wire footprint on that network.
type WireStats struct {
	writevs        atomic.Int64
	framesOut      atomic.Int64
	bytesOut       atomic.Int64
	idleFlushes    atomic.Int64
	backlogFlushes atomic.Int64
	batchHist      [batchBuckets]atomic.Int64
	readCalls      atomic.Int64
	framesIn       atomic.Int64
	bytesIn        atomic.Int64
}

// batchBucket maps a batch size (frames per writev) to its histogram
// bucket.
func batchBucket(frames int) int {
	b := 0
	for n := 1; n < frames && b < batchBuckets-1; n *= 2 {
		b++
	}
	return b
}

// recordFlush accounts one writev batch: n frames, total bytes, and
// whether the flush was triggered by an idle wire (the leader wrote
// immediately) or by a backlog drained behind an in-flight write.
func (s *WireStats) recordFlush(frames int, bytes int, backlog bool) {
	if s == nil {
		return
	}
	s.writevs.Add(1)
	s.framesOut.Add(int64(frames))
	s.bytesOut.Add(int64(bytes))
	if backlog {
		s.backlogFlushes.Add(1)
	} else {
		s.idleFlushes.Add(1)
	}
	s.batchHist[batchBucket(frames)].Add(1)
}

// recordRead accounts one read syscall of n bytes.
func (s *WireStats) recordRead(n int) {
	if s == nil || n <= 0 {
		return
	}
	s.readCalls.Add(1)
	s.bytesIn.Add(int64(n))
}

// recordFrameIn accounts one frame decoded off the receive buffer.
func (s *WireStats) recordFrameIn() {
	if s == nil {
		return
	}
	s.framesIn.Add(1)
}

// Snapshot captures the counters.
func (s *WireStats) Snapshot() WireSnapshot {
	var out WireSnapshot
	out.Writevs = s.writevs.Load()
	out.FramesOut = s.framesOut.Load()
	out.BytesOut = s.bytesOut.Load()
	out.IdleFlushes = s.idleFlushes.Load()
	out.BacklogFlushes = s.backlogFlushes.Load()
	for i := range s.batchHist {
		out.BatchHist[i] = s.batchHist[i].Load()
	}
	out.ReadCalls = s.readCalls.Load()
	out.FramesIn = s.framesIn.Load()
	out.BytesIn = s.bytesIn.Load()
	return out
}

// WireSnapshot is a point-in-time copy of a network's WireStats, the
// unit the obs summary frames and the bench harness report.
type WireSnapshot struct {
	// Writevs counts vectored write syscalls (one per flush batch).
	Writevs int64
	// FramesOut and BytesOut count frames and wire bytes (including the
	// 4-byte length prefixes) sent across all batches.
	FramesOut int64
	// BytesOut counts sent wire bytes.
	BytesOut int64
	// IdleFlushes counts batches written immediately because the wire
	// was idle — the group-commit guarantee that lock-step latency is
	// never delayed.
	IdleFlushes int64
	// BacklogFlushes counts batches that accumulated behind an
	// in-flight write and drained in one writev — the coalescing win.
	BacklogFlushes int64
	// BatchHist buckets flushes by frames per writev:
	// 1, 2, 3-4, 5-8, 9-16, 17-32, 33-64, 65+.
	BatchHist [batchBuckets]int64
	// ReadCalls counts read syscalls on the receive side.
	ReadCalls int64
	// FramesIn counts frames decoded off the buffered receive path.
	FramesIn int64
	// BytesIn counts received wire bytes.
	BytesIn int64
}

// Sub returns the counter deltas since base, for interval reporting.
func (w WireSnapshot) Sub(base WireSnapshot) WireSnapshot {
	out := WireSnapshot{
		Writevs:        w.Writevs - base.Writevs,
		FramesOut:      w.FramesOut - base.FramesOut,
		BytesOut:       w.BytesOut - base.BytesOut,
		IdleFlushes:    w.IdleFlushes - base.IdleFlushes,
		BacklogFlushes: w.BacklogFlushes - base.BacklogFlushes,
		ReadCalls:      w.ReadCalls - base.ReadCalls,
		FramesIn:       w.FramesIn - base.FramesIn,
		BytesIn:        w.BytesIn - base.BytesIn,
	}
	for i := range w.BatchHist {
		out.BatchHist[i] = w.BatchHist[i] - base.BatchHist[i]
	}
	return out
}

// MeanBatch returns the mean frames per writev, or 0 before any flush.
func (w WireSnapshot) MeanBatch() float64 {
	if w.Writevs == 0 {
		return 0
	}
	return float64(w.FramesOut) / float64(w.Writevs)
}

// MeanFramesPerRead returns the mean frames per read syscall, or 0
// before any read.
func (w WireSnapshot) MeanFramesPerRead() float64 {
	if w.ReadCalls == 0 {
		return 0
	}
	return float64(w.FramesIn) / float64(w.ReadCalls)
}

// Summary renders the snapshot as the obs summary-frame section, for
// daemons assembling their monitoring frames. It returns nil when the
// wire has carried nothing, so idle sections stay out of the stream.
func (w WireSnapshot) Summary() *obs.WireSummary {
	if w.Writevs == 0 && w.ReadCalls == 0 {
		return nil
	}
	hist := make([]int64, batchBuckets)
	copy(hist, w.BatchHist[:])
	return &obs.WireSummary{
		Writevs:         w.Writevs,
		FramesOut:       w.FramesOut,
		BytesOut:        w.BytesOut,
		IdleFlushes:     w.IdleFlushes,
		BacklogFlushes:  w.BacklogFlushes,
		FramesPerWritev: w.MeanBatch(),
		BatchHist:       hist,
		ReadCalls:       w.ReadCalls,
		FramesIn:        w.FramesIn,
		BytesIn:         w.BytesIn,
		FramesPerRead:   w.MeanFramesPerRead(),
	}
}

// WireOf returns the wire batching counters of the TCPNet at the root
// of net, unwrapping counting layers; ok is false when net is not
// TCP-backed (the in-process network has no kernel boundary to count).
func WireOf(net Network) (WireSnapshot, bool) {
	for {
		switch n := net.(type) {
		case *TCPNet:
			return n.Wire(), true
		case interface{ Unwrap() Network }:
			net = n.Unwrap()
		default:
			return WireSnapshot{}, false
		}
	}
}

// Summaries renders the transport sections of a daemon's summary frame:
// frame and byte totals when net is a CountingNetwork, wire batching
// when it is TCP-backed. Either is nil when net cannot report it.
func Summaries(net Network) (*obs.NetSummary, *obs.WireSummary) {
	var ns *obs.NetSummary
	if cn, ok := net.(*CountingNetwork); ok {
		s := cn.Stats()
		ns = &obs.NetSummary{FramesSent: s.FramesSent, BytesSent: s.BytesSent, Dials: s.Dials}
	}
	var ws *obs.WireSummary
	if w, ok := WireOf(net); ok {
		ws = w.Summary()
	}
	return ns, ws
}
