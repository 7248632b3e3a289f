package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// endToEnd lists the metrics an untraced run prints, in the order
// BENCHMARK.json names them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"open_p50_us", "us"},
	{"open_p90_us", "us"},
	{"read_p90_us", "us"},
	{"read_MBps", "MB/s"},
	{"ops_s", "1/s"},
	{"goodput_ops_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics a traced run prints, in the
// order BENCHMARK.json names them.
var perLayer = []struct{ name, unit, better string }{
	{"client.self_us", "us", "lower"},
	{"client.hops_per_open", "count", "lower"},
	{"mux.call_us", "us", "lower"},
	{"mux.shed", "count", "lower"},
	{"mux.max_queued_data", "count", "lower"},
	{"transport.wire_us", "us", "lower"},
	{"transport.frames_per_writev", "count", "higher"},
	{"transport.frames_per_read", "count", "higher"},
	{"transport.frames_per_op", "count", "lower"},
	{"transport.bytes_per_op", "bytes", "lower"},
	{"proto.marshal_ns", "ns", "lower"},
	{"cmsd.mgr_us", "us", "lower"},
	{"cmsd.sup_us", "us", "lower"},
	{"cmsd.resolve_us", "us", "lower"},
	{"cmsd.queries_per_cold_open", "count", "lower"},
	{"cmsd.haves_per_cold_open", "count", "lower"},
	{"cmsd.wait_verdicts", "count", "lower"},
	{"cmsd.warm_absent", "count", "lower"},
	{"cache.hit_ratio_mgr", "ratio", "higher"},
	{"cache.hit_ratio_sup", "ratio", "higher"},
	{"cache.fetch_ns", "ns", "lower"},
	{"cache.inserts", "count", "lower"},
	{"cache.resizes", "count", "lower"},
	{"respq.joins_per_entry", "ratio", "higher"},
	{"respq.expired", "count", "lower"},
	{"respq.max_in_use", "count", "lower"},
	{"xrd.open_us", "us", "lower"},
	{"xrd.read_us", "us", "lower"},
	{"store.readinto_us", "us", "lower"},
	{"store.writeat_us", "us", "lower"},
	{"store.fsyncs", "count", "lower"},
	{"store.fsync_mean_us", "us", "lower"},
	{"store.dirty_bytes_max", "bytes", "lower"},
	{"pcache.hit_ratio", "ratio", "higher"},
	{"pcache.origin_offload", "ratio", "higher"},
	{"pcache.evicted_lru", "count", "lower"},
	{"pcache.origin_opens_per_op", "ratio", "lower"},
	{"runtime.alloc_bytes_per_op", "bytes", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"bench.open_p99_us", "us", "lower"},
	{"bench.read_p99_us", "us", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.error_rate", "ratio", "lower"},
	{"bench.write_MBps", "MB/s", "higher"},
	{"bench.stalled_ops", "count", "lower"},
}

// traceMeta is what the run metadata records about the traced phase.
type traceMeta struct {
	Events      int                `json:"frames_logged"`
	Dropped     int64              `json:"frames_dropped"`
	OpsMatched  int                `json:"opens_decomposed"`
	Ambiguous   int                `json:"opens_skipped_overlapping"`
	OpenP50US   float64            `json:"open_p50_us"`
	SelfP50US   float64            `json:"client_self_p50_us"`
	HopP50US    map[string]float64 `json:"hop_rtt_p50_us"`
	ResidP50US  map[string]float64 `json:"residence_p50_us"`
	BudgetUS    float64            `json:"self_plus_hops_p50_us"`
	SpanFile    string             `json:"span_file"`
	Timings     map[string]summary `json:"timings"`
	DirectCalls map[string]float64 `json:"direct_calls"`
}

// tracedPhase runs the workload again with frame logging on, breaks
// its opens down into client time and hops, and times direct calls
// into single layers. It fills the timing entries of layer.
func (b *bench) tracedPhase(untraced jobStats, layer map[string]float64, meta *runMeta) (jobStats, error) {
	b.rec.start(traceCapacity)
	ab := &abort{}
	perJob, _, _ := b.spec.phase(b, 1, b.cfg.seconds, ab)
	st := mergeJobs(perJob)
	b.rec.stop()
	if ab.err != nil {
		return st, ab.err
	}
	events, dropped := b.rec.recorded()
	hops, res := pairEvents(events)
	roles := make(map[uint16]string)
	b.rec.mu.Lock()
	for i, a := range b.rec.addrs {
		roles[uint16(i)] = b.t.roles[a]
	}
	b.rec.mu.Unlock()
	bud := analyze(hops, res, st.spans, roles)

	p50 := func(s samples) float64 { return us(s.quantile(0.5)) }
	layer["client.self_us"] = p50(bud.self)
	hopSum := 0
	for _, n := range bud.hopsPerOp {
		hopSum += n
	}
	layer["client.hops_per_open"] = ratio(float64(hopSum), float64(len(bud.hopsPerOp)))
	layer["transport.wire_us"] = p50(bud.wire)
	layer["cmsd.mgr_us"] = p50(bud.residence[roleManager])
	layer["cmsd.sup_us"] = p50(bud.residence[roleSupervisor])
	layer["xrd.open_us"] = p50(bud.residence[roleServer+"/Open"])
	layer["xrd.read_us"] = p50(bud.residence[roleServer+"/Read"])
	base, traced := untraced.open.quantile(0.5), st.open.quantile(0.5)
	layer["bench.trace_overhead_pct"] = 100 * ratio(float64(traced-base), float64(base))

	tm := &traceMeta{Events: len(events), Dropped: dropped, OpsMatched: bud.opsMatched,
		Ambiguous: bud.ambiguous, OpenP50US: us(traced), SelfP50US: p50(bud.self),
		HopP50US: map[string]float64{}, ResidP50US: map[string]float64{},
		Timings: map[string]summary{"open": st.open.summary(), "read": st.read.summary(),
			"client_self": bud.self.summary(), "wire": bud.wire.summary()},
		DirectCalls: map[string]float64{}}
	tm.BudgetUS = tm.SelfP50US
	for role, s := range bud.hopRTT {
		tm.HopP50US[role] = p50(s)
		tm.BudgetUS += p50(s)
	}
	for name, s := range bud.residence {
		tm.ResidP50US[name] = p50(s)
	}
	meta.Traced = tm

	if err := b.directCalls(layer); err != nil {
		return st, err
	}
	for _, name := range []string{"mux.call_us", "proto.marshal_ns", "cmsd.resolve_us",
		"cache.fetch_ns", "store.readinto_us", "store.writeat_us"} {
		tm.DirectCalls[name] = layer[name]
	}
	// One file per workload, overwritten by its next traced run, so the
	// scratch space stays bounded however many runs are made.
	tm.SpanFile = filepath.Join(b.cfg.scratch, "spans-"+b.spec.name+".jsonl")
	return st, writeSpans(tm.SpanFile, st.spans, hops, roles)
}

// directCalls times each layer's public function on the live cluster.
func (b *bench) directCalls(layer map[string]float64) error {
	paths := b.locatedPaths()
	layer["proto.marshal_ns"] = marshalNS(paths[0])
	core := b.t.mgr.Core()
	layer["cache.fetch_ns"] = fetchNS(core, paths)
	var err error
	if layer["cmsd.resolve_us"], err = resolveUS(core, paths); err != nil {
		return err
	}
	if layer["mux.call_us"], err = b.muxCallUS(b.files[0]); err != nil {
		return err
	}
	layer["store.readinto_us"], layer["store.writeat_us"], err = b.storeUS()
	return err
}

// locatedPaths returns paths the manager has already located.
func (b *bench) locatedPaths() []string {
	var out []string
	if b.spec == coldResolve {
		for _, i := range b.coldSeen[0] {
			out = append(out, b.files[i].path)
		}
		return out
	}
	for _, f := range b.files {
		out = append(out, f.path)
	}
	return out
}

// writeSpans writes the traced opens and every hop as JSON lines, once
// the run has ended. Times are microseconds on the recorder clock.
func writeSpans(path string, ops []opSpan, hops []hop, roles map[uint16]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, op := range ops {
		enc.Encode(map[string]any{"span": "open", "key": op.key, "start_us": float64(op.t0) / 1e3, "end_us": float64(op.t1) / 1e3})
	}
	for _, h := range hops {
		enc.Encode(map[string]any{"span": "hop", "to": roles[h.ep], "kind": h.kind, "key": h.key, "client": h.client,
			"start_us": float64(h.ts) / 1e3, "end_us": float64(h.tr) / 1e3, "residence_us": float64(h.res) / 1e3})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var s syscall.Statfs_t
	if err := syscall.Statfs(dir, &s); err != nil {
		return "unknown"
	}
	switch uint64(s.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(s.Type))
}
