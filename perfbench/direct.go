package main

import (
	"fmt"
	"time"

	"scalla/internal/bitvec"
	"scalla/internal/cmsd"
	"scalla/internal/mux"
	"scalla/internal/proto"
)

// Direct calls into single layers, made by the traced run after its
// measured phases. Each times the layer's public function on live state
// with nothing else in the way.

// batchNS runs fn n times per batch over several batches and returns
// the median of the per-call means, in nanoseconds: calls this short
// are below the clock's useful resolution one by one.
func batchNS(batches, n int, fn func(i int)) float64 {
	means := make([]float64, 0, batches)
	k := 0
	for range batches {
		t0 := time.Now()
		for range n {
			fn(k)
			k++
		}
		means = append(means, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(means)
}

// marshalNS is the mean cost of framing the three messages of a hot
// open: the Open request, the Redirect reply and a 4 KiB Data header.
func marshalNS(path string) float64 {
	open := proto.Open{Path: path}
	redirect := proto.Redirect{Addr: "127.0.0.1:40001", CtlAddr: "127.0.0.1:40002"}
	return batchNS(7, 30000, func(i int) {
		switch i % 3 {
		case 0:
			proto.MarshalFrameStream(open, uint32(i)).Release()
		case 1:
			proto.MarshalFrameStream(redirect, uint32(i)).Release()
		default:
			f, _ := proto.StartDataFrame(uint32(i), 7, 4096)
			f.FinishData(4096, false)
			f.Release()
		}
	})
}

// fetchNS is the mean cost of a location-cache Fetch on the manager's
// live cache, over the given paths.
func fetchNS(core *cmsd.Core, paths []string) float64 {
	vms := make([]bitvec.Vec, len(paths))
	for i, p := range paths {
		vms[i] = core.Table().VmFor(p)
	}
	offline := core.Table().OfflineVec()
	c := core.Cache()
	return batchNS(7, 20000, func(i int) {
		j := i % len(paths)
		c.Fetch(paths[j], vms[j], offline)
	})
}

// resolveUS times Core.Resolve of already-located paths one call at a
// time and returns the median in microseconds.
func resolveUS(core *cmsd.Core, paths []string) (float64, error) {
	var s samples
	for i := range 5000 {
		p := paths[i%len(paths)]
		t0 := time.Now()
		out := core.Resolve(cmsd.Request{Path: p})
		s = append(s, time.Since(t0))
		if out.Kind != cmsd.KindRedirect {
			return 0, fmt.Errorf("direct resolve of %s: outcome %v, want a redirect", p, out.Kind)
		}
	}
	return us(s.quantile(0.5)), nil
}

// muxCallUS times lock-step mux calls of a 512-byte Read on its own
// connection to the server holding path, and checks every reply.
func (b *bench) muxCallUS(f file) (float64, error) {
	mc, err := mux.Dial(b.clientNet, b.t.srvs[f.srv].DataAddr(), mux.Options{})
	if err != nil {
		return 0, err
	}
	defer mc.Close()
	reply, err := mc.Call(proto.Open{Path: f.path}, 5*time.Second)
	if err != nil {
		return 0, err
	}
	ok, isOK := reply.(proto.OpenOK)
	if !isOK {
		return 0, fmt.Errorf("direct open of %s: reply %T", f.path, reply)
	}
	defer mc.Call(proto.Close{FH: ok.FH}, 5*time.Second)
	n := min(512, f.size)
	var s samples
	for range 3000 {
		t0 := time.Now()
		reply, err := mc.Call(proto.Read{FH: ok.FH, N: uint32(n)}, 5*time.Second)
		s = append(s, time.Since(t0))
		if err != nil {
			return 0, err
		}
		data, isData := reply.(proto.Data)
		if !isData {
			return 0, fmt.Errorf("direct read of %s: reply %T", f.path, reply)
		}
		if err := checkPattern(f.path, data.Bytes[:n], f.ph, b.cfg.seed, 0); err != nil {
			return 0, err
		}
	}
	return us(s.quantile(0.5)), nil
}

// storeUS times 64 KiB ReadAtInto and WriteAt calls on one server's
// store, on a scratch file of its own, and returns both medians in
// microseconds. Written chunks are read back and checked.
func (b *bench) storeUS() (readUS, writeUS float64, err error) {
	const chunk, size = 64 << 10, 4 << 20
	st := b.t.stores[0]
	path := fmt.Sprintf("/perfbench/direct/%d", b.cfg.seed)
	ph := pathHash(path)
	if err := st.Put(path, pattern(ph, b.cfg.seed, 0, size)); err != nil {
		return 0, 0, err
	}
	defer st.Unlink(path)
	buf := make([]byte, chunk)
	var rs, ws samples
	for i := range 600 {
		off := int64(i%(size/chunk)) * chunk
		t0 := time.Now()
		n, _, err := st.ReadAtInto(path, off, buf)
		rs = append(rs, time.Since(t0))
		if err != nil {
			return 0, 0, err
		}
		if err := checkPattern(path, buf[:n], ph, b.cfg.seed, off); err != nil {
			return 0, 0, err
		}
		t0 = time.Now()
		if _, err := st.WriteAt(path, off, buf[:n]); err != nil {
			return 0, 0, err
		}
		ws = append(ws, time.Since(t0))
	}
	return us(rs.quantile(0.5)), us(ws.quantile(0.5)), nil
}
