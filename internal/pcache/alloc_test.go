package pcache

import (
	"bytes"
	"runtime"
	"testing"

	"scalla/internal/mux"
	"scalla/internal/proto"
)

// allocRig builds a proxy over a live origin with one fully cached
// 256 KiB file, then measures the hit path alone — the downstream
// network is bypassed exactly as in the xrd read-path alloc test.
func allocRig(tb testing.TB) (*Proxy, *phandle, uint64) {
	tb.Helper()
	o := startOrigin(tb, 1)
	data := payload(42, 256<<10)
	if err := o.stores[0].Put("/big", data); err != nil {
		tb.Fatal(err)
	}
	p := New(Config{
		Net:     o.net,
		Addr:    "edge:data",
		Origins: []string{o.mgr.DataAddr()},
	})
	tb.Cleanup(p.Close)
	// Bind a read handle and make every block resident without a
	// downstream connection: drive dispatch directly.
	h, fh := openHandle(tb, p, mux.NewHandles[*phandle](&p.fhs), "/big")
	for off := int64(0); off < int64(len(data)); off += int64(p.cfg.BlockSize) {
		if msg := p.fill(h, proto.Read{FH: fh, Off: off, N: uint32(p.cfg.BlockSize)}); msg != nil {
			tb.Fatalf("fill at %d: %#v", off, msg)
		}
	}
	return p, h, fh
}

// openHandle opens path for reading on table fhs, bypassing the
// downstream network, and returns the bound handle.
func openHandle(tb testing.TB, p *Proxy, fhs *handles, path string) (*phandle, uint64) {
	tb.Helper()
	reply := p.open(fhs, proto.Open{Path: path})
	ok, isOK := reply.(proto.OpenOK)
	if !isOK {
		tb.Fatalf("open %s: %#v", path, reply)
	}
	h, _ := fhs.Lookup(ok.FH)
	return h, ok.FH
}

// TestProxyHitPathAllocsNothing pins the proxy's block-cache hit path:
// after the frame pool warms up, serving a 64 KiB cached read must
// allocate nothing — the block bytes are copied once into a pooled
// frame under the cache lock, the same single-copy discipline as the
// xrd read path (DESIGN.md §9).
func TestProxyHitPathAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops pooled frames at random; the un-raced run is the gate")
	}
	p, h, fh := allocRig(t)
	read := proto.Read{FH: fh, Off: 0, N: 64 << 10}
	// Warm the frame pool outside the measurement.
	if f, _, ok := p.readFrame(h, read, 7); !ok {
		t.Fatal("warmup read missed the cache")
	} else {
		f.Release()
	}
	avg := testing.AllocsPerRun(100, func() {
		f, _, ok := p.readFrame(h, read, 7)
		if !ok {
			t.Fatal("read missed the cache")
		}
		f.Release()
	})
	if avg != 0 {
		t.Fatalf("hit path allocates %.1f objects per 64 KiB read, want 0", avg)
	}
}

// TestProxyFillAdoptsFrame pins the proxy's miss path: a block fill
// adopts the origin's pooled reply frame instead of copying it into a
// fresh buffer, and an evicted block returns its frame to the pool, so
// a steady stream of misses recycles frames rather than handing them
// to the garbage collector. The cache holds one block and fills fetch
// only the missing one, so every fill below misses and evicts the block
// before it. Copying fills allocate over 128 KiB each.
func TestProxyFillAdoptsFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops pooled frames at random; the un-raced run is the gate")
	}
	const blocks = 4
	o := startOrigin(t, 1)
	data := payload(43, blocks*DefaultBlockSize)
	if err := o.stores[0].Put("/miss", data); err != nil {
		t.Fatal(err)
	}
	p := New(Config{
		Net:             o.net,
		Addr:            "edge:data",
		Origins:         []string{o.mgr.DataAddr()},
		CacheBytes:      DefaultBlockSize,
		OriginReadahead: 1,
	})
	t.Cleanup(p.Close)
	h, fh := openHandle(t, p, mux.NewHandles[*phandle](&p.fhs), "/miss")
	bs := int64(p.cfg.BlockSize)
	fillAndRead := func(i int) []byte {
		read := proto.Read{FH: fh, Off: int64(i%blocks) * bs, N: uint32(bs)}
		if msg := p.fill(h, read); msg != nil {
			t.Fatalf("fill at %d: %#v", read.Off, msg)
		}
		f, n, ok := p.readFrame(h, read, 7)
		if !ok || n != int(bs) {
			t.Fatalf("fill at %d left no resident block (ok=%v n=%d)", read.Off, ok, n)
		}
		defer f.Release()
		m, err := proto.Unmarshal(f.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return m.(proto.Data).Bytes
	}
	// Warm the frame pool and the origin session, checking the bytes.
	for i := 0; i < 2*blocks; i++ {
		off := int64(i%blocks) * bs
		if got := fillAndRead(i); !bytes.Equal(got, data[off:off+bs]) {
			t.Fatalf("block at %d served wrong bytes", off)
		}
	}
	const fills = 256
	evicted := p.Stats().EvictedLRU
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < fills; i++ {
		fillAndRead(i)
	}
	runtime.ReadMemStats(&after)
	if got := p.Stats().EvictedLRU - evicted; got != fills {
		t.Fatalf("%d of %d fills evicted a block; the rig must miss every time", got, fills)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / fills; per > 4<<10 {
		t.Fatalf("a miss fill allocates %d B; want <= 4 KiB (the block adopts the reply frame)", per)
	}
}

// BenchmarkProxyReadHit measures the cached-read frame build for a
// 64 KiB hit; ReportAllocs documents the 0 allocs/op claim in CI bench
// runs alongside the xrd read path.
func BenchmarkProxyReadHit(b *testing.B) {
	p, h, fh := allocRig(b)
	read := proto.Read{FH: fh, Off: 0, N: 64 << 10}
	b.ReportAllocs()
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _, ok := p.readFrame(h, read, 7)
		if !ok {
			b.Fatal("read missed the cache")
		}
		f.Release()
	}
}
