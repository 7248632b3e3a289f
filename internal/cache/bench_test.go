package cache

import (
	"fmt"
	"sync/atomic"
	"testing"

	"scalla/internal/bitvec"
	"scalla/internal/vclock"
)

func benchCache(buckets int64) *Cache {
	return New(Config{InitialBuckets: buckets, SyncSweep: true, Clock: vclock.NewFake()})
}

func benchName(i int) string {
	return fmt.Sprintf("/store/data/Run2012A/AOD/%04d/F%08d.root", i%1000, i)
}

func BenchmarkAdd(b *testing.B) {
	c := benchCache(17711)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(benchName(i), bitvec.Full, 0)
	}
}

func BenchmarkFetchHit(b *testing.B) {
	c := benchCache(17711)
	const n = 200_000
	for i := 0; i < n; i++ {
		c.Add(benchName(i), bitvec.Full, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fetch(benchName(i%n), bitvec.Full, 0)
	}
}

func BenchmarkFetchMiss(b *testing.B) {
	c := benchCache(17711)
	for i := 0; i < 100_000; i++ {
		c.Add(benchName(i), bitvec.Full, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fetch(fmt.Sprintf("/absent/%d", i), bitvec.Full, 0)
	}
}

func BenchmarkUpdate(b *testing.B) {
	c := benchCache(17711)
	const n = 100_000
	refs := make([]Ref, n)
	for i := 0; i < n; i++ {
		refs[i], _, _ = c.Add(benchName(i), bitvec.Full, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := refs[i%n]
		c.Update(r.Name(), r.Hash(), i%64, false, false)
	}
}

func BenchmarkRefreshDeferred(b *testing.B) {
	c := benchCache(17711)
	const n = 50_000
	refs := make([]Ref, n)
	for i := 0; i < n; i++ {
		refs[i], _, _ = c.Add(benchName(i), bitvec.Full, 0)
	}
	c.Tick()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Refresh(refs[i%n], bitvec.Full, -1)
	}
}

func BenchmarkClaimQuery(b *testing.B) {
	c := benchCache(17711)
	ref, _, _ := c.Add("/f", bitvec.Full, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ClaimQuery(ref)
	}
}

func BenchmarkCorrectionMemoHit(b *testing.B) {
	c := benchCache(17711)
	const n = 100_000
	for i := 0; i < n; i++ {
		ref, _, _ := c.Add(benchName(i), bitvec.Full, 0)
		c.Update(benchName(i), ref.Hash(), i%32, false, false)
	}
	c.ServerConnected(40) // stale everything
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fetch(benchName(i%n), bitvec.Full, 0)
	}
}

// BenchmarkParallelFetch measures cached look-ups under concurrent load
// with names pre-generated outside the timed loop, so the figure is pure
// Fetch cost. Run with -cpu 1,4,8 to see how resolve throughput scales
// with cores; this is the headline number for the lock-striped cache
// (EXPERIMENTS.md records the before/after table).
func BenchmarkParallelFetch(b *testing.B) {
	c := benchCache(17711)
	const n = 100_000
	names := make([]string, n)
	for i := range names {
		names[i] = benchName(i)
		c.Add(names[i], bitvec.Full, 0)
	}
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Distinct prime-strided start offsets keep workers from
		// marching over the same keys (and shards) in lockstep.
		i := int(seq.Add(1)) * 7919
		for pb.Next() {
			c.Fetch(names[i%n], bitvec.Full, 0)
			i++
		}
	})
}
