// Benchmarks for every experiment in DESIGN.md plus micro-benchmarks
// that need more than one package.
//
// The BenchmarkE* entries wrap the experiment harness at quick scale —
// each iteration regenerates that experiment's table (printed once with
// -v). cmd/scalla-bench runs the same experiments at full scale with
// formatted output. The Benchmark{Cache,Locate}* entries are
// conventional hot-path micro-benchmarks with allocation counts; the
// cache's plain add/fetch and the wire codec are benchmarked in their
// own packages (internal/cache, internal/proto).
package scalla_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"scalla"
	"scalla/internal/bitvec"
	"scalla/internal/cache"
	"scalla/internal/experiments"
	"scalla/internal/vclock"
)

// ------------------------------------------------------ experiments --

func benchExperiment(b *testing.B, fn func(experiments.Scale) experiments.Table) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab := fn(experiments.Scale{Quick: true})
		if f := tab.Failures(); len(f) > 0 {
			b.Fatalf("%s: %v", tab.ID, f)
		}
		if i == 0 {
			b.Logf("\n%s", tab)
		}
	}
}

func BenchmarkE1TreeLevelLatency(b *testing.B)  { benchExperiment(b, experiments.E1TreeLatency) }
func BenchmarkE2UncachedLookup(b *testing.B)    { benchExperiment(b, experiments.E2UncachedLookup) }
func BenchmarkE3LoadSlope(b *testing.B)         { benchExperiment(b, experiments.E3LoadSlope) }
func BenchmarkE4FibVsPow2(b *testing.B)         { benchExperiment(b, experiments.E4FibVsPow2) }
func BenchmarkE5LookupResize(b *testing.B)      { benchExperiment(b, experiments.E5LookupResize) }
func BenchmarkE6MemoryEquilibrium(b *testing.B) { benchExperiment(b, experiments.E6MemoryEquilibrium) }
func BenchmarkE7Eviction(b *testing.B)          { benchExperiment(b, experiments.E7Eviction) }
func BenchmarkE8Correction(b *testing.B)        { benchExperiment(b, experiments.E8Correction) }
func BenchmarkE9FastResponse(b *testing.B)      { benchExperiment(b, experiments.E9FastResponse) }
func BenchmarkE10RarelyRespond(b *testing.B)    { benchExperiment(b, experiments.E10RarelyRespond) }
func BenchmarkE11Prepare(b *testing.B)          { benchExperiment(b, experiments.E11Prepare) }
func BenchmarkE12Rechain(b *testing.B)          { benchExperiment(b, experiments.E12Rechain) }
func BenchmarkE13Deadline(b *testing.B)         { benchExperiment(b, experiments.E13Deadline) }
func BenchmarkE14Registration(b *testing.B)     { benchExperiment(b, experiments.E14Registration) }
func BenchmarkE15Refresh(b *testing.B)          { benchExperiment(b, experiments.E15RefreshRecovery) }
func BenchmarkE16Qserv(b *testing.B)            { benchExperiment(b, experiments.E16Qserv) }
func BenchmarkE17ScaleSweep(b *testing.B)       { benchExperiment(b, experiments.E17ScaleSweep) }
func BenchmarkE18FanoutAblation(b *testing.B)   { benchExperiment(b, experiments.E18FanoutAblation) }
func BenchmarkE19Throughput(b *testing.B)       { benchExperiment(b, experiments.E19Throughput) }
func BenchmarkE20Selection(b *testing.B)        { benchExperiment(b, experiments.E20SelectionPolicies) }
func BenchmarkE22Surge(b *testing.B)            { benchExperiment(b, experiments.E22Surge) }
func BenchmarkE23DepthScaling(b *testing.B)     { benchExperiment(b, experiments.E23DepthScaling) }

// ----------------------------------------------------- cache micros --

func benchCache() *cache.Cache {
	return cache.New(cache.Config{
		InitialBuckets: 17711,
		SyncSweep:      true,
		Clock:          vclock.NewFake(),
	})
}

func benchName(i int) string {
	return fmt.Sprintf("/store/data/Run2012A/AOD/%04d/F%08d.root", i%1000, i)
}

// BenchmarkCacheFetchCorrected measures a fetch that must apply the
// Figure-3 correction (memoized per window).
func BenchmarkCacheFetchCorrected(b *testing.B) {
	c := benchCache()
	const n = 100_000
	for i := 0; i < n; i++ {
		ref, _, _ := c.Add(benchName(i), bitvec.Full, 0)
		c.Update(benchName(i), ref.Hash(), i%32, false, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			// Invalidate every object's epoch once per pass.
			c.ServerConnected(i / n % 64)
		}
		c.Fetch(benchName(i%n), bitvec.Full, 0)
	}
}

// BenchmarkCacheTick measures one eviction window tick (hide one
// window + synchronous sweep) at a steady-state population.
func BenchmarkCacheTick(b *testing.B) {
	c := benchCache()
	const perWindow = 2000
	id := 0
	for w := 0; w < cache.Windows; w++ {
		for k := 0; k < perWindow; k++ {
			c.Add(benchName(id), bitvec.Full, 0)
			id++
		}
		c.Tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < perWindow; k++ { // refill the expired window
			c.Add(benchName(id), bitvec.Full, 0)
			id++
		}
		b.StartTimer()
		c.Tick()
	}
}

// ---------------------------------------------------- cluster micros --

// BenchmarkLocateCached measures an end-to-end cached resolution through
// one redirector over the in-process transport.
func BenchmarkLocateCached(b *testing.B) {
	cl, err := scalla.StartCluster(scalla.Options{
		Servers:    8,
		FullDelay:  250 * time.Millisecond,
		FastPeriod: 25 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Stop()
	c := cl.NewClient()
	defer c.Close()
	const nFiles = 64
	paths := make([]string, nFiles)
	for i := range paths {
		paths[i] = fmt.Sprintf("/store/bench/f%03d", i)
		cl.Store(i%8).Put(paths[i], []byte("x"))
		if _, err := c.Locate(paths[i], false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Locate(paths[i%nFiles], false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocateCachedParallel is the same resolution under concurrent
// clients — the workload behind the paper's low-slope load claim.
func BenchmarkLocateCachedParallel(b *testing.B) {
	cl, err := scalla.StartCluster(scalla.Options{
		Servers:    8,
		FullDelay:  250 * time.Millisecond,
		FastPeriod: 25 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Stop()
	const nFiles = 64
	paths := make([]string, nFiles)
	warm := cl.NewClient()
	for i := range paths {
		paths[i] = fmt.Sprintf("/store/bench/f%03d", i)
		cl.Store(i%8).Put(paths[i], []byte("x"))
		warm.Locate(paths[i], false)
	}
	warm.Close()
	b.ReportAllocs()

	var mu sync.Mutex
	clients := map[*scalla.Client]bool{}
	defer func() {
		for c := range clients {
			c.Close()
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := cl.NewClient()
		mu.Lock()
		clients[c] = true
		mu.Unlock()
		i := 0
		for pb.Next() {
			c.Locate(paths[i%nFiles], false)
			i++
		}
	})
}

// BenchmarkOpenReadClose measures a full data-plane round trip: open,
// read 4 KiB, close. "walk" resolves every open from the manager: a
// Relocate outside the timer drops the client's location lease and
// refreshes the manager's cache first. "lease" reopens the same path,
// so every open after the first goes straight to the data server.
func BenchmarkOpenReadClose(b *testing.B) {
	cl, err := scalla.StartCluster(scalla.Options{
		Servers:    4,
		FullDelay:  250 * time.Millisecond,
		FastPeriod: 25 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Stop()
	const path = "/bench/blob"
	cl.Store(1).Put(path, make([]byte, 4096))
	for _, walk := range []bool{true, false} {
		name := "lease"
		if walk {
			name = "walk"
		}
		b.Run(name, func(b *testing.B) {
			c := cl.NewClient()
			defer c.Close()
			if _, err := c.Locate(path, false); err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if walk {
					b.StopTimer()
					if _, err := c.Relocate(path, false, ""); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				f, err := c.Open(path)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := f.ReadAt(buf, 0); err != nil && err.Error() != "EOF" {
					b.Fatal(err)
				}
				f.Close()
			}
			b.StopTimer()
			if ls := c.LeaseStats(); walk && ls.Hits != 0 || !walk && ls.Hits < int64(b.N-1) {
				b.Fatalf("%s case: LeaseStats %+v", name, ls)
			}
		})
	}
}
